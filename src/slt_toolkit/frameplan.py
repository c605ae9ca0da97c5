"""Deterministic geometry for the two feature-extraction front ends.

Full-body windows have the fixed geometry of the I3D extractor: 64 frames
with stride 8 over 224x224 input after gray padding (20% left/right, 7.5%
top/bottom), 1024 dims per window. Mouth features are one 768-dim vector
per frame over 96x96 crops, so a mouth sequence is as long as its clip and
needs no plan. No pixels are touched here; the plans are emitted as data
for downstream extractors. ``plan_windows`` checks the types of its
arguments as a manifest line's fields, so a plan built in code obeys the
rules of one read from a file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .corpus import check_unique_ids, json_object, parse_lines


# Gray padding as factors of the frame: 20% left and right, 7.5% top and
# bottom; the padded frame is then scaled to the square target box.
_PAD_X = 1.0 + 0.20 + 0.20
_PAD_Y = 1.0 + 0.075 + 0.075
_TARGET = 224
_WINDOW = 64
_STRIDE = 8
FULL_BODY_FEATURE_DIM = 1024
# Above this a frame count is taken as a data error: about 111 h at 25 fps,
# and at most 1.25 M window starts at stride 8.
MAX_FRAME_COUNT = 10_000_000


class WindowPlan(NamedTuple):
    padded_w: int
    padded_h: int
    scale_x: float
    scale_y: float
    window_starts: tuple[int, ...]
    tail_padding: int
    uncovered_frames: int  # trailing frames past the last full window

    def to_dict(self) -> dict:
        return self._asdict() | {"window_starts": list(self.window_starts),
                                 "feature_dim": FULL_BODY_FEATURE_DIM}


def plan_padding(w: int, h: int) -> tuple[int, int, float, float]:
    """Padded dimensions and the scale mapping them to the target box."""
    if w <= 0 or h <= 0:
        raise ValueError("frame dimensions must be positive")
    try:
        # Half away from zero: w and h are positive.
        padded_w = math.floor(w * _PAD_X + 0.5)
        padded_h = math.floor(h * _PAD_Y + 0.5)
    except OverflowError:  # padded beyond the float range
        raise ValueError("frame dimensions are too large") from None
    return padded_w, padded_h, _TARGET / padded_w, _TARGET / padded_h


def plan_windows(frame_count: int, width: int | None = None,
                 height: int | None = None) -> WindowPlan:
    """Window start indices over a frame count.

    Clips shorter than one window get a single window with last-frame
    repetition padding; empty clips get an empty plan. Longer clips get
    every full window, and the frames after the last one are counted as
    uncovered. When width and height are given, padding geometry is
    filled in; when neither is, the plan carries the target box with unit
    scale; one without the other is an error. ``frame_count`` is an int
    and ``width`` and ``height`` are ints or None, never booleans.
    """
    if type(frame_count) is not int:  # type(True) is bool, not int
        raise ValueError("field 'frame_count' must be an integer")
    if width is not None and type(width) is not int:
        raise ValueError("field 'width' must be an integer")
    if height is not None and type(height) is not int:
        raise ValueError("field 'height' must be an integer")
    if frame_count < 0:
        raise ValueError("frame_count must be >= 0")
    if frame_count > MAX_FRAME_COUNT:
        raise ValueError(f"frame_count must be <= {MAX_FRAME_COUNT}")
    if (width is None) != (height is None):
        raise ValueError("width and height must be given together")
    if width is None:
        padded_w, padded_h, scale_x, scale_y = _TARGET, _TARGET, 1.0, 1.0
    else:
        padded_w, padded_h, scale_x, scale_y = plan_padding(width, height)
    tail = uncovered = 0
    if frame_count == 0:
        starts: tuple[int, ...] = ()
    elif frame_count < _WINDOW:
        starts = (0,)
        tail = _WINDOW - frame_count
    else:
        starts = tuple(range(0, frame_count - _WINDOW + 1, _STRIDE))
        uncovered = frame_count - (starts[-1] + _WINDOW)
    return WindowPlan(padded_w, padded_h, scale_x, scale_y, starts, tail,
                      uncovered)


def plan_manifest(path: str | Path) -> list[tuple[str, WindowPlan]]:
    """(id, plan) per JSONL manifest line; errors name the file and line.
    Ids are nonempty and unique, as in a corpus."""
    def parse(line: str) -> tuple[str, WindowPlan]:
        obj = json_object(line)
        if type(id := obj.get("id")) is not str:
            raise ValueError("field 'id' must be a string")
        if not id:
            raise ValueError("clip id must be nonempty")
        # A global looked up per call: a wrapper set on the module sees it.
        return id, plan_windows(obj.get("frame_count"), obj.get("width"),
                                obj.get("height"))
    parsed = parse_lines(path, parse)
    check_unique_ids(path, ((lineno, id) for lineno, (id, _) in parsed))
    return [plan for _, plan in parsed]
