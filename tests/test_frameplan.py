"""Tests for padding and window-plan geometry."""

import math
import random
import re
import sys

import pytest

from slt_toolkit.corpus import CorpusError
from slt_toolkit.frameplan import (
    MAX_FRAME_COUNT,
    plan_manifest,
    plan_padding,
    plan_windows,
)


def test_default_padding_arithmetic():
    padded_w, padded_h, scale_x, scale_y = plan_padding(1000, 1000)
    assert (padded_w, padded_h) == (1400, 1150)
    assert scale_x == pytest.approx(224 / 1400)
    assert scale_y == pytest.approx(224 / 1150)


def _fraction_padding(w, h):
    """The padding as the fractions 0.20 + 0.20 and 0.075 + 0.075 and the
    224 box give it, rounded half away from zero; OverflowError past the
    float range."""
    padded_w = math.floor(w * (1.0 + 0.20 + 0.20) + 0.5)
    padded_h = math.floor(h * (1.0 + 0.075 + 0.075) + 0.5)
    return padded_w, padded_h, 224 / padded_w, 224 / padded_h


def test_padding_matches_the_fraction_formula():
    rng = random.Random(15)
    sizes = [*range(1, 5001),
             *(rng.randrange(1, 10 ** 12) for _ in range(2000)),
             *(10 ** k + d for k in range(4, 310) for d in (-1, 1))]
    # Both sides of the "too large" bound of each axis.
    for factor in (1.4, 1.15):
        edge = sys.float_info.max / factor
        sizes += [int(math.nextafter(edge, 0)), int(edge),
                  int(math.nextafter(edge, math.inf))]
    for size in sizes:
        for w, h in ((size, size), (size, 1), (1, size)):
            try:
                expected = _fraction_padding(w, h)
            except OverflowError:
                with pytest.raises(ValueError, match="too large"):
                    plan_padding(w, h)
            else:
                assert plan_padding(w, h) == expected, (w, h)


def test_matching_target_gives_unit_scale():
    # 160 * 1.4 = 224; 195 * 1.15 = 224.25 -> 224
    assert plan_padding(160, 195) == (224, 224, 1.0, 1.0)


def test_padding_rounds_half_away_from_zero():
    # 25 * 1.15 = 28.75 -> 29; 2 * 1.15 = 2.3 -> 2
    assert plan_padding(10, 25)[1] == 29
    assert plan_padding(10, 2)[1] == 2


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        plan_padding(0, 100)
    with pytest.raises(ValueError):
        plan_padding(100, -1)


@pytest.mark.parametrize("args, field", [
    ((True,), "frame_count"),
    ((3.5,), "frame_count"),
    ((None,), "frame_count"),
    ((100, True, 2), "width"),
    ((100, 1920.0, 1080), "width"),
    ((100, 1920, "1080"), "height"),
    ((-1, 2.0, 2), "width"),  # types are checked before values
])
def test_plan_windows_checks_field_types(args, field):
    """A plan built in code obeys the manifest's typed fields: an int frame
    count and int or absent dimensions, never a boolean or a float."""
    with pytest.raises(ValueError,
                       match=f"^field '{field}' must be an integer$"):
        plan_windows(*args)


def test_dimensions_padded_beyond_float_range():
    with pytest.raises(ValueError, match="too large"):
        plan_padding(10 ** 400, 100)
    with pytest.raises(ValueError, match="too large"):
        plan_windows(40, width=100, height=int(1.7e308))


def test_plan_manifest_plans_each_line(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"a","frame_count":80,"width":10,"height":10}'
                        '\n\n{"id":"b","frame_count":0,"fps":25}\n',
                        encoding="utf-8")
    assert plan_manifest(manifest) == [
        ("a", plan_windows(80, width=10, height=10)),
        ("b", plan_windows(0))]


def test_plan_manifest_error_names_file_and_line(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"a","frame_count":1}\n'
                        '{"id":"b","frame_count":1,"width":0,"height":5}\n',
                        encoding="utf-8")
    with pytest.raises(CorpusError,
                       match=f"^{re.escape(str(manifest))}: line 2: frame "):
        plan_manifest(manifest)


@pytest.mark.parametrize("lines, message", [
    (['{"id":"a","frame_count":1}', '{"id":"","frame_count":1}'],
     "line 2: clip id must be nonempty"),
    (['{"id":"a","frame_count":40}', "", '{"id":"b","frame_count":40}',
      '{"id":"a","frame_count":80}'], "duplicate id 'a' (lines 1 and 4)"),
], ids=["empty", "repeated"])
def test_plan_manifest_ids_obey_the_corpus_id_rule(tmp_path, lines, message):
    """Manifest ids are nonempty and unique, as corpus ids are; a repeat
    names both lines, blank lines counted."""
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
    with pytest.raises(CorpusError, match="^" + re.escape(
            f"{manifest}: {message}") + "$"):
        plan_manifest(manifest)


def test_single_window():
    plan = plan_windows(64)
    assert plan.window_starts == (0,)
    assert plan.tail_padding == 0


def test_three_windows_at_80_frames():
    plan = plan_windows(80)
    assert plan.window_starts == (0, 8, 16)
    assert plan.tail_padding == 0


def test_short_clip_padded():
    plan = plan_windows(40)
    assert plan.window_starts == (0,)
    assert plan.tail_padding == 24


def test_empty_clip():
    plan = plan_windows(0)
    assert plan.window_starts == ()
    assert plan.tail_padding == 0


def test_frame_count_bound():
    # Checked first: the invalid geometry below is never reached.
    with pytest.raises(ValueError, match=f"<= {MAX_FRAME_COUNT}$"):
        plan_windows(MAX_FRAME_COUNT + 1, width=0, height=0)
    assert MAX_FRAME_COUNT == 10_000_000


def test_negative_frame_count_is_an_error():
    with pytest.raises(ValueError, match="^frame_count must be >= 0$"):
        plan_windows(-1)


def test_starts_match_exhaustive_enumeration():
    for frames in range(0, 501):
        plan = plan_windows(frames)
        if frames >= 64:
            expected = [s for s in range(0, frames, 8) if s + 64 <= frames]
            assert list(plan.window_starts) == expected, frames
            assert len(plan.window_starts) == (frames - 64) // 8 + 1
            assert plan.tail_padding == 0
        elif frames > 0:
            assert plan.window_starts == (0,)
            assert plan.tail_padding == 64 - frames
        else:
            assert plan.window_starts == ()
        # every window fits within the (possibly padded) clip
        for start in plan.window_starts:
            assert start + 64 <= frames + plan.tail_padding


def test_each_frame_is_in_a_window_or_uncovered():
    for frames in range(0, 401):
        plan = plan_windows(frames)
        covered = {i for start in plan.window_starts
                   for i in range(start, min(start + 64, frames))}
        uncovered = set(range(frames - plan.uncovered_frames, frames))
        assert covered | uncovered == set(range(frames)), frames
        assert not covered & uncovered, frames


def test_window_count_monotone_in_frame_count():
    previous = -1
    for frames in range(0, 300):
        count = len(plan_windows(frames).window_starts)
        assert count >= previous
        previous = count


def test_plan_carries_geometry_when_dims_given():
    plan = plan_windows(80, width=1000, height=1000)
    assert (plan.padded_w, plan.padded_h) == (1400, 1150)
    assert plan.to_dict()["feature_dim"] == 1024


@pytest.mark.parametrize("dims", [{"width": 640}, {"height": 480}],
                         ids=["width-only", "height-only"])
def test_half_geometry_is_an_error(dims):
    with pytest.raises(ValueError,
                       match="^width and height must be given together$"):
        plan_windows(100, **dims)

