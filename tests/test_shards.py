"""Tests for ``shards.forked_map``: its results equal a serial map for any
shard count, a shard whose child fails is computed by the parent, and no
child outlives a call."""

import contextlib
import errno
import marshal
import os
import threading
import time
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from slt_toolkit import shards
from slt_toolkit.shards import forked_map


def _forced(k):
    """Force ``k`` shards, which small inputs do not get on their own."""
    return patch.object(shards, "_shard_count", lambda work: k)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _upper(shard):
    return [line.upper() for line in shard]


LINES = [f"zeile {i} " * (i % 4) for i in range(31)]
# The three shards of LINES, computed serially.
SERIAL = [_upper(LINES[:10]), _upper(LINES[10:20]), _upper(LINES[20:])]


def _fails_after_first(original, error):
    """``original`` for the first call, then ``error`` on every call."""
    calls = []

    def call(*args):
        calls.append(args)
        if len(calls) > 1:
            raise error
        return original(*args)
    return call


@pytest.mark.parametrize("failure",
                         ["raise", "truncate", "no fork", "no pipe"])
def test_failed_child_shard_is_scored_here(failure):
    """A child that raises, whose data does not load, or that cannot get a
    process or a pipe has its shard computed by the parent. The fork and
    pipe failures start from the second shard, so one child still runs."""
    parent = os.getpid()

    def func(shard):
        if failure == "raise" and os.getpid() != parent:
            raise RuntimeError("child fails")
        return _upper(shard)

    short = SimpleNamespace(dumps=lambda value: marshal.dumps(value)[:-1],
                            loads=marshal.loads)
    no_fork = _fails_after_first(os.fork,
                                 BlockingIOError("no process to spare"))
    no_pipe = _fails_after_first(
        os.pipe, OSError(errno.EMFILE, "Too many open files"))
    failures = {"raise": contextlib.nullcontext(),
                "truncate": patch.object(shards, "marshal", short),
                "no fork": patch.object(os, "fork", no_fork),
                "no pipe": patch.object(os, "pipe", no_pipe)}
    with _forced(3), failures[failure]:
        assert forked_map(func, LINES) == SERIAL
    _no_child_left()


def test_parent_error_kills_and_reaps_children():
    parent = os.getpid()

    def stuck(shard):
        if os.getpid() != parent:
            time.sleep(60)
            return shard
        raise KeyboardInterrupt

    start = time.monotonic()
    with _forced(3), pytest.raises(KeyboardInterrupt):
        forked_map(stuck, LINES)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_shard_count_follows_cpus_and_work(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    least = shards._MIN_SHARD_WORK
    assert [shards._shard_count(w) for w in
            (0, least - 1, least, 2 * least, 10 ** 9)] == [1, 1, 1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shards._shard_count(10 ** 9) == 1
    monkeypatch.delattr(os, "fork")
    assert shards._shard_count(10 ** 9) == 1


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(shards, "_MIN_SHARD_WORK", 1)
    assert shards._shard_count(10 ** 9) == 3

    def fork():
        raise AssertionError("forked beside a running thread")

    monkeypatch.setattr(os, "fork", fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert shards._shard_count(10 ** 9) == 1
        assert forked_map(_upper, LINES) == [_upper(LINES)]
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


_LINE = st.text(st.one_of(st.characters(),
                          st.sampled_from([" ", "\u2028", "\U0001F600"])),
                max_size=6)


def _mark(line):
    return f"<{line[::-1]}>"


@settings(max_examples=60, deadline=None)
@given(st.lists(_LINE, max_size=12), st.integers(1, 4))
@example(["\u2028"], 4)
@example(["", "", "\U00010348"], 3)
def test_forked_map_concatenates_to_the_serial_map(lines, k):
    with _forced(k):
        parts = forked_map(lambda shard: [*map(_mark, shard)], lines)
    assert len(parts) == k
    assert [line for part in parts for line in part] == [*map(_mark, lines)]
    _no_child_left()
