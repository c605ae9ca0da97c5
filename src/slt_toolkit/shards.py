"""One function over contiguous shards of a list, in forked processes.

``forked_map`` is the toolkit's only parallel path: scoring (``metrics``)
and the line-by-line ``itn`` and ``normalize`` commands call it, and each
imports this module only when it runs, so start-up never compiles it.
README.md says when a command shards.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# A unit is one line of `itn` or `normalize`, or one segment x hypothesis
# set x view of scoring; a shard gets at least this many. Measured on 2
# vCPUs (Linux 6.18, CPython 3.11), two shards against one: scoring 500
# units each took 6.0 against 9.0 ms and 125 each 2.3 against 2.1 ms;
# `itn` 500 lines each 4.1 against 4.8 ms and 300 each 3.0 against 2.9 ms;
# `normalize` 500 lines each 5.9 against 8.0 ms and 200 each 3.2 against
# 3.2 ms. A fork, pipe and waitpid cost about 0.9 ms.
_MIN_SHARD_WORK = 500


def _shard_count(work: int) -> int:
    """How many processes share ``work`` units: one per usable CPU, at most
    one per ``_MIN_SHARD_WORK``, and one where forking is unavailable or
    unsafe (another thread is running, which the child would not have)."""
    if not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, work // _MIN_SHARD_WORK))


def forked_map(func: Callable[[list], T], items: Sequence,
               weight: int = 1) -> list[T]:
    """``[func(shard) for shard in shards]``, where the shards cut ``items``
    into ``_shard_count(len(items) * weight)`` contiguous pieces. The first
    shard is computed here and each other one in a forked child that sends
    ``marshal.dumps(func(shard))`` through its own pipe, so results must be
    marshallable. A shard whose child cannot get a pipe or a process, fails
    or sends what does not load is computed here too, so the results never
    depend on a child. Every child is reaped, and if this process raises,
    every child not yet reaped is killed first."""
    k = _shard_count(len(items) * weight)
    cuts = [len(items) * i // k for i in range(k + 1)]
    shards = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    results: list = [None] * k
    here = [0]  # the shards computed in this process
    reads = []  # the read end of every pipe, closed on the way out
    children = {}  # pid -> (read end, shard index) until the child is reaped
    try:
        for i in range(1, k):
            try:
                read, write = os.pipe()
            except OSError:  # no descriptor to spare
                here.append(i)
                continue
            reads.append(read)
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(write)
                here.append(i)
                continue
            if pid == 0:
                _send(func, shards[i], write)
            os.close(write)
            children[pid] = (read, i)
        for i in here:
            results[i] = func(shards[i])
        for pid, (read, i) in [*children.items()]:
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status == 0:
                try:
                    results[i] = marshal.loads(data)
                    continue
                except (EOFError, ValueError, TypeError):
                    pass
            results[i] = func(shards[i])
    except BaseException:
        from signal import SIGKILL
        for pid in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for read in reads:
            os.close(read)
        for pid in children:
            os.waitpid(pid, 0)
    return results


def _send(func: Callable, shard: list, write: int):
    """The body of a forked child: write the shard's marshalled result to
    the pipe and exit, 0 once all is written and 1 on any exception, without
    returning into the caller's stack or running its clean-up."""
    code = 1
    try:
        data = memoryview(marshal.dumps(func(shard)))
        while data:
            data = data[os.write(write, data):]
        code = 0
    finally:
        os._exit(code)
