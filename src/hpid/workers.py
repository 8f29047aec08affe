"""A map over forked worker processes, one per usable core.

fork_map(fn, items) is [fn(x) for x in items], spread over the cores
os.sched_getaffinity grants with no setting.  The CLI's simulate and
compare make their runs' joint groups through it in one call, each group
the scenario of its joints (cli._map_runs);
stability.lyapunov_decrease_check solves its canonical norms through it.
Every result and every exception is the one a serial loop gives: the
values come back in items' order and the exception raised is the first in
that order.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable, Sequence

__all__ = ["fork_map", "usable_cores"]


def usable_cores() -> int:
    """The workers fork_map makes for enough items: the cores os.sched_getaffinity grants, or 1 with other threads."""
    if threading.active_count() != 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _share(fn, items) -> tuple[list, Exception | None]:
    """fn over items in order until one raises: (the values, that exception or None)."""
    values = []
    try:
        for x in items:
            values.append(fn(x))
    except Exception as exc:
        return values, exc
    return values, None


def _pickled(share) -> bytes:
    """A worker's share as the bytes it sends; what would not load again becomes a RuntimeError naming it."""
    values, exc = share
    try:
        data = pickle.dumps(share)
        pickle.loads(data)
        return data
    except Exception as err:
        what = f"{type(exc).__name__}: {exc}" if exc is not None else f"a result that does not pickle ({err})"
        return pickle.dumps(([], RuntimeError(f"worker process returned {what}")))


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], spread over the usable cores.

    n = min(len(items), usable cores) workers: this process takes items
    0::n, and for k in 1..n-1 a child made by os.fork() takes items k::n and
    sends back its values, or its exception, pickled through a pipe.  A
    child reads fn and items from its copy of this process, so only results
    are pickled, and a numpy array's items[k::n] is a view, not a copy.  Every
    pipe is read and every child reaped before this returns or raises.  The
    exception raised is the one a serial loop would raise, the first in
    items' order.  fn's output must go to files or its return value: a
    child prints nothing.  A process with other threads, which fork would
    not copy, runs every item itself.
    """
    n = max(1, min(len(items), usable_cores()))
    shares, children = [], []  # shares[k] is worker k's (values, exception)
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(_pickled(_share(fn, items[k::n])))
                finally:
                    os._exit(0)  # no cleanup or buffer flush of the parent's
            os.close(write)
            children.append((pid, read))
        shares.append(_share(fn, items[0::n]))
    finally:
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            lost = RuntimeError(f"worker process ended without a result (exit code {code})")
            shares.append(pickle.loads(data) if data else ([], lost))
    # worker k's values stop at its first exception, item k + n * len(values)
    failures = [(k + n * len(values), exc) for k, (values, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (values, _) in enumerate(shares):
        results[k::n] = values
    return results
