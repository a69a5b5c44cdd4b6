"""Nothing the benchmark starts outlives it.

The server forks pool workers; if the server dies without joining them
they block on their call queue for ever and would serve the next run.
So this process makes itself the *subreaper* of its descendants
(orphans are re-parented to it, not to init), starts the server in a
process group of its own, and after the server has exited waits for
whatever is left of that group, killing what does not end by itself.
On the way out of a run it stops every child it still has.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans():
    """Orphaned descendants become children of this process (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children(pid):
    """Pids of the live and zombie children of ``pid``."""
    out = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return out


def _reap(selector):
    """Wait for every child ``selector`` names (``os.waitpid`` argument);
    the pids that ended."""
    ended = []
    while True:
        try:
            pid, _ = os.waitpid(selector, 0)
        except ChildProcessError:
            return ended
        ended.append(pid)


def stop_group(pgid, grace_s=2.0):
    """Wait for what is left of a process group whose leader has been
    waited for.  Needs :func:`adopt_orphans`.

    A pool worker's resource tracker ends by itself a moment after the
    worker, so members get ``grace_s`` to do that; whatever is left is
    killed.  Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return []
        if pid == 0:
            time.sleep(0.01)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return []
    return _reap(-pgid)


def stop_children():
    """Stop every child this process still has and wait for each."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        # It ignores SIGTERM; closing its pipe lets it unlink what this
        # process registered and exit, and _stop() waits for it.
        try:
            tracker._stop()
        except (OSError, ChildProcessError):
            pass
    ended = []
    while True:
        # A killed child's own children are re-parented here before its
        # wait returns, so go round until none is left.
        left = children(os.getpid())
        if not left:
            return ended
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        ended.extend(left)
