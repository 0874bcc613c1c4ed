"""Independent parts in forked worker processes, one per available CPU, with
the results and the failure of the serial loop."""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(fn, parts: list, write: int) -> None:
    """Child side: send the results or the first exception, then leave without
    running exit handlers, finally blocks or stdio flushes."""
    try:
        try:
            payload = pickle.dumps((True, [fn(part) for part in parts]))
        except BaseException as exc:
            payload = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def fork_map(fn, parts) -> list:
    """``[fn(part) for part in parts]``, the parts cut into contiguous runs, one
    per available CPU: the caller runs the first, a forked child each other.
    The lowest failing part's exception is raised, as in the serial loop; a
    child that ends without a result raises RuntimeError. Serial on one CPU,
    without ``os.fork`` or beside other Python threads."""
    parts = list(parts)
    workers = min(cpu_count(), len(parts))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(part) for part in parts]
    cuts = [len(parts) * k // workers for k in range(workers + 1)]
    children, payloads, statuses = [], [], []  # (pid, read end) per child
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns about the idle OpenBLAS pool threads: OpenBLAS
                # stops them in its pthread_atfork handler, and no Python thread runs.
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _serve(fn, parts[a:b], write)
            os.close(write)
            children.append((pid, read))
        results = [fn(part) for part in parts[: cuts[1]]]
        for _, read in children:  # to EOF before reaping: a child blocks on a full pipe
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if len(payloads) < len(children):  # the caller's run or a read raised: that propagates
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        try:
            ok, value = pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"a worker process ended without a result (exit status {code})") from None
        if not ok:
            raise value
        results += value
    return results
