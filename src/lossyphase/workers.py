"""Independent parts dealt to forked worker processes, one per available CPU,
with the results and the failure of the serial loop."""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_map(fn, parts) -> list:
    """``[fn(part) for part in parts]``, the parts dealt round-robin, one hand
    per available CPU, so costly parts that lie together in the list spread
    evenly: the caller plays the first hand, a forked child each other. Each
    hand maps its parts in order and stops at its first failing part; the
    lowest failing part's exception is raised, as in the serial loop. Any
    other exception a child meets, such as a result it cannot pickle, is
    raised as it is; a child that ends without a result raises RuntimeError.
    One hand, in the caller, on one CPU, without ``os.fork`` or beside other
    Python threads."""
    parts = list(parts)
    serial = not hasattr(os, "fork") or threading.active_count() > 1
    hands = 1 if serial else max(min(cpu_count(), len(parts)), 1)

    def play(hand: int):  # the results, or the failure keyed by its part's index
        results = []
        try:
            for part in parts[hand::hands]:
                results.append(fn(part))
        except Exception as exc:
            return None, (hand + hands * len(results), exc)
        return results, None

    children, payloads, statuses = [], [], []  # (pid, read end) per child
    try:
        for hand in range(1, hands):
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns about idle OpenBLAS pool threads: OpenBLAS stops them in its
                # pthread_atfork handler, and no Python thread runs. CLI processes start no pool unless
                # the user sets a thread count, so the warning concerns callers that imported numpy
                # before lossyphase.cli, such as tests and library use.
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # send the hand or any exception, then leave without exit handlers, finally blocks or flushes
                try:
                    try:
                        payload = pickle.dumps((True, play(hand)))
                    except BaseException as exc:
                        payload = pickle.dumps((False, exc))
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        played = [play(0)]
        for _, read in children:  # to EOF before reaping: a child blocks on a full pipe
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if len(payloads) < len(children):  # the caller's hand or a read raised: that propagates
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
        played.append(value)
    failures = [failure for _, failure in played if failure is not None]
    if failures:
        raise min(failures)[1]  # the keys differ, so no two exceptions are compared
    results = [None] * len(parts)
    for hand, (dealt, _) in enumerate(played):
        results[hand::hands] = dealt
    return results
