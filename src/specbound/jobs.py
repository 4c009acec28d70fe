"""Running jobs on every CPU: `harness` runs a sweep's chunks and
`verify`'s checks with `run_jobs`, and `bounds` a large pair's eigensolves
and SVDs."""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Callable, Sequence

from .errors import SpecboundError

# One unit of work: fn(*args).
Job = tuple[Callable[..., Any], tuple]

# True in a worker process, where `run_jobs` runs in-process: a job that
# calls it again forks no grandchildren.
_in_worker = False


def _cpus() -> int:
    """CPUs this process may run on; 1 off Linux, which runs jobs in-process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _worker(conn, jobs: Sequence[Job]) -> None:
    """Run the jobs whose indices arrive on `conn` and send back (exception,
    result) for each. The jobs come with the fork, so only indices and
    results cross the pipe. Ctrl-C is the parent's to handle."""
    import signal

    global _in_worker
    _in_worker = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        fn, args = jobs[conn.recv()]
        try:
            conn.send((None, fn(*args)))
        except Exception as exc:
            conn.send((exc, None))


def run_jobs(jobs: Sequence[Job]) -> list:
    """[fn(*args) for fn, args in jobs], with the jobs spread over
    `fork`-started worker processes, one per CPU of the process's affinity
    set. With one CPU (`taskset -c 0`), off Linux, with other threads
    running or in a worker they run in-process, where a failing job also
    shows its whole traceback.

    Jobs start from the end of the list, so callers put their longest jobs
    last. Results are pickled back and keep the jobs' order. A job that
    raises re-raises here with its type and message; when several do, the
    first in list order wins, as in-process. Every worker has exited when
    this returns or raises.
    """
    workers = min(_cpus(), len(jobs))
    # A fork copies only this thread, so a lock another thread holds would
    # stay held in the workers. Fork, not spawn: a spawned worker would
    # import numpy and this package again, with cold series caches.
    if workers <= 1 or _in_worker or threading.active_count() > 1:
        return [fn(*args) for fn, args in jobs]
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    todo = list(range(len(jobs)))
    done, busy, procs, conns = {}, {}, [], []
    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            procs.append(ctx.Process(target=_worker, args=(child_conn, jobs)))
            procs[-1].start()
            child_conn.close()
            conns.append(conn)
        idle = conns
        while todo or busy:
            for conn in idle[:len(todo)]:
                busy[conn] = todo.pop()
                conn.send(busy[conn])
            idle = wait(list(busy))
            for conn in idle:
                try:
                    done[busy.pop(conn)] = conn.recv()
                except EOFError:  # an OOM kill or a signal, say
                    proc = procs[conns.index(conn)]
                    proc.join()
                    raise SpecboundError(
                        f"a worker process died with exit code {proc.exitcode}") from None
    finally:
        # Idle workers wait for an index that never comes; after an error
        # here, busy ones run jobs whose results no one reads.
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    outcomes = [done[i] for i in range(len(jobs))]
    for exc, _ in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result in outcomes]
