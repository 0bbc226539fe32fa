"""One map that runs jobs on the CPUs of the affinity mask, one forked
process per CPU, each pinned to its own CPU.

Scaling suites map their cells through it, a process's cells at once
(``fork_shares``), and ``walks`` maps the shares of a batch of walks. A
map called from inside a share sees the one CPU its process is pinned to
and runs in that process, so nested maps never fork.
"""
from __future__ import annotations

import os
import pickle
import signal
from typing import Callable


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _outcome(fn: Callable, job: tuple) -> tuple[bool, object]:
    try:
        return True, fn(*job)
    except Exception as exc:
        return False, exc


def fork_map(fn: Callable, jobs: list[tuple]) -> list[tuple[bool, object]]:
    """``(True, fn(*job))`` or ``(False, its exception)`` for each job, in
    order, the jobs spread over processes as ``fork_shares`` spreads them."""
    return fork_shares(lambda share: [_outcome(fn, job) for job in share], jobs)


def fork_shares(run: Callable, jobs: list) -> list:
    """The outcomes of every job, in order, where ``run(jobs[w::W])`` gives
    those of the jobs of process w, one outcome per job, and W = min(usable
    CPUs, len(jobs)). The parent runs share 0 and forks W - 1 children that
    pickle theirs to a pipe each and leave by ``os._exit``. Process w is
    pinned to CPU ``cpus[w % len(cpus)]`` of the affinity mask while it runs
    its share (a fork starts on its parent's CPU, and unpinned shares of a
    short map share it); the parent's mask is restored after its share. The
    fork is safe though numpy's OpenBLAS may hold a thread pool: OpenBLAS
    stops it in a ``pthread_atfork`` handler, and the children run only
    package code. A child that dies, raises or writes nothing raises
    ``RuntimeError`` naming its exit status; children left when the parent
    unwinds are killed and reaped."""
    workers = max(1, min(usable_cpus(), len(jobs)))
    if workers == 1:
        return run(jobs)
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    outcomes: list = [None] * len(jobs)
    children = {}  # pid -> (share index, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                    with os.fdopen(write_fd, "wb") as out:
                        out.write(pickle.dumps(run(jobs[w::workers])))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[pid] = (w, os.fdopen(read_fd, "rb"))
        os.sched_setaffinity(0, {cpus[0]})
        try:
            outcomes[0::workers] = run(jobs[0::workers])
        finally:
            os.sched_setaffinity(0, mask)
        for pid, (w, pipe) in list(children.items()):
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if status != 0 or not data:
                raise RuntimeError(f"worker {w} exited with status {status} "
                                   f"after writing {len(data)} bytes")
            outcomes[w::workers] = pickle.loads(data)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes
