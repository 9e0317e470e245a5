"""The package's one worker pool.

Per-aspect propagation tasks (`propagation`) and the row blocks of
`model.impacts_for_pairs` run on it. Each caller cuts its work into tasks
whose arithmetic does not depend on which thread runs them or in what
order, so the results are byte-identical to a loop on the calling thread;
numpy releases the interpreter lock inside take, bincount, argsort, the
ufuncs, the reductions and BLAS products, so the tasks overlap.

The pool is made on first use, with one worker per CPU the process may use,
and a forked child starts without it. `each` runs its tasks on the calling
thread when the caller says the work is too small to pool, when there is
only one task, or when the process may use one CPU.

No task may submit to the pool or wait on it: with as many workers as
tasks waiting, the inner wait would never end (with 2 workers, two such
tasks deadlock the pool).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_executor = None
_executor_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_pool() -> ThreadPoolExecutor:
    """The thread pool, created on first use with one worker per usable CPU."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=_usable_cpus(), thread_name_prefix="aspectcite-pool")
        return _executor


def _forget_pool() -> None:
    """In a forked child the parent's workers do not exist: start over with no pool."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def each(task, count: int, pooled: bool) -> list:
    """[task(0), ..., task(count - 1)], on the pool when `pooled`, count >= 2
    and the process may use more than one CPU, else on the calling thread.

    On the pool every task finishes before the first exception is raised;
    the calling thread stops at the first one. `task` must not use the pool.
    """
    if not pooled or count < 2 or _usable_cpus() < 2:
        return [task(i) for i in range(count)]
    executor = _worker_pool()
    futures = [executor.submit(task, i) for i in range(count)]
    wait(futures)
    return [future.result() for future in futures]
