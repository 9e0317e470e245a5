"""The package's one worker pool: where tasks run and how errors come back."""

import os
import subprocess
import sys
import threading

import pytest

from aspectcite import pool


def thread_names(count, pooled):
    return pool.each(lambda i: threading.current_thread().name, count, pooled)


class TestWorkerPool:
    def test_pooled_work_runs_on_the_pool(self):
        on_pool = pool._usable_cpus() > 1
        names = thread_names(4, pooled=True)
        assert all(name.startswith("aspectcite-pool") == on_pool for name in names), names
        caller = threading.current_thread().name
        assert thread_names(4, pooled=False) == [caller] * 4
        assert thread_names(1, pooled=True) == [caller]
        assert thread_names(0, pooled=True) == []

    def test_results_keep_task_order(self):
        assert pool.each(lambda i: i * i, 9, pooled=True) == [i * i for i in range(9)]

    def test_every_task_finishes_before_an_error_is_raised(self):
        finished = []

        def task(i):
            if i == 0:
                raise ValueError("task 0 failed")
            finished.append(i)

        with pytest.raises(ValueError, match="task 0 failed"):
            pool.each(task, 5, pooled=True)
        # the calling thread stops at the first error
        assert sorted(finished) == ([1, 2, 3, 4] if pool._usable_cpus() > 1 else [])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_process_runs_on_the_calling_thread(self):
        # pooled propagation and a multi-block impacts_for_pairs call alike
        code = (
            "import os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from aspectcite import Dims, ModelParams, build_transition, model, pool, propagation\n"
            "names = pool.each(lambda i: threading.current_thread().name, 4, pooled=True)\n"
            "assert names == ['MainThread'] * 4, names\n"
            "n = propagation.POOLED_NODES\n"
            "build_transition([(0, 1), (2, 1)], [[1.0, 0.0], [0.0, 1.0]], n)\n"
            "params = ModelParams.initialize(Dims(aspects=2, text_dim=3, struct_dim=2), n, np.random.default_rng(0))\n"
            "pairs = np.stack([np.arange(n), np.arange(n)[::-1]], axis=1)\n"
            "model.impacts_for_pairs(pairs, np.full((n, 2), 1.0 / n), params, np.ones((n, 3)))\n"
            "assert pool._executor is None and threading.active_count() == 1\n"
        )
        src = os.path.dirname(os.path.dirname(pool.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
