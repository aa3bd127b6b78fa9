"""A parallel executor whose workers die on schedule.

:class:`FaultyExecutor` wraps *any* task list: the fault plan names task
indices (``FaultPlan.worker_crashes() -> {index: count}``), and the
executor's submission hook routes those tasks through a wrapper that
``os._exit(23)``\\ s the worker on its first *count* attempts — after
which the task runs normally.  Unlike the chaos task kinds in
:mod:`repro.faults.tasks`, this injects crashes *underneath* real
experiment tasks, so the retry/rebuild machinery is exercised against the
actual workloads.

Attempt counting must survive the dead worker, so it lives in counter
files under ``marker_dir`` keyed by task fingerprint (the chaos task
kinds' counters, :func:`repro.faults.tasks.crash_counter_path`).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, Optional

from ..experiments.exec.executors import ParallelExecutor
from ..experiments.exec.task import Task, execute_task
from .tasks import _bump_attempts

__all__ = ["FaultyExecutor"]


def _execute_with_crashes(task: Task, marker_dir: str, crashes: int) -> Any:
    """Worker-side wrapper: die on the first *crashes* attempts, then run.

    Module-level so it pickles to worker processes under any start
    method.  ``os._exit`` skips all cleanup — the parent observes exactly
    what a segfault or OOM-kill produces: a dead worker and a broken
    pool.
    """
    if _bump_attempts(marker_dir, task.fingerprint) <= crashes:
        os._exit(23)
    return execute_task(task)


class FaultyExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` with scheduled worker crashes.

    Parameters are those of :class:`ParallelExecutor` plus:

    crashes:
        ``{task index: crash count}`` — the worker executing that task
        dies on its first *count* attempts (then the task succeeds, if
        its retry budget allows that many re-submissions).
    marker_dir:
        Directory for the cross-attempt counter files.  Required when
        *crashes* is non-empty.
    """

    def __init__(
        self,
        jobs: int,
        crashes: Optional[Dict[int, int]] = None,
        marker_dir: Optional[str] = None,
        **kwargs: Any,
    ):
        super().__init__(jobs, **kwargs)
        self.crashes: Dict[int, int] = dict(crashes or {})
        if self.crashes and marker_dir is None:
            raise ValueError("FaultyExecutor with crashes requires marker_dir")
        self.marker_dir = marker_dir

    def _submit(self, pool: ProcessPoolExecutor, task: Task, index: int) -> Future:
        count = self.crashes.get(index, 0)
        if count > 0:
            assert self.marker_dir is not None
            return pool.submit(_execute_with_crashes, task, self.marker_dir, count)
        return super()._submit(pool, task, index)
