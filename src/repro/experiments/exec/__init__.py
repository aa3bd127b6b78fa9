"""Parallel, resumable experiment execution.

The evaluation decomposes into independent ``(experiment, params, seed,
trial)`` tasks (:mod:`.task`), executed serially or on a process pool
(:mod:`.executors`) behind a content-addressed, checksummed result cache
(:mod:`.cache`).  See ``docs/EXECUTION.md`` for the task model, the
seed-derivation contract, and the cache layout.
"""

from .cache import ResultCache
from .executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    resolve_executor,
    use_executor,
)
from .kinds import (
    SCHEME_NAMES,
    ZERO_TIMER_ENV,
    perf_timer,
    spec_from_params,
    spec_to_params,
)
from .task import Task, TaskKindError, canonical_json, execute_task, task_kind

__all__ = [
    "SCHEME_NAMES",
    "ZERO_TIMER_ENV",
    "Executor",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "Task",
    "TaskKindError",
    "canonical_json",
    "execute_task",
    "get_executor",
    "perf_timer",
    "resolve_executor",
    "spec_from_params",
    "spec_to_params",
    "task_kind",
    "use_executor",
]
