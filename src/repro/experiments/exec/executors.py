"""Task executors: serial, process-parallel, and the ambient context.

Both executors share one contract: ``run(tasks)`` returns results in task
order, consulting the optional :class:`~repro.experiments.exec.cache.ResultCache`
first and storing every freshly computed result back.  Because tasks are
independent (seeds derive from ``(seed, trial)`` spawn keys, not stream
order) the two executors — and any ``--jobs`` level — produce identical
results; ``tests/test_exec_equivalence.py`` pins that byte-for-byte.

Counters ``computed`` / ``cache_hits`` accumulate per executor instance,
so a resumed run can prove it did not redo finished work.

Failure semantics (see docs/FAULTS.md):

- A task raising inside a worker fails *that task only*.  Every other
  task still runs to completion and is cached; the terminal failures are
  collected and raised at the end as one typed
  :class:`~repro.errors.TaskFailedError` carrying the partial results.
- A worker *dying* mid-task (segfault, ``os._exit``, OOM-kill) breaks the
  process pool; the pool is rebuilt and every task it took down is
  re-enqueued, so a crash domain is one worker, never the run.  A broken
  shared pool cannot say whose worker died, so its tasks re-run isolated
  (one fresh single-worker pool each) and only a crash there is charged.
- Each task has a retry budget (``retries``) and an optional per-task
  deadline (``task_timeout``, seconds of no pool progress) after which
  stuck workers are terminated and the attempts charged like crashes.
  A retry wave starts as soon as the previous one ends, with no backoff
  sleep between waves.

The serial executor is deliberately still fail-fast: in-process, the
"worker" *is* the run, so the first exception is the crash — resumability
comes from the cache, which already holds every earlier result.

The *ambient* executor (:func:`get_executor` / :func:`use_executor`) is
how the CLI threads ``--jobs``/``--cache-dir`` through the experiment
registry without changing every figure function's signature; library code
that wants explicit control passes ``executor=`` instead.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Set

from ...errors import TaskFailedError
from .cache import ResultCache
from .task import Task, execute_task

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "use_executor",
    "resolve_executor",
]


class Executor:
    """Common cache/bookkeeping machinery; subclasses provide ``run``."""

    #: Worker count (1 for the serial executor) — informational.
    jobs: int = 1

    def __init__(self, cache: Optional[ResultCache] = None):
        self.cache = cache
        #: Tasks actually executed (cache misses) over this executor's life.
        self.computed = 0
        #: Tasks answered from the cache over this executor's life.
        self.cache_hits = 0

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        raise NotImplementedError

    def _load_cached(self, task: Task) -> tuple:
        if self.cache is None:
            return False, None
        hit, value = self.cache.load(task)
        if hit:
            self.cache_hits += 1
        return hit, value

    def _record(self, task: Task, result: Any) -> Any:
        self.computed += 1
        if self.cache is not None:
            self.cache.store(task, result)
        return result


class SerialExecutor(Executor):
    """Execute tasks one after another in the current process."""

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        results = []
        for task in tasks:
            hit, value = self._load_cached(task)
            if not hit:
                value = self._record(task, execute_task(task))
            results.append(value)
        return results


class ParallelExecutor(Executor):
    """Execute cache misses on a :class:`ProcessPoolExecutor`.

    Results are cached (in the parent) as soon as each task finishes, so a
    run killed mid-way leaves every completed task behind and a restart
    with the same cache directory resumes instead of recomputing.

    Parameters
    ----------
    jobs:
        Worker process count.
    retries:
        Re-attempts allowed per task after its first failure (exception,
        worker crash, or timeout) before it is terminal.  ``retries=2``
        means up to three attempts total.
    task_timeout:
        Optional deadline in seconds: if no task completes for this long,
        the in-flight attempts are presumed stuck, their workers are
        terminated, and each charged one attempt.  ``None`` (default)
        waits forever — the historical behavior.
    """

    def __init__(
        self,
        jobs: int,
        cache: Optional[ResultCache] = None,
        retries: int = 2,
        task_timeout: Optional[float] = None,
    ):
        super().__init__(cache)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self.jobs = int(jobs)
        self.retries = int(retries)
        self.task_timeout = task_timeout

    # -- retry machinery ------------------------------------------------ #

    def _submit(self, pool: ProcessPoolExecutor, task: Task, index: int) -> Future:
        """Submission hook; fault injectors override to wrap the call."""
        return pool.submit(execute_task, task)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill a pool's worker processes (stuck-task escalation)."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.terminate()

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        results: List[Any] = [None] * len(tasks)
        misses = []
        for k, task in enumerate(tasks):
            hit, value = self._load_cached(task)
            if hit:
                results[k] = value
            else:
                misses.append(k)
        if misses:
            failures = self._run_misses(tasks, misses, results)
            if failures:
                raise TaskFailedError(failures, results)
        return results

    def _run_misses(
        self,
        tasks: Sequence[Task],
        misses: List[int],
        results: List[Any],
    ) -> Dict[int, BaseException]:
        """Run the cache-missing task indices; returns terminal failures.

        Wave loop: submit everything pending, harvest completions as they
        arrive (each cached immediately), classify failures, and carry
        retry-eligible tasks into the next wave.  A broken pool (dead
        worker) or a stalled wave (``task_timeout``) rebuilds the pool;
        ordinary task exceptions do not.

        A dead worker breaks *every* future of its pool, so a broken pool
        only says which task crashed when that task ran alone.  Tasks
        broken in a shared pool are not charged an attempt; they re-run
        *isolated* — each in a fresh one-worker pool, at most ``jobs`` at
        a time — where a crash (or a timeout) is theirs to pay for.
        """
        attempts: Dict[int, int] = {k: 0 for k in misses}
        failures: Dict[int, BaseException] = {}
        queue: List[int] = list(misses)
        isolated: Set[int] = set()
        shared: Optional[ProcessPoolExecutor] = None
        pools: Dict[int, ProcessPoolExecutor] = {}
        try:
            while queue:
                batch = [k for k in queue if k in isolated][: self.jobs]
                solo = bool(batch)
                if solo:
                    pools = {k: ProcessPoolExecutor(max_workers=1) for k in batch}
                else:
                    batch = list(queue)
                    if shared is None:
                        shared = ProcessPoolExecutor(
                            max_workers=min(self.jobs, len(batch))
                        )
                    pools = {k: shared for k in batch}
                alone = solo or len(batch) == 1
                queue = [k for k in queue if k not in pools]
                futures: Dict[Future, int] = {}
                for k in batch:
                    attempts[k] += 1
                    futures[self._submit(pools[k], tasks[k], k)] = k
                pending = set(futures)
                broken = False
                while pending:
                    done, pending = wait(
                        pending, timeout=self.task_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # No progress for a whole deadline: the in-flight
                        # attempts are stuck.  Kill the workers; the
                        # resulting BrokenProcessPool futures are handled
                        # below like any other crash.
                        broken = True
                        for fut in sorted(pending, key=lambda f: futures[f]):
                            self._terminate_workers(pools[futures[fut]])
                        done, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                    for fut in sorted(done, key=lambda f: futures[f]):
                        k = futures[fut]
                        exc = fut.exception()
                        if exc is None:
                            results[k] = self._record(tasks[k], fut.result())
                            continue
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                            if not alone:
                                attempts[k] -= 1
                                isolated.add(k)
                                queue.append(k)
                                continue
                        if attempts[k] <= self.retries:
                            queue.append(k)
                        else:
                            failures[k] = exc
                if solo:
                    for pool in pools.values():
                        pool.shutdown(wait=False, cancel_futures=True)
                elif broken and shared is not None:
                    # A dead worker poisons the whole pool object (every
                    # outstanding future breaks); start a fresh one for
                    # the next shared wave.
                    shared.shutdown(wait=False, cancel_futures=True)
                    shared = None
                queue.sort()
        finally:
            # Shutting a pool down twice is harmless.
            for pool in pools.values():
                pool.shutdown(wait=False, cancel_futures=True)
            if shared is not None:
                shared.shutdown(wait=False, cancel_futures=True)
        return failures


#: Ambient executor stack; the base entry is a plain cache-less serial
#: executor, so library calls outside any context behave exactly like the
#: pre-executor code path.
_AMBIENT: List[Executor] = [SerialExecutor()]


def get_executor() -> Executor:
    """The innermost ambient executor (a cache-less serial one by default)."""
    return _AMBIENT[-1]


@contextmanager
def use_executor(executor: Executor):
    """Make *executor* ambient for the duration of the ``with`` block."""
    _AMBIENT.append(executor)
    try:
        yield executor
    finally:
        _AMBIENT.pop()


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """An explicit executor if given, else the ambient one."""
    return executor if executor is not None else get_executor()
