"""Sharded worker pools behind one executor protocol.

The scheduler (:mod:`repro.pipeline.scheduler`) talks to every backend
through :class:`GridExecutor`: submit one work item's scenarios, get a
:class:`concurrent.futures.Future` of its cell results. Three
implementations ship today —

- :class:`SerialExecutor` — runs items inline on the dispatcher thread.
  Zero overhead, one in-process :class:`ResultCache` (memo shared across
  the whole run), exactly the old ``run_grid(workers=1)`` behavior.
- :class:`ThreadExecutor` — a thread pool sharing one in-process cache
  (safe: the cache memo is lock-guarded). LP solves release the GIL in
  scipy, and the service uses it for cache-dominated workloads without
  paying process spawn.
- :class:`ProcessExecutor` — the sharded process pool. Worker death
  (OOM kill, segfault, operator ``SIGKILL``) surfaces as
  :class:`~concurrent.futures.process.BrokenProcessPool` on in-flight
  futures; :meth:`ProcessExecutor.reset` swaps in a fresh pool and bumps
  a generation counter so the scheduler can distinguish casualties of an
  old pool from failures in the new one. The protocol deliberately hides
  *where* workers live — a multi-host executor only has to return
  futures.

Executors never retry, reorder, or prioritize — policy lives in the
scheduler; executors only run things.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Protocol, runtime_checkable

from repro.pipeline.cache import ResultCache


def _evaluate_item_task(
    args: "tuple[tuple, str | None, bool]",
) -> list:
    """Module-level worker entry (picklable): solve one item's scenarios.

    ``batch=True`` routes through :func:`evaluate_batch` so the item's
    cells share their built instance and artifact memo; ``batch=False``
    is the one-cell-at-a-time reference path.
    """
    from repro.pipeline.engine import evaluate_batch, evaluate_cell

    scenarios, cache_dir, batch = args
    cache = ResultCache(cache_dir) if cache_dir else None
    if batch:
        return evaluate_batch(list(scenarios), cache=cache)
    return [evaluate_cell(scenario, cache=cache) for scenario in scenarios]


@runtime_checkable
class GridExecutor(Protocol):
    """What the scheduler needs from a worker backend."""

    #: Parallel width (sizes the scheduler's default in-flight bound).
    workers: int
    #: Whether :meth:`submit` runs the item before returning; the
    #: scheduler then keeps one item in flight so each publishes before
    #: the next starts.
    inline: bool
    #: Whether an abandoned (timed-out) item leaks a worker slot unless
    #: the pool is torn down and rebuilt.
    reset_on_timeout: bool

    def submit(
        self, scenarios, cache_dir: "str | None", batch: bool
    ) -> Future:
        """Start one work item; the future resolves to its cell results."""
        ...

    def reset(self) -> None:
        """Recover from a dead backend (rebuild pools, drop casualties)."""
        ...

    @property
    def generation(self) -> int:
        """Incremented on every :meth:`reset` (0 for the first backend)."""
        ...

    def worker_pids(self) -> "tuple[int, ...]":
        """PIDs of live worker processes (empty for in-process backends)."""
        ...

    def shutdown(self, wait: bool = True) -> None: ...


class _InProcessCaches:
    """One shared :class:`ResultCache` per cache root for a run's lifetime.

    In-process executors reuse a single cache instance so the memo
    accumulates across items — the behavior the old serial ``run_grid``
    had, and the thing that makes warm in-process re-hits free.
    """

    def __init__(self) -> None:
        self._caches: "dict[str, ResultCache]" = {}
        self._lock = threading.Lock()

    def get(self, cache_dir: "str | None") -> "ResultCache | None":
        if not cache_dir:
            return None
        with self._lock:
            cache = self._caches.get(cache_dir)
            if cache is None:
                cache = self._caches[cache_dir] = ResultCache(cache_dir)
            return cache


def _run_item_in_process(
    caches: _InProcessCaches, scenarios, cache_dir, batch: bool
) -> list:
    from repro.pipeline.engine import evaluate_batch, evaluate_cell

    cache = caches.get(cache_dir)
    if batch:
        return evaluate_batch(list(scenarios), cache=cache)
    return [evaluate_cell(scenario, cache=cache) for scenario in scenarios]


class SerialExecutor:
    """Inline execution on the calling (dispatcher) thread.

    The returned future is already resolved when :meth:`submit` returns,
    so timeouts cannot preempt an attempt — the scheduler documents the
    same. This is the reference backend: no pickling, no processes,
    deterministic ordering.
    """

    workers = 1
    inline = True
    reset_on_timeout = False

    def __init__(self) -> None:
        self._caches = _InProcessCaches()

    def submit(self, scenarios, cache_dir, batch: bool) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(
                _run_item_in_process(self._caches, scenarios, cache_dir, batch)
            )
        except BaseException as exc:  # the future carries the outcome
            future.set_exception(exc)
        return future

    def reset(self) -> None:
        pass

    @property
    def generation(self) -> int:
        return 0

    def worker_pids(self) -> "tuple[int, ...]":
        return ()

    def shutdown(self, wait: bool = True) -> None:
        pass


class ThreadExecutor:
    """Thread-pool execution sharing one in-process cache per root."""

    inline = False
    reset_on_timeout = False

    def __init__(self, workers: int = 2) -> None:
        self.workers = int(workers)
        self._caches = _InProcessCaches()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="grid-exec"
        )

    def submit(self, scenarios, cache_dir, batch: bool) -> Future:
        return self._pool.submit(
            _run_item_in_process, self._caches, scenarios, cache_dir, batch
        )

    def reset(self) -> None:
        pass

    @property
    def generation(self) -> int:
        return 0

    def worker_pids(self) -> "tuple[int, ...]":
        return ()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=not wait)


class ProcessExecutor:
    """Sharded process-pool backend with worker-death recovery.

    The pool spawns **lazily** on the first submit, so an executor a
    service constructs up front costs nothing until real (uncached) work
    arrives. After a :meth:`reset`, futures from the previous pool either
    resolve normally (their worker survived), raise
    ``BrokenProcessPool`` (their worker died), or come back cancelled
    (they never started); the scheduler maps each case onto the item
    state machine.
    """

    inline = False
    reset_on_timeout = True

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: "ProcessPoolExecutor | None" = None
        self._generation = 0
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        """Whether any worker pool was ever spawned."""
        return self._pool is not None

    @property
    def generation(self) -> int:
        return self._generation

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def submit(self, scenarios, cache_dir, batch: bool) -> Future:
        return self._ensure_pool().submit(
            _evaluate_item_task, (tuple(scenarios), cache_dir, batch)
        )

    def reset(self) -> None:
        """Abandon the current pool (workers died or a timed-out task is
        wedged in one) and let the next submit spawn a fresh one."""
        with self._lock:
            old, self._pool = self._pool, None
            self._generation += 1
        if old is not None:
            # Non-blocking: surviving workers finish their current task
            # and exit; queued-but-unstarted futures come back cancelled.
            old.shutdown(wait=False, cancel_futures=True)

    def worker_pids(self) -> "tuple[int, ...]":
        with self._lock:
            if self._pool is None:
                return ()
            return tuple(self._pool._processes or ())

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)


def executor_for_workers(workers: int) -> "SerialExecutor | ProcessExecutor":
    """The default backend :func:`run_grid` picks for a worker count."""
    return SerialExecutor() if workers <= 1 else ProcessExecutor(workers)
