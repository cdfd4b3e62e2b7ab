"""Distributed greedy selection: partition, parallel workers, aggregate.

The pool is split uniformly at random across ``s`` shared-nothing workers;
each worker runs the full greedy budget on its shard.  The aggregator runs
the same method over the union of the workers' atoms, and the winner is
the solution (among the s workers and the aggregator) with the smallest
squared MMD, ties going to the lowest index.  By construction the winner
is never worse than the best worker.  The partition is the only random
step: WKH and SBQ are deterministic, so the workers and the aggregator
take no seed.

Every worker, and the aggregator, is one ``run_greedy`` call on a
smaller pool.  ``run_distributed`` sets up the whole pool before the
workers start, and every shard and the aggregator's pool select from
their rows of that setup (``selectors.PoolSetup``).
Workers run serially, on a thread pool (the default) or on a process
pool; all three return the same result bit for bit.  The process pool's
``multiprocessing`` stack loads at a process's first ``executor="process"``
call, since no other run needs it.  A pool runs at most
one worker per core by default, since more threads than cores only
contend for them.  Processes stay for large s, where they avoid the GIL.
Workers on a thread or process pool keep their shard in one column block
of ``state.PoolScores`` (the pool's initializer is ``state.share_cores``),
since they already take a core each.  Thread workers carve Y, the
shard's projected Gram rows, from buffers the caller allocates, one per
thread and sized for the largest shard: Y's pages then come from the
caller's malloc arena, which the next call reuses, rather than from an
arena of each thread's own, which would keep one more Y per thread after
the call.  Process workers allocate their own, since a buffer would be
pickled to each child.  A lone worker runs in the caller
under every executor and, like the serial executor's workers, splits a
large shard into one block per core.  Where sharding pays, in wall time
and peak RSS, is measured in the README's Performance section.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import CandidatePool, Kernel, check_count
from .selectors import (
    OPTIMAL_WEIGHT_METHODS,
    Method,
    RunTrace,
    run_greedy,
    setup_pool,
)
from .state import check_kernel, share_cores, usable_cpus
from .targets import TargetEmbedding


class PoolTooSmall(ValueError):
    """Fewer pool points than workers."""


def partition(pool: CandidatePool, s: int, seed: int) -> np.ndarray:
    """The worker index of each pool row, an int array.

    Shards are disjoint and cover the pool.  Assignment is i.i.d. uniform
    over workers; then each empty worker, lowest index first, receives the
    largest id from the currently largest shard (lowest index on ties), so
    the result is deterministic under the seed, an int of at least 0.  A
    stable sort of the assignment and a heap of shard sizes make this
    O(n log n + s log s).
    """
    check_count("s", s)
    check_count("seed", seed, least=0)
    if len(pool) < s:
        raise PoolTooSmall(f"cannot spread {len(pool)} points over {s} workers")
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, s, size=len(pool))
    sizes = np.bincount(assignment, minlength=s)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        # rows by shard, ascending within each, so a shard's largest id ends its run
        by_shard = np.argsort(assignment, kind="stable")
        ends = np.cumsum(sizes).tolist()
        heap = [(-size, w) for w, size in enumerate(sizes.tolist()) if size]
        heapq.heapify(heap)
        for w in empty.tolist():
            # the largest shard holds 2+ rows while a worker is empty: no filled worker donates
            neg_size, donor = heap[0]
            ends[donor] -= 1
            assignment[by_shard[ends[donor]]] = w
            heapq.heapreplace(heap, (neg_size + 1, donor))
    return assignment


@dataclass
class Solution:
    label: str
    ids: list[int]
    weights: np.ndarray
    mmd_sq: float


@dataclass
class DistributedResult:
    winner_index: int
    solutions: list[Solution]
    traces: list[RunTrace]
    phase_seconds: dict = field(default_factory=dict)

    @property
    def winner(self) -> Solution:
        return self.solutions[self.winner_index]

    @property
    def mmd_values(self) -> np.ndarray:
        return np.array([s.mmd_sq for s in self.solutions])


def _run_shard(label, method, shard, target, kernel, k) -> tuple[Solution, RunTrace]:
    state, trace = run_greedy(method, shard, target, kernel, k)
    return Solution(label, list(state.atom_ids), state.weights, float(state.mmd_sq)), trace


def run_distributed(
    method,
    pool: CandidatePool,
    target: TargetEmbedding,
    kernel: Kernel,
    k: int,
    s: int,
    seed: int,
    *,
    executor: str = "thread",
    max_workers: int | None = None,
) -> DistributedResult:
    """Partition the pool over ``s`` workers, select everywhere, keep the best.

    Only the optimal-weight methods make sense here; asking for a uniform
    or random method raises ``ValueError``.  A fixed (seed, s) reproduces
    the result bit for bit regardless of worker scheduling, because results
    are collected by worker index and every pool lists its rows by id.
    ``KernelMismatch`` is raised when ``kernel`` is not ``target.kernel``.
    A thread or process pool runs ``max_workers`` shards at a time, by
    default one per usable CPU and at most ``s``; ``max_workers`` must be
    ``None`` or an int of at least 1 under every executor.
    """
    method = Method(method)
    check_kernel(target, kernel)
    if method not in OPTIMAL_WEIGHT_METHODS:
        raise ValueError("distributed runs support WKH and SBQ only")
    if executor not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    check_count("k", k)
    if max_workers is not None:
        check_count("max_workers", max_workers)

    t_start = time.perf_counter()
    assignment = partition(pool, s, seed)
    setup_pool(pool, target, kernel)  # kept on the pool; take hands every shard its rows
    shards = [pool] if s == 1 else [pool.take(np.flatnonzero(assignment == w)) for w in range(s)]
    t_partition = time.perf_counter()

    jobs = [(f"worker-{w}", method, shards[w], target, kernel, k) for w in range(s)]
    if executor == "serial" or s == 1:
        # A lone worker runs in the caller under every executor: in a thread
        # of its own its arrays come from another malloc arena, which cost
        # about 10 MB of peak RSS at n = 200 000.
        outcomes = [_run_shard(*job) for job in jobs]
    else:
        workers = max_workers or min(s, usable_cpus())
        if executor == "thread":
            # one Y buffer per thread, allocated here so that its pages come
            # from, and go back to, the caller's malloc arena
            m = max(map(len, shards))
            buffers = [np.empty(min(k, m) * m) for _ in range(min(workers, s))]
            pool_cls, initargs = ThreadPoolExecutor, (buffers,)
        else:  # loads multiprocessing, which no serial or thread run needs
            from concurrent.futures import ProcessPoolExecutor as pool_cls
            initargs = ()
        # workers that run at the same time take one core, and one block, each
        with pool_cls(max_workers=workers, initializer=share_cores, initargs=initargs) as ex:
            outcomes = list(ex.map(_run_shard, *zip(*jobs)))
    t_workers = time.perf_counter()

    union_ids = sorted({int(i) for sol, _ in outcomes for i in sol.ids})
    if union_ids:
        # pool ids ascend, so sorted ids give ascending rows
        union = pool.take(np.searchsorted(pool.ids, union_ids))
        outcomes.append(_run_shard("aggregator", method, union, target, kernel, k))
    else:
        # No worker took an atom, so c <= G_ROUNDOFF (shards are nonempty, the
        # kernel standardized): the aggregator would return worker 0's result.
        empty, trace = outcomes[0]
        outcomes.append((replace(empty, label="aggregator", ids=[]), replace(trace, rows=[])))
    t_agg = time.perf_counter()

    solutions, traces = map(list, zip(*outcomes))
    return DistributedResult(
        winner_index=int(np.argmin([sol.mmd_sq for sol in solutions])),  # lowest index on ties
        solutions=solutions,
        traces=traces,
        phase_seconds={
            "partition": t_partition - t_start,
            "workers": t_workers - t_partition,
            "aggregate": t_agg - t_workers,
        },
    )
