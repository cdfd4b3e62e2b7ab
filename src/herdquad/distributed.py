"""Distributed greedy selection: partition, parallel workers, aggregate.

The pool is split uniformly at random across ``s`` shared-nothing workers;
each worker runs the full greedy budget on its shard.  The aggregator runs
the same method over the union of the workers' atoms, and the winner is
the solution (among the s workers and the aggregator) with the smallest
squared MMD, ties going to the lowest index.  By construction the winner
is never worse than the best worker.

Every worker, and the aggregator, is one ``run_greedy`` call on a
smaller pool.  ``run_distributed`` sets the pool up once
(``selectors.setup_pool``, kept on the pool, so later calls on the same
pool and target embed nothing), and ``CandidatePool.take`` hands every
shard and the aggregator's pool its rows of that setup.  On a pool never
set up before, the caller embeds the whole pool before the workers start.
Workers run serially, on a thread pool (the default) or on a process
pool; all three return the same result bit for bit.  A pool runs at most
one worker per core by default: with one BLAS thread on 2 cores, WKH with
s = 32 and k = 100 on 200 000 points took 1.8-2.9 s on 32 threads and
0.8 s on 2.  On the mixture_d8_distributed benchmark inputs (two workers)
the benchmark's four distributed calls took 0.36 s serially, 0.33 s on
threads and 0.34 s on processes (medians of 10 interleaved rounds on a
pool already set up).  Processes stay for large s, where they avoid the
GIL: SBQ with s = 32 on 200 000 points and two workers took 0.58 s on
processes and 0.79-0.81 s on threads.  A lone worker runs in the caller
under every executor.  Where sharding pays, in wall time and peak RSS, is
measured in the README's Performance section.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernels import CandidatePool, Kernel
from .selectors import OPTIMAL_WEIGHT_METHODS, Method, RunTrace, run_greedy, setup_pool
from .state import check_kernel
from .targets import TargetEmbedding


class PoolTooSmall(ValueError):
    """Fewer pool points than workers."""


def partition(pool: CandidatePool, s: int, seed: int) -> np.ndarray:
    """The worker index of each pool row, an int array.

    Shards are disjoint and cover the pool.  Assignment is i.i.d. uniform
    over workers; if a worker ends up empty it receives the largest id from
    the currently largest shard (deterministic under the seed).
    """
    if s < 1:
        raise ValueError("need at least one worker")
    if len(pool) < s:
        raise PoolTooSmall(f"cannot spread {len(pool)} points over {s} workers")
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, s, size=len(pool))
    sizes = np.bincount(assignment, minlength=s)
    while np.any(sizes == 0):
        empty = int(np.flatnonzero(sizes == 0)[0])
        donor = int(np.argmax(sizes))
        donor_rows = np.flatnonzero(assignment == donor)
        assignment[donor_rows[-1]] = empty  # rows ascend by id: the largest id is last
        sizes = np.bincount(assignment, minlength=s)
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


def _worker_seeds(seed: int, s: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(s + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def _run_shard(args):
    method, shard, target, kernel, k, wseed = args
    state, trace = run_greedy(method, shard, target, kernel, k, seed=wseed)
    return list(state.atom_ids), np.asarray(state.weights), float(state.mmd_sq), trace


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
    default one per core and at most ``s``.
    """
    method = Method(method)
    check_kernel(target, kernel)
    if method not in OPTIMAL_WEIGHT_METHODS:
        raise ValueError("distributed runs support WKH and SBQ only")
    if executor not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")

    t_start = time.perf_counter()
    assignment = partition(pool, s, seed)
    setup_pool(pool, target, kernel)  # kept on the pool; take hands every shard its rows
    shards = [pool] if s == 1 else [pool.take(np.flatnonzero(assignment == w)) for w in range(s)]
    seeds = _worker_seeds(seed, s)
    t_partition = time.perf_counter()

    jobs = [(method, shards[w], target, kernel, k, seeds[w]) for w in range(s)]
    if executor == "serial" or s == 1:
        # A lone worker runs in the caller under every executor: in a thread
        # of its own its arrays come from another malloc arena, which cost
        # about 10 MB of peak RSS at n = 200 000.
        outcomes = [_run_shard(job) for job in jobs]
    else:
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=max_workers or min(s, os.cpu_count() or 1)) as ex:
            outcomes = list(ex.map(_run_shard, jobs))
    t_workers = time.perf_counter()

    solutions, traces = [], []
    union_ids: set[int] = set()
    for w, (ids, weights, mmd_sq, trace) in enumerate(outcomes):
        solutions.append(Solution(label=f"worker-{w}", ids=ids, weights=weights, mmd_sq=mmd_sq))
        traces.append(trace)
        union_ids.update(int(i) for i in ids)

    if union_ids:
        # pool ids ascend, so sorted ids give ascending rows
        union_rows = np.searchsorted(pool.ids, sorted(union_ids))
        ids, weights, mmd_sq, trace = _run_shard(
            (method, pool.take(union_rows), target, kernel, k, seeds[s]))
        solutions.append(Solution(label="aggregator", ids=ids, weights=weights, mmd_sq=mmd_sq))
        traces.append(trace)
    else:
        # No worker took an atom: shards are nonempty and the kernel is
        # standardized, so c <= G_ROUNDOFF and the aggregator stops there too.
        solutions.append(Solution(label="aggregator", ids=[], weights=np.zeros(0),
                                  mmd_sq=float(target.self_energy())))
        traces.append(RunTrace(method=method.value, stop_reason="objective_floor"))
    t_agg = time.perf_counter()

    values = np.array([sol.mmd_sq for sol in solutions])
    winner_index = int(np.argmin(values))  # argmin takes the lowest index on ties
    return DistributedResult(
        winner_index=winner_index,
        solutions=solutions,
        traces=traces,
        phase_seconds={
            "partition": t_partition - t_start,
            "workers": t_workers - t_partition,
            "aggregate": t_agg - t_workers,
            "total": t_agg - t_start,
        },
    )
