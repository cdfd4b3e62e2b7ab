"""Distributed greedy selection: partition, parallel workers, aggregate.

The pool is split uniformly at random across ``s`` shared-nothing workers;
each worker runs the full greedy budget on its shard.  The aggregator runs
the same method over the union of the workers' atoms, and the winner is
the solution (among the s workers and the aggregator) with the smallest
squared MMD, ties going to the lowest index.  By construction the winner
is never worse than the best worker.

Workers default to an in-process thread pool.  A process pool is available
for shared-nothing execution; combined with ``spill_dir`` the shards and
the returned iterates travel through CSV files (see ``write_shard_csv`` /
``write_iterates_csv`` for the exact columns), which exercises the same
contract as a larger-than-memory deployment.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernels import CandidatePool, Kernel
from .selectors import Method, RunTrace, run_greedy
from .state import QuadratureState, check_kernel
from .targets import TargetEmbedding


class PoolTooSmall(ValueError):
    """Fewer pool points than workers."""


@dataclass(frozen=True)
class PartitionPlan:
    """Random worker assignment for every pool id.

    Shards are disjoint and cover the pool.  Assignment is i.i.d. uniform
    over workers; if a worker ends up empty it receives the largest id from
    the currently largest shard (deterministic under the seed).
    """

    n_workers: int
    ids: np.ndarray
    assignment: np.ndarray

    def shard_ids(self, worker: int) -> np.ndarray:
        if not 0 <= worker < self.n_workers:
            raise IndexError(f"worker {worker} out of range")
        return np.sort(self.ids[self.assignment == worker])

    def shard_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_workers)


def partition(pool: CandidatePool, s: int, seed: int) -> PartitionPlan:
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
        move = donor_rows[np.argmax(pool.ids[donor_rows])]
        assignment[move] = empty
        sizes = np.bincount(assignment, minlength=s)
    return PartitionPlan(n_workers=s, ids=pool.ids.copy(), assignment=assignment)


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


def write_shard_csv(path, pool: CandidatePool) -> None:
    """Shard spill format: header id,x0,...,x{d-1}; one row per point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{j}" for j in range(pool.dim)])
        for pid, pt in zip(pool.ids, pool.points):
            writer.writerow([int(pid)] + [repr(float(v)) for v in pt])


def read_shard_csv(path) -> CandidatePool:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 1
        ids, pts = [], []
        for row in reader:
            ids.append(int(row[0]))
            pts.append([float(v) for v in row[1:]])
    return CandidatePool(points=np.asarray(pts, dtype=float).reshape(len(ids), dim),
                         ids=np.asarray(ids, dtype=int))


def write_iterates_csv(path, ids, weights) -> None:
    """Iterate spill format: header id,weight; one row per selected atom."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "weight"])
        for pid, w in zip(ids, weights):
            writer.writerow([int(pid), repr(float(w))])


def read_iterates_csv(path) -> tuple[list[int], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, ws = [], []
        for row in reader:
            ids.append(int(row[0]))
            ws.append(float(row[1]))
    return ids, np.asarray(ws)


def _worker_seeds(seed: int, s: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(s + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def _run_shard(args):
    method, shard, target, kernel, k, wseed, spill = args
    if spill is not None:
        shard = read_shard_csv(spill[0])
    state, trace = run_greedy(method, shard, target, kernel, k, seed=wseed)
    if spill is not None:
        write_iterates_csv(spill[1], state.atom_ids, state.weights)
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
    spill_dir=None,
) -> DistributedResult:
    """Partition the pool over ``s`` workers, select everywhere, keep the best.

    Only the optimal-weight methods make sense here; asking for a uniform
    or random method raises ``ValueError``.  A fixed (seed, s) reproduces
    the result bit for bit regardless of worker scheduling, because results
    are collected by worker index and the aggregator pool is sorted by id.
    ``KernelMismatch`` is raised when ``kernel`` is not ``target.kernel``.
    """
    method = Method(method)
    check_kernel(target, kernel)
    if method not in (Method.WKH, Method.SBQ):
        raise ValueError("distributed runs support WKH and SBQ only")
    if executor not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")

    t_start = time.perf_counter()
    plan = partition(pool, s, seed)
    shards = [pool.subset(plan.shard_ids(w)) for w in range(s)]
    seeds = _worker_seeds(seed, s)
    t_partition = time.perf_counter()

    spills = [None] * s
    if spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
        for w, shard in enumerate(shards):
            shard_path = os.path.join(spill_dir, f"shard_{w}.csv")
            write_shard_csv(shard_path, shard)
            spills[w] = (shard_path, os.path.join(spill_dir, f"iterates_{w}.csv"))

    jobs = [(method, shards[w], target, kernel, k, seeds[w], spills[w]) for w in range(s)]
    if executor == "serial":
        outcomes = [_run_shard(job) for job in jobs]
    else:
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=max_workers or s) as ex:
            outcomes = list(ex.map(_run_shard, jobs))
    t_workers = time.perf_counter()

    solutions, traces = [], []
    union_ids: set[int] = set()
    for w, (ids, weights, mmd_sq, trace) in enumerate(outcomes):
        if spills[w] is not None:
            ids, weights = read_iterates_csv(spills[w][1])
        solutions.append(Solution(label=f"worker-{w}", ids=list(ids),
                                  weights=np.asarray(weights), mmd_sq=mmd_sq))
        traces.append(trace)
        union_ids.update(int(i) for i in ids)

    if union_ids:
        agg_pool = pool.subset(sorted(union_ids))
        agg_state, agg_trace = run_greedy(method, agg_pool, target, kernel, k, seed=seeds[s])
        solutions.append(Solution(label="aggregator", ids=list(agg_state.atom_ids),
                                  weights=np.asarray(agg_state.weights),
                                  mmd_sq=float(agg_state.mmd_sq)))
        traces.append(agg_trace)
    else:
        # Every worker came back empty-handed; the aggregator has nothing to
        # refine and contributes the empty solution.
        solutions.append(Solution(label="aggregator", ids=[], weights=np.zeros(0),
                                  mmd_sq=float(target.self_energy())))
        traces.append(RunTrace(method=method.value, seed=seeds[s], stop_reason="pool_exhausted"))
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
