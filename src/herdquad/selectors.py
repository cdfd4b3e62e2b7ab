"""Greedy atom-selection rules and the per-run driver.

Four methods share one driver:

* ``WKH``        greedy selection by residual correlation, optimal weights.
* ``SBQ``        greedy selection by one-step variance reduction, optimal
                 weights; per-iteration it dominates WKH by construction.
* ``KH_UNIFORM`` classic herding with uniform weights; the driver never
                 picks a point twice.
* ``MC_RANDOM``  uniform draws without replacement, uniform weights.

The result type follows the weighting: WKH and SBQ return a
``QuadratureState``, the two baselines the ``UniformAccumulator`` whose
uniform-weight g their trace reports.

WKH and SBQ read one pair of pool-wide arrays, the residual correlations
r and the Schur complements s, and ``selection_scores`` turns them into
one score array: r for WKH, r^2 / s for SBQ, and -inf for every candidate
whose s falls below ``TAU_DEP``, so dependent candidates are masked in
bulk rather than tried and rejected, and the pick is a plain ``argmax``.
In ``run_greedy`` the pair comes from ``PoolScores``, which folds each
accepted atom into the whole pool in O(n (i + d)) for n candidates in d
dimensions at step i, and the scores are written into buffers allocated
once per run, so the kernel row is a step's only allocation of the pool's
length; ``wkh_select`` and ``sbq_select`` recompute the pair from scratch
for one step.  ``run_greedy`` prepares the pool once per call
(``Kernel.prepare``: the unit features of a feature kernel) and checks the
kernel's diagonal on it.  Each step then takes one kernel row, the chosen
point's k(x, pool), as one cross product of slices of the prepared pool,
and hands it to both the state and the pool; the baselines likewise reuse
the pool's embeddings and one kernel row per pick instead of evaluating
the target point by point.

Selection is deterministic: ties always go to the lowest pool id (pools
list their rows by ascending id and ``argmax`` takes the first maximum), and a
fixed (method, pool, target, kernel, k, seed) tuple always reproduces the
same id sequence; the seed only drives MC_RANDOM's draws.  The kernel must
be the target's own (``KernelMismatch`` otherwise) and standardized on the
pool (``StandardizationError`` otherwise).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import CandidatePool, Kernel, StandardizationError, unit_diagonal
from .state import (
    G_ROUNDOFF,
    TAU_DEP,
    NearDependentAtom,
    PoolScores,
    QuadratureState,
    check_kernel,
    new_state,
)
from .targets import TargetEmbedding


class EmptyPool(Exception):
    """No candidates left to score."""


class AllDependent(Exception):
    """Every remaining candidate is numerically dependent on the atoms."""


class Method(str, enum.Enum):
    WKH = "WKH"
    SBQ = "SBQ"
    KH_UNIFORM = "KH_UNIFORM"
    MC_RANDOM = "MC_RANDOM"


# the methods that solve for optimal weights; the others weight uniformly
OPTIMAL_WEIGHT_METHODS = (Method.WKH, Method.SBQ)


@dataclass
class TraceRow:
    iteration: int
    chosen_id: int
    mmd_sq: float
    elapsed_ms: float


@dataclass
class RunTrace:
    method: str
    rows: list[TraceRow] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def mmd_values(self) -> np.ndarray:
        return np.array([r.mmd_sq for r in self.rows])

    @property
    def chosen_ids(self) -> list[int]:
        return [r.chosen_id for r in self.rows]

    @property
    def final_mmd_sq(self) -> float:
        return self.rows[-1].mmd_sq if self.rows else float("nan")


def selection_scores(method: Method, resid: np.ndarray, schur: np.ndarray,
                     out: np.ndarray | None = None, mask: np.ndarray | None = None) -> np.ndarray:
    """Greedy scores, -inf for every dependent candidate.

    WKH scores the residual correlation r, SBQ the one-step drop r^2 / s.
    A candidate whose Schur complement s is below ``TAU_DEP`` (or NaN) would
    make the Cholesky factor singular, so it scores -inf under either rule
    and a maximum of -inf means no candidate is independent.  The scores
    are written into ``out`` (float) and the mask into ``mask`` (bool) when
    given, arrays shaped like ``resid``; otherwise both are allocated.
    """
    independent = np.greater_equal(schur, TAU_DEP, out=mask)
    if method is Method.SBQ:
        out = np.square(resid, out=out)
        # s >= TAU_DEP wherever the quotient is taken: r^2 / max(s, TAU_DEP)
        np.divide(out, schur, out=out, where=independent)
    elif out is None:
        out = np.array(resid, dtype=float)
    else:
        np.copyto(out, resid)
    np.copyto(out, -np.inf, where=np.logical_not(independent, out=independent))
    return out


def _select(method: Method, state: QuadratureState, pool: CandidatePool, excluded_ids) -> int:
    excluded = np.isin(pool.ids, np.asarray(list(excluded_ids), dtype=int))
    if excluded.all():
        raise EmptyPool("no candidates left")
    scores = selection_scores(
        method, state.residual_correlations(pool.points), state.schur_complements(pool.points))
    scores[excluded] = -np.inf
    row = int(np.argmax(scores))
    if scores[row] == -np.inf:
        raise AllDependent("every candidate is numerically dependent")
    return int(pool.ids[row])


def wkh_select(state: QuadratureState, pool: CandidatePool, excluded_ids=()) -> int:
    """Pool id with the largest residual correlation z(x) - k_x^T w.

    Candidates whose Schur complement falls below the dependence threshold
    are not eligible; if no candidate is eligible ``AllDependent`` is
    raised.
    """
    return _select(Method.WKH, state, pool, excluded_ids)


def sbq_select(state: QuadratureState, pool: CandidatePool, excluded_ids=()) -> int:
    """Pool id with the largest one-step variance reduction.

    Candidates whose Schur complement falls below the dependence threshold
    are not eligible; if no candidate is eligible ``AllDependent`` is
    raised.
    """
    return _select(Method.SBQ, state, pool, excluded_ids)


class UniformAccumulator:
    """Herding state under uniform weights 1/n, built from the self-energy c.

    Tracks the chosen ids (repeats allowed), their mean-embedding values and
    the running pairwise similarity sum, so the uniform-weight squared MMD

        c - 2 mean_i z_i + mean_{i,j} k(x_i, x_j)

    is available after every step.  ``run_greedy`` returns one for the
    uniform-weight baselines, KH_UNIFORM and MC_RANDOM.
    """

    def __init__(self, self_energy: float):
        self.self_energy = float(self_energy)
        self.atom_ids: list[int] = []
        self.embeds: list[float] = []
        self._pair_sum = 0.0

    @property
    def size(self) -> int:
        return len(self.atom_ids)

    @property
    def mmd_sq(self) -> float:
        n = self.size
        if n == 0:
            return self.self_energy
        return self.self_energy - 2.0 * float(np.mean(self.embeds)) + self._pair_sum / n**2

    def add(self, pool_id: int, embed: float, k_atoms: np.ndarray, k_self: float) -> None:
        """Append point ``pool_id`` with its embedding z(x), its kernel entries
        k(x, x_i) at the atoms so far, in atom order, and k(x, x)."""
        self._pair_sum += 2.0 * float(np.sum(k_atoms)) + float(k_self)
        self.atom_ids.append(int(pool_id))
        self.embeds.append(float(embed))


def run_greedy(method, pool: CandidatePool, target: TargetEmbedding, kernel: Kernel, k: int,
               seed: int = 0):
    """Run ``k`` selection iterations of the given method over the pool.

    Returns ``(result, trace)`` where ``result`` is a ``QuadratureState``
    (WKH / SBQ) or a ``UniformAccumulator`` (KH_UNIFORM / MC_RANDOM).  The
    trace records one row per iteration with the chosen id, the objective
    value of ``result`` after the step and wall time.  The g column is
    guaranteed non-increasing only for WKH and SBQ; under uniform weights
    single steps can raise it.  Early-stop reasons: ``objective_floor``
    once mmd_sq <= ``state.G_ROUNDOFF``, below which g is round-off
    (WKH/SBQ), ``all_dependent`` when no independent candidate remains, and
    ``pool_exhausted``.  ``KernelMismatch`` is raised when ``kernel`` is
    not ``target.kernel``.
    """
    method = Method(method)
    check_kernel(target, kernel)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(pool) == 0:
        raise EmptyPool("empty candidate pool")
    prepared = kernel.prepare(pool.points)
    diag = kernel.diagonal(prepared)
    if not unit_diagonal(diag):
        raise StandardizationError("kernel is not standardized on this pool")
    trace = RunTrace(method=method.value)
    t0 = time.perf_counter()
    z_all = target.mean_embed_many(pool.points)

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1e3

    if method in OPTIMAL_WEIGHT_METHODS:
        state = new_state(target, kernel)
        core = PoolScores(state, z_all, diag, capacity=k)
        atom_rows = np.empty(min(k, len(pool)), dtype=int)
        scores, mask = np.empty(len(pool)), np.empty(len(pool), dtype=bool)
        for it in range(1, k + 1):
            if state.mmd_sq <= G_ROUNDOFF:
                trace.stop_reason = "objective_floor"
                break
            if state.size == len(pool):
                trace.stop_reason = "pool_exhausted"
                break
            row = None
            while row is None:
                selection_scores(method, core.resid, core.schur, out=scores, mask=mask)
                row = int(np.argmax(scores))
                if scores[row] == -np.inf:
                    row = None
                    break
                k_row = kernel.cross(prepared[row:row + 1], prepared)[0]
                try:
                    state.add_atom(pool.points[row], pool.ids[row], embed=z_all[row],
                                   k_atoms=k_row[atom_rows[:state.size]], k_self=k_row[row])
                except NearDependentAtom as err:
                    # add_atom's own Schur complement outranks the pool-wide
                    # one; recording it masks the row from now on.
                    core.schur[row] = err.schur
                    row = None
            if row is None:
                trace.stop_reason = "all_dependent"
                break
            core.extend(row, k_row)
            atom_rows[state.size - 1] = row
            trace.rows.append(TraceRow(it, int(pool.ids[row]), state.mmd_sq, elapsed_ms()))
        return state, trace

    if method is Method.KH_UNIFORM:
        acc = UniformAccumulator(target.self_energy())
        ksum = np.zeros(len(pool))
        chosen_rows = []
        for it in range(1, k + 1):
            if len(chosen_rows) == len(pool):
                trace.stop_reason = "pool_exhausted"
                break
            scores = z_all - ksum / (acc.size + 1)
            scores[chosen_rows] = -np.inf  # the driver never picks a point twice
            row = int(np.argmax(scores))
            k_row = kernel.cross(prepared[row:row + 1], prepared)[0]
            acc.add(pool.ids[row], embed=z_all[row], k_atoms=k_row[chosen_rows], k_self=k_row[row])
            chosen_rows.append(row)
            ksum += k_row
            trace.rows.append(TraceRow(it, int(pool.ids[row]), acc.mmd_sq, elapsed_ms()))
        return acc, trace

    # MC_RANDOM: every draw counts as one iteration and as a selected point,
    # dependent draws included.
    acc = UniformAccumulator(target.self_energy())
    order = np.random.default_rng(seed).permutation(len(pool))
    for it, row in enumerate(order[:k], start=1):
        # one kernel row against every draw so far, this one last
        k_row = kernel.cross(prepared[row:row + 1], prepared[order[:it]])[0]
        acc.add(pool.ids[row], embed=z_all[row], k_atoms=k_row[:-1], k_self=k_row[-1])
        trace.rows.append(TraceRow(it, int(pool.ids[row]), acc.mmd_sq, elapsed_ms()))
    if len(order) < k:
        trace.stop_reason = "pool_exhausted"
    return acc, trace
