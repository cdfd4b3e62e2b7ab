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
for one step.

``run_greedy`` reads the pool's setup from ``setup_pool``, which checks
the kernel against the target, prepares the pool once (``Kernel.prepare``:
the unit features of a feature kernel), checks the kernel's diagonal on it
and embeds the pool under the target.  The ``PoolSetup`` depends on no
method, budget or seed, and the pool keeps it, so every selection from one
(pool, target) shares one setup; ``CandidatePool.take`` hands a sub-pool,
like a shard of ``run_distributed``, its rows of it.  Each step takes one
kernel row, the chosen point's k(x, pool), as one cross product of slices
of the prepared pool, and hands it to both the state and the pool; the
baselines likewise reuse the pool's embeddings and one kernel row per pick
instead of evaluating the target point by point.  Their bookkeeping is
O(1) per step besides that row: the ``UniformAccumulator`` keeps its
embeddings in a doubling buffer, KH_UNIFORM scores into a buffer of the
run and MC_RANDOM gathers its prepared draws once.

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
    if method is Method.SBQ:
        out = np.square(resid, out=out)
        # dependent rows divide by a tiny, zero, negative or NaN s; they are
        # overwritten below, so their warnings are noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(out, schur, out=out)
    elif out is None:
        out = np.array(resid, dtype=float)
    else:
        np.copyto(out, resid)
    # not (s >= TAU_DEP) rather than s < TAU_DEP, so that a NaN s is dependent
    independent = np.greater_equal(schur, TAU_DEP, out=mask)
    out[np.logical_not(independent, out=independent)] = -np.inf
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
    uniform-weight baselines, KH_UNIFORM and MC_RANDOM.  The embeddings sit
    in a buffer that doubles when it fills, so a step costs O(1) besides
    the one sum of the mean, which is the sum ``np.mean`` takes.
    """

    def __init__(self, self_energy: float):
        self.self_energy = float(self_energy)
        self.atom_ids: list[int] = []
        self._embeds = np.empty(64)
        self._pair_sum = 0.0

    @property
    def size(self) -> int:
        return len(self.atom_ids)

    @property
    def embeds(self) -> np.ndarray:
        """z(x_i) at the atoms, in atom order; a view of the buffer."""
        return self._embeds[:self.size]

    @property
    def mmd_sq(self) -> float:
        n = self.size
        if n == 0:
            return self.self_energy
        mean = float(np.add.reduce(self._embeds[:n])) / n
        return self.self_energy - 2.0 * mean + self._pair_sum / n**2

    def add(self, pool_id: int, embed: float, k_atoms: np.ndarray, k_self: float) -> None:
        """Append point ``pool_id`` with its embedding z(x), its kernel entries
        k(x, x_i) at the atoms so far, in atom order, and k(x, x)."""
        self._pair_sum += 2.0 * float(k_atoms.sum()) + float(k_self)
        n = self.size
        if n == self._embeds.size:
            self._embeds = np.concatenate([self._embeds, np.empty(n)])
        self._embeds[n] = embed
        self.atom_ids.append(int(pool_id))


@dataclass(frozen=True)
class PoolSetup:
    """A pool's setup for selection against one target, kept by the pool.

    ``prepared`` is ``kernel.prepare(pool.points)``, ``diag`` the kernel's
    diagonal on it (all ones within ``STANDARDIZATION_TOL``) and ``embeds``
    the target's mean embedding z at every pool point; the three arrays are
    made read-only on construction.  None of them depends on the method,
    the budget or the seed, so one setup serves every run on the pool, and
    ``CandidatePool.take`` hands a sub-pool its rows of it.  The setup
    holds no reference to its pool, so pool and setup form no cycle.  The
    flags hold in the calling process only: a process worker unpickles
    writeable copies, and nothing writes into them.
    """

    target: TargetEmbedding
    prepared: np.ndarray
    diag: np.ndarray
    embeds: np.ndarray

    def __post_init__(self):
        self.prepared.flags.writeable = self.diag.flags.writeable = False
        self.embeds.flags.writeable = False


def setup_pool(pool: CandidatePool, target: TargetEmbedding, kernel: Kernel) -> PoolSetup:
    """Check and prepare ``pool`` for selections against ``target`` under ``kernel``.

    The pool keeps its setup against its latest target, so a call with the
    same target object returns it with no kernel or target call; the target
    embeds the prepared rows without preparing them again.  Raises
    ``KernelMismatch`` when ``kernel`` is not ``target.kernel``,
    ``EmptyPool`` for an empty pool and ``StandardizationError`` when the
    kernel's diagonal on the pool is not 1.
    """
    check_kernel(target, kernel)
    setup = pool._setup  # read once: another thread may replace it
    if setup is not None and setup.target is target:
        return setup
    if len(pool) == 0:
        raise EmptyPool("empty candidate pool")
    prepared = kernel.prepare(pool.points)
    diag = kernel.diagonal(prepared)
    if not unit_diagonal(diag):
        raise StandardizationError("kernel is not standardized on this pool")
    setup = PoolSetup(target, prepared, diag, target.mean_embed_many(prepared, prepared=True))
    object.__setattr__(pool, "_setup", setup)
    return setup


def run_greedy(method, pool: CandidatePool, target: TargetEmbedding, kernel: Kernel, k: int,
               seed: int = 0):
    """Run ``k`` selection iterations of the given method over the pool.

    Returns ``(result, trace)`` where ``result`` is a ``QuadratureState``
    (WKH / SBQ) or a ``UniformAccumulator`` (KH_UNIFORM / MC_RANDOM).  The
    trace records one row per iteration with the chosen id, the objective
    value of ``result`` after the step and the wall time since the
    selection began, the pool's setup excluded.  The g column is
    guaranteed non-increasing only for WKH and SBQ; under uniform weights
    single steps can raise it.  Early-stop reasons: ``objective_floor``
    once mmd_sq <= ``state.G_ROUNDOFF``, below which g is round-off
    (WKH/SBQ), ``all_dependent`` when no independent candidate remains, and
    ``pool_exhausted``.  ``KernelMismatch`` is raised when ``kernel`` is
    not ``target.kernel``.
    """
    method = Method(method)
    if k < 1:
        raise ValueError("k must be at least 1")
    setup = setup_pool(pool, target, kernel)
    prepared, z_all, n = setup.prepared, setup.embeds, len(pool)
    trace = RunTrace(method=method.value)
    t0 = time.perf_counter()

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1e3

    if method in OPTIMAL_WEIGHT_METHODS:
        state = new_state(target, kernel)
        core = PoolScores(state, z_all, setup.diag, capacity=k)
        atom_rows = np.empty(min(k, n), dtype=int)
        scores, mask = np.empty(n), np.empty(n, dtype=bool)
        while state.size < k:
            if state.mmd_sq <= G_ROUNDOFF:
                trace.stop_reason = "objective_floor"
                break
            if state.size == n:
                trace.stop_reason = "pool_exhausted"
                break
            selection_scores(method, core.resid, core.schur, out=scores, mask=mask)
            row = int(np.argmax(scores))
            if scores[row] == -np.inf:
                trace.stop_reason = "all_dependent"
                break
            k_row = kernel.cross(prepared[row:row + 1], prepared)[0]
            try:
                state.add_atom(pool.points[row], pool.ids[row], embed=z_all[row],
                               k_atoms=k_row[atom_rows[:state.size]], k_self=k_row[row])
            except NearDependentAtom as err:
                # add_atom's own Schur complement outranks the pool-wide
                # one; recording it masks the row from now on.
                core.schur[row] = err.schur
                continue
            core.extend(row, k_row)
            atom_rows[state.size - 1] = row
            trace.rows.append(TraceRow(state.size, int(pool.ids[row]), state.mmd_sq,
                                       elapsed_ms()))
        return state, trace

    acc = UniformAccumulator(target.self_energy())
    if method is Method.KH_UNIFORM:
        ksum = np.zeros(n)
        scores = np.empty(n)
        chosen_rows = np.empty(min(k, n), dtype=int)
        for it in range(1, k + 1):
            size = acc.size
            if size == n:
                trace.stop_reason = "pool_exhausted"
                break
            # z - ksum / (size + 1), computed in the scores buffer
            np.subtract(z_all, np.divide(ksum, size + 1, out=scores), out=scores)
            scores[chosen_rows[:size]] = -np.inf  # the driver never picks a point twice
            row = int(np.argmax(scores))
            k_row = kernel.cross(prepared[row:row + 1], prepared)[0]
            acc.add(pool.ids[row], embed=z_all[row], k_atoms=k_row[chosen_rows[:size]],
                    k_self=k_row[row])
            chosen_rows[size] = row
            ksum += k_row
            trace.rows.append(TraceRow(it, int(pool.ids[row]), acc.mmd_sq, elapsed_ms()))
        return acc, trace

    # MC_RANDOM: every draw counts as one iteration and as a selected point,
    # dependent draws included.
    order = np.random.default_rng(seed).permutation(n)[:k]
    drawn = prepared[order]
    draws = zip(pool.ids[order].tolist(), z_all[order].tolist())  # Python numbers, converted once
    for it, (pool_id, embed) in enumerate(draws, start=1):
        # one kernel row against every draw so far, this one last
        k_row = kernel.cross(drawn[it - 1:it], drawn[:it])[0]
        acc.add(pool_id, embed, k_row[:-1], k_row[-1])
        trace.rows.append(TraceRow(it, pool_id, acc.mmd_sq, elapsed_ms()))
    if n < k:
        trace.stop_reason = "pool_exhausted"
    return acc, trace
