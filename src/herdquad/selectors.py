"""Greedy atom-selection rules and the per-run driver.

Four methods share one driver:

* ``WKH``        greedy selection by residual correlation, optimal weights.
* ``SBQ``        greedy selection by one-step variance reduction, optimal
                 weights; per-iteration it dominates WKH by construction.
* ``KH_UNIFORM`` classic herding with uniform weights; the driver never
                 picks a point twice.
* ``MC_RANDOM``  uniform draws without replacement, uniform weights.

The result type follows the weighting: WKH and SBQ return a
``QuadratureState``, the two baselines a ``UniformResult`` of their ids and
final g, whose trace ``uniform_g`` computes.

WKH and SBQ read one pair of pool-wide arrays, the residual correlations
r and the Schur complements s, and ``selection_scores`` turns them into
one score array: r for WKH, r^2 / s for SBQ, and -inf for every candidate
whose s falls below ``TAU_DEP``, so dependent candidates are masked in
bulk rather than tried and rejected, and the pick is a plain ``argmax``.
In ``run_greedy`` the pair comes from ``PoolScores``, which folds each
accepted atom into the whole pool in O(n (i + d)) for n candidates in d
dimensions at step i, and the scores are written into buffers allocated
once per run, so the kernel row is a step's only allocation of the pool's
length; ``wkh_select`` and ``sbq_select`` compute the pair for one step
from scratch, with ``QuadratureState.scores`` on the pool's ``PoolSetup``.

On a shard of a few thousand candidates a step is mostly short numpy calls
over the shard.  numpy releases the GIL inside every ufunc call over more
than 500 elements and takes it back at the call's end, so two thread
workers of ``run_distributed`` hand the GIL to each other at almost every
call; those handoffs, not arithmetic that holds the GIL, bound how far the
workers overlap.  ``run_greedy`` keeps a step's calls and Python few: it
counts the atoms in a local, reads the pool's arrays and ``PoolScores``'
r and s once per run, picks with ``scores.argmax()``, and enters the
``np.errstate`` that silences SBQ's division by a dependent s once per
run; ``selection_scores`` enters its own for a direct caller.

``run_greedy`` reads the pool's ``PoolSetup`` (its prepared points,
kernel diagonal and target embeddings, described there) from
``setup_pool`` and hands the prepared points to ``PoolScores``, which owns
each pick's kernel row k(x, pool): ``PoolScores.entries`` gives the state
its entries at the atoms and at x, and the step folds the row into the
pool.  On a small pool, or under the feature kernel, the row is one cross
of slices of the prepared pool, computed before ``add_atom``.  On a large
pool under the RBF kernel ``PoolScores`` steps column blocks on helper
threads, one per core; ``entries`` then crosses x with the atoms alone,
and each block computes its own columns of the row inside the step, in
the order its docstring gives with the timings that chose it.  The
baselines likewise reuse the pool's embeddings and one kernel row per
pick instead of evaluating the target point by point, and compute their g
in one pass of ``uniform_g`` over one pair of kernel entries per point,
kept by one loop per baseline: KH_UNIFORM's herds each point, MC_RANDOM's
crosses each draw with the draws before it.

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

from .kernels import CandidatePool, Kernel, StandardizationError, check_count, unit_diagonal
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


# dependent rows divide by a tiny, zero, negative or NaN s; their scores are
# overwritten with -inf, so the warnings of the division are noise
_SCORE_ERRSTATE = dict(divide="ignore", invalid="ignore", over="ignore")


def selection_scores(method: Method, resid: np.ndarray, schur: np.ndarray) -> np.ndarray:
    """Greedy scores, -inf for every dependent candidate.

    WKH scores the residual correlation r, SBQ the one-step drop r^2 / s.
    A candidate whose Schur complement s is below ``TAU_DEP`` (or NaN) would
    make the Cholesky factor singular, so it scores -inf under either rule
    and a maximum of -inf means no candidate is independent.
    """
    with np.errstate(**_SCORE_ERRSTATE):
        return _scores(method, resid, schur, None, None)


def _scores(method: Method, resid: np.ndarray, schur: np.ndarray, out: np.ndarray | None,
            mask: np.ndarray | None) -> np.ndarray:
    """``selection_scores`` under the caller's ``np.errstate``, which must
    ignore what ``_SCORE_ERRSTATE`` ignores, into the float buffer ``out``
    and the bool buffer ``mask``, shaped like ``resid``, when given;
    ``run_greedy`` enters the state and allocates the buffers once per run."""
    if method is Method.SBQ:
        out = np.square(resid, out=out)
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
    setup = setup_pool(pool, state.target, state.kernel)
    scores = selection_scores(method, *state.scores(setup.prepared, setup.embeds, setup.diag))
    scores[excluded] = -np.inf
    row = int(np.argmax(scores))
    if scores[row] == -np.inf:
        raise AllDependent("every candidate is numerically dependent")
    return int(pool.ids[row])


def wkh_select(state: QuadratureState, pool: CandidatePool, excluded_ids=()) -> int:
    """Pool id with the largest residual correlation z(x) - k_x^T w; else as ``sbq_select``."""
    return _select(Method.WKH, state, pool, excluded_ids)


def sbq_select(state: QuadratureState, pool: CandidatePool, excluded_ids=()) -> int:
    """Pool id with the largest one-step variance reduction r^2 / s.

    Neither selector picks an excluded id or a candidate whose Schur
    complement falls below the dependence threshold.  ``EmptyPool`` is
    raised when every id is excluded, ``AllDependent`` when no candidate is
    eligible and ``StandardizationError`` when the kernel is not
    standardized on the pool.
    """
    return _select(Method.SBQ, state, pool, excluded_ids)


@dataclass
class UniformResult:
    """The points of a uniform-weight run, KH_UNIFORM or MC_RANDOM, in
    order, and g with weights 1/n after the last of them."""

    atom_ids: list[int]
    mmd_sq: float

    @property
    def size(self) -> int:
        return len(self.atom_ids)


def uniform_g(self_energy: float, embeds: np.ndarray, entries) -> list[float]:
    """The uniform-weight squared MMD after each point of a run, in order,

        c - 2 mean_i z_i + mean_{i,j} k(x_i, x_j)

    for the target's self-energy c.  ``embeds`` is the float array of the
    points' embeddings z(x), and ``entries`` holds one pair per point: the
    sum of k(x, x_i) over the points before it, and k(x, x).  A point costs
    the sum of the mean, which is the sum ``np.mean`` takes, and no method or
    property call.
    """
    c, pair, reduce = float(self_energy), 0.0, np.add.reduce
    g = []
    for n, (k_sum, k_self) in enumerate(entries, start=1):
        pair += 2.0 * float(k_sum) + float(k_self)
        g.append(c - 2.0 * (float(reduce(embeds[:n])) / n) + pair / n**2)
    return g


@dataclass(frozen=True, eq=False)
class PoolSetup:
    """What every selection from a pool against one target reads of the pool.

    ``setup_pool`` builds it: ``prepared`` is ``kernel.prepare(pool.points)``,
    ``diag`` the kernel's diagonal on it, all ones within
    ``STANDARDIZATION_TOL``, and ``embeds`` the target's mean embedding z at
    every pool point, computed from the prepared rows.  The three arrays are
    read-only in the calling process; a process worker unpickles writeable
    copies, and nothing writes into them.

    None of it depends on the method, the budget or the seed, so one setup
    serves every run on the pool.  The pool keeps the setup of its latest
    target in ``_setup``: a call with that target object reuses it with no
    kernel or target call, and one with another target replaces it.  The
    setup holds no reference to its pool, so the two form no cycle.

    ``CandidatePool.take`` hands a sub-pool, like a shard or the aggregator's
    pool of ``run_distributed``, its rows of the setup with no kernel or
    target call.  Under RBF with a Gaussian mixture they are bit for bit the
    setup the sub-pool would build itself; under the feature kernel with a
    discrete target the embedding is a BLAS product, which rounds with the
    pool's length, so they agree to round-off.  A setup equals and hashes as
    itself only.
    """

    target: TargetEmbedding
    prepared: np.ndarray
    diag: np.ndarray
    embeds: np.ndarray

    def __post_init__(self):
        self.prepared.flags.writeable = self.diag.flags.writeable = False
        self.embeds.flags.writeable = False


def setup_pool(pool: CandidatePool, target: TargetEmbedding, kernel: Kernel) -> PoolSetup:
    """Check and prepare ``pool`` for selections against ``target`` under
    ``kernel``: its kept ``PoolSetup`` when that is for ``target``, else a
    new one, which the pool then keeps.

    Raises ``KernelMismatch`` when ``kernel`` is not ``target.kernel``,
    ``EmptyPool`` for an empty pool and ``StandardizationError`` when the
    kernel's diagonal on the pool is not 1.
    """
    check_kernel(target, kernel)
    if len(pool) == 0:
        raise EmptyPool("empty candidate pool")
    setup = pool._setup  # read once: another thread may replace it
    if setup is not None and setup.target is target:
        return setup
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
    (WKH / SBQ) or a ``UniformResult`` (KH_UNIFORM / MC_RANDOM).  The
    trace records one row per iteration with the chosen id, the objective
    value of ``result`` after the step and the wall time since the
    selection began, the pool's setup excluded; KH_UNIFORM and MC_RANDOM
    read a point's time once its kernel entries are known, so it does not
    include g, which one pass computes after the last point.  The g column is
    guaranteed non-increasing only for WKH and SBQ; under uniform weights
    single steps can raise it.  Early-stop reasons: ``objective_floor``
    once mmd_sq <= ``state.G_ROUNDOFF``, below which g is round-off
    (WKH/SBQ), ``all_dependent`` when no independent candidate remains, and
    ``pool_exhausted``.  ``KernelMismatch`` is raised when ``kernel`` is
    not ``target.kernel``; ``k`` must be an int of at least 1 and ``seed``
    one of at least 0, under every method.
    """
    method = Method(method)
    check_count("k", k)
    check_count("seed", seed, least=0)
    setup = setup_pool(pool, target, kernel)
    prepared, z_all, n = setup.prepared, setup.embeds, len(pool)
    trace = RunTrace()
    t0 = time.perf_counter()

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1e3

    if method in OPTIMAL_WEIGHT_METHODS:
        state = new_state(target, kernel)
        core = PoolScores(state, prepared, z_all, setup.diag, capacity=k)
        resid, schur, ids, points = core.resid, core.schur, pool.ids, pool.points
        entries = core.entries
        scores, mask = np.empty(n), np.empty(n, dtype=bool)
        size = 0  # state.size, kept here: the loop reads it several times a step
        with core.steps() as step, np.errstate(**_SCORE_ERRSTATE):
            while size < k:
                if state.mmd_sq <= G_ROUNDOFF:
                    trace.stop_reason = "objective_floor"
                    break
                if size == n:
                    trace.stop_reason = "pool_exhausted"
                    break
                _scores(method, resid, schur, scores, mask)
                row = int(scores.argmax())
                if scores[row] == -np.inf:
                    trace.stop_reason = "all_dependent"
                    break
                k_atoms, k_self = entries(row)
                try:
                    state.add_atom(points[row], ids[row], embed=z_all[row],
                                   k_atoms=k_atoms, k_self=k_self)
                except NearDependentAtom as err:
                    # add_atom's own Schur complement outranks the pool-wide
                    # one; recording it masks the row from now on.
                    schur[row] = err.schur
                    continue
                step(row)
                size += 1
                trace.rows.append(TraceRow(size, int(ids[row]), state.mmd_sq, elapsed_ms()))
        return state, trace

    # KH_UNIFORM and MC_RANDOM: every point counts as one iteration and as a
    # selected point, a dependent one included
    if method is Method.KH_UNIFORM:
        # ksum is the sum of the picked rows' kernel rows
        ksum, rows, entries, elapsed = np.zeros(n), [], [], []
        for _ in range(min(k, n)):
            scores = z_all - ksum / (len(rows) + 1)
            scores[rows] = -np.inf  # the driver never picks a point twice
            row = int(np.argmax(scores))
            k_row = kernel.cross(prepared[row:row + 1], prepared)[0]
            entries.append((np.add.reduce(k_row[rows]), k_row[row]))
            rows.append(row)
            ksum += k_row
            elapsed.append(elapsed_ms())
    else:
        # one kernel row per draw, against every draw so far, this one last
        rows = np.random.default_rng(seed).permutation(n)[:k]
        drawn, entries, elapsed = prepared[rows], [], []
        for it in range(1, rows.size + 1):
            k_row = kernel.cross(drawn[it - 1:it], drawn[:it])[0]
            entries.append((np.add.reduce(k_row[:-1]), k_row[-1]))
            elapsed.append(elapsed_ms())
    g = uniform_g(target.self_energy(), z_all[rows], entries)
    atom_ids = pool.ids[rows].tolist()
    trace.rows = list(map(TraceRow, range(1, len(g) + 1), atom_ids, g, elapsed))
    if n < k:
        trace.stop_reason = "pool_exhausted"
    return UniformResult(atom_ids, g[-1]), trace
