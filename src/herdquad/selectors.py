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
pick instead of evaluating the target point by point.  Their bookkeeping
is O(1) per step besides that row: the ``UniformAccumulator`` keeps its
embeddings in a doubling buffer, KH_UNIFORM scores into a buffer of the
run and MC_RANDOM gathers its prepared draws once.  MC_RANDOM's draws take
one pass: ``UniformAccumulator.extend`` reads their kernel entries from a
generator, one cross per draw, and computes g after each draw with no
method or property call per draw.

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


class UniformAccumulator:
    """Herding state under uniform weights 1/n, built from the self-energy c.

    Tracks the chosen ids (repeats allowed), their mean-embedding values and
    the running pairwise similarity sum, so the uniform-weight squared MMD

        c - 2 mean_i z_i + mean_{i,j} k(x_i, x_j)

    is available after every step.  ``run_greedy`` returns one for the
    uniform-weight baselines, KH_UNIFORM and MC_RANDOM.  The embeddings sit
    in a buffer that doubles when it fills, so a point costs O(1) besides
    its kernel row's sum and the one sum of the mean, which is the sum
    ``np.mean`` takes.  ``extend`` is the one place that computes g;
    ``add`` appends one point through it.
    """

    def __init__(self, self_energy: float):
        self.self_energy = float(self_energy)
        self.atom_ids: list[int] = []
        self._embeds = np.empty(64)
        self._pair_sum = 0.0
        self._mmd_sq = self.self_energy

    @property
    def size(self) -> int:
        return len(self.atom_ids)

    @property
    def mmd_sq(self) -> float:
        return self._mmd_sq

    def add(self, pool_id: int, embed: float, k_atoms: np.ndarray, k_self: float) -> None:
        """Append point ``pool_id`` with its embedding z(x), its kernel entries
        k(x, x_i) at the atoms so far, in atom order, and k(x, x)."""
        self.extend((pool_id,), (embed,), ((k_atoms, k_self),))

    def extend(self, pool_ids, embeds, entries) -> list[float]:
        """Append the points ``pool_ids`` in order and return g after each.

        ``embeds`` holds their embeddings z(x), and ``entries`` yields one
        pair per point: its kernel entries k(x, x_i) at the atoms before
        it, in atom order, and k(x, x).  It is read lazily, one pair per
        point, so a generator may compute each pair when it is asked for
        the next.  No state changes until the last pair is read.
        """
        n, m = len(self.atom_ids), len(pool_ids)
        buf = self._embeds
        if n + m > buf.size:
            size = buf.size
            while size < n + m:
                size *= 2
            buf = np.concatenate([buf[:n], np.empty(size - n)])
        buf[n:n + m] = embeds
        c, pair, reduce = self.self_energy, self._pair_sum, np.add.reduce
        g = []
        for k_atoms, k_self in entries:
            n += 1
            pair += 2.0 * float(reduce(k_atoms)) + float(k_self)
            g.append(c - 2.0 * (float(reduce(buf[:n])) / n) + pair / n**2)
        if len(g) != m:
            raise ValueError(f"{m} points need {m} pairs of kernel entries, got {len(g)}")
        self._embeds, self._pair_sum = buf, pair
        if g:
            self._mmd_sq = g[-1]
        self.atom_ids += map(int, pool_ids)
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
    (WKH / SBQ) or a ``UniformAccumulator`` (KH_UNIFORM / MC_RANDOM).  The
    trace records one row per iteration with the chosen id, the objective
    value of ``result`` after the step and the wall time since the
    selection began, the pool's setup excluded.  The g column is
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
    # dependent draws included.  The accumulator reads one kernel row per
    # draw, against every draw so far, this one last, from a generator that
    # computes it when asked; a draw's time is read when the accumulator asks
    # for the next draw's entries, so it counts the draw's g.
    order = np.random.default_rng(seed).permutation(n)[:k]
    drawn, draw_ids, cross, elapsed = prepared[order], pool.ids[order].tolist(), kernel.cross, []

    def entries():
        for it in range(1, order.size + 1):
            row = cross(drawn[it - 1:it], drawn[:it])[0]
            yield row[:-1], row[-1]
            elapsed.append(elapsed_ms())

    g = acc.extend(draw_ids, z_all[order], entries())
    trace.rows = list(map(TraceRow, range(1, order.size + 1), draw_ids, g, elapsed))
    if n < k:
        trace.stop_reason = "pool_exhausted"
    return acc, trace
