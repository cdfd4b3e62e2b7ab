"""Empirical checks of the convergence and approximation behavior.

These routines turn the analytical claims behind the selection algorithms
into testable statements on concrete instances:

* ``fit_rate``                 log-linear decay rate of an objective trace,
* ``brute_force_best_subset``  exhaustive oracle over small subsets,
* ``check_approx_guarantee``   greedy-vs-oracle bound with estimated
                               curvature constants,
* ``estimate_rsc_rss``         spectrum surrogate for those constants,
* ``orthogonality_residual``   weight-optimality audit,
* ``weight_summary``           sum, negative mass, l1 norm and g's round-off bound,
* ``realizability_fixtures``   instances where one or two atoms suffice,
* ``CHECKS``                   the ordered checks of ``herdquad diagnose``.

Dense solves here deliberately avoid the incremental Cholesky path of
``QuadratureState`` so the two routes stay independent checks of each
other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import CandidatePool, Kernel, NormalizedFeatureKernel, RBFKernel, check_count
from .selectors import Method, RunTrace, run_greedy
from .state import G_ROUNDOFF, TAU_DEP, QuadratureState, check_kernel, reported_g
from .targets import DiscreteTarget, TargetEmbedding

SUBSET_BUDGET = 10**6
REALIZED_G = 1e-6  # a subset with g at or below this represents the target exactly


class InsufficientPoints(ValueError):
    """Fewer than three trace points above the numerical floor, or one iteration for all."""


class CombinatorialBudgetExceeded(ValueError):
    """The subset count is too large for exhaustive search."""


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class OracleSubset:
    ids: tuple[int, ...]
    mmd_sq: float
    subsets_examined: int


def fit_rate(trace) -> RateFit:
    """Least-squares fit of log(objective) against the iteration index.

    Accepts a ``RunTrace`` or an iterable of (iteration, value) pairs.
    Values at or below ``state.G_ROUNDOFF``, where greedy runs stop, carry
    no rate information (they are round-off) and are excluded; fewer than
    three usable points, or usable points that share one iteration and so
    fix no slope, raise ``InsufficientPoints``.
    """
    if isinstance(trace, RunTrace):
        pairs = [(row.iteration, row.mmd_sq) for row in trace.rows]
    else:
        pairs = [(int(i), float(v)) for i, v in trace]
    usable = [(i, v) for i, v in pairs if np.isfinite(v) and v > G_ROUNDOFF]
    if len(usable) < 3:
        raise InsufficientPoints(f"need >= 3 points above {G_ROUNDOFF:g}, got {len(usable)}")
    if len({i for i, _ in usable}) < 2:
        raise InsufficientPoints(f"all {len(usable)} usable points sit at one iteration")
    x = np.array([i for i, _ in usable], dtype=float)
    y = np.log(np.array([v for _, v in usable]))
    xc = x - x.mean()
    yc = y - y.mean()
    slope = float(xc @ yc) / float(xc @ xc)
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        r_squared = 1.0
    else:
        resid = y - (intercept + slope * x)
        r_squared = 1.0 - float(resid @ resid) / ss_tot
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared, n_points=len(usable))


def _dense_objective(K: np.ndarray, z: np.ndarray, c: float, rows) -> float:
    """Optimal-weight objective for one subset, by dense LU solves.

    Rows are filtered to their maximal independent prefix: the scan stops
    at the first row whose Schur complement against the accepted prefix
    falls below the dependence threshold.
    """
    kept: list[int] = []
    for r in rows:
        kv = K[kept, r]
        schur = K[r, r] - (float(kv @ np.linalg.solve(K[np.ix_(kept, kept)], kv)) if kept else 0.0)
        if schur < TAU_DEP:
            break
        kept.append(r)
    zk = z[kept]  # empty when no row is kept: g = c
    return c - float(zk @ np.linalg.solve(K[np.ix_(kept, kept)], zk))


def brute_force_best_subset(pool: CandidatePool, target: TargetEmbedding,
                            kernel: Kernel, r: int) -> OracleSubset:
    """Exhaustive best subset of size at most ``r`` under optimal weights.

    Guards the budget with C(n, r) <= 10^6.  Scans sizes in ascending order
    and subsets in lexicographic id order; ties keep the first.  Every g at
    or below ``state.G_ROUNDOFF`` is a tie at 0, so the first such subset is
    returned at once rather than the most negative round-off.
    ``KernelMismatch`` is raised when ``kernel`` is not ``target.kernel``.
    """
    check_kernel(target, kernel)
    n = len(pool)
    check_count("r", r)
    if math.comb(n, min(r, n)) > SUBSET_BUDGET:
        raise CombinatorialBudgetExceeded(
            f"C({n}, {r}) = {math.comb(n, min(r, n))} exceeds the {SUBSET_BUDGET} budget")
    z = target.mean_embed_many(pool.points)
    K = kernel.gram(pool.points, pool.points)
    c = target.self_energy()
    best_g = np.inf
    best_rows: tuple[int, ...] = ()
    examined = 0
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, min(r, n) + 1))
    for examined, rows in enumerate(subsets, 1):
        g = _dense_objective(K, z, c, rows)
        if g < best_g:
            best_g, best_rows = g, rows
        if g <= G_ROUNDOFF:
            break
    return OracleSubset(ids=tuple(int(pool.ids[i]) for i in best_rows),
                        mmd_sq=float(best_g), subsets_examined=examined)


def estimate_rsc_rss(state: QuadratureState) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the selected-atom Gram matrix.

    These act as plug-in surrogates for the restricted curvature constants
    in the approximation bound; the caveat is that they are measured on the
    greedy run's own atoms rather than on every feasible subset.
    """
    if state.size < 1:
        raise ValueError("need at least one atom")
    return _spectrum(state.kernel, state.atoms)


def orthogonality_residual(state: QuadratureState) -> float:
    """max_j |z_j - (K w)_j| over the atoms; near zero iff weights are optimal."""
    if state.size < 1:
        raise ValueError("need at least one atom")
    return float(np.max(np.abs(state.embeds - state.gram @ state.weights)))


def weight_summary(weights: np.ndarray) -> dict:
    """The sum, the negative mass sum(max(-w, 0)) and the l1 norm of m
    weights, and the bound 4 m eps (1 + l1)^2 on the round-off of g = c -
    2 w'z + w'Kw: kernel values lie in [-1, 1], so each of its sums over
    m atoms rounds by at most about m eps (1 + l1)^2.  A g below the bound
    is round-off, not a measured value."""
    w = np.asarray(weights, dtype=float)
    l1 = float(np.abs(w).sum())
    return {"sum": float(w.sum()), "negative_mass": float(np.maximum(-w, 0.0).sum()), "l1": l1,
            "g_error_bound": 4 * w.size * float(np.finfo(float).eps) * (1.0 + l1) ** 2}


def _spectrum(kernel: Kernel, points: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(kernel.gram(points, points))
    return float(eigs[0]), float(eigs[-1])


def check_approx_guarantee(pool: CandidatePool, target: TargetEmbedding,
                           kernel: Kernel, r: int, epsilon: float) -> dict:
    """Test the greedy-vs-oracle bound on one instance.

    Runs WKH and SBQ to the full pool budget, estimates the curvature
    constants from the selected-atom spectrum, evaluates the trace at

        k = ceil(r * (M_hat / m_hat) * ln(1 / epsilon))

    (capped at the trace length; the objective only keeps falling), and
    asserts  g_k <= (1 - epsilon) * g_oracle + epsilon * c + 1e-8.  Each
    method's ``capped`` says the k needed exceeded the trace, so g was read
    at the end of a run that took the whole pool or reached the floor; the
    bound then cannot fail unless the weights are wrong.  The
    spectrum over the union of greedy and oracle atoms is reported next to
    the selected-atom one since the analysis constants live on supersets.
    ``KernelMismatch`` is raised when ``kernel`` is not ``target.kernel``.

    Cost: besides the oracle's at most C(n, r) subsets, two greedy runs to
    k = n = len(pool) and, per method, two eigenvalue problems of up to
    n x n, so O(n^3) however small the k it reads g at.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    oracle = brute_force_best_subset(pool, target, kernel, r)
    c = target.self_energy()
    bound_slack = 1e-8
    report = {
        "r": r,
        "epsilon": epsilon,
        "self_energy": c,
        "oracle": {"ids": list(oracle.ids), "mmd_sq": oracle.mmd_sq,
                   "subsets_examined": oracle.subsets_examined},
        "methods": {},
        "holds": True,
    }
    for method in (Method.WKH, Method.SBQ):
        state, trace = run_greedy(method, pool, target, kernel, k=len(pool), seed=0)
        m_hat, M_hat = estimate_rsc_rss(state)
        union_rows = sorted(set(state.atom_ids) | set(oracle.ids))
        union_points = np.vstack([pool.point_by_id(i) for i in union_rows])
        m_union, M_union = _spectrum(kernel, union_points)
        k_needed = math.ceil(r * (M_hat / m_hat) * math.log(1.0 / epsilon))
        k_used = min(max(k_needed, 1), len(trace.rows))
        g_at_k = trace.rows[k_used - 1].mmd_sq
        bound = (1.0 - epsilon) * oracle.mmd_sq + epsilon * c + bound_slack
        holds = bool(g_at_k <= bound)
        report["methods"][method.value] = {
            "k_needed": k_needed,
            "k_used": k_used,
            "capped": k_needed > len(trace.rows),
            "mmd_sq_at_k": g_at_k,
            "bound": bound,
            "m_hat": m_hat,
            "M_hat": M_hat,
            "m_hat_union": m_union,
            "M_hat_union": M_union,
            "holds": holds,
        }
        report["holds"] = report["holds"] and holds
    return report


@dataclass(frozen=True)
class RealizabilityFixture:
    name: str
    pool: CandidatePool
    target: TargetEmbedding
    expected_r: int


def _line_segment() -> tuple[CandidatePool, TargetEmbedding, int]:
    grid = np.linspace(-1.0, 1.0, 40).reshape(-1, 1)  # even count avoids the zero point
    dens = np.exp(-0.5 * ((grid[:, 0] - 0.25) / 0.1) ** 2)
    target = DiscreteTarget(support=grid, probs=dens / dens.sum(), kernel=NormalizedFeatureKernel())
    return CandidatePool.from_points(grid), target, 1


def _two_clusters() -> tuple[CandidatePool, TargetEmbedding, int]:
    rng = np.random.default_rng(7)
    ang_a = 0.3 + 0.08 * rng.standard_normal(12)
    ang_b = 2.2 + 0.08 * rng.standard_normal(12)
    radii = 0.5 + rng.random(24)
    angles = np.concatenate([ang_a, ang_b])
    pts = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    return CandidatePool.from_points(pts), DiscreteTarget.uniform(pts, NormalizedFeatureKernel()), 2


# fixture name -> builder of its (pool, target, expected_r)
_FIXTURES = {"line_segment": _line_segment, "two_clusters": _two_clusters}


def realizability_fixtures() -> list[RealizabilityFixture]:
    """Two instances pinning the minimal exactly-representing subset size.

    ``line_segment``: a 1-d identity-feature kernel collapses every point
    to a sign, so the embedding of a discretized bell-shaped target lies in
    the span of any single atom (r = 1).  The bell is centred at 0.25, so
    its signs do not cancel: c = 0.977, where a bell at 0 would give c = 0,
    which even the empty subset matches.

    ``two_clusters``: unit-normalized 2-d features from two angular
    clusters; the mean embedding points between the clusters, so no single
    atom's span contains it, but any two atoms that are not collinear span
    the whole 2-d feature space (r = 2).
    """
    return [RealizabilityFixture(name, *build()) for name, build in _FIXTURES.items()]


# report keys of the best g at 0, 1 and 2 atoms; m atoms read best_<m>_subset_mmd_sq
_SUBSET_KEYS = {0: "empty_mmd_sq", 1: "best_singleton_mmd_sq", 2: "best_pair_mmd_sq"}


def verify_realizability(fixture: RealizabilityFixture) -> dict:
    """Exhaustively check that ``expected_r`` atoms are enough (g <= ``REALIZED_G``)
    and ``expected_r - 1`` are not; the empty subset's g is the self-energy c.

    The report gives the best g at both sizes, the empty subset's only when
    it is the claim; a negative claim fails.
    """
    r = fixture.expected_r
    target = fixture.target
    best = {size: (brute_force_best_subset(fixture.pool, target, target.kernel, size).mmd_sq
                   if size else float(target.self_energy()))
            for size in (r - 1, r) if size >= 0}
    report = {"name": fixture.name, "expected_r": r}
    for size, g in best.items():
        if size or size == r:
            report[_SUBSET_KEYS.get(size, f"best_{size}_subset_mmd_sq")] = g
    report["passes"] = bool(best.get(r, np.inf) <= REALIZED_G < best.get(r - 1, np.inf))
    return report


def _rbf_instance(rows: slice) -> tuple[CandidatePool, DiscreteTarget]:
    """Pool of, and uniform RBF target over, ``rows`` of one seeded 90-point draw:
    rows 0-79 for the rate check, 80-89 for the guarantee and weight checks."""
    pts = np.random.default_rng(11).standard_normal((90, 2))[rows]
    return CandidatePool.from_points(pts), DiscreteTarget.uniform(pts, RBFKernel(1.0))


def _check_realizability(name: str, inject_fault: bool) -> tuple[bool, dict]:
    """The fixture's exhaustive check; the fault claims one atom fewer than it needs."""
    pool, target, expected_r = _FIXTURES[name]()
    fixture = RealizabilityFixture(name, pool, target, expected_r - int(inject_fault))
    rep = verify_realizability(fixture)
    for key in rep:
        if key.endswith("_mmd_sq"):
            rep[key] = reported_g(rep[key], f"oracle on {name}", fixture.expected_r)
    return rep.pop("passes"), rep


def _check_rate(inject_fault: bool) -> tuple[bool, dict]:
    """WKH and SBQ decay log-linearly (slope < 0, R^2 >= 0.9) over 12 atoms;
    the fault fits each trace's g in reverse order, so g rises."""
    pool, target = _rbf_instance(slice(80))
    details = {}
    for method in ("WKH", "SBQ"):
        _, trace = run_greedy(method, pool, target, target.kernel, k=12, seed=0)
        g = [row.mmd_sq for row in trace.rows]
        rf = fit_rate(enumerate(g[::-1] if inject_fault else g, start=1))
        details[method] = {"slope": rf.slope, "r_squared": rf.r_squared, "n_points": rf.n_points}
    return all(d["slope"] < 0 and d["r_squared"] >= 0.9 for d in details.values()), details


def _check_guarantee(inject_fault: bool) -> tuple[bool, dict]:
    pool, target = _rbf_instance(slice(80, 90))
    report = check_approx_guarantee(pool, target, target.kernel, r=2, epsilon=0.1)
    report["oracle"]["mmd_sq"] = reported_g(report["oracle"]["mmd_sq"], "oracle", 2)
    for method, entry in report["methods"].items():
        entry["mmd_sq_at_k"] = reported_g(entry["mmd_sq_at_k"], method, entry["k_used"])
    return report.pop("holds"), report


def _check_weights(inject_fault: bool) -> tuple[bool, dict]:
    pool, target = _rbf_instance(slice(80, 90))
    state, _ = run_greedy("WKH", pool, target, target.kernel, k=6, seed=0)
    if inject_fault:
        state.weights = state.weights + 1e-3  # deliberately break optimality
    resid = orthogonality_residual(state)
    return bool(resid <= 1e-8), {"max_residual": resid, "fault_injected": inject_fault}


# ``herdquad diagnose``'s checks in report order: name -> check(inject_fault),
# which returns (passes, details); every check but the guarantee has a fault to inject
CHECKS = {
    **{f"realizability:{name}": partial(_check_realizability, name) for name in _FIXTURES},
    "rate_fit": _check_rate,
    "approx_guarantee": _check_guarantee,
    "orthogonality": _check_weights,
}
