import math
from dataclasses import replace

import numpy as np
import pytest

from herdquad.diagnostics import (
    CombinatorialBudgetExceeded,
    InsufficientPoints,
    brute_force_best_subset,
    check_approx_guarantee,
    estimate_rsc_rss,
    fit_rate,
    orthogonality_residual,
    realizability_fixtures,
    verify_realizability,
)
from herdquad.kernels import CandidatePool, NormalizedFeatureKernel, RBFKernel
from herdquad.selectors import Method, run_greedy
from herdquad.state import G_ROUNDOFF, KernelMismatch, new_state
from herdquad.targets import DiscreteTarget
from tests.conftest import PrecomputedKernel, random_mixture


def test_fit_rate_recovers_planted_decay():
    pairs = [(i, math.exp(-0.5 * i)) for i in range(1, 12)]
    fit = fit_rate(pairs)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 11


def test_fit_rate_constant_trace_has_zero_slope():
    fit = fit_rate([(i, 0.25) for i in range(1, 8)])
    assert fit.slope == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == 1.0


def test_fit_rate_drops_floor_values_and_needs_three():
    with pytest.raises(InsufficientPoints):
        fit_rate([(1, 0.5), (2, 0.25)])
    with pytest.raises(InsufficientPoints):
        fit_rate([(1, 0.5), (2, 0.25), (3, 1e-15), (4, 0.0)])
    fit = fit_rate([(1, 0.5), (2, 0.25), (3, 0.125), (4, 1e-16)])
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(math.log(0.5), rel=1e-12)


def test_fit_rate_needs_two_distinct_iterations():
    with pytest.raises(InsufficientPoints, match="one iteration"):
        fit_rate([(1, 0.5), (1, 0.4), (1, 0.3)])
    with pytest.raises(InsufficientPoints, match="one iteration"):
        fit_rate([(2, 0.5), (2, 0.4), (3, 1e-15), (2, 0.3)])
    assert fit_rate([(1, 0.5), (1, 0.4), (2, 0.25)]).n_points == 3


def test_fit_rate_accepts_run_trace():
    rng = np.random.default_rng(0)
    target = random_mixture(rng, components=2, dim=2)
    pool = CandidatePool.from_points(rng.normal(size=(40, 2), scale=2.0))
    _, trace = run_greedy(Method.WKH, pool, target, target.kernel, 10, seed=0)
    fit = fit_rate(trace)
    assert fit.slope < 0.0
    assert 0.0 < fit.r_squared <= 1.0


def brute_problem(seed, n=9):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2, dim=2)
    pool = CandidatePool.from_points(rng.normal(size=(n, 2), scale=2.0))
    return pool, target, target.kernel


def test_brute_force_matches_manual_scan():
    pool, target, kern = brute_problem(seed=1, n=6)
    oracle = brute_force_best_subset(pool, target, kern, r=2)
    z = target.mean_embed_many(pool.points)
    K = kern.gram(pool.points, pool.points)
    c = target.self_energy()
    best = np.inf
    import itertools
    for size in (1, 2):
        for rows in itertools.combinations(range(6), size):
            sub = np.ix_(rows, rows)
            g = c - float(z[list(rows)] @ np.linalg.solve(K[sub], z[list(rows)]))
            best = min(best, g)
    assert oracle.mmd_sq == pytest.approx(best, rel=1e-12)
    assert oracle.subsets_examined == 6 + 15


def test_brute_force_budget_guard():
    pool, target, kern = brute_problem(seed=2, n=60)
    with pytest.raises(CombinatorialBudgetExceeded):
        brute_force_best_subset(pool, target, kern, r=8)
    with pytest.raises(ValueError):
        brute_force_best_subset(pool, target, kern, r=0)


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_brute_force_rejects_a_subset_size_that_is_not_an_int(bad):
    """A bool is not read as r = 1, and a float or string fails as ``ValueError``."""
    pool, target, kern = brute_problem(seed=2, n=6)
    with pytest.raises(ValueError, match="r must be at least 1 and an int"):
        brute_force_best_subset(pool, target, kern, r=bad)


@pytest.mark.parametrize("method", [Method.WKH, Method.SBQ])
def test_greedy_never_beats_the_oracle_at_equal_size(method):
    for seed in range(5):
        pool, target, kern = brute_problem(seed=seed, n=10)
        r = 3
        oracle = brute_force_best_subset(pool, target, kern, r)
        state, _ = run_greedy(method, pool, target, kern, r, seed=0)
        assert state.mmd_sq >= oracle.mmd_sq - 1e-10


def test_check_approx_guarantee_holds_on_small_instance():
    pool, target, kern = brute_problem(seed=3, n=12)
    report = check_approx_guarantee(pool, target, kern, r=2, epsilon=0.5)
    assert report["holds"]
    for entry in report["methods"].values():
        assert entry["holds"]
        assert entry["m_hat"] > 0
        assert entry["M_hat"] >= entry["m_hat"]
        assert entry["k_used"] >= 1
    assert report["oracle"]["subsets_examined"] == 12 + 66


def test_check_approx_guarantee_flags_a_k_within_the_trace_as_not_capped():
    # ln(1 / epsilon) is about 1e-9, so one atom is enough
    pool, target, kern = brute_problem(seed=3, n=12)
    report = check_approx_guarantee(pool, target, kern, r=2, epsilon=1.0 - 1e-9)
    for entry in report["methods"].values():
        assert entry["k_needed"] == entry["k_used"] == 1
        assert entry["capped"] is False


def test_oracles_reject_another_kernel():
    # Scoring this target under a narrower kernel drove the oracle's g negative.
    pts = np.linspace(-2.0, 2.0, 8).reshape(-1, 1)
    pool = CandidatePool.from_points(pts)
    target = DiscreteTarget.uniform(pts, RBFKernel(1.0))
    with pytest.raises(KernelMismatch):
        brute_force_best_subset(pool, target, RBFKernel(0.3), r=3)
    with pytest.raises(KernelMismatch):
        check_approx_guarantee(pool, target, RBFKernel(0.3), r=3, epsilon=0.5)
    assert brute_force_best_subset(pool, target, RBFKernel(1.0), r=3).mmd_sq >= -1e-12


def test_check_approx_guarantee_validates_epsilon():
    pool, target, kern = brute_problem(seed=4, n=6)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            check_approx_guarantee(pool, target, kern, r=1, epsilon=eps)


def test_estimate_rsc_rss_known_spectra():
    kern = PrecomputedKernel(np.eye(2))
    pool = kern.index_pool()
    target = DiscreteTarget.uniform(pool.points, kern)
    state = new_state(target, kern)
    for i in range(2):
        state.add_atom(pool.points[i], i)
    assert estimate_rsc_rss(state) == pytest.approx((1.0, 1.0))

    kern2 = PrecomputedKernel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    pool2 = kern2.index_pool()
    target2 = DiscreteTarget.uniform(pool2.points, kern2)
    state2 = new_state(target2, kern2)
    for i in range(2):
        state2.add_atom(pool2.points[i], i)
    assert estimate_rsc_rss(state2) == pytest.approx((0.5, 1.5))

    with pytest.raises(ValueError):
        estimate_rsc_rss(new_state(target, kern))


def test_orthogonality_residual_flags_corrupted_weights():
    pool, target, kern = brute_problem(seed=5, n=15)
    state, _ = run_greedy(Method.WKH, pool, target, kern, 5, seed=0)
    assert orthogonality_residual(state) <= 1e-8
    state.weights = state.weights + 0.05
    assert orthogonality_residual(state) > 1e-3
    with pytest.raises(ValueError):
        orthogonality_residual(new_state(target, kern))


def test_realizability_fixtures_verify():
    fixtures = realizability_fixtures()
    assert [f.name for f in fixtures] == ["line_segment", "two_clusters"]
    for fixture in fixtures:
        report = verify_realizability(fixture)
        assert report["passes"], report
        # not met trivially: a target with c = 0 is matched by any subset
        assert fixture.target.self_energy() > 0.3
    pair_report = verify_realizability(fixtures[1])
    assert pair_report["best_singleton_mmd_sq"] > 1e-6
    assert pair_report["best_pair_mmd_sq"] <= 1e-6


@pytest.mark.parametrize("name, claim, keys", [
    ("two_clusters", 3, ["best_pair_mmd_sq", "best_3_subset_mmd_sq"]),
    ("two_clusters", 1, ["best_singleton_mmd_sq"]),
    ("line_segment", 2, ["best_singleton_mmd_sq", "best_pair_mmd_sq"]),
    ("line_segment", 0, ["empty_mmd_sq"]),
])
def test_realizability_fails_any_wrong_claimed_size(name, claim, keys):
    """A claim above the true size fails because one atom fewer is enough,
    one below it because the claimed atoms are not; the empty subset's g is c."""
    fixture = next(f for f in realizability_fixtures() if f.name == name)
    report = verify_realizability(replace(fixture, expected_r=claim))
    assert report["passes"] is False
    assert list(report) == ["name", "expected_r", *keys, "passes"]
    if claim == 0:
        assert report["empty_mmd_sq"] == fixture.target.self_energy()
    assert verify_realizability(replace(fixture, expected_r=-1))["passes"] is False


def test_a_one_atom_claim_fails_when_no_atom_is_needed():
    """c <= REALIZED_G: the empty subset already represents the target."""
    fixture = realizability_fixtures()[0]
    target = DiscreteTarget.uniform(np.array([[-1.0], [1.0]]), NormalizedFeatureKernel())
    assert target.self_energy() <= 1e-6
    assert verify_realizability(replace(fixture, target=target, expected_r=0))["passes"]
    report = verify_realizability(replace(fixture, target=target, expected_r=1))
    assert report["passes"] is False and report["best_singleton_mmd_sq"] <= 1e-6


def test_oracle_returns_the_first_subset_at_the_floor():
    two_clusters = realizability_fixtures()[1]
    oracle = brute_force_best_subset(two_clusters.pool, two_clusters.target,
                                     two_clusters.target.kernel, r=2)
    # every independent pair spans the 2-d feature space; the scan stops at
    # the first pair instead of taking the most negative round-off
    assert oracle.ids == (0, 1)
    assert oracle.subsets_examined == 24 + 1
    assert -G_ROUNDOFF <= oracle.mmd_sq <= G_ROUNDOFF


def test_greedy_reaches_realizable_floor_fast():
    for fixture in realizability_fixtures():
        state, trace = run_greedy(
            Method.WKH, fixture.pool, fixture.target, fixture.target.kernel,
            fixture.expected_r + 1, seed=0,
        )
        assert state.mmd_sq <= 1e-8
