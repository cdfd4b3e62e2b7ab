"""Seeded differential tests: WKH and SBQ against a dense recomputation.

Fourteen instances, each drawn from a fixed numpy seed, span both target
kinds (RBF Gaussian mixtures and discrete targets under the feature
kernel), dimensions 1 to 33, pool sizes on both sides of 64 (the block
alignment), pools with duplicated rows and pools with near-duplicate rows,
copies perturbed by about 1e-9 relative.  For WKH and SBQ at budgets 1, n
and n + 1 the tests check the trace of g, recompute the final g as
c - 2 w'z + w'Kw from the atoms' points alone, check the orthogonality
residual of the weights, and run the distributed driver on three workers
under every executor; the smallest instance also runs it on n workers of
one point each.  At budget n, every step's stepped r and s meet the
state's from-scratch ``scores`` and the dense LU oracle of
``conftest.dense_scores``, every step's backward errors stay within
bounds that do not grow with cond(K) (``conftest.assert_step_backward_errors``),
and every RBF instance of at least two ``BLOCK_ALIGN`` rows, split into two
or three column blocks, gives one block's atoms, g and weights bit for bit.
"""

import numpy as np
import pytest

from herdquad.diagnostics import orthogonality_residual
from herdquad.distributed import run_distributed
from herdquad.kernels import CandidatePool, NormalizedFeatureKernel, RBFKernel
from herdquad.selectors import run_greedy
from herdquad import state as state_module
from herdquad.state import BLOCK_ALIGN, G_ROUNDOFF
from herdquad.targets import DiscreteTarget, GaussianMixtureTarget
from tests.conftest import assert_pool_scores_match_from_scratch

# (target kind, d, n, copied rows: "", "dup" exact or "near" perturbed copies):
# one instance each, drawn from seed 3800 + its index
INSTANCES = [
    ("mixture", 1, 63, ""),
    ("mixture", 2, 64, "dup"),
    ("mixture", 8, 65, ""),
    ("mixture", 33, 129, ""),
    ("mixture", 2, 200, ""),
    ("mixture", 8, 129, "dup"),
    ("mixture", 1, 200, "dup"),
    ("feature", 1, 64, ""),
    ("feature", 2, 63, ""),
    ("feature", 8, 200, "dup"),
    ("feature", 33, 65, ""),
    ("feature", 33, 200, "dup"),
    ("mixture", 2, 129, "near"),
    ("feature", 8, 129, "near"),
]
IDS = [f"{kind}-d{d}-n{n}{'-' + copies if copies else ''}" for kind, d, n, copies in INSTANCES]
# the RBF instances of at least two BLOCK_ALIGN rows, which can split into column blocks
BLOCKABLE = [i for i, (kind, _, n, _) in enumerate(INSTANCES)
             if kind == "mixture" and n >= 2 * BLOCK_ALIGN]
SMALLEST = min(range(len(INSTANCES)), key=lambda i: INSTANCES[i][2])
METHODS = ("WKH", "SBQ")
WORKERS = 3


def draw_instance(index):
    kind, d, n, copies = INSTANCES[index]
    rng = np.random.default_rng(3800 + index)
    if kind == "mixture":
        components = 3
        means = rng.uniform(-2.0, 2.0, size=(components, d))
        covs = np.stack([np.diag(rng.uniform(0.1, 0.6, size=d)) for _ in range(components)])
        kernel = RBFKernel(float(rng.uniform(0.5, 1.5) * np.sqrt(d)))
        target = GaussianMixtureTarget(rng.dirichlet(np.ones(components)), means, covs, kernel)
        points = target.sample(n, rng)
    else:
        center = rng.normal(size=d)
        kernel = NormalizedFeatureKernel()
        target = DiscreteTarget.uniform(center + rng.normal(size=(30, d)), kernel)
        points = center + rng.normal(size=(n, d))
    if copies:
        m = n // 4
        copied = points[rng.choice(n, m)]
        if copies == "near":
            copied *= 1.0 + 1e-9 * rng.standard_normal(copied.shape)
        points[rng.choice(n, m, replace=False)] = copied
    return CandidatePool.from_points(points), target


@pytest.fixture(scope="module", params=range(len(INSTANCES)), ids=IDS)
def instance(request):
    return draw_instance(request.param)


def budgets(pool):
    return (1, len(pool), len(pool) + 1)


def assert_dense_g(pool, target, ids, weights, g):
    """g equals c - 2 w'z + w'Kw, with z and K computed afresh from the atoms'
    points, to that sum's round-off.

    Kernel values lie in [-1, 1], so a sum over m atoms rounds by at most
    about m eps (1 + |w|_1)^2.  Near-dependent atoms in one dimension carry
    weights of 3e4, where this reaches 1e-6; the largest error seen here
    was 0.6 of the bound.
    """
    X = pool.points[np.searchsorted(pool.ids, ids)]
    z = target.mean_embed_many(X)
    K = target.kernel.gram(X, X)
    dense = target.self_energy() - 2.0 * weights @ z + weights @ K @ weights
    tol = 4 * len(ids) * np.finfo(float).eps * (1.0 + np.abs(weights).sum()) ** 2
    assert abs(dense - g) <= tol, (dense, g, tol)


def assert_orthogonal(state):
    """The orthogonality residual max_j |z_j - (K w)_j| over the m atoms is
    round-off: at most 4 m eps (1 + |w|_1).

    Derived as ``assert_dense_g`` derives its bound: z_j and the kernel
    values lie in [-1, 1], so the sum z_j - sum_i K_ji w_i rounds by at most
    about m eps (1 + |w|_1).  The weights come from backward-stable
    triangular solves on the Cholesky factor of K, whose rows have unit norm
    for a unit diagonal, so their error moves K w by the same order, and
    cond(K) does not enter: the bound is on the residual, not on the
    weights.  So the check holds wherever a run ends, on every instance.
    Across these runs, at cond(K) up to 7e16, the largest residual was 0.3
    of m eps (1 + |w|_1), at one atom.
    """
    resid, w = orthogonality_residual(state), state.weights
    tol = 4 * state.size * np.finfo(float).eps * (1.0 + np.abs(w).sum())
    assert resid <= tol, (resid, tol)


@pytest.mark.parametrize("method", METHODS)
def test_g_never_rises_and_matches_the_dense_objective(instance, method):
    pool, target = instance
    for k in budgets(pool):
        state, trace = run_greedy(method, pool, target, target.kernel, k)
        g = trace.mmd_values
        assert 1 <= g.size <= k
        assert np.all(np.diff(g) <= 0), (k, np.diff(g).max())
        assert g.min() >= -G_ROUNDOFF
        assert state.atom_ids == trace.chosen_ids
        assert len(set(state.atom_ids)) == len(state.atom_ids)
        assert_dense_g(pool, target, state.atom_ids, state.weights, state.mmd_sq)
        assert_orthogonal(state)


@pytest.mark.parametrize("method", METHODS)
def test_stepped_scores_meet_the_dense_oracle_at_every_step(instance, method):
    pool, target = instance
    assert_pool_scores_match_from_scratch(method, pool, target, len(pool))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("index", BLOCKABLE, ids=[IDS[i] for i in BLOCKABLE])
def test_column_blocks_give_one_blocks_bits(index, method, monkeypatch):
    pool, target = draw_instance(index)
    runs = [run_greedy(method, pool, target, target.kernel, len(pool))]
    monkeypatch.setattr(state_module, "BLOCK_MIN_COLUMNS", BLOCK_ALIGN)
    monkeypatch.setattr(state_module, "usable_cpus", lambda: 3)
    assert state_module._block_count(len(pool)) == min(3, len(pool) // BLOCK_ALIGN) > 1
    runs.append(run_greedy(method, pool, target, target.kernel, len(pool)))
    (one, one_trace), (blocked, blocked_trace) = runs
    assert one.atom_ids == blocked.atom_ids
    assert one_trace.mmd_values.tobytes() == blocked_trace.mmd_values.tobytes()
    assert one.weights.tobytes() == blocked.weights.tobytes()


def assert_same_bits(a, b):
    assert a.winner_index == b.winner_index
    for x, y in zip(a.solutions, b.solutions, strict=True):
        assert (x.label, x.ids, x.mmd_sq) == (y.label, y.ids, y.mmd_sq)
        assert x.weights.tobytes() == y.weights.tobytes()
    for x, y in zip(a.traces, b.traces, strict=True):
        assert x.chosen_ids == y.chosen_ids and x.stop_reason == y.stop_reason
        assert x.mmd_values.tobytes() == y.mmd_values.tobytes()


def check_distributed(pool, target, method, k, workers):
    """The three executors agree bit for bit, the winner is no worse than any
    worker, the aggregator picks from the workers' atoms and every solution's
    g meets the dense objective."""
    runs = {ex: run_distributed(method, pool, target, target.kernel, k, workers, seed=k,
                                executor=ex, max_workers=2)
            for ex in ("serial", "thread", "process")}
    serial = runs["serial"]
    assert_same_bits(serial, runs["thread"])
    assert_same_bits(serial, runs["process"])
    shards, aggregator = serial.solutions[:workers], serial.solutions[workers]
    assert serial.winner.mmd_sq <= min(sol.mmd_sq for sol in shards)
    assert set(aggregator.ids) <= {i for sol in shards for i in sol.ids}
    for sol in serial.solutions:
        assert sol.mmd_sq >= -G_ROUNDOFF
        assert_dense_g(pool, target, sol.ids, sol.weights, sol.mmd_sq)


@pytest.mark.parametrize("method", METHODS)
def test_distributed_executors_agree_and_the_winner_is_the_best(instance, method):
    pool, target = instance
    for k in budgets(pool):
        check_distributed(pool, target, method, k, WORKERS)


@pytest.mark.parametrize("method", METHODS)
def test_one_point_per_worker_on_the_smallest_instance(method):
    pool, target = draw_instance(SMALLEST)
    check_distributed(pool, target, method, len(pool), len(pool))
