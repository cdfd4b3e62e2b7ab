import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from herdquad.kernels import NormalizedFeatureKernel, RBFKernel
from herdquad.targets import (
    EMBED_CHUNK_BYTES,
    DiscreteTarget,
    GaussianMixtureTarget,
    SamplerUnavailable,
    TargetEmbedding,
    UnsupportedKernel,
    mc_mean_embed,
    mc_self_energy,
)
from tests.conftest import random_mixture

# Closed-form constants for p = N(0,1) with the unit-bandwidth RBF kernel:
# z(0) = (1 + 1)^{-1/2} and c = (1 + 2)^{-1/2}.  Both were frozen after
# cross-checking against the seeded Monte Carlo estimators below.
Z_AT_ZERO = 0.7071067811865475
SELF_ENERGY = 0.5773502691896258


def test_std_normal_mean_embed_at_zero(std_normal_target):
    assert std_normal_target.mean_embed(np.array([0.0])) == pytest.approx(Z_AT_ZERO, abs=1e-14)


def test_std_normal_self_energy(std_normal_target):
    assert std_normal_target.self_energy() == pytest.approx(SELF_ENERGY, abs=1e-14)


def test_std_normal_closed_forms_match_mc_oracle(std_normal_target):
    est, se = mc_mean_embed(std_normal_target, np.array([0.0]), n_samples=10**6, seed=11)
    assert abs(est - Z_AT_ZERO) <= 3 * se
    est, se = mc_self_energy(std_normal_target, n_pairs=10**6, seed=12)
    assert abs(est - SELF_ENERGY) <= 3 * se


def test_discrete_two_point_values(two_point_discrete):
    expected = 0.5 * (1.0 + np.exp(-2.0))
    assert two_point_discrete.mean_embed(np.array([0.0])) == pytest.approx(expected, abs=1e-15)
    assert two_point_discrete.self_energy() == pytest.approx(expected, abs=1e-15)


def test_discrete_self_energy_in_unit_interval(rng):
    pts = rng.normal(size=(9, 2))
    target = DiscreteTarget.uniform(pts, RBFKernel(0.7))
    assert 0.0 < target.self_energy() <= 1.0


def test_discrete_weighted_embedding_matches_manual(rng):
    pts = rng.normal(size=(5, 2))
    probs = np.array([0.4, 0.1, 0.2, 0.2, 0.1])
    kern = RBFKernel(1.3)
    target = DiscreteTarget(support=pts, probs=probs, kernel=kern)
    x = rng.normal(size=2)
    manual = sum(p * kern.gram(x, y)[0, 0] for p, y in zip(probs, pts))
    assert target.mean_embed(x) == pytest.approx(manual, rel=1e-14)


@pytest.mark.parametrize("kern", [RBFKernel(1.3), NormalizedFeatureKernel()], ids=["rbf", "feature"])
def test_discrete_prepares_its_support_once_and_matches_gram_bit_for_bit(kern):
    calls = []
    original = type(kern).prepare
    prepare = lambda self, Z: calls.append(np.shape(Z)) or original(self, Z)  # noqa: E731
    # a few of these seeds give another c in the last bit when the support's
    # Gram matrix comes from the symmetric product P @ P.T
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(50, 128))
        probs = rng.dirichlet(np.ones(50))
        X = rng.normal(size=(25, 128))
        target = DiscreteTarget(support=pts, probs=probs, kernel=kern)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(kern), "prepare", prepare)
            energy = target.self_energy()
            embeds = [target.mean_embed_many(X), target.mean_embed_many(X[:1])]
        assert calls.count(pts.shape) == 1
        assert energy == float(probs @ kern.gram(pts, pts) @ probs)
        np.testing.assert_array_equal(embeds[0], kern.gram(X, pts) @ probs)
        np.testing.assert_array_equal(embeds[1], kern.gram(X[:1], pts) @ probs)


def test_discrete_rejects_bad_probs():
    with pytest.raises(ValueError):
        DiscreteTarget(support=np.zeros((2, 1)), probs=np.array([0.7, 0.7]), kernel=RBFKernel(1.0))


@pytest.mark.parametrize("field, support, probs", [
    ("probs", np.zeros((2, 1)), np.array([np.nan, np.nan])),
    ("support", np.array([[np.inf]]), np.array([1.0])),
    ("support", np.array([[0.0], [np.nan]]), np.array([0.5, 0.5])),
])
def test_discrete_rejects_non_finite_fields(field, support, probs):
    with pytest.raises(ValueError, match=f"discrete {field} must be finite"):
        DiscreteTarget(support=support, probs=probs, kernel=RBFKernel(1.0))


def test_mixture_requires_rbf():
    with pytest.raises(UnsupportedKernel):
        GaussianMixtureTarget(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            covs=np.stack([np.eye(2)]),
            kernel=NormalizedFeatureKernel(),
        )


def test_mixture_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        GaussianMixtureTarget(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((1, 2)),
            covs=np.stack([np.eye(2)]),
            kernel=RBFKernel(1.0),
        )


@pytest.mark.parametrize("bad_cov", [
    pytest.param([[1.0, 0.2], [0.2, 1.0]], id="off-diagonal"),
    pytest.param([[0.5, 0.0], [0.0, 0.0]], id="zero-variance"),
    pytest.param([[-0.5, 0.0], [0.0, 0.5]], id="negative-variance"),
])
def test_mixture_names_a_covariance_that_is_not_diagonal_and_positive(bad_cov):
    with pytest.raises(ValueError, match="^covariance 1 must be diagonal with positive variances$"):
        GaussianMixtureTarget(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
                              covs=np.array([np.eye(2), bad_cov]), kernel=RBFKernel(1.0))


@pytest.mark.parametrize("field", ["weights", "means", "covs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mixture_rejects_non_finite_parameters(field, bad):
    params = dict(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
                  covs=np.stack([np.eye(2), np.eye(2)]))
    params[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"mixture {field} must be finite"):
        GaussianMixtureTarget(kernel=RBFKernel(1.0), **params)


def test_mixture_mean_embed_many_matches_scalar(rng):
    target = random_mixture(rng)
    X = rng.normal(size=(6, 2))
    batch = target.mean_embed_many(X)
    singles = np.array([target.mean_embed(x) for x in X])
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def test_mixture_closed_forms_match_mc_on_random_configs(rng):
    for trial in range(5):
        target = random_mixture(rng, components=int(rng.integers(1, 4)))
        x = rng.normal(size=2)
        est, se = mc_mean_embed(target, x, n_samples=200_000, seed=100 + trial)
        assert abs(est - target.mean_embed(x)) <= 4 * se
        est, se = mc_self_energy(target, n_pairs=200_000, seed=200 + trial)
        assert abs(est - target.self_energy()) <= 4 * se


def test_mixture_sampling_is_seeded(rng):
    target = random_mixture(rng)
    a = target.sample(50, np.random.default_rng(5))
    b = target.sample(50, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 2)


def test_mixture_sample_moments(rng):
    mean = np.array([[1.0, -2.0]])
    target = GaussianMixtureTarget(
        weights=np.array([1.0]),
        means=mean,
        covs=np.stack([np.diag([0.2, 0.5])]),
        kernel=RBFKernel(1.0),
    )
    draws = target.sample(200_000, np.random.default_rng(0))
    np.testing.assert_allclose(draws.mean(axis=0), mean[0], atol=0.01)
    np.testing.assert_allclose(draws.var(axis=0), [0.2, 0.5], atol=0.01)


def test_mc_mean_embed_single_sample_has_inf_se(std_normal_target):
    _, se = mc_mean_embed(std_normal_target, np.array([0.0]), n_samples=1, seed=0)
    assert np.isinf(se)


BAD_COUNTS = pytest.mark.parametrize("bad", [0, 2.5, True, "2"], ids=["zero", "float", "bool", "str"])


@BAD_COUNTS
def test_mc_mean_embed_rejects_a_sample_count_that_is_not_a_positive_int(std_normal_target, bad):
    with pytest.raises(ValueError, match="n_samples must be at least 1 and an int"):
        mc_mean_embed(std_normal_target, np.array([0.0]), n_samples=bad, seed=0)


@BAD_COUNTS
def test_mc_self_energy_rejects_a_pair_count_that_is_not_a_positive_int(std_normal_target, bad):
    with pytest.raises(ValueError, match="n_pairs must be at least 1 and an int"):
        mc_self_energy(std_normal_target, n_pairs=bad, seed=0)


def test_base_target_cannot_sample():
    class Bare(TargetEmbedding):
        def mean_embed_many(self, X):
            return np.zeros(len(X))

        def self_energy(self):
            return 1.0

    with pytest.raises(SamplerUnavailable):
        Bare().sample(3, np.random.default_rng(0))


def diagonal_mixture(seed, dim, components=4):
    """Mixture with random diagonal covariances and a random bandwidth."""
    rng = np.random.default_rng(seed)
    covs = np.stack([np.diag(v) for v in rng.uniform(0.05, 2.0, size=(components, dim))])
    return GaussianMixtureTarget(rng.dirichlet(np.ones(components)),
                                 rng.uniform(-3.0, 3.0, size=(components, dim)), covs,
                                 RBFKernel(float(rng.uniform(0.5, 2.0)) * np.sqrt(dim)))


def per_component_embedding(target, X):
    """z(X) one component at a time, by forward substitution."""
    sigma2 = target.kernel.bandwidth**2
    d = target.dim
    out = np.zeros(X.shape[0])
    for pi_j, m_j, S_j in zip(target.weights, target.means, target.covs):
        L = cholesky(S_j + sigma2 * np.eye(d), lower=True)
        amp = np.exp(d * np.log(target.kernel.bandwidth) - np.sum(np.log(np.diag(L))))
        Y = solve_triangular(L, (X - m_j).T, lower=True)
        out += pi_j * amp * np.exp(-0.5 * np.einsum("dn,dn->n", Y, Y))
    return out


def pairwise_self_energy(target):
    """c as a double loop over component pairs, one Cholesky per pair."""
    sigma = target.kernel.bandwidth
    d = target.dim
    total = 0.0
    for w_j, m_j, S_j in zip(target.weights, target.means, target.covs):
        for w_l, m_l, S_l in zip(target.weights, target.means, target.covs):
            L = cholesky(S_j + S_l + sigma**2 * np.eye(d), lower=True)
            amp = np.exp(d * np.log(sigma) - np.sum(np.log(np.diag(L))))
            y = solve_triangular(L, m_j - m_l, lower=True)
            total += w_j * w_l * amp * np.exp(-0.5 * float(y @ y))
    return total


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_stacked_embedding_matches_the_per_component_formula(dim):
    target = diagonal_mixture(dim, dim)
    chunk = EMBED_CHUNK_BYTES // (8 * len(target.weights) * dim)
    rng = np.random.default_rng(100 + dim)
    for n in (1, chunk, chunk + 1, 20_000):
        X = target.sample(n, rng) + rng.normal(size=(n, dim))
        np.testing.assert_allclose(target.mean_embed_many(X), per_component_embedding(target, X),
                                   rtol=1e-13, atol=0.0)
    batch = target.mean_embed_many(X[:50])
    singles = np.array([target.mean_embed(x) for x in X[:50]])
    np.testing.assert_allclose(singles, batch, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        target.mean_embed_many(np.zeros((3, dim + 1)))


@pytest.mark.parametrize("dim", [2, 8])
def test_stacked_self_energy_matches_the_pair_loop(dim):
    for seed in range(3):
        target = diagonal_mixture(seed, dim, components=6)
        assert target.self_energy() == pytest.approx(pairwise_self_energy(target), rel=1e-14, abs=0.0)


def test_mixture_embeds_a_point_alike_in_every_batch():
    # a lone point and the lone last row of a chunk_rows + 1 batch must not
    # be summed as a one-row block, which rounds otherwise from 8 components on
    for seed in range(20):
        target = diagonal_mixture(seed, 8, components=12)
        rng = np.random.default_rng(500 + seed)
        X = 2.0 * rng.normal(size=(target._chunk_rows + 1, 8))
        batch = target.mean_embed_many(X)
        rows = np.append(rng.choice(len(X) - 1, size=10, replace=False), len(X) - 1)
        singles = [target.mean_embed_many(X[i:i + 1])[0] for i in rows]
        np.testing.assert_array_equal(singles, batch[rows])
        np.testing.assert_array_equal(target.mean_embed_many(X[-2:]), batch[-2:])
