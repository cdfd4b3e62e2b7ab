from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdquad.diagnostics import orthogonality_residual
from herdquad.kernels import CandidatePool, NormalizedFeatureKernel, RBFKernel
from herdquad.selectors import Method, run_greedy, selection_scores, setup_pool
from herdquad.state import (
    BLOCK_MIN_COLUMNS,
    INITIAL_CAPACITY,
    TAU_DEP,
    DuplicateAtom,
    KernelMismatch,
    NearDependentAtom,
    PoolScores,
    new_state,
)
from herdquad.targets import DiscreteTarget, GaussianMixtureTarget
from tests.conftest import (
    CheckedScores,
    PrecomputedKernel,
    assert_dense_scores,
    assert_pool_scores_match_from_scratch,
    random_mixture,
)


def sbq_scores(state, X):
    """SBQ's one-step drops r^2 / s, -inf for dependent candidates, from the
    state's from-scratch r and s, which first meet the dense oracle."""
    resid, schur = state.residual_correlations(X), state.schur_complements(X)
    assert_dense_scores(state, X, resid, schur)
    return selection_scores(Method.SBQ, resid, schur)


def singleton_state():
    kern = RBFKernel(1.0)
    y = np.array([[0.5]])
    target = DiscreteTarget.uniform(y, kern)
    return new_state(target, kern), y[0]


def test_empty_state_objective_is_self_energy(two_point_discrete, rbf_unit):
    state = new_state(two_point_discrete, rbf_unit)
    assert state.mmd_sq == pytest.approx(0.5 * (1.0 + np.exp(-2.0)), abs=1e-15)
    assert state.size == 0
    assert state.weights.size == 0


def test_empty_state_singleton_objective_is_one():
    state, _ = singleton_state()
    assert state.mmd_sq == pytest.approx(1.0, abs=1e-15)


def test_singleton_atom_reproduces_target_exactly():
    state, y = singleton_state()
    state.add_atom(y, 0)
    np.testing.assert_allclose(state.weights, [1.0], atol=1e-12)
    assert abs(state.mmd_sq) <= 1e-12


def test_orthogonal_pair_under_identity_gram():
    # Uniform target on two points with zero cross-similarity: the 2x2
    # system is K = I, z = (0.5, 0.5), so w = z and the objective lands on
    # c - 0.5 = 0 (c itself is 0.5 for this target).
    kern = PrecomputedKernel(np.eye(2))
    pool = kern.index_pool()
    target = DiscreteTarget.uniform(pool.points, kern)
    state = new_state(target, kern)
    assert state.mmd_sq == pytest.approx(0.5, abs=1e-15)
    state.add_atom(pool.points[0], 0)
    np.testing.assert_allclose(state.weights, [0.5], atol=1e-14)
    assert state.mmd_sq == pytest.approx(0.25, abs=1e-14)
    state.add_atom(pool.points[1], 1)
    np.testing.assert_allclose(state.weights, [0.5, 0.5], atol=1e-14)
    assert abs(state.mmd_sq) <= 1e-14


def test_duplicate_pool_id_rejected():
    state, y = singleton_state()
    state.add_atom(y, 0)
    with pytest.raises(DuplicateAtom):
        state.add_atom(y + 1.0, 0)


def test_repeated_point_is_near_dependent():
    state, y = singleton_state()
    state.add_atom(y, 0)
    before = state.mmd_sq
    with pytest.raises(NearDependentAtom) as err:
        state.add_atom(y, 1)
    assert err.value.schur < TAU_DEP
    assert state.size == 1
    assert state.mmd_sq == before


def test_state_unchanged_after_rejection(rng):
    target = random_mixture(rng)
    kern = target.kernel
    state = new_state(target, kern)
    x = rng.normal(size=2)
    state.add_atom(x, 0)
    snapshot = state.copy()
    with pytest.raises(NearDependentAtom):
        state.add_atom(x + 1e-9, 1)
    np.testing.assert_array_equal(state.chol, snapshot.chol)
    np.testing.assert_array_equal(state.weights, snapshot.weights)
    assert state.atom_ids == snapshot.atom_ids


def test_copy_is_independent(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    state.add_atom(rng.normal(size=2), 0)
    clone = state.copy()
    clone.add_atom(rng.normal(size=2), 1)
    assert state.size == 1 and clone.size == 2


def test_residual_correlation_empty_state_equals_embedding(std_normal_target, rbf_unit):
    state = new_state(std_normal_target, rbf_unit)
    assert state.residual_correlations(np.array([0.0]))[0] == pytest.approx(0.7071067811865475, abs=1e-14)


def test_residual_correlation_vanishes_on_selected_atoms(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    pts = rng.normal(size=(6, 2))
    for i in range(4):
        state.add_atom(pts[i], i)
        for atom in state.atoms:
            assert abs(state.residual_correlations(atom)[0]) <= 1e-8


def test_variance_reduction_matches_refactorization_oracle(rng):
    target = random_mixture(rng)
    kern = target.kernel
    state = new_state(target, kern)
    pts = rng.normal(size=(7, 2))
    state.add_atom(pts[0], 0)
    state.add_atom(pts[1], 1)
    for j in range(2, 7):
        probe = state.copy()
        probe.add_atom(pts[j], j)
        drop = state.mmd_sq - probe.mmd_sq
        assert sbq_scores(state, pts[j])[0] == pytest.approx(drop, abs=1e-8)


def test_variance_reduction_masks_dependent_candidates(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    x = rng.normal(size=2)
    state.add_atom(x, 0)
    assert sbq_scores(state, x)[0] == -np.inf


def test_empty_state_variance_reduction_is_embedding_squared(std_normal_target, rbf_unit, rng):
    state = new_state(std_normal_target, rbf_unit)
    X = rng.normal(size=(5, 1))
    z = std_normal_target.mean_embed_many(X)
    np.testing.assert_allclose(sbq_scores(state, X), z**2, rtol=1e-13)


def test_schur_complement_of_novel_point_is_one_at_empty(rbf_unit, std_normal_target):
    state = new_state(std_normal_target, rbf_unit)
    np.testing.assert_allclose(state.schur_complements(np.array([[3.0]])), [1.0])


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000), n_atoms=st.integers(1, 12))
def test_incremental_state_invariants(seed, n_atoms):
    """Monotone objective, optimal weights, and agreement with dense solves."""
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2)
    kern = target.kernel
    state = new_state(target, kern)
    pts = rng.normal(size=(n_atoms, 2), scale=2.0)
    prev = state.mmd_sq
    for i, x in enumerate(pts):
        try:
            state.add_atom(x, i)
        except NearDependentAtom:
            continue
        assert state.mmd_sq <= prev + 1e-10
        assert state.mmd_sq >= -1e-8
        resid = state.embeds - state.gram @ state.weights
        assert np.max(np.abs(resid)) <= 1e-8
        prev = state.mmd_sq
    if state.size:
        dense_w = np.linalg.solve(state.gram, state.embeds)
        np.testing.assert_allclose(state.weights, dense_w, atol=1e-8)
        dense_g = state.self_energy - float(state.embeds @ dense_w)
        assert state.mmd_sq == pytest.approx(dense_g, abs=1e-8)
        np.testing.assert_allclose(state.chol @ state.chol.T, state.gram, atol=1e-8)


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_weights_minimize_the_quadratic(seed):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2)
    state = new_state(target, target.kernel)
    for i, x in enumerate(rng.normal(size=(4, 2), scale=2.0)):
        try:
            state.add_atom(x, i)
        except NearDependentAtom:
            continue
    for _ in range(20):
        u = state.weights + rng.normal(size=state.size, scale=0.3)
        value = state.self_energy - 2.0 * u @ state.embeds + u @ state.gram @ u
        assert value >= state.mmd_sq - 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_weights_stay_optimal_at_the_dependence_threshold(seed):
    """Near-duplicate pairs accepted with Schur complements in [TAU_DEP, 10 TAU_DEP]."""
    target = random_mixture(np.random.default_rng(seed), components=2, dim=1)
    state = new_state(target, target.kernel)
    d = 2e-5  # 1 - exp(-d^2) = 4e-10 for the first pair
    for i, x in enumerate([0.0, d, 1.5, 1.5 + d, -1.5, -1.5 + d]):
        state.add_atom(np.array([x]), i)
        if i % 2:
            assert TAU_DEP <= state.chol[-1, -1] ** 2 <= 10 * TAU_DEP
    assert orthogonality_residual(state) <= 1e-8
    np.testing.assert_array_equal(state.gram, target.kernel.gram(state.atoms, state.atoms))


def test_new_state_rejects_another_kernel():
    target = DiscreteTarget.uniform(np.array([[0.0], [2.0]]), RBFKernel(1.0))
    new_state(target, RBFKernel(1.0))  # equal, not identical: accepted
    with pytest.raises(KernelMismatch):
        new_state(target, RBFKernel(0.3))


def test_precomputed_kernels_compare_by_matrix():
    M = np.array([[1.0, 0.2], [0.2, 1.0]])
    kern = PrecomputedKernel(M)
    target = DiscreteTarget.uniform(kern.index_pool().points, kern)
    new_state(target, PrecomputedKernel(M.copy()))
    with pytest.raises(KernelMismatch):
        new_state(target, PrecomputedKernel(np.eye(2)))


def test_mmd_sq_is_self_energy_minus_projected_embeddings(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    for i, x in enumerate(rng.normal(size=(5, 2))):
        state.add_atom(x, i)
    np.testing.assert_allclose(state.chol @ state.alpha, state.embeds, atol=1e-12)
    assert state.mmd_sq == pytest.approx(state.self_energy - state.alpha @ state.alpha, abs=1e-15)


def test_pool_scores_need_an_empty_state(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    pts = rng.normal(size=(4, 2))
    state.add_atom(pts[0], 0)
    with pytest.raises(ValueError):
        PoolScores(state, pts, target.mean_embed_many(pts), np.ones(4), capacity=3)


# a pool that splits into one column block per pinned CPU, 2 or 3
BLOCKED_N = 3 * BLOCK_MIN_COLUMNS + 100


def assert_atoms_masked(rng, n, blocks):
    """Step 12 random atoms into a PoolScores on n target draws, checking
    after each that no atom can be picked again."""
    target = random_mixture(rng)
    kern = target.kernel
    pts = target.sample(n, rng)
    state = new_state(target, kern)
    core = PoolScores(state, kern.prepare(pts), target.mean_embed_many(pts), np.ones(n),
                      capacity=12)
    assert len(core.bounds) - 1 == blocks
    rows = []
    with core.steps() as step:
        for row in rng.permutation(n)[:12]:
            k_atoms, k_self = core.entries(row)
            state.add_atom(pts[row], int(row), k_atoms=k_atoms, k_self=k_self)
            step(row)
            rows.append(row)
            assert np.all(core.schur[rows] <= 0.0)
            scores = selection_scores(Method.SBQ, core.resid, core.schur)
            assert np.all(scores[rows] == -np.inf)


def test_pool_scores_mask_every_atom_from_later_picks(rng):
    """Every atom's own Schur complement is at most 0, never a round-off
    residue above it, so the dependence mask alone keeps it from being
    picked again."""
    assert_atoms_masked(rng, 40, blocks=1)


def test_blocked_pool_scores_mask_every_atom_from_later_picks(rng, cores):
    """The same in whichever column block the atom sits."""
    assert_atoms_masked(rng, BLOCKED_N, blocks=cores)


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000), method=st.sampled_from(["WKH", "SBQ"]))
def test_pool_scores_match_from_scratch_recomputation(seed, method):
    """Incremental r and s agree with the dense routes at every step of a run."""
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2)
    assert_pool_scores_match_from_scratch(
        method, CandidatePool.from_points(target.sample(60, rng)), target, 25)


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_blocked_pool_scores_match_from_scratch_recomputation(method, cores):
    """The same on a pool split into one column block per pinned CPU."""
    rng = np.random.default_rng(7)
    target = random_mixture(rng, components=2)
    pool = CandidatePool.from_points(target.sample(BLOCKED_N, rng))
    assert_pool_scores_match_from_scratch(method, pool, target, 25)
    assert CheckedScores.blocks == cores


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_feature_kernel_pool_scores_match_from_scratch_recomputation(method):
    """The same under the feature kernel with a discrete target, whose Gram
    entries and embeddings are BLAS products."""
    rng = np.random.default_rng(9)
    kern = NormalizedFeatureKernel()
    target = DiscreteTarget.uniform(rng.normal(size=(50, 40)), kern)
    pool = CandidatePool.from_points(rng.normal(size=(80, 40)))
    assert_pool_scores_match_from_scratch(method, pool, target, 25)
    assert CheckedScores.blocks == 1


def test_add_atom_with_kernel_entries_makes_no_kernel_call(rng):
    target = random_mixture(rng)
    kern = target.kernel
    pts = rng.normal(size=(5, 2))
    z = target.mean_embed_many(pts)
    K = kern.gram(pts, pts)
    plain, fed = new_state(target, kern), new_state(target, kern)
    for i in range(5):
        plain.add_atom(pts[i], i)
    with mock.patch.object(RBFKernel, "gram", side_effect=AssertionError("kernel call")), \
            mock.patch.object(GaussianMixtureTarget, "mean_embed_many",
                              side_effect=AssertionError("target call")):
        for i in range(5):
            fed.add_atom(pts[i], i, embed=z[i], k_atoms=K[i, :i], k_self=K[i, i])
    np.testing.assert_array_equal(fed.chol, plain.chol)
    np.testing.assert_array_equal(fed.alpha, plain.alpha)
    assert fed.mmd_sq == plain.mmd_sq


@pytest.mark.parametrize("bad", ["k_atoms", "k_self"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_add_atom_rejects_non_finite_kernel_entries(rng, bad, value):
    target = random_mixture(rng)
    kern = target.kernel
    pts = rng.normal(size=(3, 2))
    K = kern.gram(pts, pts)
    state = new_state(target, kern)
    state.add_atom(pts[0], 0)
    state.add_atom(pts[1], 1)
    before = state.copy()
    entries = {"k_atoms": K[2, :2].copy(), "k_self": K[2, 2]}
    if bad == "k_atoms":
        entries["k_atoms"][1] = value
    else:
        entries["k_self"] = value
    with pytest.raises(ValueError, match="non-finite Schur complement"):
        state.add_atom(pts[2], 2, **entries)
    assert state.atom_ids == [0, 1]
    np.testing.assert_array_equal(state.chol, before.chol)
    assert state.mmd_sq == before.mmd_sq


def test_add_atom_checks_the_length_of_its_kernel_entries(rng):
    target = random_mixture(rng)
    pts = rng.normal(size=(3, 2))
    state = new_state(target, target.kernel)
    state.add_atom(pts[0], 0)
    state.add_atom(pts[1], 1)
    with pytest.raises(ValueError, match="need 2 kernel entries"):
        state.add_atom(pts[2], 2, k_atoms=np.ones(1), k_self=1.0)
    assert state.size == 2


def test_weights_are_solved_on_read_and_reset_by_add_atom(rng):
    target = random_mixture(rng)
    state = new_state(target, target.kernel)
    pts = rng.normal(size=(3, 2))
    state.add_atom(pts[0], 0)
    state.add_atom(pts[1], 1)
    w = state.weights
    assert state.weights is w  # cached until the atoms change
    np.testing.assert_allclose(state.gram @ w, state.embeds, atol=1e-12)
    clone = state.copy()
    assert clone.weights is not w
    np.testing.assert_array_equal(clone.weights, w)
    state.weights = w + 1.0  # audits may overwrite them
    np.testing.assert_array_equal(state.weights, w + 1.0)
    np.testing.assert_array_equal(clone.weights, w)
    state.add_atom(pts[2], 2)
    assert state.weights.size == 3
    np.testing.assert_allclose(state.gram @ state.weights, state.embeds, atol=1e-12)


def grid_state(n_atoms):
    """A state holding ``n_atoms`` points of a grid 1.5 bandwidths apart, added one by one."""
    target = random_mixture(np.random.default_rng(5))
    grid = 1.5 * np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0)), axis=-1).reshape(-1, 2)
    state = new_state(target, target.kernel)
    for i in range(n_atoms):
        state.add_atom(grid[i], i)
    return state, grid


def bits(state):
    """Every attribute of ``state``, arrays as (shape, bytes), buffers included."""
    out = {}
    for key, val in vars(state).items():
        if isinstance(val, np.ndarray):
            out[key] = (val.shape, val.tobytes())
        elif isinstance(val, list):
            out[key] = list(val)
        else:
            out[key] = val
    return out


READ_ATTRIBUTES = ("chol", "atoms", "embeds", "alpha", "weights")


def test_arrays_read_from_the_state_keep_their_values_as_it_grows():
    target = random_mixture(np.random.default_rng(5))
    _, grid = grid_state(0)
    state = new_state(target, target.kernel)
    reads = []
    for i in range(45):  # the buffers grow past INITIAL_CAPACITY on the way
        state.add_atom(grid[i], i)
        read = {name: getattr(state, name) for name in READ_ATTRIBUTES}
        reads.append((read, {name: arr.copy() for name, arr in read.items()}))
    assert state.size > INITIAL_CAPACITY
    for read, values in reads:
        for name in READ_ATTRIBUTES:
            np.testing.assert_array_equal(read[name], values[name], err_msg=name)
    rebuilt, _ = grid_state(45)
    for name in READ_ATTRIBUTES:
        np.testing.assert_array_equal(getattr(state, name), getattr(rebuilt, name), err_msg=name)


@pytest.mark.parametrize("n_atoms", [INITIAL_CAPACITY - 1, INITIAL_CAPACITY])
def test_copy_does_not_change_when_the_original_grows(n_atoms):
    """Below and at full capacity: the original's next rows never reach the copy."""
    state, grid = grid_state(n_atoms)
    clone = state.copy()
    before = bits(clone)
    for i in range(n_atoms, n_atoms + 3):
        state.add_atom(grid[i], i)
    assert bits(clone) == before
    clone.add_atom(grid[-1], len(grid) - 1)  # the two now differ in row n_atoms
    expected, _ = grid_state(n_atoms + 3)
    for name in READ_ATTRIBUTES:
        np.testing.assert_array_equal(getattr(state, name), getattr(expected, name), err_msg=name)
    assert clone.atom_ids[-1] == len(grid) - 1 and clone.size == n_atoms + 1


@pytest.mark.parametrize("reject", ["duplicate", "near_dependent", "non_finite", "dimension"])
def test_rejected_atom_at_full_capacity_leaves_every_attribute_alone(reject):
    state, grid = grid_state(INITIAL_CAPACITY)
    state.weights  # solved and cached, so the cache is checked too
    before = bits(state)
    x, pool_id, entries = grid[INITIAL_CAPACITY], INITIAL_CAPACITY, {}
    if reject == "duplicate":
        pool_id, error = 0, DuplicateAtom
    elif reject == "near_dependent":
        x, error = grid[3] + 1e-9, NearDependentAtom
    elif reject == "non_finite":
        entries = {"k_atoms": np.full(INITIAL_CAPACITY, np.nan), "k_self": 1.0}
        error = ValueError
    else:
        x, error = np.append(x, 0.0), ValueError
    with pytest.raises(error):
        state.add_atom(x, pool_id, **entries)
    assert bits(state) == before
