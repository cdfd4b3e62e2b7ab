import gc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdquad import selectors
from herdquad.kernels import (
    CandidatePool,
    NormalizedFeatureKernel,
    RBFKernel,
    StandardizationError,
    ZeroNormFeature,
)
from herdquad.selectors import (
    AllDependent,
    EmptyPool,
    Method,
    UniformResult,
    run_greedy,
    sbq_select,
    selection_scores,
    setup_pool,
    uniform_g,
    wkh_select,
)
from herdquad.state import (
    G_ROUNDOFF,
    TAU_DEP,
    KernelMismatch,
    NearDependentAtom,
    QuadratureState,
    new_state,
)
from herdquad.targets import DiscreteTarget, GaussianMixtureTarget, TargetEmbedding
from tests.conftest import PrecomputedKernel, random_mixture, unchecked_matrix_kernel


def singleton_problem():
    kern = RBFKernel(1.0)
    pool = CandidatePool.from_points(np.array([[0.0], [2.0], [-3.0]]))
    target = DiscreteTarget.uniform(np.array([[2.0]]), kern)
    return pool, target, kern


def mixture_problem(seed, n=8, dim=2):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2, dim=dim)
    pool = CandidatePool.from_points(rng.normal(size=(n, dim), scale=2.0))
    return pool, target, target.kernel


def test_wkh_select_singleton_target():
    pool, target, kern = singleton_problem()
    state = new_state(target, kern)
    assert wkh_select(state, pool) == 1


def test_wkh_select_breaks_ties_at_lowest_id():
    kern = PrecomputedKernel(np.eye(2))
    pool = kern.index_pool()
    target = DiscreteTarget.uniform(pool.points, kern)
    state = new_state(target, kern)
    # both candidates score z = 0.5 exactly
    assert wkh_select(state, pool) == 0


def test_wkh_select_empty_pool_raises():
    pool, target, kern = singleton_problem()
    state = new_state(target, kern)
    with pytest.raises(EmptyPool):
        wkh_select(state, pool, excluded_ids=pool.ids)


def test_wkh_select_matches_exhaustive_scan(rng):
    pool, target, kern = mixture_problem(seed=7)
    state = new_state(target, kern)
    for i in range(3):
        state.add_atom(pool.points[i], int(pool.ids[i]))
    chosen = wkh_select(state, pool, excluded_ids=state.atom_ids)
    z = target.mean_embed_many(pool.points)
    scores = z - kern.gram(pool.points, state.atoms) @ state.weights
    scores[:3] = -np.inf
    assert chosen == int(pool.ids[np.argmax(scores)])


def test_sbq_select_empty_state_is_argmax_squared_embedding():
    pool, target, kern = mixture_problem(seed=11)
    state = new_state(target, kern)
    z = target.mean_embed_many(pool.points)
    assert sbq_select(state, pool) == int(pool.ids[np.argmax(z**2)])
    if np.all(z >= 0):
        assert sbq_select(state, pool) == wkh_select(state, pool)


def test_sbq_select_singleton_target_drives_objective_to_zero():
    pool, target, kern = singleton_problem()
    state = new_state(target, kern)
    chosen = sbq_select(state, pool)
    assert chosen == 1
    state.add_atom(pool.point_by_id(chosen), chosen)
    assert abs(state.mmd_sq) <= 1e-12


def test_sbq_select_matches_full_recompute_oracle():
    pool, target, kern = mixture_problem(seed=13)
    state = new_state(target, kern)
    for i in range(3):
        state.add_atom(pool.points[i], int(pool.ids[i]))
    best_id, best_g = None, np.inf
    for row in range(3, len(pool)):
        probe = state.copy()
        try:
            probe.add_atom(pool.points[row], int(pool.ids[row]))
        except NearDependentAtom:
            continue
        if probe.mmd_sq < best_g:
            best_id, best_g = int(pool.ids[row]), probe.mmd_sq
    assert sbq_select(state, pool, excluded_ids=state.atom_ids) == best_id


def test_sbq_select_all_dependent():
    kern = RBFKernel(1.0)
    pts = np.array([[0.0], [0.0]])
    pool = CandidatePool(points=pts, ids=np.array([0, 1]))
    target = DiscreteTarget.uniform(pts, kern)
    state = new_state(target, kern)
    state.add_atom(pts[0], 0)
    with pytest.raises(AllDependent):
        sbq_select(state, pool, excluded_ids=[0])


def test_kh_uniform_objective_dominates_optimal_weights_elementwise():
    pool, target, kern = mixture_problem(seed=23, n=20)
    acc, trace = run_greedy(Method.KH_UNIFORM, pool, target, kern, 5, seed=0)
    replay = new_state(target, kern)
    for row, chosen in zip(trace.rows, trace.chosen_ids):
        replay.add_atom(pool.point_by_id(chosen), chosen)
        assert row.mmd_sq >= replay.mmd_sq - 1e-12


def test_run_greedy_singleton_stops_at_floor():
    pool, target, kern = singleton_problem()
    state, trace = run_greedy(Method.WKH, pool, target, kern, 5, seed=0)
    assert trace.chosen_ids == [1]
    assert trace.stop_reason == "objective_floor"
    assert abs(state.mmd_sq) <= G_ROUNDOFF


def test_run_greedy_rejects_bad_k_and_empty_pool():
    pool, target, kern = singleton_problem()
    with pytest.raises(ValueError):
        run_greedy(Method.WKH, pool, target, kern, 0)
    empty = CandidatePool(points=np.zeros((0, 1)), ids=np.zeros(0, dtype=int))
    with pytest.raises(EmptyPool):
        run_greedy(Method.WKH, empty, target, kern, 3)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "set_up"])
def test_an_empty_sub_pool_raises_empty_pool(method, fresh, rng):
    """An empty sub-pool of a pool already set up carries the setup's empty
    rows, and still raises like a fresh empty pool."""
    target = random_mixture(rng)
    pool = CandidatePool.from_points(target.sample(20, rng))
    if not fresh:
        setup_pool(pool, target, target.kernel)
    empty = pool.take(np.zeros(0, dtype=int))
    assert (empty._setup is not None) is not fresh
    with pytest.raises(EmptyPool):
        run_greedy(method, empty, target, target.kernel, 3)


def test_run_greedy_requires_standardized_kernel():
    M = np.array([[0.5, 0.0], [0.0, 1.0]])
    kern = unchecked_matrix_kernel(M)
    pool = kern.index_pool()
    target = DiscreteTarget.uniform(pool.points, kern)
    with pytest.raises(StandardizationError):
        run_greedy(Method.WKH, pool, target, kern, 1)


@pytest.mark.parametrize("select", [wkh_select, sbq_select])
def test_from_scratch_selectors_require_standardized_kernel(select):
    kern = unchecked_matrix_kernel(np.array([[0.5, 0.0], [0.0, 1.0]]))
    pool = kern.index_pool()
    state = new_state(DiscreteTarget.uniform(pool.points, kern), kern)
    with pytest.raises(StandardizationError):
        select(state, pool)


@pytest.mark.parametrize("select", [wkh_select, sbq_select])
def test_from_scratch_selectors_reuse_the_pool_setup(select):
    """A second call on the same pool and target embeds no pool point again."""
    pool, target, kern = mixture_problem(seed=5)
    state = new_state(target, kern)
    state.add_atom(pool.points[0], int(pool.ids[0]))
    first = select(state, pool, excluded_ids=state.atom_ids)
    with counted(GaussianMixtureTarget, "mean_embed_many") as embed:
        assert select(state, pool, excluded_ids=state.atom_ids) == first
    assert embed.call_count == 0


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_sbq_first_step_never_loses_to_wkh(seed):
    """One SBQ step from a shared state drops the objective at least as much."""
    pool, target, kern = mixture_problem(seed=seed, n=10)
    base = new_state(target, kern)
    rng = np.random.default_rng(seed + 1)
    for i in rng.permutation(len(pool))[:2]:
        try:
            base.add_atom(pool.points[i], int(pool.ids[i]))
        except NearDependentAtom:
            pass
    try:
        wkh_id = wkh_select(base, pool, excluded_ids=base.atom_ids)
        sbq_id = sbq_select(base, pool, excluded_ids=base.atom_ids)
    except (EmptyPool, AllDependent):
        return
    after_wkh = base.copy()
    after_sbq = base.copy()
    try:
        after_wkh.add_atom(pool.point_by_id(wkh_id), wkh_id)
    except NearDependentAtom:
        return
    after_sbq.add_atom(pool.point_by_id(sbq_id), sbq_id)
    assert after_sbq.mmd_sq <= after_wkh.mmd_sq + 1e-10


def test_realizable_pool_reaches_floor_within_dimension_steps(rng):
    """Unit-feature candidates in d dimensions support an exact d-atom quadrature."""
    d = 4
    kern = RBFKernel(1.0)
    from herdquad.kernels import NormalizedFeatureKernel

    kern = NormalizedFeatureKernel()
    pts = rng.normal(size=(60, d))
    pool = CandidatePool.from_points(pts)
    target = DiscreteTarget.uniform(pts, kern)
    state, trace = run_greedy(Method.WKH, pool, target, kern, d, seed=0)
    assert state.mmd_sq <= 1e-8
    # dense least-squares oracle over the selected unit features
    F = state.atoms / np.linalg.norm(state.atoms, axis=1, keepdims=True)
    target_vec = np.mean(pts / np.linalg.norm(pts, axis=1, keepdims=True), axis=0)
    residual = target_vec - F.T @ np.linalg.lstsq(F.T, target_vec, rcond=None)[0]
    assert float(residual @ residual) <= 1e-8


@pytest.mark.parametrize("method", [Method.WKH, Method.SBQ, Method.KH_UNIFORM, Method.MC_RANDOM])
def test_run_greedy_is_deterministic(method):
    pool, target, kern = mixture_problem(seed=29, n=15)
    _, first = run_greedy(method, pool, target, kern, 6, seed=3)
    _, second = run_greedy(method, pool, target, kern, 6, seed=3)
    assert first.chosen_ids == second.chosen_ids
    np.testing.assert_array_equal(first.mmd_values, second.mmd_values)


def test_wkh_sbq_traces_strictly_decrease():
    pool, target, kern = mixture_problem(seed=31, n=25)
    for method in (Method.WKH, Method.SBQ):
        _, trace = run_greedy(method, pool, target, kern, 8, seed=0)
        g = trace.mmd_values
        assert np.all(np.diff(g) < 0) or trace.stop_reason == "objective_floor"


def test_mc_random_trace_reports_uniform_weight_estimate():
    pool, target, kern = mixture_problem(seed=37, n=30)
    acc, trace = run_greedy(Method.MC_RANDOM, pool, target, kern, 10, seed=5)
    # the result holds the uniform-weight g the trace reports
    assert isinstance(acc, UniformResult)
    assert acc.mmd_sq == trace.final_mmd_sq
    assert acc.atom_ids == trace.chosen_ids
    # the trace carries the plain sample-average objective over all draws
    chosen = np.stack([pool.point_by_id(i) for i in trace.chosen_ids])
    z = target.mean_embed_many(chosen)
    K = kern.gram(chosen, chosen)
    expected = target.self_energy() - 2.0 * z.mean() + K.mean()
    assert trace.rows[-1].mmd_sq == pytest.approx(expected, rel=1e-12)
    assert len(trace.rows) == 10


def test_mc_random_keeps_dependent_draws_in_the_selection():
    kern = RBFKernel(1.0)
    pts = np.array([[0.0], [0.0], [2.0]])
    pool = CandidatePool(points=pts, ids=np.array([0, 1, 2]))
    target = DiscreteTarget.uniform(pts, kern)
    acc, trace = run_greedy(Method.MC_RANDOM, pool, target, kern, 3, seed=0)
    assert sorted(trace.chosen_ids) == [0, 1, 2]
    assert acc.size == 3  # the duplicate coordinate counts like any other draw


def test_kh_uniform_without_replacement_is_default():
    pool, target, kern = singleton_problem()
    _, trace = run_greedy(Method.KH_UNIFORM, pool, target, kern, 3, seed=0)
    assert len(set(trace.chosen_ids)) == len(trace.chosen_ids)


def saturating_problem(seed=5):
    """3-component 2-d mixture, wide kernel, pool drawn from the target.

    WKH and SBQ bring g to round-off level.  At the default seed WKH stops
    with every remaining candidate numerically dependent on the atoms, and
    SBQ first reaches g <= G_ROUNDOFF.
    """
    rng = np.random.default_rng(seed)
    kern = RBFKernel(3.0)
    target = GaussianMixtureTarget(
        rng.dirichlet(np.ones(3)), rng.uniform(-2.0, 2.0, size=(3, 2)),
        np.stack([np.diag(rng.uniform(0.1, 0.6, size=2)) for _ in range(3)]), kern)
    pool = CandidatePool.from_points(target.sample(400, rng))
    return pool, target, kern


# Picks of the from-scratch selector that rescored the whole pool every
# step, made while g > 1e-11; later picks may follow round-off.
PINNED_IDS = {
    "WKH": [389, 231, 44, 347, 80, 19, 107, 261, 79, 175, 23, 34, 206, 238, 334, 186, 86, 49,
            221, 364, 183, 101, 258, 113, 174, 77, 228, 259, 99, 362, 339, 61, 343, 56, 27, 2],
    "SBQ": [389, 231, 75, 80, 49, 334, 19, 353, 17, 243, 34, 328, 77, 43, 226, 388, 361, 347,
            56, 204, 372, 103, 109, 398, 186, 29, 44, 31, 245, 178, 364, 301, 6, 343, 220, 116,
            107, 258, 130, 174],
}


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_chosen_ids_match_the_from_scratch_selector(method):
    pool, target, kern = saturating_problem()
    _, trace = run_greedy(method, pool, target, kern, 60)
    assert trace.stop_reason == {"WKH": "all_dependent", "SBQ": "objective_floor"}[method]
    pinned = PINNED_IDS[method]
    assert trace.chosen_ids[:len(pinned)] == pinned
    assert trace.mmd_values[len(pinned) - 2] > 1e-11


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
@pytest.mark.parametrize("seed", [0, 5, 20])
def test_objective_floor_stops_at_the_first_roundoff_g(method, seed):
    pool, target, kern = saturating_problem(seed)
    _, trace = run_greedy(method, pool, target, kern, 60)
    g = trace.mmd_values
    assert np.all(g[:-1] > G_ROUNDOFF)
    assert (g[-1] <= G_ROUNDOFF) == (trace.stop_reason == "objective_floor")


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
@pytest.mark.parametrize("seed", [0, 20])
def test_saturating_trace_never_rises_nor_goes_negative(method, seed):
    # Computed as c - z'w, g rose by 1.1e-16 (WKH, seed 20) and 1.9e-15
    # (SBQ, seed 0) on these instances; c - ||alpha||^2 cannot rise.
    pool, target, kern = saturating_problem(seed)
    _, trace = run_greedy(method, pool, target, kern, 60)
    g = trace.mmd_values
    assert g[-1] < 1e-11
    assert np.all(np.diff(g) <= 0)
    assert g.min() >= -1e-12


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_dependent_candidates_are_masked_not_retried(method):
    pool, target, kern = saturating_problem()
    calls = []
    original = QuadratureState.add_atom

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return original(self, *args, **kwargs)

    with mock.patch.object(QuadratureState, "add_atom", counting):
        _, trace = run_greedy(method, pool, target, kern, 60)
    assert calls == trace.chosen_ids


def test_run_greedy_rejects_another_kernel():
    # Without the kernel check this SBQ run returned a final g of -0.1036.
    pts = np.random.default_rng(0).normal(size=(50, 2))
    pool = CandidatePool.from_points(pts)
    target = DiscreteTarget.uniform(pts, RBFKernel(1.0))
    for method in Method:
        with pytest.raises(KernelMismatch):
            run_greedy(method, pool, target, RBFKernel(0.3), 20)
    state, _ = run_greedy("SBQ", pool, target, RBFKernel(1.0), 20)
    assert state.mmd_sq >= -1e-12


@pytest.mark.parametrize("method", ["WKH", "SBQ", "KH_UNIFORM", "MC_RANDOM"])
def test_budget_above_pool_size_exhausts_the_pool(method):
    kern = RBFKernel(1.0)
    pool = CandidatePool.from_points(np.array([[0.0], [1.0]]))
    target = DiscreteTarget.uniform(np.array([[5.0]]), kern)
    state, trace = run_greedy(method, pool, target, kern, 5)
    assert trace.stop_reason == "pool_exhausted"
    assert len(trace.rows) == 2
    assert sorted(trace.chosen_ids) == [0, 1] and state.size == 2


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["k=n-1", "k=n", "k=n+1"])
def test_only_a_budget_above_the_pool_size_exhausts_the_pool(method, extra):
    """A run that spends its whole budget stops with no reason, also when
    the budget is the whole pool; one budget more reports ``pool_exhausted``."""
    pool, target, kern = mixture_problem(seed=9, n=12)
    k = len(pool) + extra
    result, trace = run_greedy(method, pool, target, kern, k, seed=3)
    assert len(trace.rows) == result.size == min(k, len(pool))
    assert trace.stop_reason == ("pool_exhausted" if k > len(pool) else None)


def counted(owner, name):
    """mock that passes calls on to ``owner.name`` and counts them."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
@pytest.mark.parametrize("reject_at", [None, 3])
def test_one_kernel_row_per_pick_and_no_point_embeddings(method, reject_at):
    """WKH/SBQ: one kernel row (a cross product) per add_atom call, accepted or rejected."""
    pool, target, kern = saturating_problem()
    original = QuadratureState.add_atom
    picks = []

    def add_atom(self, *args, **kwargs):
        picks.append(args[1])
        if len(picks) == reject_at:  # as if the state's own Schur complement fell short
            raise NearDependentAtom(args[1], 0.0)
        return original(self, *args, **kwargs)

    with counted(RBFKernel, "cross") as cross, counted(TargetEmbedding, "mean_embed") as embed, \
            mock.patch.object(QuadratureState, "add_atom", add_atom):
        _, trace = run_greedy(method, pool, target, kern, 60)
    rejected = 0 if reject_at is None else 1
    assert len(picks) == len(trace.rows) + rejected
    assert cross.call_count == len(picks)
    assert embed.call_count == 0


@pytest.mark.parametrize("method", ["KH_UNIFORM", "MC_RANDOM"])
def test_baselines_take_one_kernel_row_per_draw(method):
    pool, target, kern = mixture_problem(seed=4, n=40)
    with counted(RBFKernel, "cross") as cross, counted(TargetEmbedding, "mean_embed") as embed, \
            counted(QuadratureState, "add_atom") as add_atom:
        _, trace = run_greedy(method, pool, target, kern, 25, seed=3)
    assert len(trace.rows) == 25
    assert cross.call_count == 25
    assert embed.call_count == 0
    assert add_atom.call_count == 0


def feature_problem(seed=8, n=60, dim=40):
    rng = np.random.default_rng(seed)
    kern = NormalizedFeatureKernel()
    pool = CandidatePool.from_points(rng.normal(size=(n, dim)))
    return pool, DiscreteTarget.uniform(rng.normal(size=(50, dim)), kern), kern


@pytest.mark.parametrize("method", list(Method))
def test_feature_kernel_normalizes_the_pool_a_fixed_number_of_times(method):
    """The pool is normalized once, on its first setup, whatever k; later
    runs against the same target normalize it no more."""
    pool, target, kern = feature_problem()
    pool_preps = []
    for k in (3, 15):
        with counted(NormalizedFeatureKernel, "prepare") as prepare:
            _, trace = run_greedy(method, pool, target, kern, k, seed=1)
        assert len(trace.rows) == k
        pool_preps.append(sum(np.shape(c.args[1])[0] == len(pool) for c in prepare.call_args_list))
    assert pool_preps == [1, 0]


def test_the_pool_keeps_one_setup_per_target_object():
    pool, target, kern = feature_problem()
    with counted(DiscreteTarget, "mean_embed_many") as embed:
        first = setup_pool(pool, target, kern)
        again = setup_pool(pool, target, kern)
        assert embed.call_count == 1
        for name in ("prepared", "diag", "embeds"):
            assert getattr(again, name) is getattr(first, name)
            assert not getattr(first, name).flags.writeable
        # an equal target is another object: it gets its own setup
        twin = DiscreteTarget(target.support, target.probs, kern)
        other = setup_pool(pool, twin, kern)
        assert embed.call_count == 2
        assert other.embeds is not first.embeds
        np.testing.assert_array_equal(other.embeds, first.embeds)
        assert setup_pool(pool, twin, kern).embeds is other.embeds


@pytest.mark.parametrize("method", list(Method))
def test_editing_the_source_array_leaves_selections_unchanged(method):
    rng = np.random.default_rng(21)
    target = random_mixture(rng, components=2, dim=2)
    points = rng.normal(size=(40, 2), scale=2.0)
    pool = CandidatePool.from_points(points)
    _, before = run_greedy(method, pool, target, target.kernel, 8, seed=2)
    points[:20] = points[20:]  # a pool that viewed this array would now hold duplicates
    _, after = run_greedy(method, pool, target, target.kernel, 8, seed=2)
    fresh = CandidatePool.from_points(pool.points)
    _, again = run_greedy(method, fresh, target, target.kernel, 8, seed=2)
    assert after.chosen_ids == again.chosen_ids == before.chosen_ids
    assert after.mmd_values.tobytes() == again.mmd_values.tobytes() == before.mmd_values.tobytes()


@pytest.mark.parametrize("problem", [mixture_problem, feature_problem])
def test_a_dropped_pool_frees_its_setup_without_the_cycle_collector(problem):
    pool, target, kern = problem(seed=4)
    run_greedy("SBQ", pool, target, kern, 4)
    setup = setup_pool(pool, target, kern)
    refs = [weakref.ref(obj) for obj in (pool, setup, setup.prepared, setup.diag, setup.embeds)]
    gc.disable()
    try:
        del pool, setup
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("where", ["pool", "support"])
def test_zero_norm_feature_fails_before_any_selection(where):
    pool, target, kern = feature_problem()
    points, support = pool.points.copy(), target.support.copy()
    (points if where == "pool" else support)[3] = 0.0
    pool, target = CandidatePool.from_points(points), DiscreteTarget.uniform(support, kern)
    with counted(QuadratureState, "add_atom") as add_atom:
        for method in Method:
            with pytest.raises(ZeroNormFeature):
                run_greedy(method, pool, target, kern, 5)
    assert add_atom.call_count == 0


def reference_uniform_run(method, pool, target, kern, k, seed):
    """KH_UNIFORM and MC_RANDOM written plainly: Python lists, ``np.mean`` over
    every embedding at every step, a fresh score array per step and a fresh
    gather of every draw so far.  Returns the chosen ids and the g trace."""
    prepared = kern.prepare(pool.points)
    z_all = target.mean_embed_many(pool.points)
    c = target.self_energy()
    ids, embeds, g = [], [], []
    pair = 0.0

    def add(row, k_atoms, k_self):
        nonlocal pair
        pair += 2.0 * float(np.sum(k_atoms)) + float(k_self)
        ids.append(int(pool.ids[row]))
        embeds.append(float(z_all[row]))
        g.append(c - 2.0 * float(np.mean(embeds)) + pair / len(ids) ** 2)

    if method is Method.KH_UNIFORM:
        ksum, chosen = np.zeros(len(pool)), []
        for _ in range(min(k, len(pool))):
            scores = z_all - ksum / (len(chosen) + 1)
            scores[chosen] = -np.inf
            row = int(np.argmax(scores))
            k_row = kern.cross(prepared[row:row + 1], prepared)[0]
            add(row, k_row[chosen], k_row[row])
            chosen.append(row)
            ksum += k_row
    else:
        order = np.random.default_rng(seed).permutation(len(pool))
        for it, row in enumerate(order[:k], start=1):
            k_row = kern.cross(prepared[row:row + 1], prepared[order[:it]])[0]
            add(row, k_row[:-1], k_row[-1])
    return ids, g


@pytest.mark.parametrize("problem", ["rbf", "feature"])
@pytest.mark.parametrize("method", [Method.KH_UNIFORM, Method.MC_RANDOM])
@pytest.mark.parametrize("k", [10, 50, 130, 260])
def test_uniform_baselines_match_the_plain_loops_bit_for_bit(problem, method, k):
    """200 points; k = 260 exhausts the pool."""
    if problem == "rbf":
        pool, target, kern = mixture_problem(seed=41, n=200, dim=3)
    else:
        pool, target, kern = feature_problem(seed=42, n=200, dim=30)
    acc, trace = run_greedy(method, pool, target, kern, k, seed=7)
    ids, g = reference_uniform_run(method, pool, target, kern, k, seed=7)
    assert trace.chosen_ids == ids == acc.atom_ids
    assert trace.mmd_values.tobytes() == np.array(g).tobytes()
    assert acc.mmd_sq == g[-1]
    assert trace.stop_reason == ("pool_exhausted" if k > len(pool) else None)


def test_uniform_g_gives_one_value_per_pair_of_kernel_entries():
    # two points with z 0.5 and 0.4, k(x_1, x_2) = 0.2 and unit diagonal
    g = uniform_g(1.0, np.array([0.5, 0.4]), iter([(0.0, 1.0), (0.2, 1.0)]))
    assert g == [1.0 - 2.0 * 0.5 + 1.0, 1.0 - 2.0 * (0.9 / 2) + (1.0 + 2.0 * 0.2 + 1.0) / 4]


@pytest.mark.parametrize("method", list(Method))
def test_one_setup_serves_many_runs_without_being_written(method):
    pool, target, kern = feature_problem(seed=9, n=80, dim=20)
    setup = setup_pool(pool, target, kern)
    # a write into the setup would raise
    assert not any(arr.flags.writeable for arr in (setup.prepared, setup.diag, setup.embeds))
    for k, seed in ((5, 0), (12, 3), (12, 0)):
        result, trace = run_greedy(method, pool, target, kern, k, seed=seed)
        fresh = CandidatePool.from_points(pool.points)
        expected, expected_trace = run_greedy(method, fresh, target, kern, k, seed=seed)
        assert trace.chosen_ids == expected_trace.chosen_ids
        assert trace.mmd_values.tobytes() == expected_trace.mmd_values.tobytes()
        assert result.mmd_sq == expected.mmd_sq
    assert setup_pool(pool, target, kern) is setup


def test_targets_and_setups_equal_and_hash_as_themselves_only():
    discrete = DiscreteTarget.uniform(np.arange(1.0, 9.0).reshape(-1, 2), NormalizedFeatureKernel())
    mixture = random_mixture(np.random.default_rng(0))
    setup = setup_pool(CandidatePool.from_points(np.arange(1.0, 11.0).reshape(-1, 2)),
                       discrete, discrete.kernel)
    twins = ((discrete, DiscreteTarget.uniform(discrete.support, discrete.kernel)),
             (mixture, GaussianMixtureTarget(mixture.weights, mixture.means, mixture.covs,
                                             mixture.kernel)),
             (setup, replace(setup)))
    for obj, twin in twins:
        assert obj == obj and obj != twin and not obj != obj
        assert {obj: "obj", twin: "twin"}[obj] == "obj"


@pytest.mark.parametrize("method", [Method.WKH, Method.SBQ])
@pytest.mark.parametrize("buffers", [False, True])
def test_selection_scores_mask_every_s_that_is_not_above_the_threshold(method, buffers):
    resid = np.array([0.5, -0.4, 0.3, 0.2, 0.25, 0.7, -0.6])
    # NaN, zero, negative, below TAU_DEP, subnormal (r^2/s overflows), at and above TAU_DEP
    schur = np.array([np.nan, 0.0, -1e-3, TAU_DEP / 2, 1e-320, TAU_DEP, 0.9])
    out = np.empty(resid.size) if buffers else None
    mask = np.empty(resid.size, dtype=bool) if buffers else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the masked rows' divisions warn nothing
        if buffers:  # run_greedy's route: its buffers, under its errstate
            with np.errstate(**selectors._SCORE_ERRSTATE):
                scores = selectors._scores(method, resid, schur, out, mask)
        else:
            scores = selection_scores(method, resid, schur)
    assert np.all(scores[:5] == -np.inf)
    kept = resid[5:] ** 2 / schur[5:] if method is Method.SBQ else resid[5:]
    assert scores[5:].tobytes() == kept.tobytes()
    if buffers:
        assert scores is out


@pytest.mark.parametrize("method", ["WKH", "MC_RANDOM"])
@pytest.mark.parametrize("seed", [None, 1.5, np.float64(1.0), True, -1, "1"],
                         ids=["none", "float", "numpy_float", "bool", "negative", "str"])
def test_run_greedy_checks_seed_where_it_enters(method, seed):
    """``None`` would draw fresh entropy, so two equal MC_RANDOM calls would differ."""
    pool, target, kern = mixture_problem(seed=1, n=30)
    with pytest.raises(ValueError, match="seed must be at least 0 and an int"):
        run_greedy(method, pool, target, kern, 5, seed=seed)
    assert pool._setup is None
    runs = [run_greedy(method, pool, target, kern, 5, seed=s)[1] for s in (0, np.int64(0))]
    assert runs[0].chosen_ids == runs[1].chosen_ids
