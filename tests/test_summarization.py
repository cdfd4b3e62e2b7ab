import gc
import warnings
import weakref
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from scipy.special import expit

from herdquad import summarization
from herdquad.datasets import LabeledDataset, make_blobs, synthetic_blob_dataset
from herdquad.kernels import NormalizedFeatureKernel
from herdquad.selectors import setup_pool
from herdquad.summarization import (
    BothClassesRequired,
    NonConvergence,
    _draw_baseline_rows,
    fisher_embed_many,
    summarize,
    train_logistic,
)
from herdquad.targets import DiscreteTarget


def blob_training_set(n=200, dim=2, seed=0):
    return make_blobs(n, dim=dim, seed=seed)


def objective_grad(theta, X, y, lam):
    """Gradient of the unweighted training objective, from its definition."""
    Xd = np.hstack([X, np.ones((X.shape[0], 1))])
    return Xd.T @ (expit(Xd @ theta) - y) / X.shape[0] + lam * theta


def test_train_logistic_reaches_tolerance_on_blobs():
    X, y = blob_training_set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonConvergence)
        model = train_logistic(X, y, lam=1.0)
    assert np.max(np.abs(objective_grad(model.theta, X, y, 1.0))) <= 1e-6
    Xd = summarization._design(X)
    # beats the coin-flip model
    assert summarization._mean_nll(model.theta, Xd, y.astype(float)) < np.log(2.0)
    p = expit(Xd @ model.theta)
    assert np.mean((p > 0.5) == (y == 1)) > 0.7


def finite_difference_grad(theta, X, y, lam, weights, h=1e-5):
    """Central-difference gradient of the weighted training objective, from its definition."""
    Xd = np.hstack([X, np.ones((X.shape[0], 1))])
    w = weights / weights.sum()

    def objective(th):
        t = Xd @ th
        return np.sum(w * (np.logaddexp(0.0, t) - y * t)) + 0.5 * lam * th @ th

    out = np.zeros_like(theta)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        out[j] = (objective(theta + step) - objective(theta - step)) / (2 * h)
    return out


def test_train_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        if np.unique(y).size < 2:
            y[0], y[1] = 0, 1
        lam = float(rng.uniform(0.01, 2.0))
        wts = rng.uniform(0.1, 1.0, size=n)
        model = train_logistic(X, y, lam=lam)
        fd = finite_difference_grad(model.theta, X, y, lam, np.ones(n))
        assert np.max(np.abs(fd)) <= 1e-4  # the analytic optimum kills the numeric gradient
        # the objective and gradient take any example weights
        theta = rng.normal(size=d + 1)
        fd = finite_difference_grad(theta, X, y, lam, wts)
        from herdquad.summarization import _design, _gradient, _objective
        Xd, yf, w = _design(X), y.astype(float), wts / wts.sum()
        _, t = _objective(theta, Xd, yf, lam, w)
        g = _gradient(theta, t, Xd.T, yf, lam, w)
        assert np.max(np.abs(fd - g)) <= 1e-4 * max(1.0, np.max(np.abs(g)))


def test_train_logistic_input_validation():
    X = np.zeros((4, 2))
    with pytest.raises(BothClassesRequired):
        train_logistic(X, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        train_logistic(X, np.array([0, 1, 0]))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        train_logistic(X, y, lam=-1.0)


def test_nonconvergence_warns(monkeypatch):
    monkeypatch.setattr(summarization, "MAX_ITERS", 1)
    X, y = blob_training_set(n=100)
    with pytest.warns(NonConvergence):
        model = train_logistic(X, y)
    assert np.max(np.abs(objective_grad(model.theta, X, y, 1.0))) > 1e-6


def frozen_objective(theta, Xd, y, lam, wts):
    t = Xd @ theta
    loss = float(np.sum(wts * (np.logaddexp(0.0, t) - y * t)))
    return loss + 0.5 * lam * float(theta @ theta), t


def frozen_design(X, y):
    """The design matrix, float labels and uniform weights ``train_logistic`` descends on."""
    n = X.shape[0]
    return np.hstack([X, np.ones((n, 1))]), np.asarray(y, dtype=float), np.full(n, 1.0 / n)


def frozen_train_logistic(X, y, lam=1.0, margin_rejects=None):
    """The descent of ``train_logistic`` as it read before its reductions
    became ndarray methods, with ``np.sum`` and ``np.max``; returns theta.
    A list ``margin_rejects`` collects every trial step that lowered the
    objective by less than the Armijo margin, which rejected it."""
    Xd, y, wts = frozen_design(X, y)

    def objective(theta):
        return frozen_objective(theta, Xd, y, lam, wts)

    def gradient(theta, t):
        return Xd.T @ (wts * (expit(t) - y)) + lam * theta

    theta = np.zeros(Xd.shape[1])
    obj, t = objective(theta)
    grad = gradient(theta, t)
    for _ in range(summarization.MAX_ITERS):
        if float(np.max(np.abs(grad))) <= summarization.GRAD_TOL:
            return theta
        step = 1.0
        gsq = float(grad @ grad)
        for _ in range(60):
            candidate = theta - step * grad
            cand_obj, cand_t = objective(candidate)
            if cand_obj <= obj - 1e-4 * step * gsq:
                break
            if margin_rejects is not None and cand_obj <= obj:
                margin_rejects.append(step)
            step *= 0.5
        theta, obj = candidate, cand_obj
        grad = gradient(theta, cand_t)
    return theta


def logistic_problems(count, seed):
    """Two-class problems in 2-12 dimensions; even cases have fewer examples
    than d + 1 parameters, odd ones more."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(2, d + 1)) if i % 2 == 0 else int(rng.integers(d + 2, 80))
        X = rng.normal(size=(n, d)) + rng.normal(size=d)
        y = rng.permutation(np.arange(n) % 2)
        if i % 4 >= 2:
            rng.uniform(size=n)  # the draw of the weights these cases once had, so X and y stay
        yield X, y


def bench_shaped_problems():
    """128-d blobs with 10, 25 and 50 examples, the shapes of the summarize
    benchmark's fits: fewer examples than the 129 parameters."""
    for n, seed in ((10, 30), (25, 31), (50, 32)):
        yield make_blobs(n, dim=128, seed=seed)


def armijo_margin_problem():
    """Blobs on which one trial step lowers the objective, but by less than
    the Armijo margin, so the margin alone rejects it."""
    X, y = make_blobs(12, dim=3, seed=25)
    return 3.0 * X, y


def test_train_logistic_matches_the_frozen_loop_bit_for_bit():
    cases = list(logistic_problems(16, seed=27))
    assert sum(X.shape[0] < X.shape[1] + 1 for X, _ in cases) == 8
    margin_rejects = []
    frozen_train_logistic(*armijo_margin_problem(), margin_rejects=margin_rejects)
    assert len(margin_rejects) == 1
    cases.append(armijo_margin_problem())
    rng = np.random.default_rng(29)
    for X, y in cases + list(bench_shaped_problems()):
        model = train_logistic(X, y)
        assert model.theta.tobytes() == frozen_train_logistic(X, y).tobytes()
        # a last-bit change in the objective rarely moves theta, so it is compared apart
        Xd, yf, w = frozen_design(X, y)
        for theta in (model.theta, rng.normal(size=Xd.shape[1])):
            assert summarization._objective(theta, Xd, yf, 1.0, w)[0] == \
                frozen_objective(theta, Xd, yf, 1.0, w)[0]
        t = Xd @ model.theta
        assert summarization._mean_nll(model.theta, Xd, yf) == \
            float(np.mean(np.logaddexp(0.0, t) - y * t))


def test_train_logistic_matches_the_frozen_loop_when_it_stops_early(monkeypatch):
    monkeypatch.setattr(summarization, "MAX_ITERS", 4)
    for X, y in logistic_problems(4, seed=28):
        with pytest.warns(NonConvergence):
            model = train_logistic(X, y)
        assert model.theta.tobytes() == frozen_train_logistic(X, y).tobytes()


def test_train_logistic_takes_the_last_trial_step_when_backtracking_runs_out(monkeypatch):
    """Features of order 1e12 make every step's search fail all 60 trial
    steps, after which the descent moves by the 60th as the frozen loop does."""
    monkeypatch.setattr(summarization, "MAX_ITERS", 4)
    X, y = make_blobs(12, dim=3, seed=5)
    X = X * 1e12
    objective = summarization._objective
    calls = []
    monkeypatch.setattr(summarization, "_objective", lambda *a: calls.append(1) or objective(*a))
    model = train_logistic(X, y)
    assert len(calls) == 1 + 4 * 60
    assert model.theta.tobytes() == frozen_train_logistic(X, y).tobytes()


def unit_score(model, x, y):
    """The closed form of one example's unit score: sign(y - p(x)) [x, 1] / ||[x, 1]||."""
    xd = np.append(x, 1.0)
    return np.sign(y - expit(xd @ model.theta)) * xd / np.linalg.norm(xd)


def test_fisher_embed_direction_and_norm():
    X, y = blob_training_set(n=50)
    model = train_logistic(X, y)
    E, _ = fisher_embed_many(model, X[:1], y[:1])
    assert np.linalg.norm(E[0]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(E[0], unit_score(model, X[0], y[0]), atol=1e-12)


def test_fisher_embed_many_matches_scalar_and_drops_degenerates():
    X, y = blob_training_set(n=40)
    model = train_logistic(X, y)
    E, kept = fisher_embed_many(model, X, y)
    assert kept.size == 40  # generic blobs never produce an exact fit
    for row in (0, 7, 39):
        np.testing.assert_allclose(E[row], unit_score(model, X[row], y[row]), atol=1e-12)

    from herdquad.summarization import LogisticModel
    # a huge weight saturates the sigmoid exactly in float arithmetic
    model = LogisticModel(theta=np.array([100.0, 0.0]))
    X2 = np.array([[5.0], [-5.0], [0.1]])
    y2 = np.array([1, 0, 1])
    E2, kept2 = fisher_embed_many(model, X2, y2)
    np.testing.assert_array_equal(kept2, [2])
    assert E2.shape == (1, 2)


def small_dataset(dim=8, seed=0, n=200):
    return synthetic_blob_dataset(n=n, dim=dim, seed=seed)


def test_summarize_report_structure_and_determinism():
    ds = small_dataset()
    rep = summarize(ds, "WKH", k=8, seed=3)
    again = summarize(ds, "WKH", k=8, seed=3)
    assert rep.method == "WKH"
    assert rep.selected_indices.size == 8
    assert set(ds.split[rep.selected_indices]) == {"train"}
    assert rep.final_mmd_sq == rep.trace.final_mmd_sq
    assert rep.final_mmd_sq >= 0.0
    for v in (rep.test_nll, rep.random_nll, rep.full_nll):
        assert np.isfinite(v)
    assert rep.n_degenerate == 0
    np.testing.assert_array_equal(rep.selected_indices, again.selected_indices)
    assert rep.test_nll == again.test_nll


def test_summarize_rejects_uniform_method_and_bad_k():
    ds = small_dataset()
    with pytest.raises(ValueError, match="WKH, SBQ and MC_RANDOM"):
        summarize(ds, "KH_UNIFORM", k=10)
    n_train = ds.indices("train").size
    with pytest.raises(ValueError):
        summarize(ds, "WKH", k=0)
    with pytest.raises(ValueError):
        summarize(ds, "WKH", k=n_train + 1)


@pytest.mark.parametrize("method", ["WKH", "MC_RANDOM"])
@pytest.mark.parametrize("s", [True, 1.0, 2.0, 0])
def test_summarize_checks_s_where_it_enters(method, s):
    with pytest.raises(ValueError, match="s must be at least 1 and an int"):
        summarize(synthetic_blob_dataset(200, 8, seed=0), method, 10, s=s)


def test_summarize_takes_a_numpy_int_s():
    data = synthetic_blob_dataset(200, 8, seed=0)
    for s in (1, 2):
        ints = [summarize(data, "WKH", 10, s=s_, seed=1) for s_ in (s, np.int64(s))]
        np.testing.assert_array_equal(ints[0].selected_indices, ints[1].selected_indices)
        assert ints[0].final_mmd_sq == ints[1].final_mmd_sq


def test_summarize_full_budget_mc_recovers_full_model():
    ds = small_dataset(n=120)
    n_train = ds.indices("train").size
    rep = summarize(ds, "MC_RANDOM", k=n_train, seed=0)
    assert rep.selected_indices.size == n_train
    np.testing.assert_array_equal(np.sort(rep.selected_indices), ds.indices("train"))
    assert rep.test_nll == pytest.approx(rep.full_nll, abs=1e-9)


def test_summarize_distributed_route(monkeypatch):
    ds = small_dataset()
    worker_counts = []
    real = summarization.run_distributed

    def spy(method, pool, target, kernel, k, s, seed):
        worker_counts.append(s)
        return real(method, pool, target, kernel, k, s, seed)

    monkeypatch.setattr(summarization, "run_distributed", spy)
    rep = summarize(ds, "WKH", k=8, s=2, seed=5)
    assert worker_counts == [2]
    assert rep.selected_indices.size <= 8
    assert set(ds.split[rep.selected_indices]) == {"train"}
    assert np.isfinite(rep.test_nll)


def test_random_baseline_survives_single_class_first_draw():
    # regression: at n=200/dim=16 the size-5 baseline draw for seed 1 lands
    # entirely in class 0 and used to abort the whole report
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    train_rows = ds.indices("train")
    first = np.random.default_rng(1).choice(train_rows, size=5, replace=False)
    assert np.unique(ds.labels[first]).size == 1
    rep = summarize(ds, "WKH", k=5, seed=1)
    assert np.isfinite(rep.random_nll)


def test_draw_baseline_rows_contract():
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    train_rows = ds.indices("train")
    a = _draw_baseline_rows(np.random.default_rng(1), train_rows, ds.labels, 5)
    b = _draw_baseline_rows(np.random.default_rng(1), train_rows, ds.labels, 5)
    np.testing.assert_array_equal(a, b)
    assert np.unique(ds.labels[a]).size == 2
    assert np.isin(a, train_rows).all()
    # a first draw that already covers both classes passes through untouched
    first = np.random.default_rng(0).choice(train_rows, size=5, replace=False)
    assert np.unique(ds.labels[first]).size == 2
    kept = _draw_baseline_rows(np.random.default_rng(0), train_rows, ds.labels, 5)
    np.testing.assert_array_equal(first, kept)
    with pytest.raises(BothClassesRequired):
        _draw_baseline_rows(np.random.default_rng(0), train_rows, ds.labels, 1)
    one_class = np.zeros_like(ds.labels)
    with pytest.raises(BothClassesRequired):
        _draw_baseline_rows(np.random.default_rng(0), train_rows, one_class, 5)


def test_mc_random_single_class_draw_names_its_cell():
    # MC_RANDOM's own draw of 6 rows at seed 2 holds one class; it is not redrawn
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    with pytest.raises(BothClassesRequired, match="MC_RANDOM at k=6, seed 2"):
        summarize(ds, "MC_RANDOM", 6, seed=2)


def test_summarize_low_dimension_saturates_embedding_span():
    # gradient embeddings of a d-feature model live in d+1 dimensions, so
    # the greedy run cannot place more than dim+1 independent atoms
    ds = small_dataset(dim=2, seed=2)
    rep = summarize(ds, "WKH", k=10, seed=2)
    assert rep.selected_indices.size <= 3
    assert rep.trace.stop_reason in ("objective_floor", "all_dependent")


def assert_same_report(a, b):
    """Every field bit for bit, the trace's wall-clock column aside."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "trace":
            assert x.stop_reason == y.stop_reason
            assert [astuple(r)[:-1] for r in x.rows] == [astuple(r)[:-1] for r in y.rows]
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, f.name


def fresh_report(data, *args, **kwargs):
    """The report of a new dataset built from the same arrays, which starts with no fit."""
    return summarize(LabeledDataset(data.features, data.labels, data.split), *args, **kwargs)


def test_summarize_grid_fits_each_dataset_once(monkeypatch):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    row_of = {row.tobytes(): i for i, row in enumerate(ds.features)}
    fitted = []

    def counting_train_logistic(X, y, **kwargs):
        fitted.append(tuple(sorted(row_of[row.tobytes()] for row in np.asarray(X))))
        return train_logistic(X, y, **kwargs)

    monkeypatch.setattr(summarization, "train_logistic", counting_train_logistic)
    grid = [(m, k, seed) for m in ("WKH", "SBQ", "MC_RANDOM") for k in (6, 10) for seed in (0, 1)]
    reports = {cell: summarize(ds, cell[0], cell[1], seed=cell[2]) for cell in grid}

    train_rows = ds.indices("train")
    full = [tuple(train_rows)]
    # WKH and SBQ read no seed, so they retrain once per (method, k)
    retrain = [tuple(sorted(rep.selected_indices)) for (method, _, seed), rep in reports.items()
               if method == "MC_RANDOM" or seed == 0]
    random = [tuple(sorted(_draw_baseline_rows(np.random.default_rng(seed), train_rows,
                                               ds.labels, k)))
              for k in (6, 10) for seed in (0, 1)]
    assert (len(full), len(random), len(retrain)) == (1, 4, 8)
    assert Counter(fitted) == Counter(full + random + retrain)
    assert all(rep.selected_indices.size == k for (_, k, _), rep in reports.items())

    monkeypatch.setattr(summarization, "train_logistic", train_logistic)
    for (method, k, seed), rep in reports.items():
        assert_same_report(rep, fresh_report(ds, method, k, seed=seed))


def test_summarize_selects_once_per_seed_free_cell(monkeypatch):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    greedy_calls, distributed_calls = Counter(), Counter()
    real_greedy, real_distributed = summarization.run_greedy, summarization.run_distributed

    def counting_greedy(method, pool, target, kernel, k, seed=0):
        greedy_calls[(method.value, k, seed)] += 1
        return real_greedy(method, pool, target, kernel, k, seed=seed)

    def counting_distributed(method, pool, target, kernel, k, s, seed):
        distributed_calls[(method.value, k, seed)] += 1
        return real_distributed(method, pool, target, kernel, k, s, seed)

    monkeypatch.setattr(summarization, "run_greedy", counting_greedy)
    monkeypatch.setattr(summarization, "run_distributed", counting_distributed)
    grid = [(m, s, k, seed) for m in ("WKH", "SBQ") for s in (1, 2) for k in (6, 10)
            for seed in (0, 1, 3)]
    grid += [("MC_RANDOM", 1, k, seed) for k in (6, 10) for seed in (0, 1, 3)]
    reports = {cell: summarize(ds, cell[0], cell[2], s=cell[1], seed=cell[3]) for cell in grid}

    # one greedy run per (method, k), made by the first seed
    expected = Counter({(m, k, 0): 1 for m in ("WKH", "SBQ") for k in (6, 10)})
    expected.update((("MC_RANDOM", k, seed) for k in (6, 10) for seed in (0, 1, 3)))
    assert greedy_calls == expected
    # every s = 2 cell partitions afresh, since its seed drives the partition
    assert distributed_calls == Counter({(m, k, seed): 1 for m in ("WKH", "SBQ")
                                         for k in (6, 10) for seed in (0, 1, 3)})

    monkeypatch.setattr(summarization, "run_greedy", real_greedy)
    monkeypatch.setattr(summarization, "run_distributed", real_distributed)
    for (method, s, k, seed), rep in reports.items():
        assert_same_report(rep, fresh_report(ds, method, k, s=s, seed=seed))


def test_random_cells_select_and_retrain_in_every_call(monkeypatch):
    """MC_RANDOM cells are per-call work: a second pass of the benchmark's
    3 budgets x 5 seeds grid makes one selection and one retraining per cell,
    so no seeded cell is served from the dataset's fit."""
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    grid = [(k, seed) for k in (10, 25, 50) for seed in range(5)]
    first = [summarize(ds, "MC_RANDOM", k, seed=seed) for k, seed in grid]
    calls = Counter()
    real_greedy, real_train = summarization.run_greedy, summarization.train_logistic

    def counting_greedy(*args, **kwargs):
        calls["run_greedy"] += 1
        return real_greedy(*args, **kwargs)

    def counting_train(*args, **kwargs):
        calls["train_logistic"] += 1
        return real_train(*args, **kwargs)

    monkeypatch.setattr(summarization, "run_greedy", counting_greedy)
    monkeypatch.setattr(summarization, "train_logistic", counting_train)
    second = [summarize(ds, "MC_RANDOM", k, seed=seed) for k, seed in grid]
    assert calls == Counter(run_greedy=len(grid), train_logistic=len(grid))
    for a, b in zip(first, second):
        assert_same_report(a, b)


def test_alternating_datasets_fit_each_once(monkeypatch):
    a = synthetic_blob_dataset(n=200, dim=16, seed=0)
    b = synthetic_blob_dataset(n=200, dim=16, seed=1)
    full_fits = Counter()

    def counting_train_logistic(X, y, **kwargs):
        for name, ds in (("a", a), ("b", b)):
            if np.array_equal(X, ds.subset("train")[0]):
                full_fits[name] += 1
        return train_logistic(X, y, **kwargs)

    monkeypatch.setattr(summarization, "train_logistic", counting_train_logistic)
    reports = [summarize(ds, "WKH", 8, seed=0) for ds in (a, b, a, b)]
    assert full_fits == Counter(a=1, b=1)
    monkeypatch.setattr(summarization, "train_logistic", train_logistic)
    for ds, rep in zip((a, b), reports[2:]):
        assert_same_report(rep, fresh_report(ds, "WKH", 8, seed=0))


def test_a_replaced_dataset_gets_a_fit_of_its_own():
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    before = summarize(ds, "SBQ", 8, seed=0)
    fit = ds._fit
    moved = replace(ds, features=ds.features[:, ::-1] * 2.0)
    assert moved._fit is None
    after = summarize(moved, "SBQ", 8, seed=0)
    assert moved._fit is not fit and ds._fit is fit
    assert moved._fit.pool is not fit.pool and after.full_nll != before.full_nll
    assert_same_report(after, fresh_report(moved, "SBQ", 8, seed=0))


def test_a_dropped_dataset_frees_its_fit_without_the_cycle_collector():
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    summarize(ds, "SBQ", 8, seed=0)
    summarize(ds, "WKH", 8, s=2, seed=0)
    fit = ds._fit
    setup = setup_pool(fit.pool, fit.target, fit.target.kernel)
    refs = [weakref.ref(obj) for obj in (ds, fit, fit.pool, fit.target, setup, setup.embeds)]
    gc.disable()
    try:
        del ds, fit, setup
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_summarize_prepares_and_embeds_the_pool_once_per_dataset_fit(monkeypatch):
    rows_seen = Counter()  # (layer, rows of its argument) -> calls
    real_embed, real_prepare = DiscreteTarget.mean_embed_many, NormalizedFeatureKernel.prepare

    def counting_embed(self, X, prepared=False):
        rows_seen[("mean_embed_many", len(X))] += 1
        return real_embed(self, X, prepared=prepared)

    def counting_prepare(self, X):
        rows_seen[("prepare", len(X))] += 1
        return real_prepare(self, X)

    monkeypatch.setattr(DiscreteTarget, "mean_embed_many", counting_embed)
    monkeypatch.setattr(NormalizedFeatureKernel, "prepare", counting_prepare)
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)

    def pool_calls():
        n_pool = len(ds._fit.pool)
        return rows_seen[("mean_embed_many", n_pool)], rows_seen[("prepare", n_pool)]

    summarize(ds, "MC_RANDOM", 6, seed=0)
    assert pool_calls() == (1, 1)
    # the s = 2 cells select from slices of the same setup
    grid = [(m, k, s, seed) for m in ("WKH", "SBQ", "MC_RANDOM") for k in (6, 10)
            for s in (1, 2) for seed in (0, 1, 3) if s == 1 or m != "MC_RANDOM"]
    for method, k, s, seed in grid:
        summarize(ds, method, k, s=s, seed=seed)
    assert pool_calls() == (1, 1)
    edited = LabeledDataset(ds.features * 2.0, ds.labels.copy(), ds.split.copy())
    summarize(edited, "WKH", 6, seed=0)  # another dataset: a second fit
    assert pool_calls() == (2, 2)


def test_summarize_cells_cannot_write_into_the_shared_setup(monkeypatch):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    summarize(ds, "MC_RANDOM", 8, seed=0)
    fit = ds._fit
    setup = setup_pool(fit.pool, fit.target, fit.target.kernel)
    arrays = (fit.pool.points, fit.pool.ids, setup.prepared, setup.diag, setup.embeds)
    kept = [arr.copy() for arr in arrays]
    for method in ("WKH", "SBQ", "MC_RANDOM"):
        for seed in (1, 2):
            summarize(ds, method, 8, seed=seed)
    assert ds._fit is fit
    assert setup_pool(fit.pool, fit.target, fit.target.kernel).embeds is setup.embeds
    for arr, before in zip(arrays, kept):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = before[0]
        np.testing.assert_array_equal(arr, before)


def test_summarize_memo_hits_share_no_mutable_state(monkeypatch):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    first = summarize(ds, "WKH", 8, seed=0)
    second = summarize(ds, "WKH", 8, seed=1)
    kept_rows, kept_trace = second.selected_indices.copy(), list(second.trace.rows)
    first.selected_indices[:] = -1
    first.trace.rows.clear()
    np.testing.assert_array_equal(second.selected_indices, kept_rows)
    assert second.trace.rows == kept_trace
    second.selected_indices[:] = -1
    second.trace.rows.append(kept_trace[0])
    assert_same_report(summarize(ds, "WKH", 8, seed=2), fresh_report(ds, "WKH", 8, seed=2))


@pytest.mark.parametrize("edit", ["flip_labels", "scale_features"])
def test_summarize_memo_never_serves_stale_results(edit):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    cached = summarize(ds, "SBQ", 8, seed=1)
    # the arrays are read-only, so the fit kept on ``ds`` cannot go stale;
    # an edited copy is another dataset, with a fit of its own
    X, y = ds.features.copy(), ds.labels.copy()
    rows = ds.indices("train")[:5]
    with pytest.raises(ValueError, match="read-only"):
        if edit == "flip_labels":
            ds.labels[rows] = 1 - ds.labels[rows]
        else:
            ds.features *= 2.0
    if edit == "flip_labels":
        y[rows] = 1 - y[rows]
    else:
        X *= 2.0
    ds = LabeledDataset(X, y, ds.split)
    after = summarize(ds, "SBQ", 8, seed=1)
    assert after.full_nll != cached.full_nll
    assert_same_report(after, fresh_report(ds, "SBQ", 8, seed=1))


def test_summarize_memo_keeps_nothing_from_a_failed_fit():
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    summarize(ds, "WKH", 8, seed=0)
    fit = ds._fit
    cells, baselines = dict(fit.cells), dict(fit.random_nll)
    one_class = LabeledDataset(ds.features, np.zeros_like(ds.labels), ds.split)
    for _ in range(2):
        with pytest.raises(BothClassesRequired):
            summarize(one_class, "WKH", 8, seed=0)
        assert one_class._fit is None
    assert ds._fit is fit
    assert (fit.cells, fit.random_nll) == (cells, baselines)


def test_summarize_memo_under_concurrent_misses(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    grid = [(m, k, seed) for m in ("WKH", "SBQ", "MC_RANDOM") for k in (6, 10) for seed in (0, 1)]
    serial = {cell: fresh_report(ds, cell[0], cell[1], seed=cell[2]) for cell in grid}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            futures = [(cell, ex.submit(summarize, ds, cell[0], cell[1], seed=cell[2]))
                       for cell in grid * 2]
            threaded = [(cell, f.result(timeout=60)) for cell, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for cell, rep in threaded:
        assert_same_report(rep, serial[cell])


@pytest.mark.parametrize("method", ["WKH", "MC_RANDOM"])
@pytest.mark.parametrize("seed", [None, 1.5, np.float64(1.0), True, -1, "1"],
                         ids=["none", "float", "numpy_float", "bool", "negative", "str"])
def test_summarize_checks_seed_where_it_enters(method, seed):
    """Under ``seed=None`` the random baseline would be cached under the key
    (None, k) and served next to later calls' fresh selections."""
    data = synthetic_blob_dataset(200, 8, seed=0)
    with pytest.raises(ValueError, match="seed must be at least 0 and an int"):
        summarize(data, method, 10, seed=seed)
    assert data._fit is None
    reports = [summarize(data, method, 10, seed=s) for s in (0, np.int64(0))]
    assert reports[0].random_nll == reports[1].random_nll
    np.testing.assert_array_equal(reports[0].selected_indices, reports[1].selected_indices)
