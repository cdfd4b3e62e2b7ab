import warnings
from collections import Counter
from dataclasses import astuple, fields

import numpy as np
import pytest
from scipy.special import expit

from herdquad import summarization
from herdquad.datasets import LabeledDataset, make_blobs, synthetic_blob_dataset
from herdquad.kernels import NormalizedFeatureKernel
from herdquad.selectors import setup_pool
from herdquad.summarization import (
    BothClassesRequired,
    DegenerateEmbedding,
    NonConvergence,
    _draw_baseline_rows,
    fisher_embed,
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
    assert model.mean_nll(X, y) < np.log(2.0)  # beats the coin-flip model
    p = expit(model.logits(X))
    assert np.mean((p > 0.5) == (y == 1)) > 0.7


def finite_difference_grad(theta, X, y, lam, sample_weights, h=1e-5):
    """Central-difference gradient of the weighted training objective, from its definition."""
    Xd = np.hstack([X, np.ones((X.shape[0], 1))])
    w = sample_weights / sample_weights.sum()

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
        model = train_logistic(X, y, lam=lam, sample_weights=wts)
        fd = finite_difference_grad(model.theta, X, y, lam, sample_weights=wts)
        assert np.max(np.abs(fd)) <= 1e-4  # the analytic optimum kills the numeric gradient
        theta = rng.normal(size=d + 1)
        fd = finite_difference_grad(theta, X, y, lam, sample_weights=wts)
        from herdquad.summarization import _design, _gradient, _objective
        Xd, yf, w = _design(X), y.astype(float), wts / wts.sum()
        _, t = _objective(theta, Xd, yf, lam, w)
        g = _gradient(theta, t, Xd, yf, lam, w)
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
    with pytest.raises(ValueError):
        train_logistic(X, y, sample_weights=np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        train_logistic(X, y, sample_weights=np.zeros(4))


def test_sample_weight_scale_invariance():
    X, y = blob_training_set(n=60)
    w = np.random.default_rng(1).uniform(0.5, 2.0, size=60)
    a = train_logistic(X, y, sample_weights=w)
    b = train_logistic(X, y, sample_weights=10.0 * w)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-9)


def test_nonconvergence_warns(monkeypatch):
    monkeypatch.setattr(summarization, "MAX_ITERS", 1)
    X, y = blob_training_set(n=100)
    with pytest.warns(NonConvergence):
        model = train_logistic(X, y)
    assert np.max(np.abs(objective_grad(model.theta, X, y, 1.0))) > 1e-6


def test_fisher_embed_direction_and_norm():
    X, y = blob_training_set(n=50)
    model = train_logistic(X, y)
    x = X[0]
    e = fisher_embed(model, x, y[0])
    assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
    xd = np.append(x, 1.0)
    residual = y[0] - expit(xd @ model.theta)
    expected = np.sign(residual) * xd / np.linalg.norm(xd)
    np.testing.assert_allclose(e, expected, atol=1e-12)


def test_fisher_embed_degenerate_raises():
    from herdquad.summarization import LogisticModel
    # a huge weight saturates the sigmoid exactly in float arithmetic
    model = LogisticModel(theta=np.array([100.0, 0.0]))
    with pytest.raises(DegenerateEmbedding):
        fisher_embed(model, np.array([5.0]), 1)


def test_fisher_embed_many_matches_scalar_and_drops_degenerates():
    X, y = blob_training_set(n=40)
    model = train_logistic(X, y)
    E, kept = fisher_embed_many(model, X, y)
    assert kept.size == 40  # generic blobs never produce an exact fit
    for row in (0, 7, 39):
        np.testing.assert_allclose(E[row], fisher_embed(model, X[row], y[row]), atol=1e-12)

    from herdquad.summarization import LogisticModel
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


def test_summarize_full_budget_mc_recovers_full_model():
    ds = small_dataset(n=120)
    n_train = ds.indices("train").size
    rep = summarize(ds, "MC_RANDOM", k=n_train, seed=0)
    assert rep.selected_indices.size == n_train
    np.testing.assert_array_equal(np.sort(rep.selected_indices), ds.indices("train"))
    assert rep.test_nll == pytest.approx(rep.full_nll, abs=1e-9)


def test_summarize_weighted_retrain_paths():
    ds = small_dataset()
    rep = summarize(ds, "SBQ", k=10, seed=1, weighted_retrain=True)
    assert np.isfinite(rep.test_nll)
    # the quadrature weights reach the retraining loss
    assert rep.test_nll != summarize(ds, "SBQ", k=10, seed=1).test_nll
    with pytest.raises(ValueError, match="quadrature weights"):
        summarize(ds, "MC_RANDOM", k=10, seed=1, weighted_retrain=True)


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
            assert (x.method, x.stop_reason) == (y.method, y.stop_reason)
            assert [astuple(r)[:-1] for r in x.rows] == [astuple(r)[:-1] for r in y.rows]
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, f.name


def fresh_report(data, *args, **kwargs):
    """The report of a new dataset with copied arrays, computed with an empty memo."""
    summarization._memo = None
    copy = LabeledDataset(data.features.copy(), data.labels.copy(), data.split.copy())
    return summarize(copy, *args, **kwargs)


def test_summarize_grid_fits_each_dataset_once(monkeypatch):
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    row_of = {row.tobytes(): i for i, row in enumerate(ds.features)}
    fitted = []

    def counting_train_logistic(X, y, **kwargs):
        fitted.append(tuple(sorted(row_of[row.tobytes()] for row in np.asarray(X))))
        return train_logistic(X, y, **kwargs)

    monkeypatch.setattr(summarization, "_memo", None)
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

    monkeypatch.setattr(summarization, "_memo", None)
    monkeypatch.setattr(summarization, "run_greedy", counting_greedy)
    monkeypatch.setattr(summarization, "run_distributed", counting_distributed)
    grid = [(m, s, k, seed, wr) for m in ("WKH", "SBQ") for s in (1, 2) for k in (6, 10)
            for seed in (0, 1, 3) for wr in (False, True)]
    grid += [("MC_RANDOM", 1, k, seed, False) for k in (6, 10) for seed in (0, 1, 3)]
    reports = {cell: summarize(ds, cell[0], cell[2], s=cell[1], seed=cell[3],
                               weighted_retrain=cell[4]) for cell in grid}

    # one greedy run per (method, k, weighted_retrain), made by the first seed
    expected = Counter({(m, k, 0): 2 for m in ("WKH", "SBQ") for k in (6, 10)})
    expected.update((("MC_RANDOM", k, seed) for k in (6, 10) for seed in (0, 1, 3)))
    assert greedy_calls == expected
    # every s = 2 cell partitions afresh, since its seed drives the partition
    assert distributed_calls == Counter({(m, k, seed): 2 for m in ("WKH", "SBQ")
                                         for k in (6, 10) for seed in (0, 1, 3)})

    monkeypatch.setattr(summarization, "run_greedy", real_greedy)
    monkeypatch.setattr(summarization, "run_distributed", real_distributed)
    for (method, s, k, seed, wr), rep in reports.items():
        assert_same_report(rep, fresh_report(ds, method, k, s=s, seed=seed, weighted_retrain=wr))


def test_summarize_prepares_and_embeds_the_pool_once_per_dataset_fit(monkeypatch):
    rows_seen = Counter()  # (layer, rows of its argument) -> calls
    real_embed, real_prepare = DiscreteTarget.mean_embed_many, NormalizedFeatureKernel.prepare

    def counting_embed(self, X, prepared=False):
        rows_seen[("mean_embed_many", len(X))] += 1
        return real_embed(self, X, prepared=prepared)

    def counting_prepare(self, X):
        rows_seen[("prepare", len(X))] += 1
        return real_prepare(self, X)

    monkeypatch.setattr(summarization, "_memo", None)
    monkeypatch.setattr(DiscreteTarget, "mean_embed_many", counting_embed)
    monkeypatch.setattr(NormalizedFeatureKernel, "prepare", counting_prepare)
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)

    def pool_calls():
        n_pool = len(summarization._memo.pool)
        return rows_seen[("mean_embed_many", n_pool)], rows_seen[("prepare", n_pool)]

    summarize(ds, "MC_RANDOM", 6, seed=0)
    assert pool_calls() == (1, 1)
    # the s = 2 cells select from slices of the same setup
    grid = [(m, k, s, seed) for m in ("WKH", "SBQ", "MC_RANDOM") for k in (6, 10)
            for s in (1, 2) for seed in (0, 1, 3) if s == 1 or m != "MC_RANDOM"]
    for method, k, s, seed in grid:
        summarize(ds, method, k, s=s, seed=seed)
    assert pool_calls() == (1, 1)
    summarize(ds, "WKH", 6, lam=0.5, seed=0)  # another lam: a second fit
    assert pool_calls() == (2, 2)


def test_summarize_cells_cannot_write_into_the_shared_setup(monkeypatch):
    monkeypatch.setattr(summarization, "_memo", None)
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    summarize(ds, "MC_RANDOM", 8, seed=0)
    fit = summarization._memo
    setup = setup_pool(fit.pool, fit.target, fit.target.kernel)
    arrays = (setup.pool.points, setup.pool.ids, setup.prepared, setup.diag, setup.embeds)
    kept = [arr.copy() for arr in arrays]
    for method in ("WKH", "SBQ", "MC_RANDOM"):
        for seed in (1, 2):
            summarize(ds, method, 8, seed=seed)
    assert summarization._memo is fit
    assert setup_pool(fit.pool, fit.target, fit.target.kernel).embeds is setup.embeds
    for arr, before in zip(arrays, kept):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = before[0]
        np.testing.assert_array_equal(arr, before)


def test_summarize_memo_hits_share_no_mutable_state(monkeypatch):
    monkeypatch.setattr(summarization, "_memo", None)
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


@pytest.mark.parametrize("edit", ["flip_labels", "scale_features", "new_lam", "weighted_retrain"])
def test_summarize_memo_never_serves_stale_results(monkeypatch, edit):
    monkeypatch.setattr(summarization, "_memo", None)
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    cached = summarize(ds, "SBQ", 8, seed=1)
    lam, weighted = 1.0, False
    if edit == "flip_labels":
        rows = ds.indices("train")[:5]
        ds.labels[rows] = 1 - ds.labels[rows]
    elif edit == "scale_features":
        ds.features *= 2.0
    elif edit == "new_lam":
        lam = 0.5
    else:
        weighted = True
    after = summarize(ds, "SBQ", 8, seed=1, lam=lam, weighted_retrain=weighted)
    # the weights change the retrained model only, the data all of the fit
    changed = "test_nll" if weighted else "full_nll"
    assert getattr(after, changed) != getattr(cached, changed)
    assert_same_report(after, fresh_report(ds, "SBQ", 8, seed=1, lam=lam,
                                           weighted_retrain=weighted))


def test_summarize_memo_keeps_nothing_from_a_failed_fit(monkeypatch):
    monkeypatch.setattr(summarization, "_memo", None)
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    summarize(ds, "WKH", 8, seed=0)
    entry = summarization._memo
    one_class = LabeledDataset(ds.features, np.zeros_like(ds.labels), ds.split)
    for _ in range(2):
        with pytest.raises(BothClassesRequired):
            summarize(one_class, "WKH", 8, seed=0)
    assert summarization._memo is entry


def test_summarize_memo_under_concurrent_misses(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    ds = synthetic_blob_dataset(n=200, dim=16, seed=0)
    grid = [(m, k, seed) for m in ("WKH", "SBQ", "MC_RANDOM") for k in (6, 10) for seed in (0, 1)]
    serial = {cell: fresh_report(ds, cell[0], cell[1], seed=cell[2]) for cell in grid}
    monkeypatch.setattr(summarization, "_memo", None)
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
