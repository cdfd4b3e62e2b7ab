"""Data summarization for logistic models via gradient-space matching.

Pipeline: fit a regularized logistic model on the training split, embed
every example by its unit-normalized per-example log-likelihood gradient
(the score vector, with the information matrix taken as the identity),
then greedily pick the training subset whose weighted embedding best
matches the validation split's embedding distribution, and finally retrain
on the chosen subset.  Reported quality is the mean negative log-likelihood
on the held-out test split.

A grid of ``summarize`` calls on one dataset shares the full-data fit, the
embeddings, target and pool, and through the pool its selection setup (its
prepared features and target embedding, see ``selectors.setup_pool``),
and the random baseline of each (seed, size): they are computed once and
kept in a one-entry memo that is checked against the dataset's contents
and ``lam`` on every call.  WKH and SBQ on one machine (``s = 1``) never
read ``seed``, so the memo also keeps their per-cell result, keyed by
(method, k, weighted_retrain), and serves it to every other seed.
MC_RANDOM and ``s > 1``, where the seed drives the draws or the partition,
are computed in every call; both select from the pool's one setup, the
shards of ``s > 1`` from slices of it.
"""

from __future__ import annotations

import logging
import threading
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.special import expit

from .distributed import run_distributed
from .kernels import CandidatePool, NormalizedFeatureKernel
from .selectors import OPTIMAL_WEIGHT_METHODS, Method, RunTrace, run_greedy
from .targets import DiscreteTarget

log = logging.getLogger(__name__)

# train_logistic's iteration cap and the gradient infinity-norm that counts as converged
MAX_ITERS = 6000
GRAD_TOL = 1e-6


class BothClassesRequired(ValueError):
    """Training data contains a single class."""


class DegenerateEmbedding(ValueError):
    """Zero gradient vector: the example is fit exactly."""


class NonConvergence(UserWarning):
    """Gradient descent stopped before reaching the tolerance."""


def _design(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, np.ones((X.shape[0], 1))])


@dataclass
class LogisticModel:
    """Fitted logistic model; theta carries the bias in its last slot."""

    theta: np.ndarray

    def logits(self, X) -> np.ndarray:
        return _design(X) @ self.theta

    def mean_nll(self, X, y) -> float:
        t = self.logits(X)
        y = np.asarray(y, dtype=float)
        return float(np.mean(np.logaddexp(0.0, t) - y * t))


def _objective(theta, Xd, y, lam, wts):
    """Training objective at ``theta`` and the logits t = Xd theta it was computed from."""
    t = Xd @ theta
    loss = float(np.sum(wts * (np.logaddexp(0.0, t) - y * t)))
    return loss + 0.5 * lam * float(theta @ theta), t


def _gradient(theta, t, Xd, y, lam, wts):
    return Xd.T @ (wts * (expit(t) - y)) + lam * theta


def train_logistic(X, y, lam: float = 1.0, sample_weights=None) -> LogisticModel:
    """Deterministic full-batch gradient descent with backtracking.

    Minimizes the weighted mean logistic loss plus (lam/2) ||theta||^2
    (bias included), starting from zero.  A trial step of the backtracking
    search evaluates the objective alone; the gradient is taken once per
    accepted step, from that step's logits.  Converged means the gradient
    infinity-norm fell to ``GRAD_TOL`` within ``MAX_ITERS`` steps;
    otherwise a ``NonConvergence`` warning is issued.
    """
    Xd = _design(X)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != Xd.shape[0]:
        raise ValueError("need one label per example")
    if np.unique(y).size < 2:
        raise BothClassesRequired("training data must contain both classes")
    if lam < 0:
        raise ValueError("regularization strength must be nonnegative")
    if sample_weights is None:
        wts = np.full(y.shape[0], 1.0 / y.shape[0])
    else:
        wts = np.asarray(sample_weights, dtype=float)
        if wts.shape != y.shape or np.any(wts < 0) or wts.sum() <= 0:
            raise ValueError("sample weights must be nonnegative with positive total")
        wts = wts / wts.sum()

    theta = np.zeros(Xd.shape[1])
    obj, t = _objective(theta, Xd, y, lam, wts)
    grad = _gradient(theta, t, Xd, y, lam, wts)
    for _ in range(MAX_ITERS):
        if float(np.max(np.abs(grad))) <= GRAD_TOL:
            return LogisticModel(theta=theta)
        step = 1.0
        gsq = float(grad @ grad)
        for _ in range(60):
            candidate = theta - step * grad
            cand_obj, cand_t = _objective(candidate, Xd, y, lam, wts)
            if cand_obj <= obj - 1e-4 * step * gsq:
                break
            step *= 0.5
        theta, obj = candidate, cand_obj
        grad = _gradient(theta, cand_t, Xd, y, lam, wts)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm > GRAD_TOL:
        warnings.warn(f"gradient descent stopped at grad norm {gnorm:.3e} "
                      f"after {MAX_ITERS} iterations", NonConvergence)
    return LogisticModel(theta=theta)


def fisher_embed(model: LogisticModel, x, y) -> np.ndarray:
    """Unit-normalized log-likelihood gradient (y - p(x)) * [x, 1].

    The information matrix is taken as the identity, so normalization is
    plain Euclidean.  A zero gradient (example fit exactly) raises
    ``DegenerateEmbedding``.
    """
    xd = _design(np.atleast_2d(x))[0]
    g = (float(y) - float(expit(xd @ model.theta))) * xd
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise DegenerateEmbedding("zero score vector")
    return g / norm


def fisher_embed_many(model: LogisticModel, X, y):
    """Unit-normalized embeddings for a batch; returns (embeddings, kept_row_indices).

    Degenerate (zero-gradient) rows are dropped and counted in the log.
    """
    Xd = _design(X)
    y = np.asarray(y, dtype=float)
    G = (y - expit(Xd @ model.theta))[:, None] * Xd
    norms = np.linalg.norm(G, axis=1)
    kept = np.flatnonzero(norms > 0.0)
    dropped = Xd.shape[0] - kept.size
    if dropped:
        log.info("dropped %d degenerate embeddings", dropped)
    return G[kept] / norms[kept][:, None], kept


@dataclass
class SummarizeReport:
    method: str
    trace: RunTrace
    final_mmd_sq: float
    selected_indices: np.ndarray
    test_nll: float
    random_nll: float
    full_nll: float
    n_degenerate: int


def _draw_baseline_rows(rng, train_rows, labels, size: int) -> np.ndarray:
    """Uniform draw of ``size`` training rows that contains both classes.

    A single-class subset cannot be retrained, so such draws are rejected
    and the generator advances to the next one.  For a fixed seed the
    accepted subset is deterministic, and draws whose first attempt already
    covers both classes are unaffected by the rejection step.
    """
    if size < 2 or np.unique(labels[train_rows]).size < 2:
        raise BothClassesRequired("baseline subset cannot contain both classes")
    for _ in range(1000):
        rows = rng.choice(train_rows, size=size, replace=False)
        if np.unique(labels[rows]).size == 2:
            return rows
    raise BothClassesRequired("no two-class baseline subset found after 1000 draws")


_memo_lock = threading.Lock()
_memo: SimpleNamespace | None = None


def _fit_dataset(data, lam: float) -> SimpleNamespace:
    """The part of ``summarize`` that depends on the dataset and ``lam`` alone.

    The entry's ``key`` holds private copies of the features, labels, split
    tags and ``lam``, so an in-place edit, another dataset or another ``lam``
    recomputes.  ``random_nll`` maps (seed, subset size) to the random
    baseline's test NLL, ``pool`` and ``target`` are what every cell selects
    from and against, and ``cells`` maps (method, k, weighted_retrain) to the
    seed-free part of a WKH or SBQ report at ``s = 1``: the trace, the
    final g, the selected rows and the test NLL.  A fit that raises stores
    nothing.
    """
    global _memo
    key = (data.features, data.labels, data.split, lam)
    with _memo_lock:
        if _memo is not None and all(map(np.array_equal, _memo.key, key)):
            return _memo
    Xtr, ytr = data.subset("train")
    Xval, yval = data.subset("validation")
    test = data.subset("test")
    full_model = train_logistic(Xtr, ytr, lam=lam)
    E_tr, kept_tr = fisher_embed_many(full_model, Xtr, ytr)
    E_val, _ = fisher_embed_many(full_model, Xval, yval)
    fit = SimpleNamespace(
        key=tuple(np.array(v) for v in key), test=test, full_nll=full_model.mean_nll(*test),
        kept_tr=kept_tr, n_degenerate=Xtr.shape[0] - kept_tr.size,
        pool=CandidatePool.from_points(E_tr),
        target=DiscreteTarget.uniform(E_val, NormalizedFeatureKernel()), random_nll={}, cells={})
    with _memo_lock:
        _memo = fit
    return fit


def summarize(data, method, k: int, *, s: int = 1, lam: float = 1.0, seed: int = 0,
              weighted_retrain: bool = False) -> SummarizeReport:
    """Select ``k`` training examples whose score embeddings match validation.

    The selection pool holds the training examples' embeddings under the
    full-data model; the target is the uniform discrete distribution over
    the validation embeddings.  ``s > 1`` routes the selection through the
    distributed driver (WKH / SBQ only).  ``weighted_retrain`` feeds the
    magnitude of the quadrature weights into the retraining loss instead of
    uniform weights.  The size-matched random baseline rejects single-class
    draws, see :func:`_draw_baseline_rows`; a selection of one class raises
    ``BothClassesRequired`` naming the method, ``k`` and ``seed``.

    The full-data fit and the random baselines are memoized per dataset,
    see :func:`_fit_dataset`.  So is the selection and retraining of WKH
    and SBQ at ``s = 1``, which do not read ``seed``: the first call for a
    (method, k, weighted_retrain) computes it and every later call, with
    any seed, is served a copy, bit for bit the same report with its own
    ``selected_indices`` and trace row list.  Such a report carries the
    trace of the call that computed it, wall-clock ``elapsed_ms`` included.
    MC_RANDOM and ``s > 1`` select afresh in every call.
    """
    method = Method(method)
    if method is Method.KH_UNIFORM:
        raise ValueError("summarize supports WKH, SBQ and MC_RANDOM")
    if weighted_retrain and method not in OPTIMAL_WEIGHT_METHODS:
        raise ValueError("weighted retraining needs quadrature weights (WKH or SBQ)")
    train_rows = data.indices("train")
    if k < 1 or k > train_rows.size:
        raise ValueError(f"k must lie in [1, {train_rows.size}]")
    fit = _fit_dataset(data, lam)
    if fit.kept_tr.size < k:
        raise ValueError(f"only {fit.kept_tr.size} nondegenerate training embeddings for k={k}")

    # WKH and SBQ on one machine read no seed: one call per (method, k,
    # weighted_retrain) serves every seed
    cell_key = (method, k, weighted_retrain) if s == 1 and method in OPTIMAL_WEIGHT_METHODS else None
    with _memo_lock:
        cell = fit.cells.get(cell_key)
    if cell is None:
        if s == 1:
            result, trace = run_greedy(method, fit.pool, fit.target, fit.target.kernel, k, seed)
        else:
            dist = run_distributed(method, fit.pool, fit.target, fit.target.kernel, k, s, seed)
            result, trace = dist.winner, dist.traces[dist.winner_index]

        # the winner's trace lists its atoms, like a single run's
        selected_indices = train_rows[fit.kept_tr[np.asarray(trace.chosen_ids, dtype=int)]]
        sub_X = data.features[selected_indices]
        sub_y = data.labels[selected_indices]
        if np.unique(sub_y).size < 2:
            raise BothClassesRequired(f"{method.value} at k={k}, seed {seed} selected "
                                      "a single class")

        # the weights are in selection order, like the selected indices
        sample_weights = np.abs(result.weights) if weighted_retrain else None
        summary_model = train_logistic(sub_X, sub_y, lam=lam, sample_weights=sample_weights)
        cell = SimpleNamespace(trace=trace, final_mmd_sq=float(result.mmd_sq),
                               selected_indices=selected_indices,
                               test_nll=float(summary_model.mean_nll(*fit.test)))
    size = cell.selected_indices.size

    with _memo_lock:
        random_nll = fit.random_nll.get((seed, size))
    if random_nll is None:
        rng = np.random.default_rng(seed)
        rand_rows = _draw_baseline_rows(rng, train_rows, data.labels, size)
        random_model = train_logistic(data.features[rand_rows], data.labels[rand_rows], lam=lam)
        random_nll = float(random_model.mean_nll(*fit.test))

    # stored only now, so that a call that raises stores nothing
    with _memo_lock:
        fit.random_nll[(seed, size)] = random_nll
        if cell_key is not None:
            fit.cells[cell_key] = cell

    # each report owns its row list and indices, so editing one edits no other
    return SummarizeReport(
        method=method.value, trace=replace(cell.trace, rows=list(cell.trace.rows)),
        final_mmd_sq=cell.final_mmd_sq, selected_indices=cell.selected_indices.copy(),
        test_nll=cell.test_nll, random_nll=random_nll, full_nll=float(fit.full_nll),
        n_degenerate=int(fit.n_degenerate),
    )
