"""Output checks computed apart from the program.

Everything here is plain numpy on the benchmark's own copy of the inputs:
the Gaussian-mixture embedding and self-energy in closed form for diagonal
covariances, an RBF Gram matrix from pairwise differences, and dense
squared-MMD evaluations.  Each check returns a list of problems; an empty
list means the operation passed.
"""

from __future__ import annotations

import numpy as np

MMD_TOL = 1e-11          # dense recomputation vs reported squared MMD
GRADIENT_TOL = 1e-8      # max |K w - z|: optimal weights zero the gradient
FLOOR_TOL = -1e-12       # smallest squared MMD allowed (round-off)
SUMMARY_MMD_TOL = 1e-9   # summarization recomputation vs reported value
EPS = float(np.finfo(float).eps)


def rise_tol(energy: float, z, w) -> float:
    """Largest rise between optimal-weight trace steps that round-off explains.

    The program reports g = c - z'w.  In exact arithmetic adding an atom
    never raises it, but the computed value carries the dot product's
    forward error, at most k * eps * sum |z_i w_i| for k atoms, plus the
    rounding of c.  Near the floor SBQ's trace does rise by a few eps times
    that scale (1.1e-14 on one mixture_d2_saturating seed); a real
    regression moves g by far more.
    """
    return max(len(w), 1) * EPS * (energy + float(np.sum(np.abs(np.asarray(z) * np.asarray(w)))))


def mixture_embed(X, pis, means, variances, bandwidth) -> np.ndarray:
    """z(x) for a diagonal-covariance Gaussian mixture under an RBF kernel."""
    s2 = bandwidth**2
    out = np.zeros(X.shape[0])
    for pi, m, v in zip(pis, means, variances):
        amp = np.prod(np.sqrt(s2 / (s2 + v)))
        out += pi * amp * np.exp(-0.5 * np.sum((X - m) ** 2 / (v + s2), axis=1))
    return out


def mixture_energy(pis, means, variances, bandwidth) -> float:
    """c = E k(x, y) for x, y drawn independently from the mixture."""
    s2 = bandwidth**2
    V = variances[:, None, :] + variances[None, :, :] + s2
    amp = np.prod(np.sqrt(s2 / V), axis=2)
    q = np.sum((means[:, None, :] - means[None, :, :]) ** 2 / V, axis=2)
    return float(pis @ (amp * np.exp(-0.5 * q)) @ pis)


def rbf_gram(A, B, bandwidth) -> np.ndarray:
    sq = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2.0 * bandwidth**2))


def check_ids(ids, n_pool: int) -> list[str]:
    ids = np.asarray(ids, dtype=int)
    problems = []
    if np.unique(ids).size != ids.size:
        problems.append("chosen ids repeat")
    if ids.size and (ids.min() < 0 or ids.max() >= n_pool):
        problems.append("chosen id outside the pool")
    return problems


def check_trace(g, max_rise: float) -> list[str]:
    g = np.asarray(g, dtype=float)
    problems = []
    if g.size > 1 and np.max(np.diff(g)) > max_rise:
        problems.append(f"trace rises by {np.max(np.diff(g)):.3e}")
    if g.size and g.min() < FLOOR_TOL:
        problems.append(f"trace falls to {g.min():.3e}")
    return problems


def check_weighted_atoms(ref, ids, weights, mmd_sq, trace_g) -> tuple[list[str], float]:
    """Dense c - 2 w'z + w'Kw and max |Kw - z| for atoms given by pool ids.

    ``ref`` carries the benchmark's own copy of the pool points and the
    mixture parameters; ``trace_g`` is the selection's trace of g, checked
    for rises beyond round-off.  Returns the problems and the dense squared
    MMD.
    """
    problems = check_ids(ids, ref.points.shape[0])
    if problems:
        return problems, float("nan")
    w = np.asarray(weights, dtype=float)
    X = ref.points[np.asarray(ids, dtype=int)]
    if w.shape != (X.shape[0],):
        return [f"{w.size} weights for {X.shape[0]} atoms"], float("nan")
    z = mixture_embed(X, ref.pis, ref.means, ref.variances, ref.bandwidth)
    K = rbf_gram(X, X, ref.bandwidth)
    Kw = K @ w
    dense = ref.energy - 2.0 * float(w @ z) + float(w @ Kw)
    if not abs(dense - mmd_sq) <= MMD_TOL:
        problems.append(f"reported g {mmd_sq:.6e} but dense g {dense:.6e}")
    grad = float(np.max(np.abs(Kw - z))) if w.size else 0.0
    if not grad <= GRADIENT_TOL:
        problems.append(f"max |Kw - z| = {grad:.3e}")
    if not dense >= FLOOR_TOL:
        problems.append(f"dense g {dense:.3e} is negative")
    problems += check_trace(trace_g, rise_tol(ref.energy, z, w))
    return problems, dense


def check_state(ref, state, trace) -> list[str]:
    """A run_greedy result: embeddings, self-energy, weights, trace."""
    problems, _ = check_weighted_atoms(ref, state.atom_ids, state.weights, state.mmd_sq,
                                       trace.mmd_values)
    if problems:
        return problems
    X = ref.points[np.asarray(state.atom_ids, dtype=int)]
    z = mixture_embed(X, ref.pis, ref.means, ref.variances, ref.bandwidth)
    if not np.max(np.abs(np.asarray(state.embeds) - z), initial=0.0) <= 1e-12:
        problems.append("state embeddings differ from the closed form")
    if not abs(state.self_energy - ref.energy) <= 1e-12:
        problems.append(f"self-energy {state.self_energy:.15e} vs closed form {ref.energy:.15e}")
    if trace.rows and trace.chosen_ids != list(state.atom_ids):
        problems.append("trace ids differ from the state's atoms")
    if trace.rows and trace.final_mmd_sq != state.mmd_sq:
        problems.append("trace ends at another g than the state")
    return problems


def check_distributed(ref, result, s: int) -> list[str]:
    """Every solution recomputed densely; the winner is the minimum."""
    problems = []
    if len(result.solutions) != s + 1:
        return [f"{len(result.solutions)} solutions for {s} workers"]
    dense = []
    for sol, trace in zip(result.solutions, result.traces):
        p, g = check_weighted_atoms(ref, sol.ids, sol.weights, sol.mmd_sq, trace.mmd_values)
        problems += [f"{sol.label}: {m}" for m in p]
        dense.append(g)
    values = np.array([sol.mmd_sq for sol in result.solutions])
    if result.winner.mmd_sq != values.min():
        problems.append(f"winner g {result.winner.mmd_sq:.6e} above the minimum {values.min():.6e}")
    if not problems and dense[result.winner_index] > min(dense) + MMD_TOL:
        problems.append("the dense recomputation ranks another solution first")
    return problems


def score_embeddings(theta, X, y) -> np.ndarray:
    """Unit-normalized logistic score vectors (y - p(x)) [x, 1]."""
    Xd = np.hstack([X, np.ones((X.shape[0], 1))])
    G = (y - 1.0 / (1.0 + np.exp(-(Xd @ theta))))[:, None] * Xd
    return G / np.linalg.norm(G, axis=1)[:, None]


def summary_mmd(E_sel, u_bar, optimal: bool) -> tuple[float, np.ndarray]:
    """Squared MMD between the validation mean u_bar and the selection.

    Under the cosine kernel on unit embeddings the mean embedding is the
    vector mean, so the optimal-weight value is the squared distance from
    u_bar to the span of the selected rows (a dense least-squares solve)
    and the uniform-weight value is the squared distance to their mean.
    Returns the value and the weights.
    """
    if optimal:
        w, *_ = np.linalg.lstsq(E_sel.T, u_bar, rcond=None)
    else:
        w = np.full(E_sel.shape[0], 1.0 / E_sel.shape[0])
    r = u_bar - E_sel.T @ w
    return float(r @ r), w


def check_summary(ref, report, k: int) -> list[str]:
    rows = np.asarray(report.selected_indices, dtype=int)
    problems = []
    if rows.size != k or np.unique(rows).size != k:
        problems.append(f"{rows.size} rows selected ({np.unique(rows).size} distinct) for k={k}")
    if not np.all(np.isin(rows, ref.train_rows)):
        problems.append("selection holds rows outside the training split")
    if problems:
        return problems
    optimal = report.method != "MC_RANDOM"
    E_sel = ref.embeddings[rows]
    g, w = summary_mmd(E_sel, ref.u_bar, optimal)
    if not abs(g - report.final_mmd_sq) <= SUMMARY_MMD_TOL:
        problems.append(f"reported g {report.final_mmd_sq:.6e} but dense g {g:.6e}")
    if optimal:
        energy = float(ref.u_bar @ ref.u_bar)
        problems += check_trace(report.trace.mmd_values, rise_tol(energy, E_sel @ ref.u_bar, w))
    for name in ("test_nll", "random_nll", "full_nll"):
        if not np.isfinite(getattr(report, name)):
            problems.append(f"{name} is not finite")
    return problems


def check_summary_grid(reports) -> dict:
    """Acceptance criterion 10 per budget: problems keyed by k.

    ``reports`` maps (method, k, seed) to a SummarizeReport.  The mean WKH
    summary NLL must beat the mean random-subset NLL, and SBQ's mean g must
    not exceed WKH's (up to float dust: both can pick the same subset).
    """
    out = {}
    for k in sorted({key[1] for key in reports}):
        wkh = [r for (m, kk, _), r in reports.items() if m == "WKH" and kk == k]
        sbq = [r for (m, kk, _), r in reports.items() if m == "SBQ" and kk == k]
        problems = []
        nll = np.mean([r.test_nll for r in wkh])
        rand = np.mean([r.random_nll for r in wkh])
        if not nll < rand:
            problems.append(f"k={k}: WKH NLL {nll:.4f} not below random {rand:.4f}")
        g_w = np.mean([r.final_mmd_sq for r in wkh])
        g_s = np.mean([r.final_mmd_sq for r in sbq])
        if not g_s <= g_w * (1.0 + 1e-9):
            problems.append(f"k={k}: SBQ g {g_s:.3e} above WKH g {g_w:.3e}")
        out[k] = problems
    return out
