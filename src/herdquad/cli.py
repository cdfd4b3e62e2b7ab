"""Command-line harness: seeded experiments with reproducible artifacts.

Three subcommands:

* ``herdquad mixture``    squared-MMD traces of every method on a random
                          Gaussian mixture (single machine and distributed),
* ``herdquad summarize``  logistic-model data summarization on synthetic
                          blobs or an ingested dataset,
* ``herdquad diagnose``   the empirical checks as a machine-readable report.

All artifacts are written atomically (temp file + rename) with
full-precision floats, and a re-run with the same config byte-reproduces
them; wall-clock columns are zeroed unless ``timing = on`` is requested,
because real timings would break that reproducibility.  Only ``mixture``
and ``summarize`` take a config file and the grid flags (``--config``,
``--seed``, ``--k``, ``--method``); ``--method WKH:5`` runs WKH on five
workers.  Both run their grid serially and print an aggregate table of
their runs after the artifacts are written.  All three take ``--out``.
The mixture family, the RBF bandwidth (the median heuristic), the blob
geometry and the split fractions are fixed, see ``MIXTURE_FAMILY``,
``median_bandwidth``, ``datasets.make_blobs`` and ``datasets.VAL_FRACTION``
/ ``TEST_FRACTION``; ``mixture`` builds one instance per seed for all
methods.  Environment variable:
HERDQUAD_OUT (default output directory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from collections import Counter
from itertools import product

import numpy as np
from scipy.spatial.distance import pdist

from .config import ConfigError, MixtureConfig, SummarizeConfig, build_config, parse_kv_file
from .datasets import (
    TEST_FRACTION,
    VAL_FRACTION,
    IngestError,
    load_dataset,
    split_dataset,
    synthetic_blob_dataset,
)
from .diagnostics import (
    InsufficientPoints,
    check_approx_guarantee,
    fit_rate,
    orthogonality_residual,
    realizability_fixtures,
    verify_realizability,
)
from .distributed import run_distributed
from .kernels import CandidatePool, RBFKernel
from .selectors import RunTrace, run_greedy
from .state import G_ROUNDOFF
from .summarization import BothClassesRequired, summarize
from .targets import DiscreteTarget, GaussianMixtureTarget

SCHEMA_VERSION = 1
TRACE_COLUMNS = ["method", "s", "seed", "iteration", "chosen_id", "g", "elapsed_ms"]
SUMMARIZE_COLUMNS = ["method", "s", "k", "seed", "g_final", "test_nll"]
MEDIAN_SUBSAMPLE = 500
# the random mixtures of ``herdquad mixture``: means uniform in [-5, 5],
# diagonal variances uniform in [0.05, 0.5], Dirichlet(1) weights
MIXTURE_FAMILY = {"mean_low": -5.0, "mean_high": 5.0, "cov_low": 0.05, "cov_high": 0.5,
                  "alpha": 1.0}


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def fmt(value: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(value))


def median_bandwidth(points: np.ndarray, seed: int = 0) -> float:
    """The median heuristic: the median of ``pdist`` over at most ``MEDIAN_SUBSAMPLE``
    points drawn under ``seed``; ``ValueError`` for fewer than two points."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise ValueError(f"the median bandwidth needs at least two points, got {pts.shape[0]}")
    if pts.shape[0] > MEDIAN_SUBSAMPLE:
        pts = pts[np.random.default_rng(seed).choice(len(pts), MEDIAN_SUBSAMPLE, replace=False)]
    med = float(np.median(pdist(pts)))
    if med <= 0:
        raise ValueError("median pairwise distance is zero: "
                         "at least half the point pairs coincide")
    return med


def sample_mixture_params(rng: np.random.Generator, components: int, dim: int,
                          mean_low: float, mean_high: float, cov_low: float,
                          cov_high: float, alpha: float):
    weights = rng.dirichlet(np.full(components, alpha))
    means = rng.uniform(mean_low, mean_high, size=(components, dim))
    diag = rng.uniform(cov_low, cov_high, size=(components, dim))
    covs = np.stack([np.diag(d) for d in diag])
    return weights, means, covs


def reported_g(g: float, method: str, iteration: int) -> float:
    """g as an artifact reports it: round-off in [-G_ROUNDOFF, 0) reads as 0.

    Every g an artifact writes passes through here.  A squared MMD below
    -``state.G_ROUNDOFF`` is a fault, not round-off, and raises
    ``ValueError`` naming the method and the iteration.
    """
    if not g >= -G_ROUNDOFF:
        raise ValueError(f"{method} iteration {iteration}: g = {g!r} is negative beyond round-off")
    return max(g, 0.0)


def trace_rows_for_csv(method: str, s: int, seed: int, trace: RunTrace,
                       timing: bool) -> list[list]:
    rows = []
    for r in trace.rows:
        g = reported_g(r.mmd_sq, method, r.iteration)
        ms = r.elapsed_ms if timing else 0.0
        rows.append([method, s, seed, r.iteration, r.chosen_id, fmt(g), fmt(ms)])
    return rows


def _mixture_seed_runs(cfg: MixtureConfig, seed: int) -> dict:
    """``{(method, s): (trace, record)}`` for every method of ``cfg`` on the
    seed's one instance: mixture, pool, bandwidth and the pool's setup are shared."""
    rng = np.random.default_rng(seed)
    weights, means, covs = sample_mixture_params(rng, cfg.components, cfg.dim, **MIXTURE_FAMILY)
    pool_points = GaussianMixtureTarget(weights, means, covs, RBFKernel(1.0)).sample(
        cfg.pool_size, rng)
    bw = median_bandwidth(pool_points, seed=seed)
    kernel = RBFKernel(bw)
    target = GaussianMixtureTarget(weights, means, covs, kernel)
    pool = CandidatePool.from_points(pool_points)
    runs = {}
    for method, s in cfg.methods:
        record = {"method": method, "s": s, "seed": seed, "bandwidth": bw}
        if s == 1:
            result, trace = run_greedy(method, pool, target, kernel, cfg.k, seed=seed)
        else:
            dist = run_distributed(method, pool, target, kernel, cfg.k, s, seed)
            result, trace = dist.winner, dist.traces[dist.winner_index]
            record["solution_g"] = [reported_g(sol.mmd_sq, f"{method} {sol.label}", len(sol.ids))
                                    for sol in dist.solutions]
            record["winner"] = result.label
        record.update(final_g=reported_g(result.mmd_sq, method, len(trace.rows)),
                      n_iterations=len(trace.rows), stop_reason=trace.stop_reason)
        try:
            rf = fit_rate(trace)
            record["rate"] = {"slope": rf.slope, "intercept": rf.intercept,
                              "r_squared": rf.r_squared, "n_points": rf.n_points}
        except InsufficientPoints:
            record["rate"] = None
        runs[(method, s)] = trace, record
    return runs


def _print_table(caption: str, header: str, lines: list[str]) -> None:
    print()
    print(caption)
    print(header)
    print("-" * len(header))
    for line in lines:
        print(line)


def _print_mixture_table(cfg: MixtureConfig, records: list[dict]) -> None:
    """One line per (method, workers) cell: final g over seeds, mean slope, stop counts."""
    cells: dict[tuple, list] = {}
    for r in records:
        cells.setdefault((r["method"], r["s"]), []).append(r)
    lines = []
    for (method, s), runs in sorted(cells.items()):
        gs = np.array([r["final_g"] for r in runs])
        slopes = [r["rate"]["slope"] for r in runs if r["rate"] is not None]
        slope = float(np.mean(slopes)) if slopes else float("nan")
        stops = Counter(r["stop_reason"] or "budget" for r in runs)
        lines.append(f"{method:<12} {s:>2} {len(runs):>5} {gs.mean():>12.4e} {gs.min():>12.4e} "
                     f"{gs.max():>12.4e} {slope:>8.3f}  "
                     + " ".join(f"{reason}={n}" for reason, n in sorted(stops.items())))
    _print_table(f"pool={cfg.pool_size} components={cfg.components} k={cfg.k} "
                 "bandwidth=median",
                 f"{'method':<12} {'s':>2} {'seeds':>5} {'mean g':>12} {'min g':>12} "
                 f"{'max g':>12} {'slope':>8}  stops", lines)


def cmd_mixture(cfg: MixtureConfig) -> int:
    """Run the (method, workers, seed) grid, write its artifacts and print its table.

    Each seed's instance is built once for all methods.  In the table's
    stop counts a run that used its whole budget counts as ``budget``;
    ``objective_floor`` means g reached ``state.G_ROUNDOFF``.
    """
    results = {seed: _mixture_seed_runs(cfg, seed) for seed in cfg.seeds}

    records = []
    for method, s in cfg.methods:
        rows = []
        for seed in cfg.seeds:
            trace, record = results[seed][(method, s)]
            rows.extend(trace_rows_for_csv(method, s, seed, trace, cfg.timing))
            records.append(record)
        path = os.path.join(cfg.out, f"trace_{method.lower()}_s{s}.csv")
        write_csv(path, TRACE_COLUMNS, rows)

    records.sort(key=lambda r: (r["method"], r["s"], r["seed"]))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": "mixture",
        "config": {
            "methods": [[m, s] for m, s in cfg.methods], "k": cfg.k,
            "seeds": list(cfg.seeds), "pool_size": cfg.pool_size,
            "components": cfg.components, "dim": cfg.dim,
            "mean_range": [MIXTURE_FAMILY["mean_low"], MIXTURE_FAMILY["mean_high"]],
            "cov_range": [MIXTURE_FAMILY["cov_low"], MIXTURE_FAMILY["cov_high"]],
            "dirichlet_alpha": MIXTURE_FAMILY["alpha"],
            "bandwidth": "median",
            "target_form": "continuous",
        },
        "runs": records,
    }
    write_json(os.path.join(cfg.out, "mixture_summary.json"), summary)
    print(f"mixture: wrote {len(cfg.methods)} trace files and mixture_summary.json to {cfg.out}")
    _print_mixture_table(cfg, records)
    return 0


def _print_summarize_table(cfg: SummarizeConfig, data, records: list[dict]) -> None:
    """One line per (budget, method, workers) cell: NLLs and final g, averaged over seeds."""
    cells: dict[tuple, list] = {}
    for r in records:
        cells.setdefault((r["k"], r["method"], r["s"]), []).append(r)
    lines = []
    for (k, method, s), runs in sorted(cells.items()):
        test, rand, full, g = (float(np.mean([r[key] for r in runs]))
                               for key in ("test_nll", "random_nll", "full_nll", "g_final"))
        lines.append(f"{k:>4} {method:<10} {s:>2} {test:>10.4f} {rand:>10.4f} {full:>10.4f} "
                     f"{g:>12.4e}")
    _print_table(f"dataset={cfg.dataset} n={data.features.shape[0]} dim={data.features.shape[1]} "
                 f"lambda={cfg.lam}",
                 f"{'k':>4} {'method':<10} {'s':>2} {'test NLL':>10} {'random':>10} "
                 f"{'full':>10} {'final g':>12}", lines)


def cmd_summarize(cfg: SummarizeConfig) -> int:
    if cfg.dataset == "blobs":
        data = synthetic_blob_dataset(n=cfg.n, dim=cfg.dim, seed=min(cfg.seeds))
    else:
        X, y = load_dataset(cfg.dataset)
        data = split_dataset(X, y, seed=min(cfg.seeds))

    n_train = int(np.sum(data.split == "train"))
    if max(cfg.k_grid + [s for _, s in cfg.methods]) > n_train:
        raise ConfigError(f"a budget or worker count exceeds the {n_train} training examples")

    rows, records = [], []
    # one random baseline per (subset size, seed): a cell that stops early
    # draws its baseline at the size it selected, not at its budget
    random_rows: dict[tuple, list] = {}
    trace_rows: dict[int, list] = {k: [] for k in cfg.k_grid}
    for (method, s), k, seed in product(cfg.methods, cfg.k_grid, cfg.seeds):
        rep = summarize(data, method, k, s=s, lam=cfg.lam, seed=seed,
                        weighted_retrain=cfg.weighted_retrain)
        g_final = reported_g(rep.final_mmd_sq, method, len(rep.trace.rows))
        rows.append([method, s, k, seed, fmt(g_final), fmt(rep.test_nll)])
        size = rep.selected_indices.size
        random_rows[(size, seed)] = ["RANDOM", 1, size, seed, "", fmt(rep.random_nll)]
        trace_rows[k].extend(trace_rows_for_csv(method, s, seed, rep.trace, cfg.timing))
        records.append({"method": method, "s": s, "k": k, "seed": seed,
                        "g_final": g_final, "test_nll": rep.test_nll,
                        "random_nll": rep.random_nll, "full_nll": rep.full_nll,
                        "n_degenerate": rep.n_degenerate})
    # every cell shares the one full-data fit
    rows.append(["FULL", 1, n_train, min(cfg.seeds), "", fmt(rep.full_nll)])
    rows.extend(random_rows.values())
    rows.sort(key=lambda r: r[:4])

    write_csv(os.path.join(cfg.out, "summarize.csv"), SUMMARIZE_COLUMNS, rows)
    for k in cfg.k_grid:
        write_csv(os.path.join(cfg.out, f"summarize_traces_k{k}.csv"),
                  TRACE_COLUMNS, trace_rows[k])
    records.sort(key=lambda r: (r["method"], r["s"], r["k"], r["seed"]))
    write_json(os.path.join(cfg.out, "summarize_summary.json"), {
        "schema_version": SCHEMA_VERSION,
        "experiment": "summarize",
        "config": {
            "methods": [[m, s] for m, s in cfg.methods], "k_grid": list(cfg.k_grid),
            "seeds": list(cfg.seeds), "dataset": cfg.dataset, "n": data.features.shape[0],
            "dim": data.features.shape[1], "lambda": cfg.lam,
            "val_fraction": VAL_FRACTION, "test_fraction": TEST_FRACTION,
            "weighted_retrain": cfg.weighted_retrain,
        },
        "runs": records,
    })
    print(f"summarize: wrote summarize.csv, per-budget trace files and "
          f"summarize_summary.json to {cfg.out}")
    _print_summarize_table(cfg, data, records)
    return 0


DIAGNOSE_CHECKS = ["realizability:line_segment", "realizability:two_clusters",
                   "rate_fit", "approx_guarantee", "orthogonality"]


def _diagnose_payload(inject_fault: bool = False) -> dict:
    rng = np.random.default_rng(11)
    checks = []

    for fixture in realizability_fixtures():
        rep = verify_realizability(fixture)
        for key in rep:
            if key.endswith("_mmd_sq"):
                rep[key] = reported_g(rep[key], f"oracle on {fixture.name}", fixture.expected_r)
        checks.append({"name": f"realizability:{fixture.name}", "passes": rep.pop("passes"),
                       "details": rep})

    # log-linear decay of the optimal-weight methods on a generic instance
    pts = rng.standard_normal((80, 2))
    kernel = RBFKernel(1.0)
    target = DiscreteTarget.uniform(pts, kernel)
    pool = CandidatePool.from_points(pts)
    rate_details = {}
    rate_ok = True
    for method in ("WKH", "SBQ"):
        _, trace = run_greedy(method, pool, target, kernel, k=12, seed=0)
        rf = fit_rate(trace)
        ok = rf.slope < 0 and rf.r_squared >= 0.9
        rate_ok = rate_ok and ok
        rate_details[method] = {"slope": rf.slope, "r_squared": rf.r_squared,
                                "n_points": rf.n_points}
    checks.append({"name": "rate_fit", "passes": rate_ok, "details": rate_details})

    inst = rng.standard_normal((10, 2))
    kern2 = RBFKernel(1.0)
    target2 = DiscreteTarget.uniform(inst, kern2)
    pool2 = CandidatePool.from_points(inst)
    guarantee = check_approx_guarantee(pool2, target2, kern2, r=2, epsilon=0.1)
    guarantee["oracle"]["mmd_sq"] = reported_g(guarantee["oracle"]["mmd_sq"], "oracle", 2)
    for method, entry in guarantee["methods"].items():
        entry["mmd_sq_at_k"] = reported_g(entry["mmd_sq_at_k"], method, entry["k_used"])
    checks.append({"name": "approx_guarantee", "passes": guarantee.pop("holds"),
                   "details": guarantee})

    state, _ = run_greedy("WKH", pool2, target2, kern2, k=6, seed=0)
    if inject_fault:
        state.weights = state.weights + 1e-3  # deliberately break optimality
    resid = orthogonality_residual(state)
    checks.append({"name": "orthogonality", "passes": bool(resid <= 1e-8),
                   "details": {"max_residual": resid, "fault_injected": inject_fault}})

    return {"schema_version": SCHEMA_VERSION, "experiment": "diagnose",
            "checks": checks, "all_pass": all(c["passes"] for c in checks)}


def cmd_diagnose(out: str, list_only: bool = False, inject_fault: bool = False) -> int:
    if list_only:
        for name in DIAGNOSE_CHECKS:
            print(name)
        return 0
    payload = _diagnose_payload(inject_fault=inject_fault)
    write_json(os.path.join(out, "diagnose_report.json"), payload)
    for check in payload["checks"]:
        print(f"{'PASS' if check['passes'] else 'FAIL'} {check['name']}")
    if not payload["all_pass"]:
        failing = [c["name"] for c in payload["checks"] if not c["passes"]]
        print(f"diagnose: failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"diagnose: all checks passed; report in {out}/diagnose_report.json")
    return 0


# the subcommands that run a (method, seed) grid from a config
_CONFIG_CLASSES = {"mixture": MixtureConfig, "summarize": SummarizeConfig}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="herdquad",
                                     description="Greedy kernel quadrature experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mixture", "summarize", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("--out", help="override: output directory")
        if name in _CONFIG_CLASSES:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--seed", type=int, help="override: run this single seed")
            p.add_argument("--k", type=int, help="override: selection budget")
            p.add_argument("--method", help="override: run this single method (e.g. WKH or WKH:5)")
        else:
            p.add_argument("--list", action="store_true", help="print check names and exit")
            p.add_argument("--inject-fault", action="store_true",
                           help="corrupt weights before the orthogonality audit (self-test)")
    return parser


def _assemble_config(args) -> object:
    mapping = parse_kv_file(args.config) if args.config else {}
    if args.seed is not None:
        mapping["seeds"] = str(args.seed)
    if args.k is not None:
        mapping["k_grid" if args.command == "summarize" else "k"] = str(args.k)
    if args.method is not None:
        mapping["methods"] = args.method
    if args.out is not None:
        mapping["out"] = args.out
    elif "out" not in mapping and os.environ.get("HERDQUAD_OUT"):
        mapping["out"] = os.environ["HERDQUAD_OUT"]
    return build_config(_CONFIG_CLASSES[args.command], mapping)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "diagnose":
        out = args.out if args.out is not None else os.environ.get("HERDQUAD_OUT") or "out"
        return cmd_diagnose(out, list_only=args.list, inject_fault=args.inject_fault)
    try:
        cfg = _assemble_config(args)
        if args.command == "mixture":
            return cmd_mixture(cfg)
        return cmd_summarize(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 2
    except BothClassesRequired as exc:
        print(f"summarize error: {exc} (try a larger k or lower dim)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
