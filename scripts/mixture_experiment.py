#!/usr/bin/env python3
"""Run the mixture comparison and print a per-method summary table.

Thin driver over the ``herdquad mixture`` subcommand: runs the experiment,
then aggregates the JSON artifact into mean final objective, fitted decay
rate and the count of each stop reason per (method, workers) cell.  A run
that used its whole budget counts as ``budget``; ``objective_floor`` means
g reached the round-off floor ``herdquad.state.G_ROUNDOFF``.

Usage:
    python scripts/mixture_experiment.py --config scripts/configs/mixture_small.cfg
    python scripts/mixture_experiment.py --config scripts/configs/mixture_distributed.cfg
"""

import argparse
import json
import os
import sys
from collections import Counter, defaultdict

import numpy as np

from herdquad.cli import main as cli_main


def aggregate(summary_path):
    with open(summary_path) as fh:
        summary = json.load(fh)
    cells = defaultdict(list)
    for run in summary["runs"]:
        cells[(run["method"], run["s"])].append(run)
    table = []
    for (method, s), runs in sorted(cells.items()):
        gs = np.array([r["final_g"] for r in runs])
        slopes = [r["rate"]["slope"] for r in runs if r["rate"] is not None]
        stops = Counter(r["stop_reason"] or "budget" for r in runs)
        table.append({
            "method": method,
            "s": s,
            "seeds": len(runs),
            "mean_g": float(gs.mean()),
            "min_g": float(gs.min()),
            "max_g": float(gs.max()),
            "mean_slope": float(np.mean(slopes)) if slopes else float("nan"),
            "stops": dict(sorted(stops.items())),
        })
    return summary["config"], table


def print_table(config, table):
    print(f"pool={config['pool_size']} components={config['components']} "
          f"k={config['k']} bandwidth={config['bandwidth']}")
    header = (f"{'method':<12} {'s':>2} {'seeds':>5} {'mean g':>12} {'min g':>12} {'max g':>12} "
              f"{'slope':>8}  stops")
    print(header)
    print("-" * len(header))
    for row in table:
        print(f"{row['method']:<12} {row['s']:>2} {row['seeds']:>5} "
              f"{row['mean_g']:>12.4e} {row['min_g']:>12.4e} {row['max_g']:>12.4e} "
              f"{row['mean_slope']:>8.3f}  "
              + " ".join(f"{reason}={n}" for reason, n in row["stops"].items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="scripts/configs/mixture_small.cfg")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument("--threads", type=int, help="parallelize over the seed grid")
    args = parser.parse_args()

    argv = ["mixture", "--config", args.config]
    if args.out:
        argv += ["--out", args.out]
    if args.threads:
        argv += ["--threads", str(args.threads)]
    rc = cli_main(argv)
    if rc != 0:
        return rc

    # the CLI printed where it wrote; recover the directory the same way
    out_dir = args.out
    if out_dir is None:
        from herdquad.config import MixtureConfig, build_config, parse_kv_file
        out_dir = build_config(MixtureConfig, parse_kv_file(args.config)).out
    config, table = aggregate(os.path.join(out_dir, "mixture_summary.json"))
    print()
    print_table(config, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
