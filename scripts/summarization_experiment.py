#!/usr/bin/env python3
"""Run the summarization experiment and print the NLL comparison.

Drives ``herdquad summarize`` and condenses the JSON artifact into one row
per (method, budget): mean test NLL over seeds next to the random-subset
and full-data baselines.

Usage:
    python scripts/summarization_experiment.py --config scripts/configs/summarize_blobs.cfg
    python scripts/summarization_experiment.py --dataset path/to/data.csv --k 25
"""

import argparse
import json
import os
import sys
from collections import defaultdict

import numpy as np

from herdquad.cli import main as cli_main


def aggregate(summary_path):
    with open(summary_path) as fh:
        summary = json.load(fh)
    cells = defaultdict(list)
    for run in summary["runs"]:
        cells[(run["method"], run["s"], run["k"])].append(run)
    table = []
    for (method, s, k), runs in sorted(cells.items(), key=lambda t: (t[0][2], t[0][0])):
        table.append({
            "method": method, "s": s, "k": k, "seeds": len(runs),
            "test_nll": float(np.mean([r["test_nll"] for r in runs])),
            "random_nll": float(np.mean([r["random_nll"] for r in runs])),
            "full_nll": float(np.mean([r["full_nll"] for r in runs])),
            "g_final": float(np.mean([r["g_final"] for r in runs])),
        })
    return summary["config"], table


def print_table(config, table):
    print(f"dataset={config['dataset']} n={config['n']} dim={config['dim']} "
          f"lambda={config['lambda']}")
    header = (f"{'k':>4} {'method':<10} {'s':>2} {'test NLL':>10} {'random':>10} "
              f"{'full':>10} {'final g':>12}")
    print(header)
    print("-" * len(header))
    for row in table:
        print(f"{row['k']:>4} {row['method']:<10} {row['s']:>2} {row['test_nll']:>10.4f} "
              f"{row['random_nll']:>10.4f} {row['full_nll']:>10.4f} {row['g_final']:>12.4e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="scripts/configs/summarize_blobs.cfg")
    parser.add_argument("--dataset", help="CSV or libsvm file instead of synthetic blobs")
    parser.add_argument("--k", type=int, help="run a single budget instead of the grid")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()

    argv = ["summarize", "--config", args.config]
    if args.out:
        argv += ["--out", args.out]
    if args.k:
        argv += ["--k", str(args.k)]
    if args.threads:
        argv += ["--threads", str(args.threads)]
    side_config = None
    if args.dataset:
        # inject the dataset through a side config so the flat file stays the source of truth
        import tempfile
        from herdquad.config import parse_kv_file
        mapping = parse_kv_file(args.config)
        mapping["dataset"] = args.dataset
        fd, side_config = tempfile.mkstemp(suffix=".cfg", text=True)
        with os.fdopen(fd, "w") as fh:
            for key, value in mapping.items():
                fh.write(f"{key} = {value}\n")
        argv[argv.index(args.config)] = side_config
    try:
        rc = cli_main(argv)
    finally:
        if side_config is not None:
            os.remove(side_config)
    if rc != 0:
        return rc

    out_dir = args.out
    if out_dir is None:
        from herdquad.config import SummarizeConfig, build_config, parse_kv_file
        out_dir = build_config(SummarizeConfig, parse_kv_file(args.config)).out
    config, table = aggregate(os.path.join(out_dir, "summarize_summary.json"))
    print()
    print_table(config, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
