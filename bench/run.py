"""Benchmark for herdquad's greedy quadrature: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  Each run
sets up the workload's inputs (three times; the median counts), warms up,
then repeats whole rounds of the workload's selections until ``--seconds``
have passed, checking every round's outputs against computations made in
``checks.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced rounds, so the CPU time of an
untraced round is measured in the same process.  Spans of traced rounds are written to
``bench/out/``.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread: the only parallelism left is the program's own worker
# threads.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # a run's median needs more than one round, however long one takes


def import_program():
    if not (SRC / "herdquad" / "__init__.py").is_file():
        sys.exit(f"bench: no herdquad sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import herdquad
    if Path(herdquad.__file__).resolve().parent != (SRC / "herdquad").resolve():
        sys.exit(f"bench: imported herdquad from {herdquad.__file__}, not from {SRC}")
    return herdquad


def import_seconds() -> float:
    """Time ``import herdquad`` in a fresh interpreter, measured inside it."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import herdquad; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def setup(hq, workload, seed: int, t_import: float):
    """Set up SETUP_REPEATS times; keep the last inputs.

    The first repeat pays this process's own imports; the others time the
    import in a fresh interpreter.  Each then builds the inputs and warms
    up.  Returns the inputs and the medians of the import, input-building
    and whole set-up times.
    """
    imports, inputs_s, total_s = [], [], []
    for i in range(SETUP_REPEATS):
        imports.append(t_import if i == 0 else import_seconds())
        t0 = time.perf_counter()
        inp = workload.make_inputs(hq, seed)
        t1 = time.perf_counter()
        workload.warm_up(hq, inp)
        inputs_s.append(t1 - t0)
        total_s.append(imports[-1] + time.perf_counter() - t0)
    return inp, statistics.median(imports), statistics.median(inputs_s), statistics.median(total_s)


def timed_round(hq, workload, inp):
    cpu0, t0 = time.process_time(), time.perf_counter()
    results = workload.run(hq, inp)
    return results, time.perf_counter() - t0, time.process_time() - cpu0


def layer_metrics(agg: dict, results) -> dict:
    """Per-layer figures of one traced round from its span summary."""
    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    calls, rejected = get("state.add_atom", "calls"), get("state.add_atom", "failed")
    phases = {"partition": 0.0, "workers": 0.0, "aggregate": 0.0}
    for _, out in results:
        for key in phases:
            phases[key] += getattr(out, "phase_seconds", {}).get(key, 0.0)
    workers = phases["workers"] * workloads.MAX_WORKERS
    busy = agg["shard_s"] / workers if workers else 0.0
    return {
        "state.add_atom.calls": calls,
        "state.add_atom.rejected": rejected,
        "state.add_atom.accept_ratio": (calls - rejected) / calls if calls else 0.0,
        "state.add_atom.self_s": get("state.add_atom", "self_s"),
        "selectors.run_greedy.self_s": get("selectors.run_greedy", "self_s"),
        "state.schur_complements.self_s": get("state.schur_complements", "self_s"),
        "state.schur_complements.columns": get("state.schur_complements", "size"),
        "state.residual_correlations.self_s": get("state.residual_correlations", "self_s"),
        "kernels.rbf.gram.calls": get("kernels.rbf.gram", "calls"),
        "kernels.rbf.gram.entries": get("kernels.rbf.gram", "size"),
        "kernels.rbf.gram.self_s": get("kernels.rbf.gram", "self_s"),
        "kernels.feature.gram.calls": get("kernels.feature.gram", "calls"),
        "kernels.feature.gram.entries": get("kernels.feature.gram", "size"),
        "kernels.feature.gram.self_s": get("kernels.feature.gram", "self_s"),
        "targets.mean_embed_many.calls": get("targets.mean_embed_many", "calls"),
        "targets.mean_embed_many.points": get("targets.mean_embed_many", "size"),
        "targets.mean_embed_many.self_s": get("targets.mean_embed_many", "self_s"),
        "summarization.train_logistic.calls": get("summarization.train_logistic", "calls"),
        "summarization.train_logistic.self_s": get("summarization.train_logistic", "self_s"),
        "summarization.fisher_embed_many.self_s": get("summarization.fisher_embed_many", "self_s"),
        "summarization.summarize.self_s": get("summarization.summarize", "self_s"),
        "distributed.partition_s": phases["partition"],
        "distributed.workers_s": phases["workers"],
        "distributed.aggregate_s": phases["aggregate"],
        "distributed.worker_busy_ratio": busy,
    }


UNITS = {"_s": "s", ".calls": "count", ".rejected": "count", ".columns": "count",
         ".entries": "count", ".points": "count", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def run_workload(hq, workload, seed: int, seconds: float, trace: bool, t_import: float) -> dict:
    inp, import_s, inputs_s, setup_s = setup(hq, workload, seed, t_import)
    layers = tracer.traced_layers(hq) if trace else None
    main_thread = threading.get_ident()

    walls, cpus, traced_walls, per_layer, spans, span_counts = [], [], [], [], [], []
    attempted = failed = 0
    atoms = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            with tracer.Tracer(layers) as tr:
                results, wall, _ = timed_round(hq, workload, inp)
            traced_walls.append(wall)
            per_layer.append(layer_metrics(tracer.summarize_spans(tr.spans, main_thread), results))
            spans.extend(tr.spans)
            span_counts.append(len(tr.spans))
        else:
            results, wall, cpu = timed_round(hq, workload, inp)
            walls.append(wall)
            cpus.append(cpu)
        problems, count = workload.check(hq, inp, results)
        atoms.append(count)
        attempted += len(problems)
        for (key, _), p in zip(results, problems):
            if p:
                failed += 1
                print(f"bench: {workload.name} {key} failed: {'; '.join(p)}", file=sys.stderr)
        done = time.perf_counter() - t_begin >= seconds and len(walls) + len(traced_walls) >= MIN_ROUNDS
        if done and (not trace or traced):
            break

    print(f"bench: {workload.name} seed {seed}: round walls "
          + " ".join(f"{w:.3f}" for w in walls)
          + (" traced " + " ".join(f"{w:.3f}" for w in traced_walls) if trace else ""),
          file=sys.stderr)
    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "atoms_to_eps": (float(statistics.median(atoms)), "count"),
        }
    else:
        metrics = {name: (statistics.median(r[name] for r in per_layer), unit_of(name))
                   for name in per_layer[0]}
        # c is computed once per target, during set-up for the mixtures, so
        # its layer is read from one more set-up, traced
        with tracer.Tracer(layers) as tr:
            workload.warm_up(hq, workload.make_inputs(hq, seed))
        metrics["targets.self_energy.self_s"] = (
            tracer.summarize_spans(tr.spans, main_thread).get("targets.self_energy", {}).get("self_s", 0.0), "s")
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.inputs_s"] = (inputs_s, "s")
        metrics["run.cpu_s"] = (statistics.median(cpus), "s")
        # spans per traced round times the wrapper's cost per span, measured
        # now: single traced and untraced rounds differ mostly by host noise
        metrics["trace.overhead_s"] = (statistics.median(span_counts) * tracer.span_cost(), "s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload.name}-seed{seed}.csv.gz", spans)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at a tiny size plus a perturbed-weights case")
    args = parser.parse_args(argv)

    hq = import_program()
    t_import = time.perf_counter() - T_START

    if args.selfcheck:
        import selfcheck
        return selfcheck.main(hq)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run_workload(hq, workloads.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), t_import)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
