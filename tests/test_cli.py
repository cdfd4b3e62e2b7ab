import csv
import json
import os
import stat
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from herdquad.cli import (
    MEDIAN_SUBSAMPLE,
    SCHEMA_VERSION,
    SUMMARIZE_COLUMNS,
    TRACE_COLUMNS,
    atomic_write_text,
    fmt,
    main,
    median_bandwidth,
    trace_rows_for_csv,
)
from herdquad import diagnostics
from herdquad.datasets import make_blobs, split_dataset
from herdquad.diagnostics import CHECKS, fit_rate
from herdquad.selectors import RunTrace, TraceRow
from herdquad.targets import GaussianMixtureTarget

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def run_cli(*argv):
    return main(list(argv))


def mixture_args(out, extra=()):
    return ("mixture", "--out", str(out), "--seed", "0", "--k", "8",
            "--method", "WKH", *extra)


def read_file(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fmt_round_trips_floats():
    for v in (0.1, 1e-17, 2.0 / 3.0, 123456.789):
        assert float(fmt(v)) == v


def test_atomic_write_replaces_without_partial_state(tmp_path):
    path = tmp_path / "nested" / "file.txt"
    atomic_write_text(str(path), "one")
    atomic_write_text(str(path), "two")
    assert path.read_text() == "two"
    leftovers = [p for p in path.parent.iterdir() if p.name.startswith(".tmp_")]
    assert leftovers == []


def test_atomic_write_removes_its_temp_file_when_the_write_raises(tmp_path):
    path = tmp_path / "file.txt"
    with pytest.raises(TypeError, match="must be str"):
        atomic_write_text(str(path), None)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_artifacts_get_the_mode_of_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert run_cli(*mixture_args(tmp_path / "out")) == 0
    finally:
        os.umask(previous)
    artifacts = sorted((tmp_path / "out").iterdir())
    assert artifacts
    for path in artifacts:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_median_bandwidth_known_value():
    pts = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 2, 3
    assert median_bandwidth(pts) == 2.0
    with pytest.raises(ValueError):
        median_bandwidth(np.zeros((4, 2)))
    # one point has no pair: its median distance would be the NaN of an empty median
    with pytest.raises(ValueError, match="at least two points, got 1"):
        median_bandwidth(np.zeros((1, 2)))


@pytest.mark.parametrize("n, dim", [(2, 1), (37, 3), (150, 128), (500, 24), (1200, 2), (1200, 8)])
def test_median_bandwidth_equals_the_dense_formula(n, dim):
    pts = np.random.default_rng(n + dim).normal(size=(n, dim))
    sub = pts
    if n > MEDIAN_SUBSAMPLE:
        sub = pts[np.random.default_rng(4).choice(n, size=MEDIAN_SUBSAMPLE, replace=False)]
    diffs = sub[:, None, :] - sub[None, :, :]
    dense = np.sqrt(np.sum(diffs**2, axis=-1))[np.triu_indices(sub.shape[0], k=1)]
    assert median_bandwidth(pts, seed=4) == float(np.median(dense))


def test_mixture_subcommand_writes_artifacts(tmp_path, capsys):
    rc = run_cli(*mixture_args(tmp_path, extra=("--config", _small_cfg(tmp_path))))
    assert rc == 0
    trace_path = tmp_path / "trace_wkh_s1.csv"
    summary_path = tmp_path / "mixture_summary.json"
    assert trace_path.exists() and summary_path.exists()

    with open(trace_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == TRACE_COLUMNS
    assert len(rows) == 8
    assert [int(r[3]) for r in rows] == list(range(1, 9))
    g = [float(r[5]) for r in rows]
    assert all(b <= a for a, b in zip(g, g[1:]))  # optimal weights keep improving
    assert all(r[6] == "0.0" for r in rows)  # timing zeroed by default

    summary = json.loads(summary_path.read_text())
    assert summary["schema_version"] == SCHEMA_VERSION
    assert summary["experiment"] == "mixture"
    assert summary["runs"][0]["method"] == "WKH"
    assert summary["runs"][0]["final_g"] == g[-1]


def _small_cfg(tmp_path):
    cfg = tmp_path / "mixture.cfg"
    cfg.write_text("pool_size = 200\ncomponents = 3\n")
    return str(cfg)


def test_mixture_rerun_byte_reproduces(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*mixture_args(out, extra=("--config", cfg))) == 0
    first = {p.name: read_file(p) for p in out.iterdir()}
    assert run_cli(*mixture_args(out, extra=("--config", cfg))) == 0
    second = {p.name: read_file(p) for p in out.iterdir()}
    assert first == second


def test_mixture_trace_csv_round_trips_into_fit_rate(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*mixture_args(out, extra=("--config", _small_cfg(tmp_path)))) == 0
    with open(out / "trace_wkh_s1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["method"], r["s"], r["seed"]) for r in rows} == {("WKH", "1", "0")}
    summary = json.loads((out / "mixture_summary.json").read_text())
    recorded = summary["runs"][0]["rate"]
    refit = fit_rate([(r["iteration"], r["g"]) for r in rows])
    assert refit.slope == pytest.approx(recorded["slope"], abs=1e-15)
    assert refit.r_squared == pytest.approx(recorded["r_squared"], abs=1e-15)
    # two rows are too few for a fit: the summary says so and the table's slope is nan
    capsys.readouterr()
    assert run_cli(*mixture_args(out, extra=("--config", _small_cfg(tmp_path), "--k", "2"))) == 0
    assert json.loads((out / "mixture_summary.json").read_text())["runs"][0]["rate"] is None
    assert _table_rows(capsys.readouterr().out)[0][6] == "nan"


def test_mixture_distributed_records_solutions(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("mixture", "--out", str(out), "--seed", "1", "--k", "5",
                 "--method", "WKH:3",
                 "--config", _small_cfg(tmp_path))
    assert rc == 0
    summary = json.loads((out / "mixture_summary.json").read_text())
    run = summary["runs"][0]
    assert run["s"] == 3
    assert len(run["solution_g"]) == 4
    assert min(run["solution_g"]) == run["solution_g"][
        int(run["winner"].split("-")[-1]) if run["winner"].startswith("worker") else 3]
    assert (out / "trace_wkh_s3.csv").exists()


def test_mixture_summary_describes_each_runs_own_weights(tmp_path):
    """WKH and SBQ records carry the sum, negative mass, l1 norm and g round-off
    bound of the weights their run returned (the winner's at s > 1); the
    uniform-weight methods' records carry null."""
    from herdquad import cli

    weights = {}  # (method, s): the weights the run returned, None for a uniform method
    cli_run_greedy, cli_run_distributed = cli.run_greedy, cli.run_distributed

    def greedy(method, *args, **kwargs):
        result, trace = cli_run_greedy(method, *args, **kwargs)
        weights[method, 1] = getattr(result, "weights", None)
        return result, trace

    def distributed(method, pool, target, kernel, k, s, seed):
        dist = cli_run_distributed(method, pool, target, kernel, k, s, seed)
        weights[method, s] = dist.winner.weights
        return dist

    cfg = tmp_path / "mix.cfg"
    cfg.write_text("methods = wkh, sbq, wkh:2, sbq:3, kh_uniform, mc_random\nk = 12\n"
                   "pool_size = 150\ncomponents = 3\n")
    with mock.patch.object(cli, "run_greedy", greedy), \
            mock.patch.object(cli, "run_distributed", distributed):
        assert run_cli("mixture", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    runs = json.loads((tmp_path / "out" / "mixture_summary.json").read_text())["runs"]
    assert len(runs) == len(weights) == 6
    for run in runs:
        w = weights[run["method"], run["s"]]
        if w is None:
            assert run["method"] in ("KH_UNIFORM", "MC_RANDOM") and run["weights"] is None
            continue
        l1 = sum(abs(x) for x in w)
        expected = {"sum": sum(w), "negative_mass": sum(-x for x in w if x < 0), "l1": l1,
                    "g_error_bound": 4 * len(w) * np.finfo(float).eps * (1 + l1) ** 2}
        assert run["weights"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert len(w) == run["n_iterations"]


def test_mixture_builds_each_seed_instance_once(tmp_path):
    """Every method of a seed shares one bandwidth and one pool setup."""
    cfg = tmp_path / "mix.cfg"
    cfg.write_text("methods = wkh, sbq, wkh:2\nseeds = 0, 1\nk = 4\npool_size = 60\n"
                   "components = 2\n")
    counted_embed = mock.patch.object(GaussianMixtureTarget, "mean_embed_many", autospec=True,
                                      side_effect=GaussianMixtureTarget.mean_embed_many)
    with mock.patch("herdquad.cli.median_bandwidth", wraps=median_bandwidth) as bandwidth, \
            counted_embed as embed:
        assert run_cli("mixture", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert bandwidth.call_count == 2
    # one embedding of each seed's pool: the wkh:2 shards and aggregator read slices of it
    assert [len(c.args[1]) for c in embed.call_args_list] == [60, 60]
    runs = json.loads((tmp_path / "out" / "mixture_summary.json").read_text())["runs"]
    assert len(runs) == 6


def _table_rows(stdout):
    """The rows under the dashed rule of a printed aggregate table, split on whitespace."""
    lines = stdout.splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) == {"-"})
    return [line.split() for line in lines[rule + 1:]]


def test_grid_commands_print_their_summary_as_a_table(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "mixture.cfg"
    cfg.write_text("methods = wkh, wkh:2, mc_random\nk = 6\nseeds = 0..2\n"
                   "pool_size = 200\ncomponents = 3\n")
    assert run_cli("mixture", "--config", str(cfg), "--out", str(out)) == 0
    runs = json.loads((out / "mixture_summary.json").read_text())["runs"]
    stdout = capsys.readouterr().out
    rows = _table_rows(stdout)
    assert [(r[0], r[1]) for r in rows] == [("MC_RANDOM", "1"), ("WKH", "1"), ("WKH", "2")]
    for method, s, seeds, mean_g, min_g, max_g, _slope, *stops in rows:
        cell = [r for r in runs if (r["method"], r["s"]) == (method, int(s))]
        g = [r["final_g"] for r in cell]
        assert int(seeds) == len(cell) == 3
        assert [float(mean_g), float(min_g), float(max_g)] == pytest.approx(
            [np.mean(g), min(g), max(g)], rel=1e-4)
        counts = {reason: int(n) for reason, n in (stop.split("=") for stop in stops)}
        assert counts == Counter(r["stop_reason"] or "budget" for r in cell)

    cfg = tmp_path / "summ.cfg"
    cfg.write_text("methods = wkh, wkh:2, mc_random\nk_grid = 6, 10\nseeds = 0..1\n"
                   "n = 200\ndim = 16\n")
    assert run_cli("summarize", "--config", str(cfg), "--out", str(out)) == 0
    runs = json.loads((out / "summarize_summary.json").read_text())["runs"]
    rows = _table_rows(capsys.readouterr().out)
    assert [tuple(r[:3]) for r in rows] == [(k, m, s) for k in ("6", "10") for m, s in
                                            (("MC_RANDOM", "1"), ("WKH", "1"), ("WKH", "2"))]
    for k, method, s, test, rand, full, g in rows:
        cell = [r for r in runs if (r["k"], r["method"], r["s"]) == (int(k), method, int(s))]
        assert len(cell) == 2
        means = [np.mean([r[key] for r in cell]) for key in ("test_nll", "random_nll", "full_nll")]
        assert [float(test), float(rand), float(full)] == pytest.approx(means, abs=1e-4)
        assert float(g) == pytest.approx(np.mean([r["g_final"] for r in cell]), rel=1e-4)


def test_timing_flag_gates_elapsed_column(tmp_path):
    cfg = tmp_path / "timed.cfg"
    cfg.write_text("pool_size = 200\ncomponents = 3\ntiming = on\n")
    out = tmp_path / "out"
    assert run_cli(*mixture_args(out, extra=("--config", str(cfg)))) == 0
    with open(out / "trace_wkh_s1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert any(float(r["elapsed_ms"]) > 0.0 for r in rows)


def test_summarize_subcommand_end_to_end(tmp_path):
    cfg = tmp_path / "summ.cfg"
    cfg.write_text("n = 150\ndim = 6\nk_grid = 5\nmethods = wkh, mc_random\nseeds = 0\n")
    out = tmp_path / "out"
    rc = run_cli("summarize", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    with open(out / "summarize.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == SUMMARIZE_COLUMNS
    methods = {r[0] for r in rows}
    assert methods == {"WKH", "MC_RANDOM", "RANDOM", "FULL"}
    for row in rows:
        assert float(row[5]) > 0.0  # every reported NLL is a real loss value
    assert (out / "summarize_traces_k5.csv").exists()
    summary = json.loads((out / "summarize_summary.json").read_text())
    assert summary["schema_version"] == SCHEMA_VERSION
    assert {r["method"] for r in summary["runs"]} == {"WKH", "MC_RANDOM"}

    first = {p.name: read_file(p) for p in out.iterdir()}
    assert run_cli("summarize", "--config", str(cfg), "--out", str(out)) == 0
    second = {p.name: read_file(p) for p in out.iterdir()}
    assert first == second


def test_summarize_small_k_grid_survives_single_class_baseline_draw(tmp_path):
    # regression: the (k=5, seed=1) cell of this grid draws a one-class
    # random baseline on the first attempt and used to crash the command
    cfg = tmp_path / "summ.cfg"
    cfg.write_text("n = 200\ndim = 16\nk_grid = 5, 10\nmethods = wkh, mc_random\nseeds = 0, 1\n")
    out = tmp_path / "out"
    rc = run_cli("summarize", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    with open(out / "summarize.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    random_rows = [r for r in rows if r[0] == "RANDOM"]
    assert len(random_rows) == 4  # one baseline per (k, seed) cell
    assert all(float(r[5]) > 0.0 for r in random_rows)


def test_summarize_random_baseline_is_keyed_by_the_selected_size(tmp_path):
    # regression: on 2-d blobs WKH and SBQ stop at 3 atoms of a budget of
    # 10, and their baseline, drawn at 3 rows, was written as a second
    # RANDOM row at k = 10
    cfg = tmp_path / "summ.cfg"
    cfg.write_text("methods = wkh, sbq, mc_random\nk_grid = 10\nseeds = 0\nn = 500\ndim = 2\n")
    out = tmp_path / "out"
    assert run_cli("summarize", "--config", str(cfg), "--out", str(out)) == 0
    with open(out / "summarize.csv", newline="") as fh:
        keys = [tuple(r[:4]) for r in list(csv.reader(fh))[1:]]
    assert len(keys) == len(set(keys))
    with open(out / "summarize_traces_k10.csv", newline="") as fh:
        sizes = Counter((r["method"], r["s"], r["seed"]) for r in csv.DictReader(fh))
    assert min(sizes.values()) < 10  # some cell stopped early
    random_keys = {(k, seed) for method, _s, k, seed in keys if method == "RANDOM"}
    assert random_keys == {(str(size), seed) for (_m, _s, seed), size in sizes.items()}


def test_summarize_single_class_selection_names_its_cell(tmp_path, capsys):
    cfg = tmp_path / "summ.cfg"
    cfg.write_text("n = 200\ndim = 16\nmethods = mc_random\nk_grid = 3\nseeds = 0\n")
    assert run_cli("summarize", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert "summarize error: MC_RANDOM at k=3, seed 0" in capsys.readouterr().err


def planted_trace(*gs):
    return RunTrace([TraceRow(i, i, g, 0.0) for i, g in enumerate(gs, start=1)])


def test_trace_rows_clamp_round_off_and_reject_a_negative_g():
    rows = trace_rows_for_csv("SBQ", 1, 0, planted_trace(0.25, -5e-13, -1e-12, 0.0), False)
    assert [r[5] for r in rows] == ["0.25", "0.0", "0.0", "0.0"]
    with pytest.raises(ValueError, match="SBQ iteration 3"):
        trace_rows_for_csv("SBQ", 1, 0, planted_trace(0.25, 1e-3, -2e-12), False)


def test_summarize_csv_rejects_a_negative_final_g(tmp_path, monkeypatch):
    import herdquad.cli as cli

    def planted(*args, **kwargs):
        rep = summarize(*args, **kwargs)
        rep.final_mmd_sq = -1e-9
        return rep

    summarize = cli.summarize
    monkeypatch.setattr(cli, "summarize", planted)
    cfg = tmp_path / "summ.cfg"
    cfg.write_text("n = 150\ndim = 6\nk_grid = 5\nmethods = wkh\nseeds = 0\n")
    with pytest.raises(ValueError, match="WKH iteration 5: g = -1e-09"):
        run_cli("summarize", "--config", str(cfg), "--out", str(tmp_path / "out"))


def write_csv_dataset(path):
    rng = np.random.default_rng(0)
    rows = ["f0,f1,f2,label"]
    for _ in range(120):
        y = int(rng.random() < 0.5)
        x = rng.normal(loc=(2 * y - 1) * 0.8, size=3)
        rows.append(",".join(repr(float(v)) for v in x) + f",{y}")
    path.write_text("\n".join(rows) + "\n")


def test_summarize_ingests_csv_dataset(tmp_path):
    data = tmp_path / "data.csv"
    write_csv_dataset(data)
    cfg = tmp_path / "summ.cfg"
    cfg.write_text(f"dataset = {data}\nk_grid = 4\nmethods = wkh\nseeds = 0\n")
    out = tmp_path / "out"
    assert run_cli("summarize", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "summarize.csv").exists()
    config = json.loads((out / "summarize_summary.json").read_text())["config"]
    assert (config["n"], config["dim"]) == (120, 3)  # the file's shape, not the config's 500 x 128


def test_summarize_standardizes_a_dataset_file_by_its_training_split(tmp_path):
    # column 0 at 10^4 times the others' scale: fed to train_logistic as it is,
    # its descent runs out of iterations, and tier-1 makes the NonConvergence
    # warning an error; column 7 is constant, so it is only centred
    X, y = make_blobs(500, dim=8, seed=0)
    X[:, 0] *= 1e4
    X[:, 7] = 3.0
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,f2,f3,f4,f5,f6,f7,label\n" + "".join(
        ",".join(map(repr, [*map(float, x), int(t)])) + "\n" for x, t in zip(X, y)))
    cfg = tmp_path / "summ.cfg"
    cfg.write_text(f"dataset = {data}\nk_grid = 10\nmethods = wkh, mc_random\nseeds = 0\n")
    out = tmp_path / "out"
    assert run_cli("summarize", "--config", str(cfg), "--out", str(out)) == 0
    scaling = json.loads((out / "summarize_summary.json").read_text())["feature_scaling"]
    train = split_dataset(X, y, seed=0).subset("train")[0]
    assert scaling == {"mean": train.mean(axis=0).tolist(),
                       "scale": [*train.std(axis=0)[:7].tolist(), 1.0]}


def test_summarize_malformed_dataset_exits_nonzero(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n1.0,2.0,1\n3.0,bad,0\n")
    cfg = tmp_path / "summ.cfg"
    cfg.write_text(f"dataset = {data}\nk_grid = 2\nmethods = wkh\n")
    rc = run_cli("summarize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc != 0
    err = capsys.readouterr().err
    assert "line 3" in err


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pool_sz = 100\n")
    rc = run_cli("mixture", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err
    missing = tmp_path / "nope.cfg"
    assert run_cli("mixture", "--config", str(missing), "--out", str(tmp_path / "out")) == 2
    assert f"config error: cannot read {missing}" in capsys.readouterr().err
    # worker counts are spelled only as method:s, and grids run serially
    for command in ("mixture", "summarize"):
        for flag in ("--workers", "--threads"):
            with pytest.raises(SystemExit) as err:
                run_cli(command, flag, "2", "--out", str(tmp_path / "out"))
            assert err.value.code == 2
    for command in ("mixture", "summarize"):
        assert run_cli(command, "--seed", "-1", "--out", str(tmp_path / "out")) == 2
        assert "seeds must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SMALL_CONFIGS = {
    "mixture": {"methods": "wkh", "k": "3", "seeds": "0", "pool_size": "40", "components": "2"},
    "summarize": {"methods": "wkh", "k_grid": "4", "seeds": "0", "n": "80", "dim": "2"},
}


@pytest.mark.parametrize("command, override", [
    pytest.param("mixture", {"seeds": ","}, id="mixture-seeds-empty"),
    pytest.param("mixture", {"seeds": "0, 0"}, id="mixture-seeds-repeated"),
    pytest.param("mixture", {"methods": "wkh, wkh"}, id="mixture-methods-repeated"),
    pytest.param("mixture", {"seeds": "-1"}, id="mixture-seeds-negative"),
    pytest.param("mixture", {"methods": "wkh:80", "pool_size": "50"},
                 id="mixture-workers-exceed-pool"),
    pytest.param("mixture", {"pool_size": "1"}, id="mixture-pool-size-one"),
    pytest.param("summarize", {"lambda": "1.0"}, id="summarize-lambda-unknown"),
    pytest.param("summarize", {"n": "0"}, id="summarize-n-zero"),
    pytest.param("summarize", {"dim": "0"}, id="summarize-dim-zero"),
    pytest.param("summarize", {"seeds": ","}, id="summarize-seeds-empty"),
    pytest.param("summarize", {"k_grid": "4, 4"}, id="summarize-k_grid-repeated"),
    pytest.param("summarize", {"seeds": "-3..-1"}, id="summarize-seeds-negative"),
    pytest.param("summarize", {"n": "100", "dim": "4", "k_grid": "90"},
                 id="summarize-k-exceeds-training-split"),
    pytest.param("summarize", {"n": "100", "dim": "4", "methods": "wkh:200"},
                 id="summarize-workers-exceed-training-split"),
    pytest.param("summarize", {"dataset": "no-such-dataset.csv"}, id="summarize-dataset-missing"),
])
def test_unrunnable_config_values_exit_with_code_two(tmp_path, capsys, command, override):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**SMALL_CONFIGS[command], **override}.items()))
    out = tmp_path / "out"
    rc = run_cli(command, "--config", str(cfg), "--out", str(out))
    assert rc == 2
    # a dataset is checked when it is read, so a missing one is an ingest error
    kind = "ingest error" if "dataset" in override else "config error"
    assert kind in capsys.readouterr().err
    assert not out.exists()


def test_files_that_are_not_utf8_exit_with_code_two(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"f0,f1,label\n1.0,2.0\xff,1\n")
    cfg = tmp_path / "summ.cfg"
    cfg.write_text(f"dataset = {data}\nk_grid = 2\nmethods = wkh\n")
    assert run_cli("summarize", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert f"ingest error: cannot read {data}" in capsys.readouterr().err
    cfg.write_bytes(b"k_grid = 2\nmethods = wkh\xff\n")
    assert run_cli("summarize", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert f"config error: cannot read {cfg}" in capsys.readouterr().err


def test_diagnose_list_and_report(tmp_path, capsys):
    assert run_cli("diagnose", "--list") == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert "rate_fit" in listed and "orthogonality" in listed

    out = tmp_path / "out"
    rc = run_cli("diagnose", "--out", str(out))
    captured = capsys.readouterr().out
    assert rc == 0
    assert captured.count("PASS") == len(listed)
    report = json.loads((out / "diagnose_report.json").read_text())
    assert report["all_pass"] is True
    assert [c["name"] for c in report["checks"]] == listed == list(CHECKS)
    # every g the report writes, the oracle's included, went through
    # reported_g, which reads round-off below 0 as 0
    reported = list(_values_under_keys_with(report, "mmd_sq"))
    assert len(reported) == 6
    assert all(g >= 0.0 for g in reported)
    # the 10-point instance needs far more atoms than its pool holds
    guarantee = next(c for c in report["checks"] if c["name"] == "approx_guarantee")
    for entry in guarantee["details"]["methods"].values():
        assert entry["k_needed"] > entry["k_used"] == 10
        assert entry["capped"] is True


def _values_under_keys_with(obj, part):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if part in key and isinstance(val, float):
                yield val
            else:
                yield from _values_under_keys_with(val, part)
    elif isinstance(obj, list):
        for val in obj:
            yield from _values_under_keys_with(val, part)


def test_diagnose_takes_no_grid_flags(tmp_path, capsys):
    for flag, value in (("--k", "5"), ("--config", _small_cfg(tmp_path))):
        with pytest.raises(SystemExit) as err:
            run_cli("diagnose", flag, value, "--out", str(tmp_path / "out"))
        assert err.value.code == 2


def test_diagnose_fault_injection_fails_orthogonality(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("diagnose", "--out", str(out), "--inject-fault")
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL orthogonality" in captured.out
    assert "orthogonality" in captured.err
    report = json.loads((out / "diagnose_report.json").read_text())
    ortho = next(c for c in report["checks"] if c["name"] == "orthogonality")
    assert ortho["passes"] is False
    assert ortho["details"]["fault_injected"] is True
    # each fixture claims one atom fewer than it needs, and the rate check
    # fits its traces' g in reverse order, so g rises
    assert [c["name"] for c in report["checks"] if not c["passes"]] == [
        "realizability:line_segment", "realizability:two_clusters", "rate_fit", "orthogonality"]
    for name, needed in (("line_segment", 1), ("two_clusters", 2)):
        passes, details = CHECKS[f"realizability:{name}"](True)
        assert passes is False and details["expected_r"] == needed - 1
    passes, details = CHECKS["rate_fit"](True)
    assert passes is False
    assert all(d["slope"] > 0 for d in details.values())


def _flip_expected_r(fixture, monkeypatch):
    """The fixture claims two atoms where one suffices, or one where two are needed."""
    build = diagnostics._FIXTURES[fixture]

    def wrong():
        pool, target, expected_r = build()
        return pool, target, 3 - expected_r
    monkeypatch.setitem(diagnostics._FIXTURES, fixture, wrong)
    return ()


def _rising_rate_traces(monkeypatch):
    """The rate check's traces (its pool alone has 80 points) list their g reversed."""
    run = diagnostics.run_greedy

    def reversed_g(method, pool, target, kernel, k, seed):
        result, trace = run(method, pool, target, kernel, k, seed=seed)
        if len(pool) == 80:
            for row, g in zip(trace.rows, [row.mmd_sq for row in reversed(trace.rows)]):
                row.mmd_sq = g
        return result, trace
    monkeypatch.setattr(diagnostics, "run_greedy", reversed_g)
    return ()


def _guarantee_read_after_one_atom(monkeypatch):
    """The guarantee's runs (the only ones to k = len(pool)) stop after one atom,
    where g is 0.0771 against a bound of 0.0729 for both methods."""
    run = diagnostics.run_greedy

    def one_atom(method, pool, target, kernel, k, seed):
        return run(method, pool, target, kernel, 1 if k == len(pool) else k, seed=seed)
    monkeypatch.setattr(diagnostics, "run_greedy", one_atom)
    return ()


def _weights_corrupted(monkeypatch):
    """The weight check runs with its fault injected; ``--inject-fault``
    would inject the rate check's fault too."""
    monkeypatch.setitem(CHECKS, "orthogonality",
                        lambda inject_fault: diagnostics._check_weights(True))
    return ()


# per diagnose check: set up an input that must fail it, return extra CLI flags
DIAGNOSE_FAULTS = {
    "realizability:line_segment": partial(_flip_expected_r, "line_segment"),
    "realizability:two_clusters": partial(_flip_expected_r, "two_clusters"),
    "rate_fit": _rising_rate_traces,
    "approx_guarantee": _guarantee_read_after_one_atom,
    "orthogonality": _weights_corrupted,
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_diagnose_check_fails_alone_on_an_input_built_to_fail_it(name, tmp_path,
                                                                      monkeypatch, capsys):
    flags = DIAGNOSE_FAULTS[name](monkeypatch)
    rc = run_cli("diagnose", "--out", str(tmp_path / "out"), *flags)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"FAIL {name}" in captured.out.splitlines()
    assert captured.out.count("FAIL") == 1
    assert captured.err == f"diagnose: failing checks: {name}\n"
    report = json.loads((tmp_path / "out" / "diagnose_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passes"]] == [name]


@pytest.mark.parametrize("name", list(CHECKS))
def test_a_diagnose_check_that_raises_fails_alone(name, tmp_path, monkeypatch, capsys):
    def raises(inject_fault):
        raise RuntimeError("check broke")
    monkeypatch.setitem(CHECKS, name, raises)
    rc = run_cli("diagnose", "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert rc == 1
    assert [line for line in captured.out.splitlines() if line.startswith("FAIL")] == [f"FAIL {name}"]
    assert captured.err == f"diagnose: failing checks: {name}\n"
    report = json.loads((tmp_path / "out" / "diagnose_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == list(CHECKS)
    failing = [c for c in report["checks"] if not c["passes"]]
    assert [c["name"] for c in failing] == [name]
    assert failing[0]["details"] == {"exception": "RuntimeError", "message": "check broke"}
    assert report["all_pass"] is False


def test_output_directory_is_the_flag_else_the_config_out(tmp_path):
    cfg_out, out = tmp_path / "cfg_out", tmp_path / "flag_out"
    cfg = tmp_path / "mixture.cfg"
    cfg.write_text(f"pool_size = 200\ncomponents = 3\nout = {cfg_out}\n")
    # the flag beats the config
    assert run_cli(*mixture_args(out, extra=("--config", str(cfg)))) == 0
    assert (out / "mixture_summary.json").exists()
    assert not cfg_out.exists()
    rc = run_cli("mixture", "--seed", "0", "--k", "4", "--method", "WKH", "--config", str(cfg))
    assert rc == 0
    assert sorted(p.name for p in cfg_out.iterdir()) == ["mixture_summary.json", "trace_wkh_s1.csv"]
    assert run_cli("diagnose", "--out", str(out)) == 0
    assert (out / "diagnose_report.json").exists()


@pytest.mark.parametrize("name", ["mixture_small", "mixture_distributed"])
def test_shipped_mixture_configs_rerun_byte_identical_in_one_process(tmp_path, name):
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert run_cli("mixture", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)) == 0
    first, second = ({p.name: read_file(p) for p in out.iterdir()} for out in outs)
    assert first == second
