"""Where a process loads ``scipy.spatial``, ``scipy.special``, the
diagnostics and the process pool's ``multiprocessing`` stack.

``import herdquad`` loads none of them: the RBF kernel reaches ``cdist`` and
summarization reaches ``expit`` through the ``scipy`` package when they
run, the CLI imports ``herdquad.diagnostics`` in the commands that read it,
and ``run_distributed`` imports ``ProcessPoolExecutor`` in its process
branch.  Each test starts a fresh interpreter, since this one has long
loaded all of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import herdquad

SRC = str(Path(herdquad.__file__).resolve().parent.parent)
SUBMODULES = ("scipy.spatial", "scipy.special")
# modules that no selection reads: the diagnostics and the process pool's stack
UNREAD = ("concurrent.futures.process", "herdquad.diagnostics", "multiprocessing")


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports herdquad from this
    checkout and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def stages():
    """The submodules loaded after the import, after feature-kernel summarize
    calls (every method, and WKH and SBQ on two workers) and after one RBF row.
    Under ``"unread"``, the modules of ``UNREAD`` loaded at those stages (the
    summarize calls on one worker and on two threads apart), after
    ``import herdquad.cli``, after ``diagnose --list`` and after a run on the
    process executor, whose bits ``"same_bits"`` compares with the serial run's."""
    return run_fresh(f"""
        import json, sys
        import numpy as np
        import herdquad as hq
        from herdquad.datasets import synthetic_blob_dataset

        def loaded(names={SUBMODULES!r}):
            return [m for m in names if m in sys.modules]

        def unread_at(name):
            unread[name] = loaded({UNREAD!r})

        stages, unread = {{"import": loaded()}}, {{}}
        unread_at("import")
        data = synthetic_blob_dataset(200, 8, seed=0)
        for method in ("WKH", "SBQ", "MC_RANDOM"):
            hq.summarize(data, method, 10, s=1, seed=0)
        unread_at("summarize_s1")
        for method in ("WKH", "SBQ"):
            hq.summarize(data, method, 10, s=2, seed=0)
        stages["summarize"] = loaded()
        unread_at("summarize_s2_threads")
        hq.RBFKernel(1.0).gram(np.zeros((1, 2)), np.ones((3, 2)))
        stages["rbf_row"] = loaded()
        from herdquad import cli
        unread_at("cli_import")
        cli.main(["diagnose", "--list"])
        unread_at("diagnose_list")

        rng = np.random.default_rng(3)
        target = hq.GaussianMixtureTarget(np.array([0.4, 0.6]), rng.normal(size=(2, 2)),
                                          np.stack([np.eye(2) * 0.3] * 2), hq.RBFKernel(1.0))
        pool = hq.CandidatePool.from_points(rng.normal(size=(150, 2)))
        serial, process = (hq.run_distributed("SBQ", pool, target, target.kernel, 6, 3, seed=4,
                                              executor=ex, max_workers=2)
                           for ex in ("serial", "process"))
        unread_at("process_run")
        stages["same_bits"] = (
            serial.winner_index == process.winner_index
            and all(a.ids == b.ids and a.weights.tobytes() == b.weights.tobytes()
                    and a.mmd_sq == b.mmd_sq
                    for a, b in zip(serial.solutions, process.solutions)))
        stages["unread"] = unread
        print(json.dumps(stages))
    """)


def test_import_herdquad_loads_neither_submodule(stages):
    assert stages["import"] == []


def test_feature_kernel_summarize_loads_no_scipy_spatial(stages):
    assert stages["summarize"] == ["scipy.special"]


def test_the_first_rbf_row_loads_scipy_spatial(stages):
    assert stages["rbf_row"] == ["scipy.spatial", "scipy.special"]


def test_import_herdquad_loads_no_diagnostics_or_process_pool(stages):
    assert stages["unread"]["import"] == []


def test_summarize_on_one_worker_and_on_threads_loads_neither(stages):
    assert stages["unread"]["summarize_s1"] == []
    assert stages["unread"]["summarize_s2_threads"] == []


def test_the_cli_loads_the_diagnostics_at_diagnose(stages):
    assert stages["unread"]["cli_import"] == []
    assert stages["unread"]["diagnose_list"] == ["herdquad.diagnostics"]


def test_the_first_process_run_loads_multiprocessing_and_keeps_the_serial_bits(stages):
    assert stages["unread"]["diagnose_list"] == ["herdquad.diagnostics"]  # before the run
    assert stages["unread"]["process_run"] == list(UNREAD)
    assert stages["same_bits"] is True


def test_two_threads_taking_their_first_rbf_rows_at_once_get_one_threads_bits():
    result = run_fresh("""
        import json, sys, threading
        import numpy as np
        import herdquad as hq

        sys.setswitchinterval(1e-6)
        X = np.random.default_rng(0).standard_normal((500, 3))
        kernel = hq.RBFKernel(1.5)
        start = threading.Barrier(2)
        rows, errors = [None, None], []

        def first_rows(i):
            start.wait()
            try:
                rows[i] = kernel.gram(X[i:i + 2], X)
            except Exception as e:
                errors.append(repr(e))

        threads = [threading.Thread(target=first_rows, args=(i,), daemon=True) for i in range(2)]
        loaded_before = "scipy.spatial" in sys.modules
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        if any(t.is_alive() for t in threads):
            errors.append("a thread did not finish")
        one = [kernel.gram(X[i:i + 2], X) for i in range(2)]
        print(json.dumps({
            "loaded_before": loaded_before,
            "errors": errors,
            "same_bits": errors == [] and all(
                rows[i].tobytes() == one[i].tobytes() for i in range(2)),
        }))
    """)
    assert result == {"loaded_before": False, "errors": [], "same_bits": True}
