"""Where a process loads ``scipy.spatial`` and ``scipy.special``.

``import herdquad`` loads neither: the RBF kernel reaches ``cdist`` and
summarization reaches ``expit`` through the ``scipy`` package when they
run.  Each test starts a fresh interpreter, since this one has long loaded
both submodules.
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
    calls (every method, and WKH and SBQ on two workers) and after one RBF row."""
    return run_fresh(f"""
        import json, sys
        import numpy as np
        import herdquad as hq
        from herdquad.datasets import synthetic_blob_dataset

        def loaded():
            return [m for m in {SUBMODULES!r} if m in sys.modules]

        stages = {{"import": loaded()}}
        data = synthetic_blob_dataset(200, 8, seed=0)
        for method, s in [("WKH", 1), ("SBQ", 1), ("MC_RANDOM", 1), ("WKH", 2), ("SBQ", 2)]:
            hq.summarize(data, method, 10, s=s, seed=0)
        stages["summarize"] = loaded()
        hq.RBFKernel(1.0).gram(np.zeros((1, 2)), np.ones((3, 2)))
        stages["rbf_row"] = loaded()
        print(json.dumps(stages))
    """)


def test_import_herdquad_loads_neither_submodule(stages):
    assert stages["import"] == []


def test_feature_kernel_summarize_loads_no_scipy_spatial(stages):
    assert stages["summarize"] == ["scipy.special"]


def test_the_first_rbf_row_loads_scipy_spatial(stages):
    assert stages["rbf_row"] == ["scipy.spatial", "scipy.special"]


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
