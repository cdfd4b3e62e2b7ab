"""Quick self-check: every workload at a tiny size, plus one planted fault.

Runs each workload's selections once on small inputs with all of its
output checks, then feeds the checks a copy of a WKH result whose weights
were perturbed by 1e-3.  That operation must be reported as failed and no
other.  Exit status 0 means the checks pass on good outputs and catch the
bad one.
"""

import json
import sys
import time
from dataclasses import replace

import checks
import workloads

TINY = {
    "mixture_d2_saturating": dict(n=600, k=40),
    "mixture_d8_distributed": dict(n=600, k=20, eps=1e-2),
    "summarize_d128": dict(budgets=(10, 25), seeds=(0, 1)),
}


def main(hq) -> int:
    attempted = failed = 0
    unexpected = []
    for name, sizes in TINY.items():
        workload = replace(workloads.WORKLOADS[name], **sizes)
        t0 = time.perf_counter()
        inp = workload.make_inputs(hq, seed=1)
        results = workload.run(hq, inp)
        problems, count = workload.check(hq, inp, results)
        attempted += len(problems)
        for (key, _), p in zip(results, problems):
            if p:
                failed += 1
                unexpected.append(f"{name} {key}: {'; '.join(p)}")
        print(f"selfcheck: {name}: {len(problems)} operations, atoms_to_eps {count}, "
              f"{time.perf_counter() - t0:.2f} s")
        if name == "mixture_d2_saturating":
            state, trace = results[0][1]
            bad = state.copy()
            bad.weights = bad.weights.copy()
            bad.weights[0] += 1e-3
            planted = checks.check_state(inp.ref, bad, trace)
            attempted += 1
            failed += bool(planted)
            print(f"selfcheck: perturbed weights reported as failed: {'; '.join(planted) or 'NOT CAUGHT'}")
    for line in unexpected:
        print(f"selfcheck: unexpected failure: {line}", file=sys.stderr)
    ok = failed == 1 and not unexpected
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed}))
    return 0 if ok else 1
