"""Record ``reference.json`` for the conelab benchmark's correctness gate.

    python3 perfbench/record.py

Runs every seed of each workload's pool, traced, in one fresh interpreter per
workload, and writes:

- ``expected``: the identity list and verdicts per (suite, manifold).  They
  must be the same for every pool seed, with no ``error`` verdict and no
  non-finite residual, or nothing is written;
- ``residuals``: the report rows of every pool op, the reference that later
  runs must match within roundoff;
- ``counts``: the exact counts of every pool pass.

Record again only when a change is meant to alter the engine's results, and
say so in the change.
"""

import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def child(workload):
    import tracing
    import worker

    conelab = worker.setup(workload)
    tracer = tracing.install(conelab)
    # seed 0 with as many passes as the pool holds runs exactly the pool
    ops, passes = worker.run_passes(conelab, workload, 0,
                                    n_passes=len(workloads.POOL), tracer=tracer)
    print(json.dumps({"ops": ops, "passes": passes}))


def run_child(workload):
    done = subprocess.run([sys.executable, __file__, "--child", workload],
                          capture_output=True, text=True, cwd=BENCH.parent)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: {done.stderr[-4000:]}")
    return workload, json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(pool.map(run_child, sorted(workloads.WORKLOADS)))
    expected, residuals, counts = {}, {}, {}
    for workload, res in sorted(results.items()):
        assert sorted(p["seed"] for p in res["passes"]) == sorted(workloads.POOL)
        for op in res["ops"]:
            assert not op["problems"], op["problems"]
            suite, manifold = op["key"].split("|")[:2]
            verdicts = [[r[0], r[1]] for r in op["rows"]]
            for ident, verdict, _, mx, rms, _ in op["rows"]:
                assert verdict != "error", (op["key"], ident)
                assert math.isfinite(mx) and math.isfinite(rms), (op["key"], ident)
            want = expected.setdefault(f"{suite}|{manifold}", verdicts)
            assert want == verdicts, (op["key"], verdicts, want)
            residuals[op["key"]] = op["rows"]
        for p in res["passes"]:
            counts[f"{workload}|{p['seed']}"] = {
                k: int(p["totals"].get(k, 0)) for k in workloads.EXACT_COUNTS}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"expected": expected, "residuals": residuals, "counts": counts},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
