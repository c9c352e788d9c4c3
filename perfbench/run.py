"""conelab benchmark launcher.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs as one client in a fresh
interpreter (``worker.py``), closed loop, one operation after another.

``--trace 0`` measures the end-to-end metrics: one untraced worker for
``--seconds``, which also times fresh set-up interpreters before each of its
passes and after the last, so that the set-up samples span the whole run.
``--trace 1`` measures the per-layer metrics: an untraced worker for
``--seconds``, then a traced worker over exactly the same passes; their
report bytes must match, the exact counts must match the recorded ones, and
the difference of their pass times is the tracing overhead.

Results, with an environment record, go to ``perfbench/out/``; the last
line of standard output is the JSON summary.  The exit code is 0 only when
a summary was printed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Each workload gets its own budget, so a single-workload run ends within
# 180 s; ``--workload all`` runs the workloads in turn and may take longer.
RUN_BUDGET_S = 170.0
SETUP_SAMPLES_PER_GAP = 3

# metric names and units are declared once, in BENCHMARK.json
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Printed with the metrics but left out of the JSON summary, so no bound
# applies.  On identity-sweep the median operation falls among ops of very
# different sizes, and its run-to-run spread (0.12-0.32 of the median) is wider
# than any bound BENCHMARK.json may set.
PRINTED_ONLY = {"op_s.p50": "s"}


class BenchError(Exception):
    """The run cannot produce a result."""


def capped_env():
    """The caller's environment with BLAS/OpenMP threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(env.get(var, nproc))
        except ValueError:
            n = nproc
        env[var] = str(max(1, min(n, nproc)))
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


class Launcher:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = capped_env()

    def worker(self, *args):
        """Run worker.py to completion; returns its JSON result line."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        # own process group, so that a timeout also ends the set-up
        # interpreters the worker starts
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                             f"{stderr[-4000:]}")
        return json.loads(stdout.strip().splitlines()[-1])


def gate(ops):
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print(f"FAILED {op['key']}: {op['problems'][0][:2000]}", file=sys.stderr)
    return len(failed)


def end_to_end(launcher, workload, seed, seconds):
    res = launcher.worker("--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds),
                          "--setup-samples", str(SETUP_SAMPLES_PER_GAP))
    setups = res["setup_samples_s"]
    op_times = [op["seconds"] for op in res["ops"]]
    # one pass, each operation at its median over the run's passes: a slow
    # spell that hits one op of one pass does not move the whole pass
    by_slot = {}
    for op in res["ops"]:
        by_slot.setdefault(op["slot"], []).append(op["seconds"])
    metrics = {
        "wall_s": sum(statistics.median(times) for times in by_slot.values()),
        "op_s.p50": statistics.median(op_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"wall_s": len(res["passes"]), "op_s.p50": len(op_times),
               "setup_s": len(setups), "peak_rss_mb": 1}
    failed = gate(res["ops"])
    record = {"setup_samples_s": setups, "passes": res["passes"], "ops": res["ops"],
              "env": res["env"]}
    return metrics, samples, len(res["ops"]), failed, [], record


def per_layer(launcher, workload, seed, seconds, reference):
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    plain = launcher.worker("--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds))
    n = len(plain["passes"])
    traced = launcher.worker("--workload", workload, "--seed", str(seed),
                             "--passes", str(n), "--trace", str(spans_path))
    problems = []
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["key"] != b["key"] or a["sha256"] != b["sha256"]:
            problems.append(f"traced report of {b['key']} differs from untraced")
    for p in traced["passes"]:
        want = reference["counts"].get(f"{workload}|{p['seed']}")
        got = {k: int(p["totals"].get(k, 0)) for k in workloads.EXACT_COUNTS}
        if want is not None and got != want:
            problems.append(f"pass seed {p['seed']}: counts {got} != recorded {want}")
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)

    totals = {}
    for p in traced["passes"]:
        for k, v in p["totals"].items():
            totals[k] = totals.get(k, 0.0) + v
    metrics = {}
    for name in PER_LAYER:
        if name == "geometry.self_s":
            value = sum(v for k, v in totals.items()
                        if k.startswith("geometry.") and k.endswith(".self_s"))
        elif name == "suites.wdata_reuse":
            calls = totals.get("weitzenboeck.data.calls", 0.0)
            value = totals.get("suites.integrand.calls", 0.0) / calls if calls else 0.0
        elif name == "trace.overhead_s":
            value = sum(p["wall_s"] for p in traced["passes"]) - \
                sum(p["wall_s"] for p in plain["passes"])
        else:
            value = totals.get(name, 0.0)
        metrics[name] = value if name == "suites.wdata_reuse" else value / n
    samples = {name: n for name in PER_LAYER}
    failed = gate(plain["ops"] + traced["ops"])
    record = {"untraced_passes": plain["passes"], "traced_passes": traced["passes"],
              "spans": spans_path.name, "env": traced["env"]}
    return (metrics, samples, len(plain["ops"]) + len(traced["ops"]), failed,
            problems, record)


def run_workload(launcher, workload, seed, seconds, trace, reference):
    if trace:
        metrics, samples, attempted, failed, problems, record = per_layer(
            launcher, workload, seed, seconds, reference)
        units = PER_LAYER
    else:
        metrics, samples, attempted, failed, problems, record = end_to_end(
            launcher, workload, seed, seconds)
        units = {**END_TO_END, **PRINTED_ONLY}
    record.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "git_commit": git_commit(),
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "metrics": metrics, "samples": samples})
    record["env"]["launcher_thread_cap"] = {
        k: launcher.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, value in metrics.items():
        print(f"{workload:22s} {name:28s} {value:14.6g} {units[name]:6s} "
              f"(n={samples[name]})")
    print(f"{workload:22s} {'failed_op_ratio':28s} {failed / attempted:14.6g} "
          f"{'ratio':6s} ({failed}/{attempted})")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in PRINTED_ONLY},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conelab" / "__init__.py").is_file():
        print(f"error: no conelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    reference = workloads.load_reference()
    results = {}
    try:
        for name in names:
            launcher = Launcher(time.monotonic() + RUN_BUDGET_S)
            results[name] = run_workload(launcher, name, args.seed, args.seconds,
                                         args.trace, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(f"total {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
