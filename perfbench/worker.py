"""One benchmark client: a fresh interpreter running a workload's operations.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --passes K)
                                [--trace SPANS.jsonl] [--setup-samples K]
    python3 perfbench/worker.py --workload NAME --setup-only

The worker imports conelab from the checkout's ``src`` (never from an
installed copy), sets up the workload's manifolds, then runs its passes back
to back in a closed loop: whole passes until their operations have taken
``--seconds`` (and at least the workload's ``min_passes``), or exactly
``--passes`` of them.  Each operation is checked by the gate in
``workloads.py``.  The last line of standard output is one JSON object with
the per-op and per-pass records; ``run.py`` turns those into metrics.

With ``--trace`` the conelab entry points are wrapped (``tracing.py``) after
set-up, and the spans are written to the given file at the end.
``--setup-samples K`` times K fresh ``--setup-only`` interpreters before each
pass and after the last one, while this worker waits, so that the set-up
samples are spread over the whole run.  ``--setup-only`` prints the monotonic
clock reading at which the worker was ready for its first operation and exits.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_conelab():
    sys.path.insert(0, str(SRC))
    import conelab

    if Path(conelab.__file__).resolve().parent != SRC / "conelab":
        raise SystemExit(f"conelab imported from {conelab.__file__}, not {SRC}")
    return conelab


def setup(workload):
    """Everything a `conelab verify` process does before its first suite."""
    conelab = import_conelab()
    from conelab import catalog, cone

    for manifold in workloads.setup_manifolds(workload):
        cone.build_cone(catalog.get(manifold).chart)
    return conelab


def setup_seconds(workload):
    """Fresh interpreter to ready-for-first-op, timed from outside it."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--setup-only"], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["ready_monotonic"] - t0


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_passes(conelab, workload, seed, *, seconds=None, n_passes=None,
               tracer=None, reference=None, between=None):
    """Run whole passes; returns (op records, pass records).

    With ``reference`` None the gate is skipped (used only to record it).
    ``between``, if given, is called before each pass and after the last;
    its time does not count towards ``seconds``.
    """
    run_suite = conelab.suites.run_suite      # looked up after tracing wraps it
    report_json = conelab.report.report_json
    suite_config = conelab.report.SuiteConfig
    min_passes = workloads.WORKLOADS[workload]["min_passes"]
    ops, pass_records = [], []
    measured = 0.0
    for index, (pass_seed, pass_ops) in enumerate(workloads.passes(workload, seed)):
        if n_passes is not None and index == n_passes:
            break
        if n_passes is None and index >= min_passes and measured >= seconds:
            break
        if between:
            between()
        before = dict(tracer.totals) if tracer else None
        wall = 0.0
        for slot, op in enumerate(pass_ops):
            config = op.config(suite_config)
            rows, digest, problems = None, None, []
            if tracer:
                tracer.op = len(ops)
                frame = tracer.begin("bench.op", "bench.op")
            t0 = time.perf_counter()
            try:
                reports = run_suite(config)
                text = report_json(config, reports)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
            else:
                rows = workloads.summarise(reports)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end(frame)
            wall += dt
            if rows is not None and reference is not None:
                problems += workloads.check_op(op, rows, reference)
            ops.append({"key": op.key, "pass": index, "slot": slot, "seconds": dt,
                        "rows": rows, "sha256": digest, "problems": problems})
        measured += wall
        record = {"seed": pass_seed, "wall_s": wall}
        if tracer:
            record["totals"] = {k: v - before.get(k, 0.0)
                                for k, v in tracer.totals.items()}
        pass_records.append(record)
    if between:
        between()
    return ops, pass_records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    conelab = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"ready_monotonic": time.monotonic()}), flush=True)
        return 0
    if (args.seconds is None) == (args.passes is None):
        parser.error("give exactly one of --seconds and --passes")

    reference = workloads.load_reference()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(conelab)
    setups = []

    def sample_setup():
        setups.extend(setup_seconds(args.workload) for _ in range(args.setup_samples))

    ops, pass_records = run_passes(conelab, args.workload, args.seed,
                                   seconds=args.seconds, n_passes=args.passes,
                                   tracer=tracer, reference=reference,
                                   between=sample_setup if args.setup_samples else None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.write_spans(args.trace)
    print(json.dumps({
        "ops": ops,
        "passes": pass_records,
        "setup_samples_s": setups,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
