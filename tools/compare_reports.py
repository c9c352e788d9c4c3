"""Compare the canonical reports of two conelab source trees.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC OUTDIR

Runs ``conelab verify --report`` with each ``src`` directory on
``PYTHONPATH`` for every valid (suite, manifold) pair at default settings.
Each tree declares its own pairs: a suite of ``suites.SUITES`` on a manifold
of its catalog is valid when ``run_suite`` takes it at its smallest sizes
without a usage error (``hypersasaki``, for one, needs two catalogued
Sasakian structures).  The two sides of a pair run at the same time, one
process each; ``weitzenboeck`` on ``s5-round``, the slowest pair, needs about
1.2 GB per side.  Reports go to
``OUTDIR/parent`` and ``OUTDIR/change``, and a summary, with each side's
wall seconds per pair (process start to exit) and peak RSS in MB (the
child's ``ru_maxrss`` from ``os.wait4``), to ``OUTDIR/summary.json``.

For each pair it prints both sides' wall seconds and peak RSS, whether the
report files are byte-equal, whether the identity lists, verdicts and exit
codes are equal, and each residual that moved, with its shift as a share of
the benchmark gate's allowance ``max(RTOL * |ref|, ATOL_SHARE * tolerance)``
(``perfbench/workloads.py``); residuals not listed are equal.  Peak RSS gates
nothing.

It then runs ``conelab integrate`` for each integrand of the tree's
``suites.INTEGRANDS`` on ``t3-blair`` and ``s3-round`` at ``--radius 1.7``
with both trees and prints whether the two sides' stdout and exit codes are
equal.

Exits 1 when the two trees declare different pairs or integrands (only the
common ones are compared), when any pair differs in identities, verdicts or
exit code, moves a residual beyond that allowance, or when an ``integrate``
run differs in stdout or exit code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import ATOL_SHARE, RTOL  # noqa: E402  (the gate's roundoff rule)

INTEGRATE_MANIFOLDS = ("t3-blair", "s3-round")

# run under a tree's src: its valid (suite, manifold) pairs and its integrands
DECLARATIONS = """
import json
from conelab import catalog, suites
from conelab.report import SuiteConfig

pairs = []
for suite, spec in suites.SUITES.items():
    for manifold in catalog.keys():
        config = SuiteConfig(manifold=manifold, suite=suite, samples=1,
                             jet_order=spec.jet_orders and spec.jet_orders[0],
                             grid=1 if spec.grid else None)
        try:
            suites.run_suite(config)
        except suites.SuiteUsageError:
            continue
        pairs.append((suite, manifold))
print(json.dumps({"pairs": pairs, "integrands": suites.INTEGRANDS}))
"""


def declarations(src):
    """(valid pairs, integrands) that the tree at ``src`` declares."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-c", DECLARATIONS], env=env,
                          capture_output=True, text=True, check=True)
    found = json.loads(done.stdout.strip().splitlines()[-1])
    return [tuple(pair) for pair in found["pairs"]], found["integrands"]


def run_conelab(src, args):
    """(exit code, stdout, stderr, wall seconds, peak RSS MB) of one ``conelab`` run."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conelab.cli", *args],
                                env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(), seconds,
                usage.ru_maxrss / 1024.0)


def run_both(sides, args_for):
    """{side: run_conelab result}, the two sides at the same time."""
    with ThreadPoolExecutor(len(sides)) as pool:
        return dict(zip(sides, pool.map(
            lambda side: run_conelab(sides[side], args_for(side)), sides)))


def compare(ref_path, new_path):
    """(identity lists and verdicts equal, one row per residual that moved).

    A moved residual's row is (identity, field, parent value, change value,
    shift as a share of the gate's allowance); a share above 1 is a violation.
    """
    ref = json.loads(ref_path.read_text())["reports"]
    new = json.loads(new_path.read_text())["reports"]
    same = ([(r["identity"], r["verdict"]) for r in ref]
            == [(r["identity"], r["verdict"]) for r in new])
    moved = []
    for r, n in zip(ref, new):
        for key in ("max_residual", "rms_residual"):
            want, got = r[key], n[key]
            if want is None or got is None:   # error verdicts carry no residual
                same &= want == got
            elif got != want:
                allowance = max(RTOL * abs(want), ATOL_SHARE * r["tolerance"])
                moved.append((r["identity"], key, want, got, abs(got - want) / allowance))
    return same, moved


def main(argv):
    if len(argv) != 3:
        print("usage: compare_reports.py PARENT_SRC CHANGE_SRC OUTDIR", file=sys.stderr)
        return 2
    parent_src, change_src, outdir = argv
    sides = {"parent": parent_src, "change": change_src}
    for side in sides:
        (Path(outdir) / side).mkdir(parents=True, exist_ok=True)
    (pairs, integrands), (change_pairs, change_integrands) = (
        declarations(src) for src in sides.values())
    declarations_equal = True
    for what, ref, new in (("pairs", pairs, change_pairs),
                           ("integrands", integrands, change_integrands)):
        if set(ref) != set(new):
            declarations_equal = False
            print(f"the trees declare different {what}: parent only "
                  f"{[x for x in ref if x not in new]}, change only "
                  f"{[x for x in new if x not in ref]}", file=sys.stderr)
    pairs = [p for p in pairs if p in change_pairs]
    integrands = [n for n in integrands if n in change_integrands]
    rows, failed = [], not declarations_equal
    for suite, manifold in pairs:
        paths = {side: Path(outdir) / side / f"{suite}.{manifold}.json" for side in sides}
        runs = run_both(sides, lambda side: [
            "verify", suite, "--manifold", manifold, "--report", str(paths[side])])
        codes = {side: run[0] for side, run in runs.items()}
        seconds = {side: round(run[3], 2) for side, run in runs.items()}
        rss = {side: round(run[4], 1) for side, run in runs.items()}
        for side, (code, _, err, *_) in runs.items():
            if code not in (0, 1):
                print(f"{side} {suite}/{manifold} exited {code}: {err.strip()}",
                      file=sys.stderr)
        if any(code not in (0, 1) for code in codes.values()):
            failed = True
            rows.append({"suite": suite, "manifold": manifold, "exit": codes,
                         "wall_s": seconds, "peak_rss_mb": rss})
            continue
        byte_equal = paths["parent"].read_bytes() == paths["change"].read_bytes()
        same, moved = compare(paths["parent"], paths["change"])
        ok = same and codes["parent"] == codes["change"] and all(m[4] <= 1.0 for m in moved)
        failed |= not ok
        rows.append({"suite": suite, "manifold": manifold, "exit": codes,
                     "wall_s": seconds, "peak_rss_mb": rss, "byte_equal": byte_equal,
                     "identities_and_verdicts_equal": same, "moved": moved, "ok": ok})
        print(f"{suite:16s} {manifold:16s} "
              f"{seconds['parent']:7.2f}/{seconds['change']:<7.2f} s "
              f"{rss['parent']:6.1f}/{rss['change']:<6.1f} MB "
              f"bytes {'equal' if byte_equal else 'DIFFER':6s} "
              f"identities/verdicts {'equal' if same else 'DIFFER':6s} "
              f"exit {codes['parent']}/{codes['change']} "
              f"residuals moved {len(moved)}{'' if ok else '  VIOLATION'}", flush=True)
        for identity, key, want, got, share in moved:
            print(f"    {identity} {key} {want!r} -> {got!r}: {share:.3g} of allowance")
    integrate_rows = []
    for manifold in INTEGRATE_MANIFOLDS:
        for name in integrands:
            runs = run_both(sides, lambda side: [
                "integrate", name, "--manifold", manifold, "--radius", "1.7"])
            codes = {side: run[0] for side, run in runs.items()}
            stdout = {side: run[1] for side, run in runs.items()}
            same_out = stdout["parent"] == stdout["change"]
            ok = same_out and codes["parent"] == codes["change"]
            failed |= not ok
            integrate_rows.append({"integrand": name, "manifold": manifold,
                                   "exit": codes, "stdout": stdout, "ok": ok})
            print(f"integrate {name:18s} {manifold:16s} "
                  f"stdout {'equal' if same_out else 'DIFFER':6s} "
                  f"exit {codes['parent']}/{codes['change']}"
                  f"{'' if ok else '  VIOLATION'}", flush=True)
    summary = {
        "declarations_equal": declarations_equal,
        "pairs": len(rows),
        "byte_equal": sum(bool(r.get("byte_equal")) for r in rows),
        "not_byte_equal": [f"{r['suite']}/{r['manifold']}" for r in rows
                           if not r.get("byte_equal")],
        "violations": [f"{r['suite']}/{r['manifold']}" for r in rows if not r.get("ok")],
        "rule": f"|shift| <= max({RTOL:g} * |ref|, {ATOL_SHARE:g} * tolerance)",
        "rows": rows,
        "integrate_equal": sum(r["ok"] for r in integrate_rows),
        "integrate_rows": integrate_rows,
    }
    (Path(outdir) / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{summary['byte_equal']}/{summary['pairs']} byte-equal; "
          f"{len(summary['violations'])} violations; "
          f"{summary['integrate_equal']}/{len(integrate_rows)} integrate runs equal")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
