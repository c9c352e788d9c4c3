"""Compare the canonical reports of two conelab source trees.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC OUTDIR

Reads each tree through its ``conelab`` command line alone, run as
``python -m conelab.cli`` with that ``src`` directory on ``PYTHONPATH``.
``conelab list`` gives the tree's suites, manifolds and integrands.  Every
suite x manifold of the two trees' lists runs as ``conelab verify SUITE
--manifold MANIFOLD --report FILE`` at default settings, the two sides at the
same time, one process each; ``weitzenboeck`` on ``s5-round``, the slowest
pair, needs about 0.9 GB per side.  A combination that both sides refuse with
exit 2 (a usage error: ``hypersasaki``, for one, needs two catalogued
Sasakian structures) is skipped.  Reports go to ``OUTDIR/parent`` and
``OUTDIR/change``.

For each pair it prints both sides' wall seconds (process start to exit) and
peak RSS in MB (the child's ``ru_maxrss`` from ``os.wait4``), whether the
report files are byte-equal, whether the identity lists, verdicts and exit
codes are equal, and each residual that moved, with its shift as a share of
the benchmark gate's allowance ``max(RTOL * |ref|, ATOL_SHARE * tolerance)``
(``perfbench/workloads.py``); residuals not listed are equal.  The totals line
names each side's largest peak RSS with its pair, and each side's sum over
all pairs.  Peak RSS gates nothing.

It then runs ``conelab integrate`` for each integrand of the two lists on
``t3-blair`` and ``s3-round`` at ``--radius 1.7`` with both trees and prints
whether the two sides' stdout and exit codes are equal.  The totals and a
table of every pair go to ``OUTDIR/summary.md``.

Exits 1 when no pair ran, when a pair exits with anything but 0 or 1 on a
side (so a pair or a suite that only one side runs fails), differs in
identities, verdicts or exit code, or moves a residual beyond that allowance,
or when an ``integrate`` run differs in stdout or exit code.
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
USAGE = 2  # conelab's exit code for an invocation it refuses


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


def listing(src):
    """{section: names} of ``conelab list`` under ``src``: a line ``title:``
    opens a section, and each name in it is indented by two spaces."""
    code, out, err, *_ = run_conelab(src, ["list"])
    if code:
        sys.exit(f"conelab list under {src} exited {code}: {err.strip()}")
    found = {}
    for line in out.splitlines():
        if line.startswith("  "):
            found[title].append(line[2:])
        else:
            title = line.removesuffix(":")
            found[title] = []
    return found


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


def rss_totals(peaks):
    """'largest peak RSS ...; summed peak RSS ...; ' over the pairs that ran,
    or '' when none ran."""
    if not all(peaks.values()):
        return ""
    largest, summed = [], []
    for side, found in peaks.items():
        mb, pair = max(found, key=lambda peak: peak[0])
        largest.append(f"{side} {mb:.1f} MB ({pair})")
        summed.append(f"{side} {sum(mb for mb, _ in found):.1f} MB")
    return (f"largest peak RSS {', '.join(largest)}; "
            f"summed peak RSS {', '.join(summed)}; ")


def main(argv):
    if len(argv) != 3:
        print("usage: compare_reports.py PARENT_SRC CHANGE_SRC OUTDIR", file=sys.stderr)
        return 2
    parent_src, change_src, outdir = argv
    sides = {"parent": parent_src, "change": change_src}
    for side in sides:
        (Path(outdir) / side).mkdir(parents=True, exist_ok=True)
    lists = [listing(src) for src in sides.values()]
    suites, manifolds, integrands = (
        list(dict.fromkeys(name for found in lists for name in found.get(section, ())))
        for section in ("suites", "manifolds", "integrands"))
    rows, skipped, violations, equal = [], [], [], 0
    peaks = {side: [] for side in sides}   # (peak RSS MB, pair) per pair that ran
    for suite in suites:
        for manifold in manifolds:
            paths = {side: Path(outdir) / side / f"{suite}.{manifold}.json"
                     for side in sides}
            runs = run_both(sides, lambda side: [
                "verify", suite, "--manifold", manifold, "--report", str(paths[side])])
            codes = {side: run[0] for side, run in runs.items()}
            if set(codes.values()) == {USAGE}:
                skipped.append(f"{suite}/{manifold}")
                continue
            for side, (code, _, err, *_) in runs.items():
                if code not in (0, 1):
                    print(f"{side} {suite}/{manifold} exited {code}: {err.strip()}",
                          file=sys.stderr)
            seconds = {side: round(run[3], 2) for side, run in runs.items()}
            rss = {side: round(run[4], 1) for side, run in runs.items()}
            for side in sides:
                peaks[side].append((rss[side], f"{suite}/{manifold}"))
            ran = all(code in (0, 1) for code in codes.values())
            byte_equal = ran and paths["parent"].read_bytes() == paths["change"].read_bytes()
            same, moved = compare(paths["parent"], paths["change"]) if ran else (False, [])
            ok = same and codes["parent"] == codes["change"] and all(m[4] <= 1.0 for m in moved)
            equal += byte_equal
            violations += [] if ok else [f"{suite}/{manifold}"]
            rows.append(f"| {suite} | {manifold} | {codes['parent']}/{codes['change']} "
                        f"| {seconds['parent']} | {seconds['change']} | {rss['parent']} "
                        f"| {rss['change']} | {'equal' if byte_equal else 'DIFFER'} "
                        f"| {'yes' if ok else 'NO'} |")
            print(f"{suite:16s} {manifold:16s} "
                  f"{seconds['parent']:7.2f}/{seconds['change']:<7.2f} s "
                  f"{rss['parent']:6.1f}/{rss['change']:<6.1f} MB "
                  f"bytes {'equal' if byte_equal else 'DIFFER':6s} "
                  f"identities/verdicts {'equal' if same else 'DIFFER':6s} "
                  f"exit {codes['parent']}/{codes['change']} "
                  f"residuals moved {len(moved)}{'' if ok else '  VIOLATION'}", flush=True)
            for identity, key, want, got, share in moved:
                print(f"    {identity} {key} {want!r} -> {got!r}: {share:.3g} of allowance")
    integrate_equal = integrate_runs = 0
    for manifold in INTEGRATE_MANIFOLDS:
        for name in integrands:
            runs = run_both(sides, lambda side: [
                "integrate", name, "--manifold", manifold, "--radius", "1.7"])
            codes = {side: run[0] for side, run in runs.items()}
            same_out = runs["parent"][1] == runs["change"][1]
            ok = same_out and codes["parent"] == codes["change"]
            integrate_equal += ok
            integrate_runs += 1
            print(f"integrate {name:18s} {manifold:16s} "
                  f"stdout {'equal' if same_out else 'DIFFER':6s} "
                  f"exit {codes['parent']}/{codes['change']}"
                  f"{'' if ok else '  VIOLATION'}", flush=True)
    if not rows:
        print("no pair ran on either side", file=sys.stderr)
    totals = (f"{equal}/{len(rows)} byte-equal; {len(violations)} violations; "
              f"{integrate_equal}/{integrate_runs} integrate runs equal; "
              f"{rss_totals(peaks)}skipped (exit 2 on both sides): {', '.join(skipped) or 'none'}")
    table = [totals, "",
             "| suite | manifold | exit | wall s parent | wall s change "
             "| peak RSS MB parent | peak RSS MB change | bytes | ok |",
             "|---|---|---|---:|---:|---:|---:|---|---|", *rows]
    (Path(outdir) / "summary.md").write_text("\n".join(table) + "\n")
    print(totals)
    return 1 if violations or integrate_equal < integrate_runs or not rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
