"""Command line interface.

    conelab verify <suite> [--manifold <id>] [--radius r ...] [--grid N]
                   [--jet-order K] [--tol id=val ...] [--seed S]
                   [--samples N] [--report path.json] [--config file]
    conelab list
    conelab integrate <integrand> --manifold <id> --radius r [--grid N]

Exit codes: 0 all identities pass, 1 failures or engine errors, 2 usage
(including sample counts, grid counts or radii out of range, a jet order
below the suite's minimum, a grid or jet order given to a suite that does
not read it, weitzenboeck radii that are not two distinct values, no
manifold from either the flag or the config file, and a config file that is
not a JSON object, has a field it does not know or has a field of the wrong
JSON type).  The reason for each `error` verdict goes to stderr.  A JSON
config file may supply the same fields as the flags; flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .report import SuiteConfig, all_pass, report_json
from .suites import INTEGRANDS, SUITES, SuiteUsageError, integrate_level_set, run_suite


def _parse_tol(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise SuiteUsageError(f"--tol expects id=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            raise SuiteUsageError(f"--tol value for {key!r} is not a number")
    return out


def _parse_grid(text):
    if text is None:
        return None
    try:
        if "," in text:
            return tuple(int(v) for v in text.split(","))
        return int(text)
    except ValueError:
        raise SuiteUsageError(f"--grid expects N or N1,N2,..., got {text!r}")


def _typed(value, kinds, what):
    """value itself when it has one of the JSON types kinds (never a boolean)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SuiteUsageError(f"{what} has the wrong type: {value!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Numerical verification of cone, contact and "
                    "almost-Kaehler identities on catalogued manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    verify.add_argument("--manifold", default=None,
                        help="catalog id; may come from the config file instead")
    verify.add_argument("--radius", action="append", type=float, default=None)
    verify.add_argument("--grid", default=None)
    verify.add_argument("--jet-order", type=int, default=None)
    verify.add_argument("--tol", action="append", default=None,
                        metavar="ID=VALUE")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--report", default=None, help="write JSON report here")
    verify.add_argument("--config", default=None, help="JSON config file")

    sub.add_parser("list", help="list suites and manifolds")

    integ = sub.add_parser("integrate", help="integrate over a level set M_r")
    integ.add_argument("integrand", help=f"one of: {', '.join(INTEGRANDS)}")
    integ.add_argument("--manifold", required=True)
    integ.add_argument("--radius", type=float, required=True)
    integ.add_argument("--grid", default=None)
    return parser


def _load_config(args) -> SuiteConfig:
    """Flags over the fields of the JSON config file.

    The file may set only the fields below, so a misspelt key is an error
    rather than a silent default.  Each field it sets is type-checked
    even where a flag overrides it; null leaves a field at its default.
    """
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = _typed(json.load(fh), dict, "the config file's content")
    unknown = sorted(set(base) - {"manifold", "grid", "radii", "jet_order",
                                  "tolerances", "seed", "samples"})
    if unknown:
        raise SuiteUsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}")

    def pick(flag, key, kinds, default=None):
        value = base.get(key)
        if value is None:
            value = default
        else:
            _typed(value, kinds, f"config field {key!r}")
        return value if flag is None else flag

    manifold = pick(args.manifold or None, "manifold", str)
    if not manifold:
        raise SuiteUsageError("no manifold: give --manifold or a config "
                              "file field 'manifold'")
    cfg = SuiteConfig(manifold=manifold, suite=args.suite)
    cfg.grid = pick(_parse_grid(args.grid), "grid", (int, list))
    radii = pick(args.radius, "radii", list)
    if radii:
        cfg.radii = tuple(float(_typed(r, (int, float), "a radius")) for r in radii)
    cfg.jet_order = pick(args.jet_order, "jet_order", int)
    tols = {key: _typed(tol, (int, float), f"the tolerance for {key!r}")
            for key, tol in pick(None, "tolerances", dict, {}).items()}
    tols.update(_parse_tol(args.tol))
    cfg.tolerances = tols
    cfg.seed = pick(args.seed, "seed", int, cfg.seed)
    cfg.samples = pick(args.samples, "samples", int, cfg.samples)
    return cfg


def _print_reports(reports):
    for r in reports:
        mx = "n/a" if r.max_residual is None else f"{r.max_residual:.3e}"
        print(f"[{r.verdict.upper():5s}] {r.identity:36s} "
              f"max={mx:>10s} tol={r.tolerance:.1e}  ({r.anchor})")
        if r.message:
            print(f"{r.identity}: {r.message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "list":
            print("suites:")
            for s in SUITES:
                print(f"  {s}")
            print("manifolds:")
            for key in catalog.keys():
                print(f"  {key}")
            print("integrands:")
            for name in INTEGRANDS:
                print(f"  {name}")
            return 0

        if args.command == "integrate":
            value = integrate_level_set(args.manifold, args.radius,
                                        args.integrand,
                                        _parse_grid(args.grid))
            print(f"{value!r}")
            return 0

        try:
            config = _load_config(args)
        except (OSError, TypeError, ValueError) as exc:
            raise SuiteUsageError(f"bad config file {args.config!r}: {exc}") from None
        reports = run_suite(config)
        _print_reports(reports)
        ok = all_pass(reports)
        n_fail = sum(1 for r in reports if r.verdict != "pass")
        print(f"{len(reports)} identities, {n_fail} failing")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_json(config, reports))
            print(f"report written to {args.report}")
        return 0 if ok else 1
    except SuiteUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
