"""Command line interface.

    conelab verify <suite> [--manifold <id>] [--radius r ...] [--grid N]
                   [--jet-order K] [--tol id=val ...] [--seed S]
                   [--samples N] [--report path.json] [--config file]
    conelab list
    conelab integrate <integrand> --manifold <id> --radius r [--grid N]

Exit codes: 0 all identities pass, 1 failures or engine errors, 2 usage
(including sample counts, grid counts or radii out of range, an empty radius
list, a jet order below the suite's minimum, a grid or jet order given to a
suite that does not read it, weitzenboeck radii that are not two distinct
values, no manifold from either the flag or the config file, a config file
that is not a JSON object, has a field it does not know or has a field of
the wrong JSON type, and a --report path that cannot be written).  The
reason for each `error` verdict goes to stderr.  A JSON config file may
supply the same fields as the flags; flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import catalog
from .report import SuiteConfig, report_json
from .suites import (INTEGRANDS, SUITES, SuiteUsageError, check_field,
                     integrate_level_set, run_suite)


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
    """Flags over the fields of the JSON config file, which may set every
    SuiteConfig field but the suite: a misspelt key is an error, not a silent
    default.  Each field it sets is checked even where a flag overrides it;
    null leaves a field at its default."""
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SuiteUsageError(f"bad config file {args.config!r}: {exc}") from None
        if not isinstance(values, dict):
            raise SuiteUsageError(f"the config file holds {values!r}, not an object")
    unknown = sorted(set(values) - {f.name for f in fields(SuiteConfig)
                                    if f.name != "suite"})
    if unknown:
        raise SuiteUsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    values = {key: value for key, value in values.items() if value is not None}
    for key, value in values.items():
        check_field(key, value)
    flags = {"manifold": args.manifold or None, "grid": _parse_grid(args.grid),
             "radii": args.radius, "jet_order": args.jet_order,
             "seed": args.seed, "samples": args.samples}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    values["tolerances"] = {**values.get("tolerances", {}), **_parse_tol(args.tol)}
    if "radii" in values:
        values["radii"] = tuple(float(r) for r in values["radii"])
    if "manifold" not in values:
        raise SuiteUsageError("no manifold: give --manifold or a config "
                              "file field 'manifold'")
    return SuiteConfig(suite=args.suite, **values)


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
            for title, names in (("suites", SUITES), ("manifolds", catalog.keys()),
                                 ("integrands", INTEGRANDS)):
                print(f"{title}:")
                for name in names:
                    print(f"  {name}")
            return 0

        if args.command == "integrate":
            value = integrate_level_set(args.manifold, args.radius,
                                        args.integrand,
                                        _parse_grid(args.grid))
            print(f"{value!r}")
            return 0

        config = _load_config(args)
        reports = run_suite(config)
        _print_reports(reports)
        n_fail = sum(1 for r in reports if r.verdict != "pass")
        print(f"{len(reports)} identities, {n_fail} failing")
        if args.report:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(report_json(config, reports))
            except OSError as exc:
                raise SuiteUsageError(
                    f"cannot write report {args.report!r}: {exc.strerror}") from None
            print(f"report written to {args.report}")
        return 1 if n_fail else 0
    except SuiteUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
