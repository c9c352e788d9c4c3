"""tools/compare_reports.py, the report gate, on canned ``conelab`` runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
SECTIONS = ("suites", "manifolds", "integrands")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(suites=("kcontact", "sasaki"), manifolds=("t3-blair", "s3-round"),
         integrands=("one",), refused=(("sasaki", "t3-blair"),), residual=1e-9,
         rss=None):
    """A source tree, as its command line answers; ``rss`` maps a (suite,
    manifold) pair to its peak RSS in MB, 30 MB where it is not listed."""
    return {"suites": suites, "manifolds": manifolds, "integrands": integrands,
            "refused": set(refused), "residual": residual, "rss": rss or {}}


def run_gate(gate, monkeypatch, tmp_path, parent, change):
    """(exit code, summary.md lines) of the gate over two canned trees."""
    trees = {"parent": parent, "change": change}

    def run_conelab(src, args):
        t = trees[src]
        if args == ["list"]:
            out = "".join(f"{title}:\n" + "".join(f"  {name}\n" for name in t[title])
                          for title in SECTIONS)
            return 0, out, "", 0.1, 30.0
        command, name, manifold = args[0], args[1], args[3]
        if command == "integrate":
            if name not in t["integrands"]:
                return 2, "", f"usage error: no integrand {name!r}\n", 0.1, 30.0
            return 0, "31.0\n", "", 0.1, 30.0
        if (name not in t["suites"] or manifold not in t["manifolds"]
                or (name, manifold) in t["refused"]):
            return 2, "", "usage error: refused\n", 0.1, 30.0
        residual = t["residual"]
        Path(args[5]).write_text(json.dumps({"reports": [
            {"identity": f"{name}-check", "verdict": "pass", "tolerance": 1e-6,
             "max_residual": residual, "rms_residual": residual}]}))
        return 0, "1 identities, 0 failing\n", "", 0.1, t["rss"].get((name, manifold), 30.0)

    monkeypatch.setattr(gate, "run_conelab", run_conelab)
    code = gate.main(["parent", "change", str(tmp_path)])
    return code, (tmp_path / "summary.md").read_text().splitlines()


def test_identical_trees_pass_and_a_pair_both_refuse_is_skipped(gate, monkeypatch,
                                                                tmp_path):
    code, summary = run_gate(gate, monkeypatch, tmp_path, tree(), tree())
    assert code == 0
    assert summary[0] == ("3/3 byte-equal; 0 violations; 2/2 integrate runs equal; "
                          "largest peak RSS parent 30.0 MB (kcontact/t3-blair), "
                          "change 30.0 MB (kcontact/t3-blair); "
                          "summed peak RSS parent 90.0 MB, change 90.0 MB; "
                          "skipped (exit 2 on both sides): sasaki/t3-blair")
    rows = [line for line in summary if line.startswith("| ") and "| suite |" not in line]
    assert [row.split(" | ")[:2] for row in rows] == [
        ["| kcontact", "t3-blair"], ["| kcontact", "s3-round"], ["| sasaki", "s3-round"]]
    assert all(row.endswith("| equal | yes |") for row in rows)


def test_the_totals_name_each_sides_largest_and_summed_peak_rss(gate, monkeypatch,
                                                                tmp_path):
    parent = tree(rss={("sasaki", "s3-round"): 120.0})
    change = tree(rss={("sasaki", "s3-round"): 45.5, ("kcontact", "s3-round"): 60.0})
    code, summary = run_gate(gate, monkeypatch, tmp_path, parent, change)
    assert code == 0   # peak RSS gates nothing
    assert ("largest peak RSS parent 120.0 MB (sasaki/s3-round), "
            "change 60.0 MB (kcontact/s3-round); "
            "summed peak RSS parent 180.0 MB, change 135.5 MB; ") in summary[0]


def test_a_residual_moved_within_the_allowance_passes(gate, monkeypatch, tmp_path):
    # the allowance is max(RTOL * 1e-9, ATOL_SHARE * 1e-6) = 1e-9
    code, summary = run_gate(gate, monkeypatch, tmp_path, tree(),
                             tree(residual=1e-9 + 1e-12))
    assert code == 0
    assert summary[0].startswith("0/3 byte-equal; 0 violations;")


@pytest.mark.parametrize("change", [
    tree(refused=(("sasaki", "t3-blair"), ("kcontact", "s3-round"))),
    tree(suites=("kcontact", "sasaki", "extra")),
    tree(integrands=("one", "extra")),
    tree(residual=1e-9 + 2e-9),
], ids=["refused-on-one-side", "suite-on-one-side", "integrand-on-one-side",
        "residual-beyond-allowance"])
def test_any_difference_fails_the_gate(gate, monkeypatch, tmp_path, change):
    code, _ = run_gate(gate, monkeypatch, tmp_path, tree(), change)
    assert code == 1


def test_no_pair_run_fails_the_gate(gate, monkeypatch, tmp_path):
    refuse_all = tree(refused=[(s, m) for s in ("kcontact", "sasaki")
                               for m in ("t3-blair", "s3-round")])
    code, summary = run_gate(gate, monkeypatch, tmp_path, refuse_all, refuse_all)
    assert code == 1
    assert summary[0].startswith("0/0 byte-equal;")
