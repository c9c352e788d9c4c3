"""Suite runner, report schema, CLI behaviour, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conelab import catalog, cone, jets, weitzenboeck
from conelab.cli import main as cli_main
from conelab.report import SuiteConfig, all_pass, make_report, report_json
from conelab.suites import (
    _MAX_JET_ORDER,
    SUITES,
    SuiteUsageError,
    integrate_level_set,
    run_suite,
)

REPORT_KEYS = {"identity", "anchor", "samples", "max_residual",
               "rms_residual", "tolerance", "verdict", "witness"}


def _config(manifold, suite, **kw):
    kw.setdefault("samples", 25)
    return SuiteConfig(manifold=manifold, suite=suite, **kw)


def test_catalog_keys():
    assert set(catalog.keys()) == {"t3-blair", "t3-unnormalized",
                                   "s3-round", "s5-round"}
    with pytest.raises(KeyError):
        catalog.get("nope")


def test_run_suite_unknown_ids():
    with pytest.raises(SuiteUsageError):
        run_suite(_config("t3-blair", "no-such-suite"))
    with pytest.raises(SuiteUsageError):
        run_suite(_config("no-such-manifold", "sasaki"))
    with pytest.raises(SuiteUsageError):
        run_suite(_config("t3-blair", "hypersasaki"))
    # each field is checked for its JSON type as well as its range, so a
    # wrong-typed value is a usage error, never a TypeError from a kernel
    for field in ({"samples": 2.5}, {"samples": True}, {"seed": 1.5},
                  {"tolerances": {"killing-field:i": "1"}}, {"radii": ("1",)}):
        with pytest.raises(SuiteUsageError):
            run_suite(_config("s3-round", "kcontact", **field))


def test_expected_verdicts_blair():
    reports = run_suite(_config("t3-blair", "sasaki"))
    by_id = {r.identity: r for r in reports}
    assert by_id["sasaki-defect"].verdict == "fail"
    assert by_id["sasaki-defect"].max_residual >= 0.4
    assert by_id["parallel-omega"].verdict == "fail"
    assert by_id["sasaki-parallel-equivalence"].verdict == "pass"

    reports = run_suite(_config("t3-blair", "kcontact"))
    by_id = {r.identity: r for r in reports}
    assert by_id["killing-field"].verdict == "fail"
    assert by_id["killing-field"].max_residual >= 0.4
    assert by_id["ricci-reeb-criterion"].max_residual == pytest.approx(2.0, abs=1e-10)


def test_expected_verdicts_spheres():
    for manifold in ("s3-round", "s5-round"):
        for suite in ("kcontact", "sasaki"):
            reports = run_suite(_config(manifold, suite,
                                        samples=12 if manifold == "s5-round" else 25))
            assert all_pass(reports), (manifold, suite)


def test_unnormalized_contact_axioms_fail_only_where_expected():
    reports = run_suite(_config("t3-unnormalized", "contact-axioms"))
    verdicts = {r.identity: r.verdict for r in reports}
    assert verdicts["contact-metric-axiom"] == "fail"
    assert verdicts["contact-unit-length"] == "pass"
    assert verdicts["contact-reeb-conditions"] == "pass"
    assert verdicts["cone-symplectic-closed"] == "pass"
    assert verdicts["cone-complex-square"] == "fail"


def test_report_schema_and_verdict_rule():
    reports = run_suite(_config("t3-blair", "kcontact"))
    for r in reports:
        d = r.to_dict()
        assert set(d) == REPORT_KEYS
        if r.max_residual is not None:
            assert (r.verdict == "pass") == (r.max_residual <= r.tolerance)
        assert r.rms_residual <= r.max_residual + 1e-15
        assert r.witness is None or len(r.witness) in (3, 4)


def test_tolerance_override_changes_verdict():
    config = _config("t3-blair", "kcontact",
                     tolerances={"killing-field": 10.0,
                                 "ricci-reeb-criterion": 10.0})
    reports = run_suite(config)
    assert all_pass(reports)


def test_determinism_byte_identical_reports():
    for suite in ("kcontact", "cone-identities"):
        config1 = _config("t3-blair", suite, seed=31337)
        config2 = _config("t3-blair", suite, seed=31337)
        text1 = report_json(config1, run_suite(config1))
        text2 = report_json(config2, run_suite(config2))
        assert text1.encode() == text2.encode()
    # different seed -> different sample draw -> (generically) different bytes
    base = report_json(_config("t3-blair", "kcontact", seed=31337),
                       run_suite(_config("t3-blair", "kcontact", seed=31337)))
    other = report_json(_config("t3-blair", "kcontact", seed=1),
                        run_suite(_config("t3-blair", "kcontact", seed=1)))
    assert other != base


def test_cone_identities_on_every_catalog_base():
    """Every cone-chart identity passes on all four entries, 200 samples."""
    for manifold in catalog.keys():
        reports = run_suite(_config(manifold, "cone-identities", samples=200))
        assert all_pass(reports), manifold


def test_integrate_level_set_values():
    vol = integrate_level_set("t3-blair", 1.0, "one")
    assert vol == pytest.approx(np.pi**3, rel=1e-9)
    assert integrate_level_set("t3-blair", 2.0, "one") == pytest.approx(
        8 * np.pi**3, rel=1e-9)
    with pytest.raises(SuiteUsageError):
        integrate_level_set("t3-blair", 1.0, "no-such-integrand")


def test_cli_list_and_exit_codes(tmp_path, capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for suite in SUITES:
        assert suite in out

    # passing suite -> 0, with a report file
    path = tmp_path / "report.json"
    code = cli_main(["verify", "sasaki", "--manifold", "s3-round",
                     "--samples", "10", "--report", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"config", "engine_version", "reports"}
    for rep in payload["reports"]:
        assert set(rep) == REPORT_KEYS

    # expected failure -> 1
    assert cli_main(["verify", "sasaki", "--manifold", "t3-blair",
                     "--samples", "10"]) == 1
    # usage errors -> 2
    assert cli_main(["verify", "sasaki", "--manifold", "bogus"]) == 2
    assert cli_main(["verify", "bogus-suite", "--manifold", "s3-round"]) == 2
    assert cli_main(["verify", "hypersasaki", "--manifold", "t3-blair"]) == 2
    assert cli_main(["integrate", "bogus", "--manifold", "t3-blair",
                     "--radius", "1.0"]) == 2
    # bad sample counts, jet orders, grids, radii and config files too
    for suite, flags in (("kcontact", ["--samples", "0"]),
                         ("kcontact", ["--samples", "-3"]),
                         ("kcontact", ["--seed", "-1"]),
                         ("kcontact", ["--seed", "18446744073709551616"]),
                         ("cone-identities", ["--jet-order", "-1"]),
                         ("cone-identities", ["--jet-order", "1"]),
                         ("weitzenboeck", ["--jet-order", "3"]),
                         ("integration", ["--grid", "0"]),
                         ("weitzenboeck", ["--radius", "0"]),
                         ("weitzenboeck", ["--radius", "50"])):
        assert cli_main(["verify", suite, "--manifold", "t3-blair", *flags]) == 2
    assert cli_main(["integrate", "one", "--manifold", "t3-blair",
                     "--radius", "1.0", "--grid", "0"]) == 2
    # a grid only reaches the integration suite, and a jet order only the
    # suites that read it
    for suite in SUITES:
        if suite != "integration":
            assert cli_main(["verify", suite, "--manifold", "t3-blair",
                             "--grid", "4"]) == 2, suite
    jet_order = ["--manifold", "s3-round", "--jet-order", "4", "--samples", "3"]
    assert cli_main(["verify", "kcontact", *jet_order]) == 2
    assert cli_main(["verify", "cone-identities", *jet_order]) == 0
    order_config = tmp_path / "order.json"
    order_config.write_text(json.dumps({"jet_order": 4, "samples": 3}))
    assert cli_main(["verify", "kcontact", "--manifold", "s3-round",
                     "--config", str(order_config)]) == 2
    # so are radii beyond those a suite reads, unless they are the default,
    # and a tolerance for an identity the suite does not emit
    small = ["--manifold", "s3-round", "--samples", "3"]
    assert cli_main(["verify", "kcontact", *small, "--radius", "3.0"]) == 2
    assert cli_main(["verify", "weitzenboeck", *small, "--radius", "1",
                     "--radius", "2", "--radius", "3"]) == 2
    # weitzenboeck compares passes at two radii, which must differ: at equal
    # radii its radial identities would pass with residual 0 on any code
    assert cli_main(["verify", "weitzenboeck", *small, "--radius", "1"]) == 2
    assert cli_main(["verify", "weitzenboeck", *small, "--radius", "2",
                     "--radius", "2"]) == 2
    assert cli_main(["verify", "kcontact", *small, "--radius", "1",
                     "--radius", "2"]) == 0
    assert cli_main(["verify", "kcontact", *small,
                     "--tol", "no-such-identity=1"]) == 2
    # a report path that cannot be written is one line on stderr, no traceback
    capsys.readouterr()
    for unwritable in (tmp_path / "missing" / "report.json", tmp_path):
        assert cli_main(["verify", "kcontact", *small,
                         "--report", str(unwritable)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    # every residual is >= 0, so a negative tolerance could only fail
    assert cli_main(["verify", "kcontact", *small,
                     "--tol", "killing-field:i=-1"]) == 2
    tol_config = tmp_path / "tol.json"
    tol_config.write_text(json.dumps({"tolerances": {"no-such-identity": 1}}))
    assert cli_main(["verify", "kcontact", *small,
                     "--config", str(tol_config)]) == 2
    # config files that are not an object, or hold a field of the wrong type,
    # are usage errors too, never a traceback or a silent coercion
    bad_contents = ([1, 2], {"samples": "many"}, {"samples": 2.7},
                    {"samples": True}, {"radii": "12"}, {"jet_order": 2.5},
                    {"tolerances": {"killing-field": "abc"}},
                    {"tolerances": {"killing-field": None}},
                    {"grid": 4}, {"manifold": ["t3-blair"]},
                    {"sample": 3}, {"samples": 2, "suite": "kcontact"})
    for k, content in enumerate(bad_contents):
        bad_config = tmp_path / f"bad{k}.json"
        bad_config.write_text(json.dumps(content))
        for suite in ("kcontact", "cone-identities"):
            assert cli_main(["verify", suite, "--manifold", "t3-blair", "--samples",
                             "2", "--config", str(bad_config)]) == 2, content
    capsys.readouterr()
    typo_config = tmp_path / "typo.json"
    typo_config.write_text(json.dumps({"sample": 3}))
    assert cli_main(["verify", "kcontact", "--manifold", "s3-round",
                     "--config", str(typo_config)]) == 2
    assert "'sample'" in capsys.readouterr().err
    for k, grid in enumerate((2.5, "8", [8, True, 8])):
        grid_config = tmp_path / f"grid{k}.json"
        grid_config.write_text(json.dumps({"grid": grid}))
        assert cli_main(["verify", "integration", "--manifold", "t3-blair",
                         "--config", str(grid_config)]) == 2, grid
    assert cli_main(["verify", "kcontact", "--manifold", "t3-blair",
                     "--config", str(tmp_path / "missing.json")]) == 2
    # the manifold may come from the config file alone, but from somewhere
    manifold_config = tmp_path / "manifold.json"
    manifold_config.write_text(json.dumps({"manifold": "s3-round", "samples": 3}))
    assert cli_main(["verify", "kcontact", "--config", str(manifold_config)]) == 0
    assert cli_main(["verify", "kcontact", "--samples", "3"]) == 2
    no_manifold = tmp_path / "no-manifold.json"
    no_manifold.write_text(json.dumps({"samples": 3}))
    assert cli_main(["verify", "kcontact", "--config", str(no_manifold)]) == 2


def test_an_empty_radius_list_is_a_usage_error(tmp_path):
    """An empty list is refused, never replaced by the default radii; null
    in a config file leaves the default, which the report records."""
    with pytest.raises(SuiteUsageError):
        run_suite(_config("t3-blair", "integration", grid=2, radii=()))
    for radii, code in (([], 2), (None, 0)):
        config = tmp_path / "radii.json"
        config.write_text(json.dumps({"radii": radii}))
        report = tmp_path / "report.json"
        assert cli_main(["verify", "integration", "--manifold", "t3-blair",
                         "--grid", "2", "--config", str(config),
                         "--report", str(report)]) == code, radii
    assert json.loads(report.read_text())["config"]["radii"] == [1.0, 2.0]


def test_cli_integrate(capsys):
    code = cli_main(["integrate", "one", "--manifold", "t3-blair",
                     "--radius", "1.0", "--grid", "16"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(np.pi**3, rel=1e-9)


def test_cli_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "samples": 5,
                               "tolerances": {"killing-field": 10.0,
                                              "ricci-reeb-criterion": 10.0}}))
    # config alone: huge tolerances make the blair kcontact suite pass
    assert cli_main(["verify", "kcontact", "--manifold", "t3-blair",
                     "--config", str(cfg)]) == 0
    # flag overrides the config tolerance back to strict -> failure again
    assert cli_main(["verify", "kcontact", "--manifold", "t3-blair",
                     "--config", str(cfg), "--tol", "killing-field=1e-7",
                     "--tol", "ricci-reeb-criterion=1e-7"]) == 1


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "conelab.cli", "verify", "kcontact",
         "--manifold", "s3-round", "--samples", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "killing-field" in proc.stdout


def test_benchmark_tracer_installs():
    """Every name the benchmark's tracer pins still exists, and suites run
    traced to the very reports they give untraced, with no error verdict; the
    tracer patches modules in place, hence the subprocess."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import conelab, tracing\n"
        "from conelab.report import SuiteConfig, report_json\n"
        "configs = [SuiteConfig('s3-round', suite, samples=2)\n"
        "           for suite in ('kcontact', 'cone-identities')]\n"
        "def run():\n"
        "    out = []\n"
        "    for config in configs:\n"
        "        reports = conelab.suites.run_suite(config)\n"
        "        assert all(r.verdict != 'error' for r in reports), reports\n"
        "        out.append(report_json(config, reports))\n"
        "    return out\n"
        "plain = run()\n"
        "tracer = tracing.install(conelab)\n"
        "assert run() == plain\n"
        "assert tracer.totals['jets.mul.calls'] > 0\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("suite, manifold, orders", [
    ("cone-identities", "s3-round", (2, 3, 4)),
    ("weitzenboeck", "t3-blair", (4, 5, 6)),
])
def test_reports_do_not_depend_on_jet_order(suite, manifold, orders):
    """Exact jets: once the seeded order covers every derivative a suite
    takes, a higher order yields the very same reports."""
    reports = [run_suite(_config(manifold, suite, samples=3, jet_order=k))
               for k in orders]
    assert reports[0] == reports[1] == reports[2]
    # the least of these orders is the suite's minimum: one less is a usage
    # error, not a wall of `error` verdicts
    with pytest.raises(SuiteUsageError):
        run_suite(_config(manifold, suite, samples=3, jet_order=orders[0] - 1))


def test_jet_order_above_the_ceiling_is_a_usage_error():
    """The product tables grow as C(order + 2 dim, 2 dim), so an order past
    the ceiling is refused before any jet table is built; the ceiling runs."""
    tables = jets._table.cache_info().currsize
    for suite, order in (("cone-identities", 99),
                         ("weitzenboeck", _MAX_JET_ORDER + 1)):
        assert cli_main(["verify", suite, "--manifold", "s3-round",
                         "--jet-order", str(order), "--samples", "2"]) == 2
    assert jets._table.cache_info().currsize == tables
    assert cli_main(["verify", "cone-identities", "--manifold", "s3-round",
                     "--jet-order", str(_MAX_JET_ORDER), "--samples", "2"]) == 0


def test_product_plans_are_keyed_by_content_not_by_run():
    """A product plan depends only on its factors' row patterns, which are
    structural at this batch: a second seed draws other points and adds no
    plan, and neither does a repeated run.  (A row that is roundoff of a
    structural zero can read exactly zero at every point of a tiny batch, so
    at 3 samples another seed can add plans; that is the scan's exactness.)"""
    def plans():
        return sum(len(jets._table(dim, k)._plans) for dim in (3, 4) for k in range(7))

    counts = []
    for seed in (1, 2, 1):
        reports = run_suite(_config("t3-blair", "weitzenboeck", seed=seed))
        assert all(r.verdict == "pass" for r in reports)
        counts.append(plans())
    assert counts[0] > 0 and counts[0] == counts[1] == counts[2]


def test_integration_makes_one_pass_per_family_per_run(monkeypatch):
    """Each run makes one pipeline pass per integrand family and keeps none
    of it: a second identical run makes its own pass and the same report."""
    modes = []
    real = weitzenboeck.weitzenboeck_data

    def counting(*args, **kwargs):
        modes.append(kwargs["mode"])
        return real(*args, **kwargs)

    monkeypatch.setattr(weitzenboeck, "weitzenboeck_data", counting)
    for manifold, mode in (("t3-blair", "divergence"), ("s3-round", "full")):
        modes.clear()
        config = _config(manifold, "integration", grid=2)
        first, second = (report_json(config, run_suite(config)) for _ in range(2))
        assert modes == [mode] * 2
        assert first == second


def test_integrate_path_matches_integration_suite():
    for manifold in ("t3-blair", "s3-round"):
        reports = run_suite(_config(manifold, "integration", grid=2, radii=(1.5,)))
        integrals = [r for r in reports if r.identity.startswith("integral-")]
        assert integrals
        for rep in integrals:
            name = rep.identity.removeprefix("integral-")
            assert abs(integrate_level_set(manifold, 1.5, name, grid=2)) \
                == rep.max_residual, (manifold, name)


def test_non_finite_residual_is_an_error_with_valid_json():
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    config = _config("t3-blair", "kcontact")
    for bad in (np.nan, np.inf):
        rep = make_report("x", "anchor", [1.0, bad], 1e-3, [[0.0], [1.0]])
        assert rep.verdict == "error"
        assert rep.max_residual is None and rep.rms_residual is None
        assert rep.witness == (1.0,)
        payload = json.loads(report_json(config, [rep]), parse_constant=reject)
        assert payload["reports"][0]["max_residual"] is None


def test_kernel_exception_errors_only_its_row(monkeypatch, capsys):
    config = _config("t3-blair", "cone-identities", samples=5)
    normal = run_suite(config)

    def broken(*args, **kwargs):
        raise RuntimeError("connection kernel unavailable")

    monkeypatch.setattr(cone, "connection_relation_residuals", broken)
    reports = run_suite(config)
    assert [r.identity for r in reports] == [r.identity for r in normal]
    errored = [r.identity for r in reports if r.verdict == "error"]
    assert errored == ["cone-radial-geodesic", "cone-radial-lift",
                       "cone-radial-transport", "cone-mixed-symmetry",
                       "cone-horizontal-connection"]
    assert {r.message for r in reports if r.verdict == "error"} == {
        "RuntimeError: connection kernel unavailable"}
    assert all("message" not in r.to_dict() for r in reports)

    capsys.readouterr()
    assert cli_main(["verify", "cone-identities", "--manifold", "t3-blair",
                     "--samples", "5"]) == 1
    assert "RuntimeError" in capsys.readouterr().err


# -- the identity set of every valid (suite, manifold) pair ------------------------

_CONE = ["cone-block-metric", "cone-radial-geodesic", "cone-radial-lift",
         "cone-radial-transport", "cone-mixed-symmetry",
         "cone-horizontal-connection", "cone-oneform-radial",
         "cone-oneform-directional", "cone-twoform-radial",
         "cone-twoform-directional", "cone-dr-radial", "cone-dr-hessian",
         "cone-curvature-radial", "cone-curvature-horizontal",
         "cone-codifferential-weights", "cone-laplacian-weights",
         "cone-laplacian-radial-quadratic"]
_CONTACT = ["contact-unit-length", "contact-metric-axiom",
            "contact-reeb-conditions", "cone-symplectic-closed",
            "cone-symplectic-norm", "cone-complex-square", "cone-complex-isometry"]
_KCONTACT = ["killing-field", "ricci-reeb-criterion"]
_SASAKI = ["sasaki-defect", "parallel-omega", "sasaki-parallel-equivalence"]
_WEITZENBOECK = ["omega-radial-parallel", "star-scalar-consistency",
                 "phi-norm-identity", "phi-invariance", "ricci-split-invariance",
                 "weitzenboeck-nonnegativity", "star-scalar-radial-profile",
                 "radial-profile-positive", "pairing-form-profile",
                 "omega-derivative-blocks", "weitzenboeck-radial-scaling"]
_DIVERGENCE = ["volume", "integral-divergence-pairing",
               "integral-divergence-ricci"]


def _per_structure(identities):
    """s3-round's rows, once per catalogued structure i, j, k, each tagged."""
    return [f"{identity}:{tag}" for tag in "ijk" for identity in identities]


IDENTITIES = {
    ("cone-identities", "t3-blair"): _CONE,
    ("cone-identities", "t3-unnormalized"): _CONE,
    ("cone-identities", "s3-round"): _CONE,
    ("cone-identities", "s5-round"): _CONE,
    ("contact-axioms", "t3-blair"): _CONTACT,
    ("contact-axioms", "t3-unnormalized"): _CONTACT,
    ("contact-axioms", "s3-round"): _per_structure(_CONTACT),
    ("contact-axioms", "s5-round"): _CONTACT,
    ("kcontact", "t3-blair"): _KCONTACT,
    ("kcontact", "t3-unnormalized"): _KCONTACT,
    ("kcontact", "s3-round"): _per_structure(_KCONTACT),
    ("kcontact", "s5-round"): _KCONTACT,
    ("sasaki", "t3-blair"): _SASAKI,
    ("sasaki", "t3-unnormalized"): _SASAKI,
    ("sasaki", "s3-round"): _per_structure(_SASAKI),
    ("sasaki", "s5-round"): _SASAKI,
    ("weitzenboeck", "t3-blair"): _WEITZENBOECK,
    ("weitzenboeck", "t3-unnormalized"): _WEITZENBOECK,
    ("weitzenboeck", "s3-round"): _WEITZENBOECK,
    ("weitzenboeck", "s5-round"): _WEITZENBOECK,
    ("integration", "t3-blair"): _DIVERGENCE,
    ("integration", "t3-unnormalized"): _DIVERGENCE,
    ("integration", "s3-round"): ["volume", "integral-f-term",
                                  "integral-solved-curvature",
                                  "integral-rough-laplacian", "integral-phi-norm"],
    ("integration", "s5-round"): ["volume"],
    ("hypersasaki", "s3-round"): ["pair-anticommutator", "pair-cauchy-schwarz",
                                  "pair-commutator-square", "third-structure",
                                  "third-structure-parallel",
                                  "quaternion-relations", "s2-family-unit",
                                  "s2-family-sasaki"],
}


def test_identity_table_covers_every_valid_pair():
    """The pairs below are all the valid ones: hypersasaki needs two Sasakian
    structures, which only s3-round catalogues."""
    pairs = {(suite, manifold) for suite in SUITES for manifold in catalog.keys()}
    assert set(IDENTITIES) <= pairs
    for suite, manifold in sorted(pairs - set(IDENTITIES)):
        assert suite == "hypersasaki", manifold
        with pytest.raises(SuiteUsageError):
            run_suite(_config(manifold, suite, samples=2))


@pytest.mark.parametrize("suite, manifold", list(IDENTITIES))
def test_identity_list_of_every_valid_pair(suite, manifold):
    """A suite always reports the same identities, in the same order, here
    run at its smallest sizes."""
    sizes = {"weitzenboeck": {"jet_order": 4}, "integration": {"grid": 2}}
    reports = run_suite(_config(manifold, suite, samples=2, **sizes.get(suite, {})))
    assert [r.identity for r in reports] == IDENTITIES[suite, manifold]


@pytest.mark.xfail(strict=True, reason=(
    "chart-wall roundoff: integral-solved-curvature reads 1.18e-8 against its "
    "1e-8 tolerance at this radius (ROADMAP item 8)"))
def test_integration_passes_at_a_small_radius_on_s3():
    config = _config("s3-round", "integration", radii=(0.5802173633203054,))
    assert all_pass(run_suite(config))
