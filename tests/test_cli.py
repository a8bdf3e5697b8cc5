import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qorbits
from qorbits.cli import (
    COMMAND_OPTIONS,
    COMMANDS,
    OPTIONS,
    build_parser,
    main,
    parse_eta,
    parse_grid,
)
from qorbits.entanglement import CASE_FORMULA_STATUS
from qorbits.families import family_for_case
from qorbits.fubini_study import (
    analytic_metric_c7,
    analytic_metric_case,
    numeric_fs_metric,
    pushforwards_c7,
)
from qorbits.model import InitialCoefficients, classify
from qorbits.verify import DEFAULT_CASE_ETAS, SUITE_OPTIONS, SUITES, _table_samples, suite_metric


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_spectrum_example(capsys):
    code, rep = run_json(capsys, "spectrum", "--b", "0", "--c", "1,0,0")
    assert code == 0
    assert rep["results"]["analytic_energies"] == [1, -1, 1, -1]
    assert rep["results"]["analytic_sorted"] == [-1, -1, 1, 1]
    assert rep["version"]
    assert rep["config"]["command"] == "spectrum"


def test_spectrum_field_only(capsys):
    code, rep = run_json(capsys, "spectrum", "--b", "1", "--c", "0,0,0")
    assert code == 0
    assert rep["results"]["analytic_energies"] == [2, -2, 0, 0]
    assert rep["results"]["numeric_energies_ascending"] == [-2, 0, 0, 2]


def test_spectrum_with_beta_adds_residuals(capsys):
    code, rep = run_json(
        capsys, "spectrum", "--b", "0.5", "--c", "0.8,0.2,0.3", "--beta", "1e-3"
    )
    assert code == 0
    res = rep["results"]["perturbation_residuals"]
    assert max(res) < 1e-5  # O(beta^2)


def test_spectrum_does_not_depend_on_the_sign_of_beta(capsys):
    # H(-beta) = U H(beta) U^dagger with U = sigma_z x sigma_z
    reports = [
        run_json(capsys, "spectrum", "--b", "0.5", "--c", "0.8,0.2,0.3", "--beta", beta)
        for beta in ("1e-3", "-1e-3")
    ]
    assert [code for code, _ in reports] == [0, 0]
    plus, minus = (rep["results"] for _, rep in reports)
    for key in ("perturbed_numeric_energies_ascending", "perturbation_residuals"):
        assert plus[key] == minus[key], key


def test_classify_command(capsys):
    code, rep = run_json(capsys, "classify", "--eta", "0.5,0.5,0.5,0.5")
    assert code == 0
    assert rep["results"]["case"] == "C7"
    assert rep["results"]["chart"] == ["omega", "phi", "c3", "c_plus"]


def test_classify_polar_input(capsys):
    code, rep = run_json(
        capsys, "classify", "--eta", "0.70710678118@0,0,0,0.70710678118@1.2"
    )
    assert code == 0
    assert rep["results"]["case"] == "C4"


def test_evolve_command(capsys):
    code, rep = run_json(
        capsys,
        "evolve", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4",
    )
    assert code == 0
    assert rep["results"]["norm"] == pytest.approx(1.0, abs=1e-12)


def test_metric_command_c7(capsys):
    code, rep = run_json(
        capsys,
        "metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4",
    )
    assert code == 0
    assert rep["results"]["max_deviation"] < 1e-6
    assert rep["checks"][0]["passed"] is True


def test_curvature_command_uniform(capsys):
    code, rep = run_json(
        capsys,
        "curvature", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4",
    )
    assert code == 0
    assert rep["results"]["closed_form_field_scalar"] == pytest.approx(14.0, rel=1e-3)
    assert rep["results"]["scalar_curvature"] == pytest.approx(14.0, rel=1e-13)
    assert rep["results"]["note"] == "exact: Gauss equation"


@pytest.mark.parametrize("eta, point", [("0,0,0.6,0.8", "0.3"), ("1,0,0,0", "0.4")], ids=["C1", "C2"])
def test_curvature_command_dim1_takes_gauss(capsys, eta, point):
    code, rep = run_json(capsys, "curvature", "--eta", eta, "--point", point)
    assert code == 0
    res = rep["results"]
    assert res["note"] == "exact: Gauss equation"
    assert res["scalar_curvature"] == 0.0 and res["ricci"] == [[0.0]]
    assert res["metric_condition"] == 1.0


def test_curvature_reports_the_step_it_used(capsys):
    # the family curvature takes the exact Gauss route and no step; the
    # uniform-C7 closed-form field check takes the default Richardson step
    code, rep = run_json(capsys, "curvature", "--eta", "0.8,0,0.6,0", "--point", "0.3,0.4")
    assert code == 0
    res = rep["results"]
    assert res["note"] == "exact: Gauss equation" and res["h_curv"] == 0.0
    assert "closed_form_field_h_curv" not in res
    code, rep = run_json(capsys, "curvature", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4")
    assert code == 0
    res = rep["results"]
    assert res["h_curv"] == 0.0
    assert res["closed_form_field_h_curv"] == 1e-3
    assert "closed_form_field_scalar" in res


# a point of metric condition 4.1e9, where the Gauss route gives -197.47
# for the exact scalar 2 + 6/p = 16.117 (docs/discrepancies.md)
ILL_CONDITIONED_ARGV = [
    "curvature", "--eta",
    "0.4692696348460694-0.26973976629242125j,-0.3309142009521759-0.15015041417483788j,"
    "-0.5311795442206414+0.3758997697483581j,0.17857321036653814-0.3458849179529598j",
    "--point", "0.31159880634281567,-3.0589284460325614,1.1255269336164102,1.2836015643069931",
]


def test_curvature_warns_above_the_exact_condition_limit(capsys):
    code, rep = run_json(capsys, *ILL_CONDITIONED_ARGV)
    assert code == 0
    res = rep["results"]
    assert res["metric_condition"] > 1e9
    assert "exact" not in res["note"] and "1e+06" in res["note"]
    (warning,) = rep["warnings"]
    assert "metric condition 4.14e+09" in warning
    # a well-conditioned report is as before: exact, with no warnings key
    code, rep = run_json(capsys, *VALID_ARGV["curvature"])
    assert code == 0
    assert rep["results"]["metric_condition"] < 1e6
    assert rep["results"]["note"] == "exact: Gauss equation" and "warnings" not in rep


def _help_text(capsys, command, monkeypatch):
    """The --help text of a command, one line, unwrapped at hyphens too."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    return re.sub(r"-\s+", "-", " ".join(capsys.readouterr().out.split()))


def test_verify_help_names_the_one_check_the_metric_step_reaches(capsys, monkeypatch):
    # verify runs every metric oracle at the default step its tolerances
    # were set at, and takes no step option
    text = _help_text(capsys, "verify", monkeypatch)
    assert "--h-metric" not in text
    # the metric command's step is the whole metric's, as its help says
    text = _help_text(capsys, "metric", monkeypatch)
    assert "--h-metric H_METRIC step of the finite-difference metric --out" in text


@pytest.mark.parametrize("gamma", ["1", "0.6"])
def test_verify_compares_gauss_with_stencil(capsys, gamma):
    code, rep = run_json(capsys, "verify", "--suite", "curvature", "--gamma", gamma)
    assert code == 0
    (chk,) = [c for c in rep["checks"] if c["name"] == "curvature-gauss-vs-stencil"]
    assert chk["passed"] and not chk["soft"] and chk["deviation"] < 1e-6


def test_module_entry_point():
    # python -m qorbits, with the package on PYTHONPATH and not installed
    src = str(Path(qorbits.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "qorbits", "verify", "--suite", "curvature", "--seed", "0"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["n_hard_failed"] == 0


def test_perturb_command(capsys):
    code, rep = run_json(
        capsys,
        "perturb", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.8,0.3,0.25,0.45",
        "--beta", "1e-4",
    )
    assert code == 0
    dev = np.array(rep["results"]["componentwise_abs_deviation"])
    assert dev.shape == (4, 4)


def test_concurrence_point(capsys):
    code, rep = run_json(
        capsys, "concurrence", "--eta", "1,0,0,0", "--point", "0"
    )
    assert code == 0
    assert rep["results"]["concurrence"] == pytest.approx(1.0)


def test_concurrence_csv_grid(capsys):
    code, out = run_cli(
        capsys,
        "concurrence", "--eta", "1,0,0,0",
        "--grid", "phi=0:6.2832:101", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi,concurrence"
    assert len(lines) == 102
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    best = max(rows, key=lambda t: t[1])
    assert best[1] == pytest.approx(1.0, abs=1e-10)
    assert best[0] == pytest.approx(0.0, abs=1e-12)


def test_verify_periodicity_suite(capsys):
    code, rep = run_json(
        capsys, "verify", "--suite", "periodicity", "--eta", "0.5,0.5,0.5,0.5"
    )
    assert code == 0
    assert rep["results"]["n_hard_failed"] == 0
    assert all(c["passed"] for c in rep["checks"])
    assert len(rep["checks"]) == 5  # the five C7 shifts
    assert "warnings" not in rep  # a normalized --eta is taken as given


def test_verify_eta_warns_when_normalized(capsys):
    # as every other command that takes --eta
    code, rep = run_json(
        capsys, "verify", "--suite", "periodicity", "--eta", "0.6,0.3+0.4j,0.5,-0.2j"
    )
    assert code == 0
    assert rep["warnings"] == ["eta normalized (input norm was 0.948683298051)"]


def test_verify_all_soft_flags_only(capsys):
    code, rep = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert rep["results"]["n_hard_failed"] == 0
    flagged = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert all(
        c["soft"] for c in rep["checks"] if not c["passed"]
    ), flagged
    # the known catalog discrepancies surface as soft flags; at chi = 0 the
    # soft-flagged table rows are exactly the C5 rows at phi in {0, pi} (the
    # suite's C5 has j = 4) that acceptance criterion 10b pins, and they fail
    tables = [c for c in rep["checks"] if c["name"].startswith("table-")]
    refuted = {"table-C5-phi=0, j even", "table-C5-phi=pi, j even"}
    assert {c["name"] for c in tables if c["soft"]} == refuted
    assert {c["name"] for c in tables if not c["passed"]} == refuted
    assert any("perturbed-metric-omega-phi" in n for n in flagged)
    assert any("perturbed-metric-c3-c_plus" in n for n in flagged)


@pytest.mark.parametrize("options", [[], ["--gamma", "0.7"]])
def test_metric_oracle_equals_the_per_point_loop(options):
    # the batched metric-c7-oracle-agreement deviation against the one
    # family and one stencil per point it replaced, bitwise
    args = build_parser().parse_args(["verify", "--suite", "metric", *options])
    for seed in range(10):
        checks = suite_metric(np.random.default_rng(seed), gamma=args.gamma)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            eta = InitialCoefficients.normalized(*v)
            xi = np.array(
                [rng.uniform(-2, 2), rng.uniform(-1.2, 1.2),
                 rng.uniform(-2, 2), rng.uniform(-2, 2)]
            )
            f = family_for_case(classify(eta), eta)
            gn = numeric_fs_metric(f, xi, gamma=args.gamma).entries
            ga = analytic_metric_c7(eta, xi, args.gamma).entries
            worst = max(worst, float(np.max(np.abs(gn - ga))))
        assert checks[0]["name"] == "metric-c7-oracle-agreement"
        assert checks[0]["deviation"] == worst, seed


def _metric_suite_per_point_draws(rng, gamma):
    """The metric suite's draws, in stream order, with the per-point closed
    forms the batched suite replaced: returns the two diagonalization
    deviations and leaves rng where the suite leaves it."""
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        InitialCoefficients.normalized(*v)
        for lo, hi in ((-2, 2), (-1.2, 1.2), (-2, 2), (-2, 2)):
            rng.uniform(lo, hi)
    worst_off = worst_diag = 0.0
    n_done = 0
    while n_done < 20:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        eta = InitialCoefficients.normalized(*v)
        omega = rng.uniform(-2, 2)
        k = (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).real
        if abs(k) < 0.05:
            continue
        n_done += 1
        xi = np.array([omega, 0.3, 0.2, 0.4])
        gp = pushforwards_c7(eta.as_array(), xi, gamma)
        gd = analytic_metric_case(family_for_case(classify(eta), eta), xi, gamma).entries
        worst_off = max(worst_off, float(np.max(np.abs(gp - np.diag(np.diag(gp))))))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(gp) - np.diag(gd)))))
    # the gauge-invariance points, one per case family
    for coeffs in DEFAULT_CASE_ETAS.values():
        rng.uniform(0.2, 1.0, size=classify(InitialCoefficients.normalized(*coeffs)).dimension)
    return worst_off, worst_diag


@pytest.mark.parametrize("options", [[], ["--gamma", "0.7"]])
def test_metric_suite_draws_as_the_per_point_loop(options):
    args = build_parser().parse_args(["verify", "--suite", "metric", *options])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        checks = suite_metric(rng, gamma=args.gamma)
        ref = np.random.default_rng(seed)
        worst_off, worst_diag = _metric_suite_per_point_draws(ref, args.gamma)
        assert rng.bit_generator.state == ref.bit_generator.state, seed
        devs = {c["name"]: c["deviation"] for c in checks}
        assert devs["diagonalization-offdiagonal"] == pytest.approx(worst_off, abs=1e-14)
        assert devs["diagonalization-diagonal"] == pytest.approx(worst_diag, abs=1e-14)


def test_verify_all_seed_68_passes(tmp_path):
    # this seed draws a perturbation-audit point 0.0125 from a resonance
    assert main(["verify", "--suite", "all", "--seed", "68", "--out", str(tmp_path / "r.json")]) == 0


def test_deterministic_output(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "metric", "--seed", "7", "--out", str(p1)]) == 0
    assert main(["verify", "--suite", "metric", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_out_rewrites_a_longer_report_without_stale_bytes(tmp_path):
    # --out rewrites an existing file in place, then cuts it to the report
    out, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
    long_size = out.stat().st_size
    assert main(["verify", "--suite", "curvature", "--seed", "0", "--out", str(out)]) == 0
    assert main(["verify", "--suite", "curvature", "--seed", "0", "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_size < long_size
    json.loads(out.read_text())


def test_out_creates_a_missing_file_and_writes_to_dev_null(tmp_path, capsys):
    out = tmp_path / "new.json"
    assert main(["verify", "--suite", "curvature", "--out", str(out)]) == 0
    assert main(["verify", "--suite", "curvature"]) == 0
    assert out.read_text() == capsys.readouterr().out
    if os.path.exists(os.devnull):
        assert main(["verify", "--suite", "curvature", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""


def test_invalid_config_exit_code(capsys):
    assert main(["metric", "--eta", "1,0,0", "--point", "0"]) == 2
    assert main(["metric", "--point", "0"]) == 2  # --eta missing
    assert main(["evolve", "--eta", "1,0,0,0", "--point", "0,1"]) == 2
    assert main(["classify", "--eta", "0,0,1,0"]) == 2  # stationary


def test_classify_without_eta_is_bad_config(capsys):
    assert main(["classify"]) == 2
    assert "--eta is required" in capsys.readouterr().err


def test_concurrence_csv_needs_grid(capsys):
    argv = ["concurrence", "--eta", "1,0,0,0", "--point", "0", "--format", "csv"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--format csv needs --grid" in err


def test_concurrence_point_not_read_with_grid(capsys):
    argv = ["concurrence", "--eta", "1,0,0,0", "--grid", "phi=-1:1:3", "--point", "0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--point is not read with --grid" in err


def test_perturb_reports_the_beta_it_evaluates(capsys):
    code, rep = run_json(
        capsys, "perturb", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.8,0.3,0.25,0.45",
    )
    assert code == 0
    assert rep["config"]["beta"] == rep["results"]["beta"] == 1e-4


# a quick command line that exits 0, per command
VALID_ARGV = {
    "spectrum": ["spectrum"],
    "classify": ["classify", "--eta", "0.5,0.5,0.5,0.5"],
    "evolve": ["evolve", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"],
    "metric": ["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"],
    "curvature": ["curvature", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"],
    "perturb": ["perturb", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.8,0.3,0.25,0.45"],
    "concurrence": ["concurrence", "--eta", "1,0,0,0", "--point", "0"],
    "verify": ["verify", "--suite", "periodicity", "--eta", "0.5,0.5,0.5,0.5"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_takes_only_the_options_it_reads(command, tmp_path, capsys):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {s for a in sub.choices[command]._actions for s in a.option_strings}
    declared = set(COMMAND_OPTIONS[command]) | {"--out"}
    assert accepted - {"-h", "--help"} == declared
    out = tmp_path / "r.json"
    assert main(VALID_ARGV[command] + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == {o[2:].replace("-", "_") for o in COMMAND_OPTIONS[command]} | {"command"}
    # an option the command does not read is refused, also where it is a
    # prefix of one it does read (--b of --beta)
    for flag in sorted(set(OPTIONS) - declared):
        assert main(VALID_ARGV[command] + [flag, "1"]) == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--h-metric", "1e-4"),
    ("curvature", "--h-curv", "1e-3"),
    *[(command, "--case", "C7") for command in ("evolve", "metric", "curvature", "concurrence")],
])
def test_options_that_only_tuned_or_asserted_a_check_are_refused(command, flag, value, capsys):
    # the verify oracle's step, the step of a curvature that has none, and
    # a case label every report already prints
    assert main(VALID_ARGV[command] + [flag, value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eta_normalization_warning(capsys):
    code, rep = run_json(capsys, "classify", "--eta", "1,1,0,0")
    assert code == 0
    assert any("normalized" in w for w in rep.get("warnings", []))


def test_parse_helpers():
    warned = []
    eta = parse_eta("0.5,0.5,0.5,0.5", warned.append)
    assert warned == []
    assert eta.eta12_plus == pytest.approx(0.5)
    grid = parse_grid("phi=0:3.14:11,c=0:1:5")
    assert grid["phi"] == (0.0, 3.14, 11)
    assert grid["c"] == (0.0, 1.0, 5)


def test_evolve_nan_point_is_bad_config(capsys):
    argv = ["evolve", "--eta", "0.5,0.5,0.5,0.5", "--point", "nan,0.3,0.2,0.4"]
    assert main(argv) == 2
    assert "coordinate 0 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perturb", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4",
          "--beta", "inf"], "--beta: needs a finite number"),
        (["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4",
          "--gamma", "nan"], "--gamma: needs a finite number"),
        (["verify", "--suite", "tables", "--chi", "nan"], "--chi: needs a finite number"),
        (["verify", "--suite", "tables", "--chi", "x"], "--chi: needs a finite number"),
        (["perturb", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,nan,0.4"],
         "coordinate 2 is not finite"),
        (["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,inf,0.2,0.4"],
         "coordinate 1 is not finite"),
        (["classify", "--eta", "nan,0.5,0.5,0.5"], "coefficients must be finite"),
    ],
)
def test_non_finite_numbers_are_bad_config(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,,0.2,0.4"],
         "--point coordinate 1 is not a number: ''"),
        (["classify", "--eta", "0.5,x,0.5,0.5"], "--eta coefficient 1 is not a number: 'x'"),
        (["classify", "--eta", "0.5,0.5,0.5,1@y"], "--eta coefficient 3 is not a number: '1@y'"),
        (["spectrum", "--c", "1,0"], "--c needs 3 comma-separated numbers c1,c2,c3, got '1,0'"),
        (["spectrum", "--c", "1,0,z"], "--c coupling 2 is not a number: 'z'"),
    ],
)
def test_unparsable_numbers_name_their_option(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("gamma", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"],
        ["verify", "--suite", "metric"],
        ["verify", "--suite", "perturbation", "--seed", "3"],
    ],
    ids=["metric", "verify-metric", "verify-perturbation"],
)
def test_non_positive_gamma_is_bad_config(argv, gamma, capsys):
    # gamma = 0 made every metric zero: verify's perturbation suite passed
    # its refuted checks at deviation 0 and its metric suite read NaN
    assert main(argv + ["--gamma", gamma]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--gamma: needs a number above 0, got '{gamma}'" in err


@pytest.mark.parametrize(
    "argv, gamma",
    [
        (["verify", "--suite", "perturbation", "--seed", "0"], "1e-200"),
        (["verify", "--suite", "perturbation", "--seed", "0"], "1e160"),
        (["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"], "1e-200"),
        (["curvature", "--eta", "0.5,0.5,0.5,0.5", "--point", "0.7,0.3,0.2,0.4"], "1e200"),
    ],
    ids=["verify-tiny", "verify-huge", "metric-tiny", "curvature-huge"],
)
def test_gamma_whose_square_is_zero_or_infinite_is_bad_config(argv, gamma, capsys):
    # gamma^2 = 0 zeroed every metric (the perturbation suite passed every
    # check); gamma^2 = inf failed 8 hard checks or overflowed the curvature
    assert main(argv + ["--gamma", gamma]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "metric scale gamma must be finite and positive" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["spectrum", "--b", "1", "--c", "-1,0,0"], "--c"),
        (["metric", "--eta", "0.5,0.5,0.5,0.5", "--point", "-0.7,0.3,0.2,0.4"], "--point"),
        (["classify", "--eta", "-0.5,0.5,0.5,0.5"], "--eta"),
        (["verify", "--suite", "tables", "--chi", "-1e-3"], "--chi"),
        (["spectrum", "--b", "-1e-3"], "--b"),
    ],
    ids=["c", "point", "eta", "chi", "b"],
)
def test_negative_values_need_no_equals_sign(argv, option, capsys):
    # argparse takes "-1,0,0" or "-1e-3" for an option unless it is joined
    # to its flag by "="; the CLI joins it, so both forms give one report
    k = argv.index(option)
    joined = argv[:k] + [f"{option}={argv[k + 1]}"] + argv[k + 2:]
    assert run_cli(capsys, *joined) == run_cli(capsys, *argv)
    assert run_cli(capsys, *argv)[0] == 0


# parts that are not name=start:stop:count with numeric endpoints and an
# integer count
MALFORMED_GRIDS = ("phi=0:1:2.7", "phi=0:1", "phi", "phi=a:1:3")


@pytest.mark.parametrize(
    "grid",
    ["ph=0:6.2832:5", "phi=0:nan:3", "phi=0:1:0", "phi=0:1:inf", "phi=0:1:3,phi=0:2:2",
     *MALFORMED_GRIDS],
)
def test_concurrence_bad_grid_is_bad_config(grid, capsys):
    assert main(["concurrence", "--eta", "1,0,0,0", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert "grid" in err
    if grid in MALFORMED_GRIDS:
        assert "phi=start:stop:count" in err
    if "," in grid:
        assert "repeats coordinate 'phi'" in err


def test_concurrence_overflowing_grid_span_is_bad_config(capsys):
    # finite endpoints whose span overflows: exit 2 naming the coordinate,
    # with no RuntimeWarning on the way (it built a NaN axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["concurrence", "--eta", "1,0,0,0", "--grid", "phi=-1e308:1e308:3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "grid span of 'phi' overflows" in err


def _per_row_samples(f, rng):
    """The per-row rng.uniform stream the table samples must reproduce."""
    label = f.case.label
    status = CASE_FORMULA_STATUS[label]
    xs = np.empty((200, f.dim))
    for xi in xs:
        xi[:] = rng.uniform(-3, 3, size=f.dim)
        if "phi" in f.chart and "cos_phi_pos" in status or label == "C5":
            xi[f.chart.index("phi")] = rng.uniform(-1.4, 1.4)
        if label == "C5":
            xi[f.chart.index("omega")] = 0.0
    return xs


@pytest.mark.parametrize("seed", [0, 1, 37])
def test_table_samples_match_per_row_uniform(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for coeffs in DEFAULT_CASE_ETAS.values():
        eta = InitialCoefficients.normalized(*coeffs)
        f = family_for_case(classify(eta), eta)
        got = _table_samples(f, fast)
        assert got.tobytes() == _per_row_samples(f, slow).tobytes(), f.case.label
    # and the generator is left at the same position
    assert fast.random() == slow.random()


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = str(tmp_path / "r.json")
    base = ["verify", "--suite", "curvature", "--out", out]
    assert main(base + ["--gamma", "0.7"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"]["gamma"] == 0.7
    assert main(base) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"]["gamma"] == 1.0
    assert main(["verify", "--no-such-flag"]) == 2
    assert main(["verify", "--seed", "x"]) == 2
    capsys.readouterr()
    assert main(base) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["config"]["gamma"] == 1.0 and rep["config"]["seed"] == 1234


# a non-default value of every option a verify suite reads
SUITE_VALUES = {"--eta": "0.5,0.5,0.5,0.5", "--gamma": "0.7", "--chi": "0.3"}


@pytest.mark.parametrize("suite", list(SUITES))
def test_single_suite_refuses_options_it_does_not_read(suite, tmp_path, capsys):
    assert set(SUITE_OPTIONS) == set(SUITES)
    assert set(SUITE_VALUES) == {flag for opts in SUITE_OPTIONS.values() for flag in opts}
    out = str(tmp_path / "r.json")
    base = ["verify", "--suite", suite, "--seed", "3", "--out", out]
    assert main(base) == 0
    plain = (tmp_path / "r.json").read_bytes()
    for flag, value in SUITE_VALUES.items():
        if flag in SUITE_OPTIONS[suite]:
            assert main(base + [flag, value]) == 0, flag
            continue
        assert main(base + [flag, value]) == 2, flag
        err = capsys.readouterr().err
        readers = [name for name, opts in SUITE_OPTIONS.items() if flag in opts]
        assert flag in err and all(name in err for name in readers), err
        # the default value, given explicitly, is taken and changes nothing
        default = OPTIONS[flag]["default"]
        if default is not None:
            assert main(base + [flag, str(default)]) == 0
            assert (tmp_path / "r.json").read_bytes() == plain


def test_suite_all_takes_every_suite_option(tmp_path):
    argv = ["verify", "--suite", "all", "--seed", "3", "--out", str(tmp_path / "r.json")]
    for flag, value in SUITE_VALUES.items():
        argv += [flag, value]
    assert main(argv) == 0


def test_verify_report_same_from_cold_and_warm_caches(tmp_path):
    # a fresh process fills every cache during the run; the in-process runs
    # read them filled
    src = str(Path(qorbits.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--suite", "all", "--seed", "0"]
    cold = tmp_path / "cold.json"
    done = subprocess.run(
        [sys.executable, "-m", "qorbits", *argv, "--out", str(cold)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    warm = [tmp_path / "warm-a.json", tmp_path / "warm-b.json"]
    for path in warm:
        assert main(argv + ["--out", str(path)]) == 0
    assert warm[0].read_bytes() == warm[1].read_bytes() == cold.read_bytes()
