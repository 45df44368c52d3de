import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cck import certificate, cli, hamflow, projector_geometry, spectrum

REFERENCE = pathlib.Path(__file__).parent / "data" / "oracle_reference.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_certificate_obstructed(capsys):
    code, doc, _ = run_cli(capsys, "certificate", "--n", "1", "--cr", "1", "--cR", "2")
    assert code == 0
    assert doc["outputs"]["verdict"] == "Obstructed"
    assert doc["outputs"]["N"] == 5
    assert doc["outputs"]["ceil_R"] == 3
    assert doc["outputs"]["ceil_r"] == 5
    assert doc["outputs"]["deg_R"] == 6
    assert doc["outputs"]["deg_r"] == 10
    assert all(check["passed"] for check in doc["checks"])


def test_certificate_sub_quantum_regime(capsys):
    code, doc, _ = run_cli(capsys, "certificate", "--n", "1", "--cr", "1/2", "--cR", "3/4")
    assert code == 2
    assert doc["outputs"]["verdict"] == "NoObstruction"
    assert doc["outputs"]["regime"]["scale"] == "sub-quantum"


def test_certificate_invalid_capacities(capsys):
    code, doc, err = run_cli(capsys, "certificate", "--cr", "2", "--cR", "1")
    assert code == 1
    assert doc is None
    assert "InvalidCapacities" in err


def test_certificate_malformed_rational_is_usage_error(capsys):
    code, doc, err = run_cli(capsys, "certificate", "--cr", "abc", "--cR", "1")
    assert code == 64
    assert doc is None
    assert "--cr is not a rational: 'abc'" in err
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--T", "1/0", "--c", "1")
    assert (code, doc) == (64, None)
    assert "--T is not a rational: '1/0'" in err


def test_certificate_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "certificate", "--cr", "1", "--cR", "2", "--bogus")
    assert code == 64


def test_certificate_from_radius_warns(capsys):
    code, doc, err = run_cli(
        capsys, "certificate", "--n", "1", "--cr", "1", "--cR", "2", "--from-radius"
    )
    # radii 1 and 2 give capacities pi and 4 pi, both >= 1
    assert code == 0
    assert "rationalizes" in err
    assert doc["outputs"]["verdict"] == "Obstructed"


def test_spectrum_report(capsys):
    code, doc, _ = run_cli(
        capsys, "spectrum", "--n", "1", "--N", "5", "--M", "5", "--T", "5", "--c", "1"
    )
    assert code == 0
    out = doc["outputs"]
    assert out["positive_index"] == 4
    assert out["weights"] == [1, 2, 3, 4]
    assert out["sphere_dim"] == 7
    assert out["deviation"] < 1e-9
    assert len(out["eigenvalues_analytic"]) == 25
    assert all(check["passed"] for check in doc["checks"])


def _flipped_pair_fails_index_check(capsys, monkeypatch, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    assert doc["checks"][1] == {
        "name": "index_vs_eigenvalue_count", "passed": True, "residual": 0.0, "tolerance": 0.0,
    }
    original = spectrum.numeric_eigenvalues

    def flip_positive_pair(matrix):
        values = original(matrix).copy()
        values[-3:-1] *= -1.0  # the pair l = 1 just below the largest, lambda_0
        return np.sort(values)

    monkeypatch.setattr(spectrum, "numeric_eigenvalues", flip_positive_pair)
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 3
    assert doc["checks"][1]["name"] == "index_vs_eigenvalue_count"
    assert doc["checks"][1]["passed"] is False


def test_spectrum_index_check_counts_numeric_eigenvalues(capsys, monkeypatch):
    argv = ("spectrum", "--N", "5", "--M", "5", "--A", "-0.7")
    _flipped_pair_fails_index_check(capsys, monkeypatch, argv)


def test_spectrum_index_check_counts_numeric_eigenvalues_at_T_and_c(capsys, monkeypatch):
    # the index ceil(T/c) - 1 = 2 against the Jacobi eigenvalues the report solved
    argv = ("spectrum", "--N", "5", "--M", "5", "--T", "5/2", "--c", "1")
    _flipped_pair_fails_index_check(capsys, monkeypatch, argv)


def test_spectrum_discarded_overflow_leaves_stderr_empty():
    # theta * theta overflows in Jacobi lanes that np.where discards; no warning may leak
    argv = ["spectrum", "--N", "11", "--M", "5", "--T", "7", "--c", "1"]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "cck.cli", *argv], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["outputs"]["positive_index"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        # eigenvalues up to 1.3e5 with a deviation of 6e-9: a relative error of 5e-14
        ("spectrum", "--N", "13", "--M", "13", "--A=-1e-4"),
        # lambda_0 = 2e-11 is below the cut, so the pair count takes no pair for it
        ("spectrum", "--N", "5", "--M", "5", "--A=-1e-10"),
    ],
)
def test_spectrum_check_tolerance_scales_with_the_eigenvalues(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    scale = max(1.0, max(abs(x) for x in doc["outputs"]["eigenvalues_analytic"]))
    assert doc["checks"][0]["tolerance"] == pytest.approx(cli.DEFAULT_TOL * scale, rel=1e-15)
    assert doc["outputs"]["positive_index"] == 0


def test_spectrum_relative_deviation_fails_the_check(capsys, monkeypatch):
    argv = ("spectrum", "--N", "5", "--M", "5", "--A=-1e-10")
    original = spectrum.numeric_eigenvalues
    # every eigenvalue off by 1e-6 of itself, 1000 x the scaled tolerance
    monkeypatch.setattr(spectrum, "numeric_eigenvalues", lambda matrix: original(matrix) * (1.0 + 1e-6))
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 3
    assert doc["checks"][0]["name"] == "analytic_vs_numeric"
    assert doc["checks"][0]["passed"] is False


def test_spectrum_singular_flow(capsys):
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--M", "5", "--A", "0")
    assert code == 1
    assert "SingularAngle" in err


def test_spectrum_failed_check_exits_3(capsys):
    code, doc, _ = run_cli(capsys, "--tol", "1e-30", "spectrum", "--N", "5", "--A", "-0.5")
    assert code == 3
    assert doc["checks"][0]["name"] == "analytic_vs_numeric"
    assert doc["checks"][0]["passed"] is False


def test_spectrum_zero_capacity_is_domain_error(capsys):
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--T", "1", "--c", "0")
    assert code == 1
    assert doc is None
    assert "T and c must be positive" in err and "Traceback" not in err


def test_spectrum_over_size_budget(capsys):
    code, doc, err = run_cli(capsys, "spectrum", "--N", "1009", "--A", "-0.1")
    assert code == 1
    assert doc is None
    assert "OverBudget" in err
    assert "MN = 1018081" in err and str(spectrum.MAX_ACTION_SIZE) in err


def test_spectrum_no_convergence_reports_state(capsys, monkeypatch):
    monkeypatch.setattr(spectrum, "SWEEP_LIMIT", 1)
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--A", "-0.5")
    assert code == 1
    assert doc is None
    assert "NoConvergence" in err and "25 x 25" in err and "after 1 sweeps" in err


def test_spectrum_needs_parameters(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--N", "5")
    assert code == 64


@pytest.mark.parametrize(
    "flags",
    [
        ["--T", "5"],
        ["--c", "1"],
        ["--A", "-0.1", "--T", "5", "--c", "1"],
        ["--A", "-0.1", "--T", "5"],
        ["--A", "-0.1", "--c", "1"],
    ],
)
def test_spectrum_needs_A_alone_or_T_and_c(capsys, flags):
    # --A next to --T/--c would report the T/c index beside the eigenvalues at A
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--M", "5", *flags)
    assert (code, doc) == (64, None)
    assert "spectrum needs either --A or both --T and --c" in err


def test_gamma_membership(capsys):
    code, doc, _ = run_cli(
        capsys, "gamma", "--R", "1", "--q1", "0", "--q2", "0", "--t", "-1.5"
    )
    assert code == 0
    assert doc["outputs"]["member"] is True
    assert doc["outputs"]["f1"] == 0.0


def test_gamma_grid_oracle(capsys):
    code, doc, _ = run_cli(
        capsys,
        "gamma", "--R", "1.2", "--q1", "0.4,0.1", "--q2", "0.2,-0.3", "--t", "-1.0",
        "--grid",
    )
    assert code == 0
    names = {check["name"] for check in doc["checks"]}
    assert {"f1_vs_grid", "f2_vs_grid", "membership_vs_grid"} <= names
    assert all(check["passed"] for check in doc["checks"])


@pytest.mark.parametrize("q2", ["0", "1", "-1"])
def test_gamma_grid_value_the_scan_cannot_find_is_null(capsys, q2):
    # a double root (d = 0): f has no interior maximum, and at q2 != q1 no interior minimum
    code, doc, err = run_cli(capsys, "gamma", "--R", "1", "--q1", "1", f"--q2={q2}", "--t", "-0.7", "--grid")
    assert code == 0, err
    out = doc["outputs"]
    assert out["discriminant"] == 0.0
    names = {check["name"] for check in doc["checks"]}
    for key in ("f1", "f2"):
        assert (out[f"{key}_grid"] is None) == (f"{key}_vs_grid" not in names)
    assert out["f1_grid"] == (0.0 if q2 == "1" else None)
    assert out["f2_grid"] is None
    assert "membership_vs_grid" in names


@pytest.mark.parametrize(
    "argv",
    [
        ["--R", "1", "--q1", "1e200", "--q2", "1e200"],
        ["--R", "1", "--q1", "1e100", "--q2", "1e100"],
        ["--R", "1e100", "--q1", "0", "--q2", "0"],
        ["--R", "1e80", "--q1", "1e79", "--q2", "0", "--grid"],
    ],
)
def test_gamma_overflowing_discriminant_is_domain_error(capsys, argv):
    # an overflowing term would otherwise reach an internal invariant or the JSON encoder;
    # a numpy overflow warning would fail the test, as filterwarnings makes it an error
    code, doc, err = run_cli(capsys, "gamma", *argv, "--t", "0")
    assert (code, doc) == (1, None)
    assert err.startswith(f"error: R = {float(argv[1])!r}, q1 = [") and "too large" in err
    assert err.count("\n") == 1


def test_gamma_report_computes_critical_values_once(capsys, monkeypatch):
    calls = []
    original = projector_geometry.critical_values

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(projector_geometry, "critical_values", counted)
    code, doc, _ = run_cli(
        capsys, "gamma", "--R", "1", "--q1", "0.3,0.1", "--q2=-0.2,0.4", "--t", "-0.5", "--grid"
    )
    assert code == 0
    assert doc["outputs"]["member"] is doc["outputs"]["member_grid"]
    assert len(calls) == 1


def test_gamma_negative_vector_after_space(capsys):
    head = ["gamma", "--R", "1", "--q1", "0.3,0.1"]
    code, doc, err = run_cli(capsys, *head, "--q2", "-0.2,0.4", "--t", "-0.5")
    assert code == 0, err
    assert doc["inputs"]["q2"] == [-0.2, 0.4]
    assert (code, doc) == run_cli(capsys, *head, "--q2=-0.2,0.4", "--t", "-0.5")[:2]


@pytest.mark.parametrize("q1, q2, t", [("0.3", "0.2", "-1e-3"), ("0.3,0.1", "-1e-3,2.5E-1", "-0.5")])
def test_gamma_negative_exponent_after_space(capsys, q1, q2, t):
    head = ["gamma", "--R", "1", "--q1", q1]
    code, doc, err = run_cli(capsys, *head, "--q2", q2, "--t", t)
    assert code == 0, err
    assert doc["inputs"]["q2"] == [float(x) for x in q2.split(",")]
    assert doc["inputs"]["t"] == float(t)
    assert (code, doc) == run_cli(capsys, *head, f"--q2={q2}", f"--t={t}")[:2]


def test_oracle_reports_match_reference(capsys):
    """gamma --grid and squeeze keep their exit codes, verdicts and oracle values.

    The reference holds the gamma and squeeze operations of the
    perfbench mixed_cli workload for seeds 1-3, with the values that the
    per-sample contact check and the golden-section search over
    one-element arrays gave before both were batched.
    """
    for op in json.loads(REFERENCE.read_text()):
        code, doc, err = run_cli(capsys, *op["argv"])
        assert code == op["exit"], err
        assert {check["name"]: check["passed"] for check in doc["checks"]} == op["checks"]
        for key, value in op["values"].items():
            assert abs(doc["outputs"][key] - value) <= 1e-12, (op["argv"], key)


def test_squeeze_report(capsys):
    code, doc, _ = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert code == 0
    assert doc["outputs"]["squeezed_radius"] == 0.5
    assert doc["outputs"]["contact_deviation"] < 1e-4
    assert doc["outputs"]["min_conformal"] > 0
    assert all(check["passed"] for check in doc["checks"])


def test_ext_lens_report(capsys):
    code, doc, _ = run_cli(capsys, "ext", "--N", "5", "--lens", "1,2,3,4")
    assert code == 0
    assert doc["outputs"]["dims"] == {str(i): 1 for i in range(8)}
    assert doc["outputs"]["bounded"] is True


def test_ext_point_report(capsys):
    code, doc, _ = run_cli(capsys, "ext", "--N", "5", "--max-degree", "6")
    assert code == 0
    assert doc["outputs"]["dims"] == {str(i): 1 for i in range(7)}
    assert doc["outputs"]["bounded"] is False


def test_ext_non_unit_weight(capsys):
    code, _, err = run_cli(capsys, "ext", "--N", "5", "--lens", "5")
    assert code == 1
    assert "NonFreeAction" in err


def test_reports_round_trip(capsys):
    for argv in (
        ["certificate", "--n", "1", "--cr", "1", "--cR", "2"],
        ["spectrum", "--N", "5", "--M", "5", "--T", "5", "--c", "1"],
        ["gamma", "--R", "1", "--q1", "0", "--q2", "0", "--t", "-1.5"],
        ["squeeze", "--N", "1", "--R", "1"],
        ["ext", "--N", "5", "--lens", "1,2"],
    ):
        code, doc, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"command", "inputs", "outputs", "checks"}
        for check in doc["checks"]:
            assert set(check) == {"name", "passed", "residual", "tolerance"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["squeeze", "--N", "1", "--R", "nan"], "--R"),
        (["gamma", "--R", "1", "--q1", "nan", "--q2", "0", "--t", "-1.5"], "--q1"),
        (["spectrum", "--N", "5", "--A", "nan"], "--A"),
        (["--tol", "nan", "squeeze", "--N", "1", "--R", "1"], "--tol"),
        (["gamma", "--R", "1", "--q1", "0", "--q2", "0.3,inf", "--t", "-1.5"], "--q2"),
        (["gamma", "--R", "1", "--q1", "0", "--q2", "0", "--t=-1e400"], "--t"),
    ],
)
def test_non_finite_number_is_usage_error(capsys, argv, flag):
    code, doc, err = run_cli(capsys, *argv)
    assert (code, doc) == (64, None)
    assert f"argument {flag}: not a finite number" in err


def test_negative_tolerance_flag_is_usage_error(capsys):
    # a negative tolerance would fail every check and blame the program (exit 3)
    code, doc, err = run_cli(capsys, "--tol", "-1", "squeeze", "--N", "1", "--R", "1")
    assert (code, doc) == (64, None)
    assert "argument --tol: not a non-negative number: '-1'" in err
    code, doc, _ = run_cli(capsys, "--tol", "0", "squeeze", "--N", "1", "--R", "1")
    assert code == 3
    assert doc["checks"][0]["tolerance"] == 0.0


def test_non_finite_output_prints_nothing(capsys, monkeypatch):
    monkeypatch.setattr(hamflow, "squeezed_radius", lambda R, N: float("nan"))
    code = cli.main(["squeeze", "--N", "1", "--R", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


def test_conformal_check_fails_with_finite_residual(capsys, monkeypatch):
    flipped = hamflow.ContactCheck(deviation=0.0, min_conformal=-0.5)
    monkeypatch.setattr(hamflow, "contact_check", lambda N, samples: flipped)
    code, doc, _ = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert code == 3
    assert doc["checks"][1] == {
        "name": "conformal_positive", "passed": False, "residual": 1.0, "tolerance": 0.0,
    }


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["ext", "--N", "5", "--max-degree"], cli.MAX_EXT_DEGREE),
        (["spectrum", "--N", "5", "--A", "-0.5", "--n"], cli.MAX_SPECTRUM_N),
        (["squeeze", "--N", "1", "--R", "1", "--samples"], cli.MAX_SQUEEZE_SAMPLES),
        (["certificate", "--cr", "1", "--cR", "2", "--n"], cli.MAX_CERTIFICATE_N),
        (["certificate", "--cr", "1", "--cR", "2", "--limit"], cli.MAX_WITNESS_LIMIT),
        (["ext", "--N", "5", "--lens"], cli.MAX_EXT_DEGREE),
        (["squeeze", "--R", "1", "--N"], cli.MAX_SQUEEZE_N),
    ],
)
def test_input_over_budget_is_domain_error(capsys, monkeypatch, argv, budget):
    # the budget is checked before any work
    for name in ("as_capacity", "classify_regime", "nonsqueezing_certificate"):
        monkeypatch.setattr(certificate, name, None)
    for name in ("point_equivariant_cohomology", "lens_cohomology"):
        monkeypatch.setattr(cli.equivariant, name, None)
    monkeypatch.setattr(spectrum, "build_action_matrix", None)
    monkeypatch.setattr(hamflow, "squeezed_radius", None)
    if argv[-1] == "--lens":
        # d weights reach the top degree 2d - 1 = budget + 1
        value, flag = ",".join(["1"] * (budget // 2 + 1)), "--lens top degree"
    else:
        value, flag = str(budget + 1), argv[-1]
    code, doc, err = run_cli(capsys, *argv, value)
    assert (code, doc) == (1, None)
    assert f"OverBudget: {flag} {budget + 1} is above its budget of {budget}" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_squeeze_needs_a_sample(capsys, samples):
    code, doc, err = run_cli(capsys, "squeeze", "--N", "1", "--R", "1", "--samples", samples)
    assert (code, doc) == (1, None)
    assert "--samples must be >= 1" in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    pair = ("certificate", "--cr", "1", "--cR", "2")
    _, doc, _ = run_cli(capsys, *pair, "--from-radius")
    assert doc["inputs"]["from_radius"] is True
    _, doc, _ = run_cli(capsys, *pair)
    assert doc["inputs"]["from_radius"] is False
    _, doc, _ = run_cli(capsys, "--tol", "0.5", "squeeze", "--N", "1", "--R", "1")
    assert doc["checks"][0]["tolerance"] == 0.5
    _, doc, _ = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert doc["checks"][0]["tolerance"] == cli.CONTACT_TOL


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


#: (values that parse, values that are usage errors); the first include edge and over-budget values
_INTS = (["-1", "0", "1", "2", "4", "5", "7", "1009"], ["x", "1.5"])
_RATIONALS = (["1", "2", "3/2", "6/5", "11/10", "1/2", "0", "-1", "1e3"], ["1/0", "nan", "abc"])
_FLOATS = (["-0.5", "-1e-3", "0", "1", "2.5"], ["nan", "inf", "1e400", "0.3,0.1"])
_VECTORS = (["0", "0.3,0.1", "-0.2,0.4", "0.1,0.2,0.3", "1,1"], ["nan", ","])
_FLAGS = {
    "certificate": [
        ("--n", (["-1", "0", "1", "2", str(cli.MAX_CERTIFICATE_N + 1)], ["x"])),
        ("--cr", _RATIONALS),
        ("--cR", _RATIONALS),
        ("--limit", (["4", "5", "100", str(cli.MAX_WITNESS_LIMIT + 1)], ["1e6"])),
        ("--from-radius", None),
    ],
    "spectrum": [
        ("--n", (_INTS[0] + [str(cli.MAX_SPECTRUM_N + 1)], _INTS[1])),
        ("--N", _INTS),
        ("--M", _INTS),
        ("--A", _FLOATS),
        ("--T", _RATIONALS),
        ("--c", _RATIONALS),
    ],
    "gamma": [("--R", _FLOATS), ("--q1", _VECTORS), ("--q2", _VECTORS), ("--t", _FLOATS),
              ("--grid", None)],
    "squeeze": [
        ("--N", _INTS),
        ("--R", _FLOATS),
        ("--samples", (["-1", "0", "1", "60", str(cli.MAX_SQUEEZE_SAMPLES + 1)], ["x"])),
        ("--seed", _INTS),
    ],
    "ext": [
        ("--N", _INTS),
        ("--lens", (["1,2", "1,5", "0", "1,2,3,4", "-1,3"], ["x", "1,"])),
        ("--max-degree", (["-1", "0", "20", str(cli.MAX_EXT_DEGREE + 1)], ["x"])),
    ],
}
_REQUIRED = {"--cr", "--cR", "--N", "--R", "--q1", "--q2", "--t"}


@st.composite
def _value(draw, values):
    good, bad = values
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = ["--tol", draw(_value(_FLOATS))] if draw(st.integers(0, 3)) == 0 else []
    argv.append(command)
    # flags in any order; a required one is seldom missing, an optional one often
    for flag, values in draw(st.permutations(_FLAGS[command])):
        if flag in _REQUIRED and draw(st.integers(0, 7)) == 0:
            continue
        if flag not in _REQUIRED and draw(st.booleans()):
            continue
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(values))}")
        else:
            argv += [flag, draw(_value(values))]
    return argv


#: wall-time bound per argv of the contract gate; its slowest argv took 2.8 ms on 2 cores,
#: and the slowest argv its flag values can form (spectrum at N = M = 7) ~30 ms
ARGV_SECONDS = 2.0


@given(_argv())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_every_argv_keeps_the_cli_contract(argv):
    # edge values, swapped flags and values over budget: a documented exit code,
    # strict JSON or nothing on stdout, never a traceback, and no argv past the time bound
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < ARGV_SECONDS, (argv, elapsed)
    assert code in {0, 1, 2, 3, 64}, (argv, code)
    if out.getvalue():
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert set(doc) == {"command", "inputs", "outputs", "checks"}
    else:
        assert code in (1, 64), argv
    assert "Traceback" not in err.getvalue()
