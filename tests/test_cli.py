import functools
import json
import pathlib

import numpy as np
import pytest

from cck import certificate, cli, hamflow, spectrum

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


def test_spectrum_index_check_counts_numeric_eigenvalues(capsys, monkeypatch):
    argv = ("spectrum", "--N", "5", "--M", "5", "--A", "-0.7")
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
    one_sweep = functools.partial(spectrum.jacobi_eigensystem, sweep_limit=1)
    monkeypatch.setattr(spectrum, "jacobi_eigensystem", one_sweep)
    code, doc, err = run_cli(capsys, "spectrum", "--N", "5", "--A", "-0.5")
    assert code == 1
    assert doc is None
    assert "NoConvergence" in err and "25 x 25" in err and "after 1 sweeps" in err


def test_spectrum_needs_parameters(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--N", "5")
    assert code == 64


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


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CCK_TOL", "1e-30")
    code, doc, _ = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert code == 3
    assert doc["checks"][0]["tolerance"] == 1e-30
    assert doc["checks"][0]["passed"] is False
    monkeypatch.setenv("CCK_TOL", "0.5")
    code, doc, _ = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert doc["checks"][0]["tolerance"] == 0.5


def test_tolerance_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CCK_TOL", "1e-30")
    code, doc, _ = run_cli(capsys, "--tol", "1e-3", "squeeze", "--N", "1", "--R", "1")
    assert doc["checks"][0]["tolerance"] == 1e-3
    assert doc["checks"][0]["passed"] is True


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


def test_non_finite_env_tolerance_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("CCK_TOL", "nan")
    code, doc, err = run_cli(capsys, "squeeze", "--N", "1", "--R", "1")
    assert code == 0
    assert doc["checks"][0]["tolerance"] == cli.CONTACT_TOL
    assert "ignoring malformed CCK_TOL" in err


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
