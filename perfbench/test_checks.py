"""Tests of the benchmark's own parts: every check passes real reports and
rejects corrupted ones, workloads are fixed by their seed, and the tracer
patches every module that imports a traced name.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run(op):
    out = io.StringIO()
    from cck import cli

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op["argv"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def mixed():
    """Every mixed_cli op with its real exit code and report."""
    return [(op, *run(op)) for op in workloads.build("mixed_cli", 7, 30)]


def first(mixed, cmd, **match):
    for op, code, stdout in mixed:
        if op["cmd"] == cmd and all(op.get(k) == v for k, v in match.items()):
            return op, code, json.loads(stdout)
    raise LookupError(cmd)


def rejected(op, code, report) -> bool:
    signalled, wrong = checks.check(op, code, json.dumps(report))
    return bool(signalled or wrong)


def corrupt(report, key, value):
    bad = copy.deepcopy(report)
    bad["outputs"][key] = value
    return bad


def test_real_reports_pass(mixed):
    for op, code, stdout in mixed:
        assert checks.check(op, code, stdout) == ([], []), op["argv"]


def test_heavy_workload_reports_pass():
    small = [op for op in workloads.build("certify", 7, 30)
             if checks.witness(Fraction(op["cr"]), Fraction(op["cR"]))[0] <= 17]
    for op in small + workloads.build("spectrum_oracle", 7, 1):
        assert checks.check(op, *run(op)) == ([], []), op["argv"]


def test_certificate_corruptions(mixed):
    op, code, report = first(mixed, "certificate", expect=0)
    out = report["outputs"]
    next_prime = next(p for p in range(out["N"] + 1, 10 * out["N"]) if checks.is_prime(p))
    assert rejected(op, code, corrupt(report, "N", next_prime))
    assert rejected(op, code, corrupt(report, "ceil_R", out["ceil_R"] + 1))
    assert rejected(op, code, corrupt(report, "deg_r", out["deg_r"] + 2))
    assert rejected(op, code, corrupt(report, "verdict", "NoObstruction"))
    swapped = corrupt(corrupt(report, "deg_R", out["deg_r"]), "deg_r", out["deg_R"])
    assert rejected(op, code, swapped)


def test_out_of_regime_corruptions(mixed):
    op, code, report = first(mixed, "certificate", expect=2)
    assert code == 2
    assert rejected(op, 0, report)
    assert rejected(op, code, corrupt(report, "verdict", "Obstructed"))


def test_spectrum_corruptions(mixed):
    for match in ({"A": None}, {"T": None}):
        op, code, report = first(mixed, "spectrum", **match)
        values = list(report["outputs"]["eigenvalues_numeric"])
        values[len(values) // 2] += 1e-6
        assert rejected(op, code, corrupt(report, "eigenvalues_numeric", values))
        index = report["outputs"]["positive_index"]
        assert rejected(op, code, corrupt(report, "positive_index", index + 1))
        assert rejected(op, code, corrupt(report, "weights", report["outputs"]["weights"][::-1] + [1]))
        assert rejected(op, code, corrupt(report, "sphere_dim", 2 * op["n"] * index + 1))


def test_spectrum_trace_catches_a_shift_of_every_eigenvalue(mixed):
    op, code, report = first(mixed, "spectrum")
    ref = checks.reference_spectrum(op["N"], op["M"], checks.flow_parameter(op))
    shift = 0.5 * checks.EIG_RTOL * max(1.0, float(abs(ref).max()))  # below the per-value tolerance
    values = [v + shift for v in report["outputs"]["eigenvalues_numeric"]]
    signalled, wrong = checks.check(op, code, json.dumps(corrupt(report, "eigenvalues_numeric", values)))
    assert [message for message in wrong if "sum" in message] == wrong != []


def test_gamma_corruptions(mixed):
    op, code, report = first(mixed, "gamma")
    out = report["outputs"]
    assert rejected(op, code, corrupt(report, "f1", out["f1"] + 1e-5))
    assert rejected(op, code, corrupt(report, "f2", out["f2"] - 1e-5))
    assert rejected(op, code, corrupt(report, "member", not out["member"]))
    assert rejected(op, code, corrupt(corrupt(report, "f1", out["f2"]), "f2", out["f1"]))


def test_squeeze_corruptions(mixed):
    op, code, report = first(mixed, "squeeze")
    out = report["outputs"]
    assert rejected(op, code, corrupt(report, "squeezed_radius", out["squeezed_radius"] * (1 + 1e-9)))
    assert rejected(op, code, corrupt(report, "contact_deviation", 2e-4))
    low = 1.0 / (1.0 + op["N"] * op["R"])
    assert rejected(op, code, corrupt(report, "min_conformal", 0.99 * low))
    assert rejected(op, code, corrupt(report, "min_conformal", 1.01))


def test_ext_corruptions(mixed):
    op, code, report = first(mixed, "ext", max_degree=None)
    assert rejected(op, code, corrupt(report, "top", report["outputs"]["top"] + 1))
    assert rejected(op, code, corrupt(report, "bounded", False))
    dims = dict(report["outputs"]["dims"])
    dims.pop(max(dims, key=int))
    assert rejected(op, code, corrupt(report, "dims", dims))
    op, code, report = first(mixed, "ext", lens=None)
    assert rejected(op, code, corrupt(report, "bounded", True))
    assert rejected(op, code, corrupt(report, "dims", {**report["outputs"]["dims"], "0": 2}))


def test_signalled_failures(mixed):
    op, code, report = first(mixed, "squeeze")
    bad = copy.deepcopy(report)
    bad["checks"][0]["passed"] = False
    signalled, wrong = checks.check(op, code, json.dumps(bad))
    assert signalled and not wrong
    assert checks.check(op, 1, "")[0]
    assert checks.check(op, code, "not json")[0]


def test_workloads_are_fixed_by_seed_and_keep_their_work():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3, 30) == workloads.build(name, 3, 30)
    a, b = workloads.build("certify", 1, 30), workloads.build("certify", 2, 30)
    assert [op["argv"] for op in a] != [op["argv"] for op in b]

    def cells(ops):
        return sorted((op["n"], checks.witness(Fraction(op["cr"]), Fraction(op["cR"]))) for op in ops)

    assert cells(a) == cells(b)


def test_tracer_patches_every_holder_of_a_name(monkeypatch):
    a, b = types.ModuleType("cck.bench_a"), types.ModuleType("cck.bench_b")
    exec("def leaf(x):\n    return x + 1\n\nclass K:\n    def m(self):\n        return leaf(1)\n", vars(a))
    b.leaf = a.leaf  # as "from .bench_a import leaf"
    exec("def outer(x):\n    return leaf(x) * 2\n", vars(b))
    monkeypatch.setitem(sys.modules, "cck.bench_a", a)
    monkeypatch.setitem(sys.modules, "cck.bench_b", b)
    original = a.leaf
    tracer = Tracer()
    absent = tracer.install(["bench_a.leaf", "bench_b.outer", "bench_a.K.m", "bench_a.gone", "nowhere.x"])
    assert absent == ["bench_a.gone", "nowhere.x"]
    assert a.leaf is b.leaf and a.leaf.__wrapped__ is original
    assert b.outer(1) == 4 and a.K().m() == 2
    summary = tracer.summary()
    assert {name: calls for name, ops in summary.items() for calls, _ in ops.values()} == {
        "bench_a.leaf": 2, "bench_b.outer": 1, "bench_a.K.m": 1}
    for span in tracer.spans:
        children = [s for s in tracer.spans if s[1] == span[0]]
        assert span[6] == (span[5] - span[4]) - sum(s[5] - s[4] for s in children)
    outer = next(s for s in tracer.spans if s[2] == "bench_b.outer")
    assert [s[2] for s in tracer.spans if s[1] == outer[0]] == ["bench_a.leaf"]
