"""CLI exit codes, report content, and byte-level determinism."""

import csv
import dataclasses
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specbound
import specbound.harness as harness_mod
import specbound.jobs as jobs_mod
from specbound import (
    InstanceSpec,
    SweepConfig,
    as_matrix,
    best_bound,
    gen_commuting_pair,
    gen_matrix,
    lookup,
    oracle_radii,
    save_matrix,
)
from specbound import cli
from specbound.cli import _parse_series, _sweep_config, build_parser, main
from textbook import spectral_radius


@pytest.fixture
def zero2(tmp_path):
    path = tmp_path / "zero2.mat"
    save_matrix(path, np.zeros((2, 2)))
    return str(path)


@pytest.fixture
def diag_pair(tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    save_matrix(a, np.diag([0.6, 0.6]).astype(complex))
    save_matrix(b, np.diag([0.5, 0.5]).astype(complex))
    return str(a), str(b)


@pytest.fixture
def shift_pair(tmp_path):
    """0.9 S and 0.9 S^T, S the 2x2 shift: AB = diag(0.81, 0)."""
    a = tmp_path / "s.mat"
    b = tmp_path / "st.mat"
    save_matrix(a, np.array([[0, 0.9], [0, 0]], dtype=complex))
    save_matrix(b, np.array([[0, 0], [0.9, 0]], dtype=complex))
    return str(a), str(b)


def exit_code(argv):
    """`main`'s exit code, also when argparse exits on a bad option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def table_values(out):
    """The value of each available bound and oracle of a table report."""
    values = {}
    for line in out.splitlines():
        if line.startswith("oracle r["):
            values[line.split(" = ")[0][7:]] = float(line.split(" = ")[1].split()[0])
        elif "unavailable" not in line and not line.startswith("minimum"):
            name, _, value = line.split()
            values[name] = float(value)
    return values


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_single_zero_exp(zero2, capsys):
    code = main(["bound", "--series", "exp", "--matrix", zero2])
    out = capsys.readouterr().out
    assert code == 0
    assert "companion-radius" in out
    assert "oracle r[f(T)] = 1.0" in out
    assert "minimum [f(T)] = 1.0" in out


def test_bound_pair_geometric(diag_pair, capsys):
    a, b = diag_pair
    code = main(["bound", "--series", "geometric", "--matrix", a, "--matrix", b])
    out = capsys.readouterr().out
    assert code == 0
    assert "pair-squares" in out
    assert "product-radius" in out and "factor-radius" in out
    assert "holder-geo" not in out  # the Hölder forms are not rows
    assert "1.44337567" in out
    assert "1.42857142" in out  # oracle r[f(AB)]


def test_bound_noncommuting_pair_exits_3(shift_pair, capsys):
    a, b = shift_pair
    code = main(["bound", "--series", "geometric", "--matrix", a, "--matrix", b])
    captured = capsys.readouterr()
    assert code == 3
    assert "does not commute" in captured.err
    assert "||AB-BA||" in captured.err
    assert "below oracle" not in captured.err
    # the norm-only results are still reported, and the product row bounds
    # r[f(AB)] with r(AB) = 0.81: the minimum names it
    assert "pm-quadratic(+)" in captured.out
    values = table_values(captured.out)
    assert values["product-radius"] >= values["r[f(AB)]"] - 1e-8
    assert values["product-radius"] == pytest.approx(1 / (1 - 0.81), abs=1e-9)
    assert "minimum [f(AB)] = 5.263157894" in captured.out
    assert captured.out.rstrip().endswith("from product-radius")


@pytest.mark.parametrize("n", [20, 40])
def test_bound_below_its_own_oracle_exits_1(tmp_path, capsys, n):
    # A = 0.99 J and B = 0.99 (J + E), J the upper shift and E = 1e-11 in
    # entry (n, 1), pass the commutator test but do not commute: r(A) = 0
    # while r(B) is about 0.99 * 1e-11^(1/n), so the rows built on the radii
    # fall below r[f(AB)] (1.0844 at n = 20, 1.3817 at n = 40). The product
    # row, on r(AB), meets r[f(AB)] from 80-digit mpmath eigenvalues of AB.
    # AB = 0.9801 (J^2 + 1e-11 e_(n-1) e_1^T): its odd-index chain closes
    # into a cycle of length n/2 whose eigenvalues have modulus
    # 0.9801 * 10^(-22/n), the others are 0, so r[f(AB)] = 1/(1 - that).
    # The oracle, f's truncation at AB's eigenvalues, meets it to 1e-13.
    J = np.diag(np.ones(n - 1), 1).astype(complex)
    E = np.zeros((n, n), dtype=complex)
    E[n - 1, 0] = 1e-11
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    save_matrix(a, 0.99 * J)
    save_matrix(b, 0.99 * (J + E))
    code = main(["bound", "--series", "geometric", "--matrix", str(a),
                 "--matrix", str(b)])
    captured = capsys.readouterr()
    assert code == 1
    assert "oracle r[f(AB)]" in captured.out  # the report is written first
    assert "error: factor-radius = " in captured.err
    assert "error: pair-squares = " in captured.err
    assert "is below oracle r[f(AB)]" in captured.err
    assert "norm-split" not in captured.err
    assert "product-radius" not in captured.err
    exact = {20: 1.0844247557, 40: 1.3816538415}[n]
    assert table_values(captured.out)["product-radius"] == pytest.approx(exact, rel=1e-9)
    closed = 1.0 / (1.0 - 0.9801 * 10.0 ** (-22.0 / n))
    assert closed == pytest.approx(exact, rel=1e-9)
    report = best_bound(lookup("geometric"), 0.99 * J, 0.99 * (J + E))
    oracle, _ = oracle_radii([lookup("geometric")], [report.invariants])[0]["f(AB)"]
    assert abs(oracle - closed) <= 1e-13 * closed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_polynomial_overflow_exits_2(tmp_path, capsys):
    # The tail's x**j leaves double range: an error line, no traceback.
    m = tmp_path / "big.mat"
    save_matrix(m, np.diag([1e200, 0.5]).astype(complex))
    code = main(["bound", "--series", "poly:1,1,1", "--matrix", str(m)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == ("error: poly:1,1,1: the order-2 truncation at ||T|| = 1e+200 "
                   "is not finite; normalize the matrix first\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_pair_polynomial_overflow_names_the_product(tmp_path, capsys):
    # The pair's series argument is AB = 1e200 I: its norm, not a factor's.
    m = tmp_path / "big.mat"
    save_matrix(m, 1e100 * np.eye(2, dtype=complex))
    code = main(["bound", "--series", "poly:1,1,1", "--matrix", str(m), "--matrix", str(m)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: poly:1,1,1: the order-2 truncation at ||AB|| = 1e+200 "
        "is not finite; normalize the pair first\n")


def test_bound_structured_output(zero2, capsys):
    code = main([
        "bound", "--series", "exp", "--matrix", zero2, "--format", "structured",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minimum"] == "companion-radius"
    assert doc["results"][0]["value"] == pytest.approx(1.0)


def test_bound_csv_output_to_file(diag_pair, tmp_path, capsys):
    a, b = diag_pair
    out = tmp_path / "report.csv"
    code = main([
        "bound", "--series", "geometric", "--matrix", a, "--matrix", b,
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("bound,target,available,value")
    assert any("pair-squares" in line for line in lines)


def test_bound_polynomial_series(tmp_path, capsys):
    # f(z) = 1 + 0.5 z^2 on diag(0.6, 0.2): bound f_a(0.6) = oracle = 1.18
    m = tmp_path / "d.mat"
    save_matrix(m, np.diag([0.6, 0.2]).astype(complex))
    code = main(["bound", "--series", "poly:1,0,0.5", "--matrix", str(m)])
    out = capsys.readouterr().out
    assert code == 0
    assert "minimum [f(T)] = 1.18" in out
    assert "oracle r[f(T)] = 1.18" in out


@pytest.mark.parametrize("series, position", [
    ("poly:1,,0.5", 1),  # not 1 + 0.5z: an empty coefficient is an error
    ("poly:nan", 0),
    ("poly:inf,1", 0),
])
def test_bound_bad_polynomial_coefficient_exits_2(zero2, capsys, series, position):
    code = main(["bound", "--series", series, "--matrix", zero2])
    assert code == 2
    assert f"coefficient {position} of {series!r}" in capsys.readouterr().err


def test_bound_2f1_with_params(zero2, capsys):
    code = main(["bound", "--series", "2F1:0.5,0.75,1.25", "--matrix", zero2])
    assert code == 0
    assert "companion-radius" in capsys.readouterr().out


def test_bound_2f1_error_names_its_parameters(tmp_path, capsys):
    # Near the unit circle no order certifies the tail; the error says which 2F1.
    path = tmp_path / "near.mat"
    save_matrix(path, np.diag([0.9999999, 0.2]).astype(complex))
    code = main(["bound", "--series", "2F1:2,2,1", "--matrix", str(path)])
    assert code == 2
    assert "error: 2F1:2,2,1: no order up to" in capsys.readouterr().err


_BAD_2F1_NAMES = ["2F1:0.5,1", "2F1:1,1,1j", "2F1:0,1,1", "2F1:inf,1,1", "2F1:1,,1"]


@pytest.mark.parametrize("series", _BAD_2F1_NAMES)
def test_bound_malformed_2f1_name_exits_2(zero2, capsys, series):
    code = main(["bound", "--series", series, "--matrix", zero2])
    assert code == 2
    assert repr(series) in capsys.readouterr().err


@pytest.mark.parametrize("pair, svds", [(False, 1), (True, 9)])
def test_bound_oracle_reuses_the_report_norm(lapack_work, diag_pair, capsys,
                                             pair, svds):
    # The oracle takes ||T|| or ||AB|| from best_bound's invariants, so a
    # bound operation runs only best_bound's SVDs, in one call.
    a, b = diag_pair
    argv = ["bound", "--series", "geometric", "--matrix", a]
    assert main(argv + ["--matrix", b] if pair else argv) == 0
    assert "oracle r[f(" in capsys.readouterr().out
    assert lapack_work["svd"] == svds
    assert lapack_work["svd_calls"] == 1


def test_bound_pair_shares_the_eigensolve_of_ab(lapack_work, tmp_path, capsys):
    # r(A), r(B), r(AB), r(AB+BA) and r(AB-BA) in best_bound's eigensolve,
    # the only one: the oracle of f(AB) reads AB's eigenvalues from it. The
    # oracle of AB is the product row's r(AB), bit for bit, and a lone
    # eigensolve of AB gives it.
    A, B = gen_commuting_pair(InstanceSpec(11, "commuting-polynomial-pair", 6, 0.7))
    paths = [str(tmp_path / "a.mat"), str(tmp_path / "b.mat")]
    for path, M in zip(paths, (A, B)):
        save_matrix(path, M)
    code = main(["bound", "--series", "exp", "--format", "structured",
                 "--matrix", paths[0], "--matrix", paths[1]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert lapack_work["eig"] == 5 and lapack_work["eig_calls"] == 1
    product = next(r for r in doc["results"] if r["name"] == "product-radius")
    assert doc["oracles"]["AB"][0] == product["intermediates"]["r(AB)"]
    assert doc["oracles"]["AB"] == [spectral_radius(A @ B), 0.0]


def test_bound_product_overflow_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    save_matrix(a, np.diag([1e160, 1.0]).astype(complex))
    save_matrix(b, np.diag([1.0, 2.0]).astype(complex))
    code = main(["bound", "--series", "exp", "--matrix", str(a), "--matrix", str(b)])
    assert code == 2
    assert "not finite: A^2, A^2B" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_square_past_double_range(tmp_path, capsys):
    # ||A|| = 1e200 with every product finite: ||A||^2 is inf, no traceback.
    # geometric makes each row that needs ||A||^2 < R Unavailable; exp
    # finds no truncation order for the oracle of f(AB) at ||AB|| = 1e200.
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    save_matrix(a, np.array([[0, 1e200], [0, 0]], dtype=complex))
    save_matrix(b, np.eye(2, dtype=complex))
    argv = ["bound", "--matrix", str(a), "--matrix", str(b), "--series"]
    assert main([*argv, "geometric"]) == 0
    reasons = {line.split()[0]: line.split(None, 2)[2]
               for line in capsys.readouterr().out.splitlines() if "||A||^2" in line}
    assert reasons == dict.fromkeys(
        ("pair-squares", "norm-split", "mixed-split"),
        "unavailable: precondition failed: ||A||^2 < R (measured inf)")
    assert main([*argv, "exp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exp: no order up to 1000000 certifies")
    assert err.count("\n") == 1


def test_bound_structured_output_is_strict_json(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"{constant} in the structured report")

    def structured(series, A, B):
        paths = [tmp_path / "a.mat", tmp_path / "b.mat"]
        for path, M in zip(paths, (A, B)):
            save_matrix(path, as_matrix(M))
        code = main(["bound", "--series", series, "--format", "structured",
                     "--matrix", str(paths[0]), "--matrix", str(paths[1])])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        return {r["name"]: r for r in doc["results"]}

    # Every f(AB) row of exp on diag(27, 1) is not finite (e^729); the
    # Unavailable rows carry no infinite intermediates, so no Infinity.
    D = np.diag([27.0, 1.0])
    mixed = structured("exp", D, D)["mixed-split"]
    assert mixed["value"] is None and mixed["reason"].startswith("not finite: ")
    # ||A||^2 and the mixed arm sqrt(||A|| ||AB^2||) are inf: their measured
    # values and the arm's intermediate are null; the reasons say inf.
    rows = structured("geometric", [[0, 1e200], [0, 0]], np.eye(2))
    for name in ("pair-squares", "norm-split", "mixed-split"):
        assert rows[name]["reason"] == "precondition failed: ||A||^2 < R (measured inf)"
        assert ["||A||^2 < R", False, None] in rows[name]["preconditions"], name
    mixed = rows["mixed-split"]
    assert ["sqrt(||A|| ||AB^2||) < R", False, None] in mixed["preconditions"]
    assert mixed["intermediates"]["sqrt(||A|| ||AB^2||)"] is None


def test_bound_pm_quadratic_past_double_range_is_unavailable(tmp_path, capsys):
    # Every product of this pair is finite, but (||AB|| - ||BA||)^2 = 1e400
    # is not: both pm-quadratic rows are Unavailable, the report is strict
    # JSON, and the pair, which does not commute, exits 3.
    def reject(constant):
        raise ValueError(f"{constant} in the structured report")

    paths = [tmp_path / "a.mat", tmp_path / "b.mat"]
    save_matrix(paths[0], as_matrix([[0, 1e200], [0, 0]]))
    save_matrix(paths[1], as_matrix([[0, 0], [0, 1]]))
    code = main(["bound", "--series", "geometric", "--format", "structured",
                 "--matrix", str(paths[0]), "--matrix", str(paths[1])])
    out, err = capsys.readouterr()
    assert code == 3 and err.startswith("error: pair does not commute")
    rows = {r["name"]: r for r in json.loads(out, parse_constant=reject)["results"]}
    for sign in "+-":
        assert rows[f"pm-quadratic({sign})"]["value"] is None
        assert rows[f"pm-quadratic({sign})"]["reason"] == "not finite: value = inf"
        assert rows[f"pm-mixed({sign})"]["value"] == 1e200


@pytest.mark.parametrize("series, A, B", [
    ("exp", np.diag([27.0, 1.0]), np.diag([27.0, 1.0])),
    ("geometric", [[0, 1e200], [0, 0]], np.eye(2)),
    ("geometric", [[0, 0.9], [0, 0]], [[0, 0], [0.9, 0]]),
    ("log-resolvent", [[0.5, 0.3], [0, 0.2]], None),
])
def test_bound_structured_document_is_one_walk_of_the_json_round_trip(series, A, B):
    # The structured report, written in one walk, is the report that
    # json.dumps, then json.loads with each non-finite constant as null,
    # gives: each non-finite float null, and every other value as it was.
    f = lookup(series)
    report = best_bound(f, as_matrix(A), None if B is None else as_matrix(B))
    (oracles,) = oracle_radii([f], [report.invariants])
    doc = {"series": series, "oracles": oracles, "results": report.results, "minimum": None}
    plain = {**doc, "results": [dataclasses.asdict(r) for r in report.results]}
    expected = json.loads(json.dumps(plain), parse_constant=lambda _: None)
    dump = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)
    assert dump(cli._strict(doc)) == dump(expected)


def test_bound_missing_file_exits_2(capsys):
    code = main(["bound", "--series", "exp", "--matrix", "/nonexistent.mat"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bound_unknown_series_exits_2(zero2, capsys):
    code = main(["bound", "--series", "nope", "--matrix", zero2])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown series 'nope'")


def test_bound_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    for text in ("not json", '{"dim": 1, "entries": [["1", 0]]}',
                 '{"dim": 1, "entries": [[null, 0]]}', '{"dim": 1, "entries": [5]}',
                 '[1]', '{"dim": 1, "entries": 5}', '"x"',
                 '{"dim": 1, "entries": [[1%s, 0]]}' % ("0" * 400),
                 '{"dim": true, "entries": [[0.5, 0]]}', '{"entries": [[1, 0]]}',
                 '{"dim": 1}', '{"dim": 1, "entries": [[true, false]]}'):
        bad.write_text(text)
        code = main(["bound", "--series", "exp", "--matrix", str(bad)])
        assert code == 2, text


def test_bound_deeply_nested_file_exits_2(tmp_path, capsys):
    # Exit 1 would mean a bound below its oracle.
    deep = tmp_path / "deep.mat"
    deep.write_text('{"dim": 1, "entries": %s%s}' % ("[" * 200000, "]" * 200000))
    code = main(["bound", "--series", "exp", "--matrix", str(deep)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: the matrix document is nested")


def test_bound_dim_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a2.mat"
    b = tmp_path / "b3.mat"
    save_matrix(a, np.eye(2))
    save_matrix(b, np.eye(3))
    code = main(["bound", "--series", "exp", "--matrix", str(a), "--matrix", str(b)])
    assert code == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_bound_too_many_matrices_exits_2(zero2, capsys):
    code = main([
        "bound", "--series", "exp",
        "--matrix", zero2, "--matrix", zero2, "--matrix", zero2,
    ])
    assert code == 2


@pytest.mark.parametrize("scale", [0.5, 2.0])  # norm inside, then outside, the disk
@pytest.mark.parametrize("option, modes", [
    (["--p", "1"], (1, 2)), (["--p", "inf"], (1, 2)), (["--p", "nan"], (1, 2)),
    (["--tol", "-1"], (1, 2)), (["--tol", "nan"], (1, 2)), (["--p", "2,2.0"], (1, 2)),
    (["--tol", "inf"], (1, 2)),
], ids=["p=1", "p=inf", "p=nan", "tol=-1", "tol=nan", "p=2,2.0", "tol=inf"])
def test_bound_bad_exponent_or_tolerance_exits_2(tmp_path, capsys, option, modes, scale):
    # --p is no longer an option: argparse rejects it
    path = str(tmp_path / "d.mat")
    save_matrix(path, np.diag([scale, 0.5]).astype(complex))
    for count in modes:
        code = exit_code(["bound", "--series", "geometric", *option,
                          *["--matrix", path] * count])
        assert code == 2, (option, count)
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_ARGS = [
    "--series", "exp,geometric",
    "--families", "diagonal-positive,commuting-polynomial-pair",
    "--trials", "12", "--dims", "2,4", "--seed", "9",
]


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["verify", *_VERIFY_ARGS, "--out", str(out)])
    assert code == 0
    assert (out / "trials.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["sweep"]["violations"] == 0
    assert sorted(summary["checks"]) == ["truncation-cauchy"]
    assert all(c["violations"] == 0 for c in summary["checks"].values())
    assert "violations" in capsys.readouterr().out


def test_verify_fails_on_a_low_pm_row_through_the_sweep(tmp_path, capsys, monkeypatch):
    # pm-quadratic at 0.9 times its value: the sweep's own judge flags it,
    # and the one check left, of the truncation certificates, passes.
    import dataclasses

    import specbound.bounds as bounds_mod

    def low(row):
        return dataclasses.replace(
            row, combine=lambda F, s: (0.9 * row.combine(F, s)[0], {}))

    monkeypatch.setattr(bounds_mod, "_PM_ROWS", tuple(
        low(row) if row.name.startswith("pm-quadratic") else row
        for row in bounds_mod._PM_ROWS))
    out = tmp_path / "report"
    assert main(["verify", "--trials", "20", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False and summary["sweep"]["violations"] > 0
    assert list(summary["checks"]) == ["truncation-cauchy"]
    assert summary["checks"]["truncation-cauchy"]["violations"] == 0
    bounds = summary["sweep"]["bounds"]
    assert bounds["pm-quadratic(+)"]["worst_margin"] > 0
    assert bounds["pm-mixed(+)"]["worst_margin"] < 0
    assert "checks pass" in capsys.readouterr().out
    assert multiprocessing.active_children() == []


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", *_VERIFY_ARGS, "--out", str(out1)]) == 0
    assert main(["verify", *_VERIFY_ARGS, "--out", str(out2)]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="worker processes need Linux and two CPUs")
def test_verify_reports_match_on_one_cpu(tmp_path, capsys):
    # Worker processes here; in-process in a subprocess pinned to one CPU.
    args = ["verify", *_VERIFY_ARGS, "--trials", "30"]
    assert main([*args, "--out", str(tmp_path / "many")]) == 0
    assert multiprocessing.active_children() == []
    pin_and_run = ("import os, sys; from specbound.cli import main; "
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                   "sys.exit(main(sys.argv[1:]))")
    src = str(Path(specbound.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", pin_and_run, *args,
                    "--out", str(tmp_path / "one")],
                   check=True, capture_output=True, env={**os.environ, "PYTHONPATH": src})
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_verify_generation_failure_exits_2_with_the_in_process_message(
        tmp_path, capsys, monkeypatch, non_commuting_pairs):
    # Patched before the workers fork, so they inherit it.
    non_commuting_pairs()
    args = ["verify", *_VERIFY_ARGS, "--out", str(tmp_path / "r")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InstanceSpec(") and "not a commuting pair" in err
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(jobs_mod, "_cpus", lambda: 1)
    assert main(args) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("args", [
    ["--dims", ","], ["--series", ","], ["--trials", "-3"], ["--families", ","],
    ["--families", "bogus"], ["--dims", "0"], ["--trials", "0"], ["--p", "0.5"],
    ["--p", "2"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"],
    ["--tol", "inf"], ["--seed", "-1"],
])
def test_sweep_with_nothing_to_cycle_exits_2(tmp_path, capsys, command, args):
    # --p, no longer an option, is rejected by argparse
    code = exit_code([command, *args, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # fails before writing anything


@pytest.mark.parametrize("text, names", [
    ("exp,geometric", ("exp", "geometric")),
    ("poly:1,0.5", ("poly:1,0.5",)),
    ("poly:1,-0.5+0.3j,0.25j,exp, poly:2,nan", ("poly:1,-0.5+0.3j,0.25j", "exp",
                                               "poly:2,nan")),
    ("poly:1,,0.5", ("poly:1,,0.5",)),
    ("2F1:0.5,1,2,exp", ("2F1:0.5,1,2", "exp")),
], ids=["catalog", "poly", "poly-then-catalog", "empty-coefficient", "2F1-then-catalog"])
def test_sweep_series_list_keeps_poly_names_whole(text, names):
    assert _parse_series(text) == names


def test_sweep_runs_a_poly_series(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["verify", "--series", "poly:1,0.5,exp", "--families",
                 "diagonal-positive,commuting-triangular-pair", "--trials", "4",
                 "--dims", "2", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = list(csv.DictReader((out / "trials.csv").read_text().splitlines()))
    assert {row["series"] for row in rows} == {"poly:1,0.5", "exp"}


@pytest.mark.parametrize("command", ["verify"])
def test_sweep_empty_poly_coefficient_exits_2(tmp_path, capsys, command):
    code = main([command, "--series", "poly:1,,0.5", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "coefficient 1 of 'poly:1,,0.5'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("series", _BAD_2F1_NAMES)
def test_sweep_malformed_2f1_name_exits_2(tmp_path, capsys, series):
    code = main(["verify", "--series", f"exp,{series}", "--out", str(tmp_path / "r")])
    assert code == 2
    assert repr(series) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_bound_csv_is_the_bound_columns_of_trials_csv(tmp_path, capsys):
    # Two writers agree: a swept pair's `bound --format csv`
    # (`cli._bound_report_csv`, through csv.writer) is its trial's rows of
    # trials.csv (`harness._rows_text`, f-strings), bound columns only.
    out = tmp_path / "r"
    assert main(["verify", "--series", "exp", "--families", "commuting-polynomial-pair",
                 "--trials", "1", "--dims", "4", "--out", str(out)]) == 0
    header, *rows = list(csv.reader((out / "trials.csv").read_text().splitlines()))
    first, last = header.index("bound"), header.index("oracle_error") + 1
    trial = rows[0]
    spec = InstanceSpec(int(trial[1]), trial[0], int(trial[2]), float(trial[3]))
    paths = [str(tmp_path / "A.mat"), str(tmp_path / "B.mat")]
    for path, M in zip(paths, gen_commuting_pair(spec)):
        save_matrix(path, M)
    capsys.readouterr()
    assert main(["bound", "--series", "exp", "--format", "csv",
                 "--matrix", paths[0], "--matrix", paths[1]]) == 0
    expected = [header[first:last]] + [row[first:last] for row in rows]
    assert list(csv.reader(capsys.readouterr().out.splitlines())) == expected


def test_back_to_back_main_calls_match_fresh_ones(diag_pair, zero2, tmp_path, capsys):
    # `main` parses every call with one parser: nothing of a call may leak
    # into the next, such as a --matrix list appended to.
    calls = [["bound", "--series", "exp", "--matrix", diag_pair[0],
              "--matrix", diag_pair[1]],
             ["bound", "--series", "exp", "--matrix", zero2],
             ["verify", *_VERIFY_ARGS]]

    def run(argv, out, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = main([*argv, "--out", str(out)])
        text = (out / "trials.csv").read_bytes() if out.is_dir() else out.read_bytes()
        return code, capsys.readouterr(), text

    back_to_back = [run(argv, tmp_path / f"b{i}", False) for i, argv in enumerate(calls)]
    assert cli._parser() is cli._parser()
    fresh = [run(argv, tmp_path / f"f{i}", True) for i, argv in enumerate(calls)]
    assert [code for code, *_ in back_to_back] == [0, 0, 0]
    assert [(code, text) for code, _, text in back_to_back] == [
        (code, text) for code, _, text in fresh]
    assert [out.err for _, out, _ in back_to_back] == [out.err for _, out, _ in fresh]
    # a caller may change what build_parser returns without changing main's
    assert build_parser() is not build_parser()
    assert build_parser() is not cli._parser()


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="worker processes need Linux and two CPUs")
def test_verify_dead_worker_exits_2_naming_its_exit_code(tmp_path, capsys, monkeypatch):
    # An OOM kill or a signal: the worker is gone without a word.
    monkeypatch.setattr(harness_mod, "_trials", lambda *args: os._exit(9))
    assert main(["verify", *_VERIFY_ARGS, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "error: a worker process died with exit code 9\n"
    assert multiprocessing.active_children() == []


def test_sweep_defaults_match_sweep_config():
    args = build_parser().parse_args(["verify", "--out", "x"])
    assert _sweep_config(args) == SweepConfig()


def test_sweep_records_each_series_own_params(tmp_path, capsys):
    # Two 2F1s in one sweep, each trial with the parameters of its own name:
    # the series named in a row, and not the other 2F1, rebuilds its oracle.
    out = tmp_path / "r"
    names = ("2F1:0.5,1,2", "2F1:0.5,0.75,1.25")
    code = main(["verify", "--series", ",".join((*names, "exp")),
                 "--families", "diagonal-positive", "--trials", "6", "--dims", "2",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = list(csv.DictReader((out / "trials.csv").read_text().splitlines()))
    assert {row["series"] for row in rows} == {*names, "exp"}
    for name, other in zip(names, reversed(names)):
        row = next(r for r in rows if r["series"] == name and r["target"] == "f(T)")
        T = gen_matrix(InstanceSpec(int(row["seed"]), row["family"], int(row["dim"]),
                                    float(row["norm_target"])))

        def oracle(series):
            f = lookup(series)
            return repr(oracle_radii([f], [best_bound(f, T).invariants])[0]["f(T)"][0])

        assert oracle(name) == row["oracle"]
        assert oracle(other) != row["oracle"]


def test_compare_emits_plot_ready_csv(tmp_path, capsys):
    # verify writes summary.json's per-bound statistics again as compare.csv,
    # one row per bound, each cell as trials.csv writes it.
    out = tmp_path / "cmp"
    code = main(["verify", *_VERIFY_ARGS, "--out", str(out)])
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("bound,target,evaluated,available")
    assert any(line.startswith("pair-squares") for line in lines)
    assert any(line.startswith("companion-radius") for line in lines)
    bounds = json.loads((out / "summary.json").read_text())["sweep"]["bounds"]
    header, *rows = csv.reader(lines)
    assert [row[0] for row in rows] == list(bounds)
    for name, *cells in rows:
        assert dict(zip(header[1:], cells)) == {
            key: "" if value is None else repr(value) if isinstance(value, float)
            else str(value) for key, value in bounds[name].items()}


def test_compare_is_an_unknown_subcommand(tmp_path, capsys):
    # verify writes compare.csv; no second sweep command writes it alone.
    assert exit_code(["compare", *_VERIFY_ARGS, "--out", str(tmp_path / "cmp")]) == 2
    assert "invalid choice: 'compare'" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_verify_and_bound_run_without_scipy(tmp_path):
    # scipy is no dependency: with its import blocked, a fresh interpreter
    # (and the workers it forks) sweeps and bounds a 2F1.
    path = str(tmp_path / "t.mat")
    save_matrix(path, np.array([[0.3, 0.2, 0], [0, 0.4, 0.1], [0.1, 0, 0.5]], dtype=complex))
    no_scipy = ("import sys; sys.modules['scipy'] = None; "
                "from specbound.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(specbound.__file__).resolve().parents[1])
    for argv in (["verify", "--series", "2F1:0.5,1,2,exp", "--trials", "4", "--seed", "3",
                  "--out", str(tmp_path / "r")],
                 ["bound", "--series", "2F1:0.5,0.75,1.25", "--matrix", path]):
        done = subprocess.run([sys.executable, "-c", no_scipy, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert done.returncode == 0, (argv[0], done.stderr)
