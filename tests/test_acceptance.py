"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Slack policy throughout: an inequality lhs <= rhs is asserted as
lhs <= rhs + 1e-8 * max(1, rhs) plus the oracle's certified truncation
error where an oracle is involved, so a failure is a genuine violation
and never floating-point noise.
"""

import math

import numpy as np
import pytest

from inequalities import (
    CS_FORMS, holder_geo, holder_ratio, reverse_holder_gap, triple_split,
    triple_split_cs,
)
from specbound import (
    SweepConfig,
    as_matrix,
    best_bound,
    eval_companion,
    lookup,
)
from specbound.bounds import invariants
from specbound.cli import main
from specbound.harness import (
    FAMILIES_PAIR,
    FAMILIES_SINGLE,
    InstanceSpec,
    _fmt,
    gen_commuting_pair,
    gen_matrix,
    oracle_radii,
    run_limit_checks,
)
from textbook import (certified_truncation, closed_form, row_spec, run_identity_checks,
                      run_limit_laws, run_mixed_chain, spectral_radius, sweep_reports,
                      trial_rows, truncation_order)

TOL = 1e-10

ALL_SERIES = [
    "log-resolvent", "cos", "sin", "resolvent", "exp", "half-log-ratio",
    "arcsin", "artanh", "geometric", "cosh", "sinh", "2F1:0.5,0.75,1.25",
]
NONNEGATIVE_SERIES = [
    "exp", "geometric", "cosh", "sinh", "arcsin", "artanh",
    "half-log-ratio", "2F1:0.5,0.75,1.25",
]


def report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} -- {detail}")


def companion(f):
    """f_a of a trial's series `f`, as its bounds evaluate it."""
    return lambda x: eval_companion(f, x, TOL)


def oracle_and_slack(row):
    """The oracle of a `trials.csv` row and the slack it is judged with."""
    oracle, oracle_err = float(row["oracle"]), float(row["oracle_error"])
    return oracle, 1e-8 * max(1.0, oracle) + oracle_err


@pytest.fixture(scope="module")
def pair_reports():
    config = SweepConfig(
        series_names=("exp", "geometric", "log-resolvent", "resolvent"),
        families=FAMILIES_PAIR,
        trials=500,
        dims=(2, 4, 8),
        seed=2024,
        tol=TOL,
    )
    return sweep_reports(config)


def test_a1_single_operator_soundness():
    """Every catalog series: bound >= oracle on 1000 instances each."""
    total, violations = 0, 0
    for idx, name in enumerate(ALL_SERIES):
        config = SweepConfig(
            series_names=(name,),
            families=FAMILIES_SINGLE,
            trials=200,
            dims=(2, 4, 8),
            seed=101 + idx,
            tol=TOL,
        )
        rows, summary = sweep_reports(config)
        assert len(rows) == summary["trials"] == 1000
        total += summary["trials"]
        violations += summary["violations"]
    ok = violations == 0
    report("A1 single-operator soundness", ok,
           f"{total} instances over {len(ALL_SERIES)} series, "
           f"{violations} violations")
    assert ok


def test_a2_pair_holder_soundness(pair_reports):
    """The product row, the factor row and pair-squares sound on 500
    commuting pairs per family (the Hölder and ratio forms, which A3 shows
    are above the factor row, are then sound too), read from the sweep's
    rows."""
    per_family = {fam: 0 for fam in FAMILIES_PAIR}
    violations = 0
    unavailable_reasons: dict[str, int] = {}
    holder_names = ["product-radius", "factor-radius", "pair-squares"]
    for trial in trial_rows(pair_reports[0]):
        per_family[trial[0]["family"]] += 1
        by_name = {row["bound"]: row for row in trial}
        for name in holder_names:
            row = by_name[name]
            oracle, slack = oracle_and_slack(row)
            if row["available"] == "1":
                if float(row["value"]) < oracle - slack:
                    violations += 1
            else:
                assert row["reason"], name
                unavailable_reasons[row["reason"]] = (
                    unavailable_reasons.get(row["reason"], 0) + 1
                )
    ok = violations == 0 and all(n >= 500 for n in per_family.values())
    report("A2 product, factor and pair-squares soundness", ok,
           f"pairs per family {per_family}, {violations} violations, "
           f"unavailable: {unavailable_reasons or 'none'}")
    assert ok


def test_a3_chain_soundness_and_ordering(pair_reports):
    """Each norm-averaged row and the factor row bound the oracle, and are
    at most the corollary that dominates them (the Cauchy-Schwarz form, or
    the Hölder form at p = 1.5, 2 and 3), evaluated from the row's
    intermediates; each Hölder form is at most its ratio form; the product
    row is at most the factor row; mixed-split is at most the triple
    product form, which is at most its own Cauchy-Schwarz form. The
    intermediates come from `best_bound` on each pair, generated again
    from its row's spec columns, and every row's value cell is that
    report's value: the sweep and `bound` report the same numbers."""
    trials = trial_rows(pair_reports[0])
    assert len(trials) >= 500
    violations, order_breaks = 0, 0
    for trial in trials:
        f = lookup(trial[0]["series"])
        results = best_bound(f, *gen_commuting_pair(row_spec(trial[0])), tol=TOL).results
        by_name = {b.name: b for b in results}
        assert [(row["bound"], row["value"]) for row in trial] == [
            (b.name, _fmt(b.value)) for b in results]
        oracle, slack = oracle_and_slack(next(row for row in trial if row["target"] == "f(AB)"))
        fa = companion(f)
        pairs = [(by_name[name], form(fa, by_name[name].intermediates))
                 for name, form in CS_FORMS.items()]
        factor = by_name["factor-radius"]
        rA, rB = factor.intermediates["r(A)"], factor.intermediates["r(B)"]
        pairs.append((by_name["product-radius"], factor.value))
        for p in (1.5, 2.0, 3.0):
            geo = holder_geo(fa, rA, rB, p)
            pairs.append((factor, geo))
            if geo > holder_ratio(fa, rA, rB, p) * (1 + 1e-10):
                order_breaks += 1
        s = by_name["mixed-split"].intermediates
        triple = triple_split(fa, s)
        pairs.append((by_name["mixed-split"], triple))
        if triple > triple_split_cs(fa, s) + 1e-10 * max(1.0, triple):
            order_breaks += 1
        for row, corollary in pairs:
            assert row.available, row.name
            if row.value < oracle - slack:
                violations += 1
            if row.value > corollary + 1e-10 * max(1.0, corollary):
                order_breaks += 1
    ok = violations == 0 and order_breaks == 0
    report("A3 chain soundness and ordering", ok,
           f"{len(trials)} pairs, {violations} soundness violations, "
           f"{order_breaks} ordering breaks")
    assert ok


def test_a4_noncommuting_quadratic_bounds():
    """Norm-only bounds on r(AB +/- BA), judged by the sweep on 500
    generic pairs, plus the 2x2 equality case."""
    rows, summary = sweep_reports(SweepConfig(families=("generic-pair",), trials=500,
                                              dims=(2, 4, 8), seed=77))
    judged = {f"pm-{kind}({sign})": 0 for kind in ("quadratic", "mixed") for sign in "+-"}
    for row in rows:
        if row["bound"] in judged and row["available"] == "1" and row["oracle"]:
            judged[row["bound"]] += 1
    assert judged == dict.fromkeys(judged, 500)
    checks = run_mixed_chain(seed=77, trials=500, dims=(2, 4, 8))
    violations = summary["violations"] + sum(c.violations for c in checks.values())
    shift = as_matrix([[0, 1], [0, 0]])
    shift_t = as_matrix([[0, 0], [1, 0]])
    equality_gap = 0.0
    results = best_bound(lookup("exp"), shift, shift_t).results
    by_name = {r.name: r for r in results}
    for sign in (+1, -1):
        b = by_name[f"pm-quadratic({'+' if sign > 0 else '-'})"]
        oracle = spectral_radius(shift @ shift_t + sign * (shift_t @ shift))
        equality_gap = max(equality_gap, abs(b.value - oracle))
    ok = violations == 0 and equality_gap <= 1e-10
    report("A4 non-commuting quadratic bounds", ok,
           f"500 pairs x 2 signs, {violations} violations, "
           f"2x2 equality gap {equality_gap:.2e}")
    assert ok


def test_a5_background_identities():
    """Power identity, product order, normal equality, norm-root chain."""
    checks = run_identity_checks(seed=5, trials=500, dims=(2, 4, 8))
    detail = ", ".join(
        f"{name}: worst {c.worst_margin:.2e}" for name, c in checks.items()
    )
    ok = all(c.passed for c in checks.values())
    report("A5 background identities", ok, detail)
    assert ok


def test_a6_limit_laws():
    """Subadditivity, radius continuity, truncation Cauchy behavior."""
    checks = run_limit_laws(seed=6, trials=300, dims=(2, 4, 8))
    checks.update(run_limit_checks(seed=6, trials=300, dims=(2, 4, 8)))
    detail = ", ".join(
        f"{name}: {c.trials} checks, worst {c.worst_margin:.2e}"
        for name, c in checks.items()
    )
    ok = all(c.passed for c in checks.values()) and all(
        c.trials >= 300 for c in checks.values()
    )
    report("A6 limit laws", ok, detail)
    assert ok


def test_a7_equality_cases():
    """Positive-diagonal instances are tight; nilpotent resolvent exact."""
    worst_low, worst_high = 1.0, 1.0
    for s_idx, name in enumerate(NONNEGATIVE_SERIES):
        f = lookup(name)
        top = 0.9 * min(f.radius, 10.0)
        for i in range(60):
            rng = np.random.default_rng([97, s_idx, i])
            spec = InstanceSpec(
                seed=int(rng.integers(0, 2**63)),
                family="diagonal-positive",
                dim=(2, 4, 8)[i % 3],
                norm_target=float(top * rng.uniform(0.3, 1.0)),
            )
            T = gen_matrix(spec)
            bound = best_bound(f, T, tol=TOL).results[0]
            value, tail = certified_truncation(f, T, TOL)
            oracle = spectral_radius(value)
            ratio = bound.value / oracle
            allowance = (3 * TOL + tail) / oracle + 1e-12
            assert ratio >= 1.0 - allowance, (name, spec)
            assert ratio <= 1.0 + 1e-8, (name, spec)
            worst_low = min(worst_low, ratio)
            worst_high = max(worst_high, ratio)

    geo = lookup("geometric")
    T = as_matrix([[0, 0.5], [0, 0]])
    bound = best_bound(geo, T, tol=TOL).results[0]
    oracle = oracle_radii([geo], invariants(T[None]), TOL)[0]["f(T)"][0]
    exact = abs(bound.value - 1.0) <= 1e-12 and abs(oracle - 1.0) <= 1e-12
    ok = exact
    report("A7 equality cases", ok,
           f"{len(NONNEGATIVE_SERIES) * 60} diagonal instances, tightness in "
           f"[{worst_low:.12f}, {worst_high:.12f}]; nilpotent resolvent "
           f"|bound-1| = {abs(bound.value - 1.0):.2e}")
    assert ok


def test_a8_scalar_primitives():
    """Reverse Hölder on 10^4 draws; grids vs closed forms; tail certificates."""
    rng = np.random.default_rng(88)
    worst_gap = math.inf
    for _ in range(10_000):
        k = int(rng.integers(1, 13))
        weights = rng.uniform(0.0, 10.0, k)
        xs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        ys = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        p = float(rng.uniform(1.1, 8.0))
        q = p / (p - 1.0)
        gap = reverse_holder_gap(weights, xs, ys, p)
        lhs = float(
            np.sum(weights * np.abs(xs) ** p)
            * np.sum(weights * np.abs(ys) ** q)
        )
        assert gap >= -1e-8 * max(1.0, lhs)
        worst_gap = min(worst_gap, gap / max(1.0, lhs))

    worst_closed = 0.0
    worst_tail_excess = -math.inf
    for f in map(lookup, ALL_SERIES):  # 2F1 at (0.5, 0.75, 1.25)
        top = 0.95 * min(f.radius, 10.0)
        for k in range(100):
            x = top * k / 99.0
            value = eval_companion(f, x, TOL)
            closed = closed_form(f)(x)
            worst_closed = max(worst_closed, abs(value - closed))
            assert abs(value - closed) <= 10 * TOL, (f.name, x)
            m = truncation_order(f, x, TOL)
            partial = sum(abs(a) * x**j for j, a in enumerate(f.prefix(m)[0].tolist()))
            measured = closed - partial
            fp_slack = 1e-12 * max(1.0, abs(closed))
            assert measured <= f.tail_bound(m, x) + fp_slack, (f.name, x)
            assert measured <= TOL + fp_slack, (f.name, x)
            worst_tail_excess = max(
                worst_tail_excess, measured - f.tail_bound(m, x)
            )
    ok = True
    report("A8 scalar primitives", ok,
           f"reverse-Hölder worst relative gap {worst_gap:.2e} (>= 0 expected); "
           f"closed-form worst |diff| {worst_closed:.2e} <= {10 * TOL:g}; "
           f"tail certificate worst excess {worst_tail_excess:.2e} "
           f"(within the double-precision slack)")
    assert ok


def test_a9_verify_determinism(tmp_path):
    """cmd_verify twice with one seed: byte-identical reports."""
    args = [
        "verify", "--series", "exp,geometric",
        "--families", "diagonal-positive,dense-random,commuting-polynomial-pair",
        "--trials", "12", "--dims", "2,4", "--seed", "31",
    ]
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    same_csv = (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    same_summary = (
        out1 / "summary.json"
    ).read_bytes() == (out2 / "summary.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_csv and same_summary
    report("A9 determinism", ok,
           f"exit codes ({code1}, {code2}), csv identical: {same_csv}, "
           f"summary identical: {same_summary}")
    assert ok
