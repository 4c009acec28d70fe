"""Every bound against hand values, oracles, and ordering properties."""

import json
import math
import re
from dataclasses import asdict

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inequalities import (
    CS_FORMS, holder_geo, holder_ratio, relaxed_arms, reverse_holder_gap,
    triple_split, triple_split_cs,
)
from specbound import (
    FAMILIES_PAIR,
    NormOverflow,
    PowerSeries,
    as_matrix,
    best_bound,
    eval_companion,
    gen_commuting_pair,
    lookup,
    oracle_radii,
)
from specbound.bounds import (_COMMUTING_ROWS, _PAIR_NORMS, Invariants, _pair_values,
                              evaluate, invariants, products)
from specbound.errors import SpecboundError
from specbound.harness import (FAMILIES_GENERIC, FAMILIES_SINGLE, InstanceSpec, _generate,
                               _ginibre)
from textbook import (bound_report_alone, catalog, certified_truncation, closed_form,
                      operator_norm, spectral_radius)

TOL = 1e-10

EXP = lookup("exp")
GEO = lookup("geometric")
LOG = lookup("log-resolvent")

SHIFT = as_matrix([[0, 1], [0, 0]])
SHIFT_T = as_matrix([[0, 0], [1, 0]])


def commuting_pair(seed, n=4, family="commuting-polynomial-pair", target=0.7):
    return gen_commuting_pair(
        InstanceSpec(seed=seed, family=family, dim=n, norm_target=target)
    )


def rows(f, A, B):
    """Each bound of `best_bound`'s report on the pair, by name."""
    return {r.name: r for r in best_bound(f, A, B, tol=TOL).results}


def companion(f):
    """f_a as the bounds evaluate it."""
    return lambda x: eval_companion(f, x, TOL)


def holder(f, A, B, p):
    """The factor row, and the Hölder and ratio forms at exponent p on its
    intermediates r(A) and r(B)."""
    factor = rows(f, A, B)["factor-radius"]
    rA, rB = factor.intermediates["r(A)"], factor.intermediates["r(B)"]
    fa = companion(f)
    return factor, holder_geo(fa, rA, rB, p), holder_ratio(fa, rA, rB, p)


def split(f, A, B, name):
    """A norm-averaged row, and its Cauchy-Schwarz form on its intermediates."""
    row = rows(f, A, B)[name]
    return row, CS_FORMS[name](companion(f), row.intermediates)


def pm(name, A, B, sign=+1):
    """The norm-only row `name` on r(AB + sign BA)."""
    return rows(EXP, A, B)[f"{name}({'+' if sign > 0 else '-'})"]


def oracle_radius(f, T):
    """r of f(T)'s certified truncation, as the harness computes it."""
    return oracle_radii(f, invariants(T[None]), TOL)[0]["f(T)"][0]


def oracle_with_slack(f, T):
    value, tail = certified_truncation(f, T, TOL)
    oracle = spectral_radius(value)
    return oracle, 1e-8 * max(1.0, oracle) + tail


# ---------------------------------------------------------------------------
# Single operator
# ---------------------------------------------------------------------------


def test_single_zero_matrix_exp():
    b = best_bound(EXP, np.zeros((2, 2))).results[0]
    assert b.value == pytest.approx(1.0, abs=1e-12)
    assert b.available and b.target == "f(T)"


def test_single_nilpotent_geometric_equality():
    T = as_matrix([[0, 0.5], [0, 0]])
    b = best_bound(GEO, T).results[0]
    assert b.value == pytest.approx(1.0, abs=1e-12)
    assert oracle_radius(GEO, T) == pytest.approx(1.0, abs=1e-12)


def test_single_nonnormal_with_placed_radius():
    # triangular, r(T) = 0.9 but a much larger norm
    T = as_matrix([[0.9, 1.5], [0, 0.3]])
    b = best_bound(EXP, T).results[0]
    assert b.value == pytest.approx(math.exp(0.9), abs=1e-9)
    oracle, slack = oracle_with_slack(EXP, T)
    assert b.value >= oracle - slack


def test_single_unavailable_outside_disk():
    b = best_bound(GEO, np.diag([1.2, 0.5])).results[0]
    assert not b.available
    assert "||T|| < R" in b.reason


def test_single_scalar_reduction_is_equality():
    # 1x1 nonnegative matrices with a nonnegative series reduce to the
    # scalar identity f_a(a) = r(f(a))
    for a in (0.0, 0.3, 0.8):
        T = as_matrix([[a]])
        b = best_bound(GEO, T).results[0]
        oracle, _ = oracle_with_slack(GEO, T)
        assert b.value == pytest.approx(oracle, abs=3 * TOL)


# ---------------------------------------------------------------------------
# Product and factor rows, and the Hölder forms above them
# ---------------------------------------------------------------------------


def test_holder_rejects_noncommuting():
    # the factor row, and pair-squares, the Hölder form at p = 2, need AB = BA
    by_name = rows(EXP, SHIFT, SHIFT_T)
    for name in ("factor-radius", "pair-squares"):
        assert not by_name[name].available
        assert "commutator test failed" in by_name[name].reason


def test_holder_scalar_case_p2():
    A = np.diag([0.5, 0.5]).astype(complex)
    factor, geo, ratio = holder(EXP, A, A, 2.0)
    # f_a(0.25) = e^0.25 for the factor row; f_a(0.25)^(1/2) f_a(0.25)^(1/2)
    # for pair-squares and the Hölder form, and the ratio form
    # e^(0.25 + 0.25 - 0.25), are the same number
    assert factor.value == pytest.approx(math.exp(0.25), abs=1e-9)
    assert rows(EXP, A, A)["pair-squares"].value == pytest.approx(math.exp(0.25), abs=1e-9)
    assert geo == pytest.approx(math.exp(0.25), abs=1e-9)
    assert oracle_radius(EXP, A @ A) == pytest.approx(math.exp(0.25), abs=1e-9)
    assert ratio == pytest.approx(math.exp(0.25), abs=1e-9)


def test_holder_zero_factor():
    Z = np.zeros((3, 3))
    B = np.diag([0.5, 0.4, 0.1]).astype(complex)
    factor, geo, _ = holder(EXP, Z, B, 2.0)
    # f_a(0 * 0.5) = |a_0| = oracle, below f_a(0)^(1/2) f_a(r(B)^2)^(1/2)
    assert factor.value == pytest.approx(1.0, abs=1e-12)
    assert oracle_radius(EXP, Z @ B) == pytest.approx(1.0, abs=1e-12)
    assert rows(EXP, Z, B)["pair-squares"].value == pytest.approx(math.exp(0.125), abs=1e-9)
    assert geo == pytest.approx(math.exp(0.125), abs=1e-9)


def test_holder_ratio_denominator_vanishes():
    # constant-term-free series with r(A) = r(B) = 0: the ratio form gives
    # no bound, the rows it dominates still do
    N = as_matrix([[0, 0.5], [0, 0]])
    factor, geo, ratio = holder(LOG, N, N, 2.0)
    assert factor.available and factor.value == 0.0
    assert rows(LOG, N, N)["pair-squares"].value == 0.0
    assert geo == 0.0
    assert ratio == math.inf


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_soundness_random_pairs(p):
    for seed in range(12):
        A, B = commuting_pair(seed)
        factor, geo, ratio = holder(GEO, A, B, p)
        oracle, slack = oracle_with_slack(GEO, A @ B)
        assert factor.available, (seed, p)
        assert oracle - slack <= factor.value <= geo * (1 + 1e-10), (seed, p)
        assert geo <= ratio * (1 + 1e-10), (seed, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_exp_closed_forms(p):
    # for the exponential the factor row is exp(r(A) r(B)), and the two
    # Hölder forms reduce to exp(r(A)^p/p + r(B)^q/q) and
    # exp(r(A)^p + r(B)^q - r(A)^(p-1) r(B)^(q-1))
    A, B = commuting_pair(23)
    rA, rB = spectral_radius(A), spectral_radius(B)
    q = p / (p - 1.0)
    factor, geo, ratio = holder(EXP, A, B, p)
    assert factor.value == pytest.approx(math.exp(rA * rB), rel=1e-9)
    assert geo == pytest.approx(
        math.exp(rA**p / p + rB**q / q), rel=1e-9
    )
    assert ratio == pytest.approx(
        math.exp(rA**p + rB**q - rA ** (p - 1) * rB ** (q - 1)), rel=1e-9
    )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_geometric_closed_forms(p):
    # for the geometric companion: 1/(1 - r(A) r(B)) for the factor row,
    # (1-r(A)^p)^(-1/p) (1-r(B)^q)^(-1/q) and
    # (1 - r(A)^(p-1) r(B)^(q-1)) / ((1-r(A)^p)(1-r(B)^q))
    A, B = commuting_pair(29, target=0.6)
    rA, rB = spectral_radius(A), spectral_radius(B)
    q = p / (p - 1.0)
    factor, geo, ratio = holder(GEO, A, B, p)
    assert factor.value == pytest.approx(1 / (1 - rA * rB), rel=1e-9)
    assert geo == pytest.approx(
        (1 - rA**p) ** (-1 / p) * (1 - rB**q) ** (-1 / q), rel=1e-9
    )
    assert ratio == pytest.approx(
        (1 - rA ** (p - 1) * rB ** (q - 1)) / ((1 - rA**p) * (1 - rB**q)),
        rel=1e-9,
    )


def test_pair_squares_matches_holder_at_p2():
    A, B = commuting_pair(7)
    sq = rows(GEO, A, B)["pair-squares"]
    _, geo, _ = holder(GEO, A, B, 2.0)
    assert sq.value == pytest.approx(geo, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from([*catalog(), lookup("2F1:0.5,0.75,1.25")]),
    family=st.sampled_from(FAMILIES_PAIR),
    n=st.sampled_from((2, 4, 8)),
    fraction=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**63 - 1),
)
def test_product_and_factor_rows_sit_below_the_holder_chain(f, family, n, fraction,
                                                             seed):
    # On the sweep's pairs, at its norm targets: product-radius <=
    # factor-radius <= holder_geo(p) <= holder_ratio(p) for every p,
    # factor-radius <= pair-squares, and product-radius below both norm
    # rows. The Hölder forms take f_a from its closed form, above every
    # truncated sum.
    top = 0.8 * math.sqrt(f.radius) if math.isfinite(f.radius) else 1.0
    A, B = commuting_pair(seed, n, family, top * fraction)
    by_name = rows(f, A, B)
    product, factor = by_name["product-radius"], by_name["factor-radius"]
    assert product.available and factor.available, (product.reason, factor.reason)

    def below(lhs, rhs, what):
        assert lhs <= rhs + 1e-12 * max(1.0, rhs), what

    rA, rB = factor.intermediates["r(A)"], factor.intermediates["r(B)"]
    below(product.value, factor.value, "factor-radius")
    for p in (1.25, 1.5, 2.0, 3.0, 6.0):
        geo = holder_geo(closed_form(f), rA, rB, p)
        below(factor.value, geo, ("holder_geo", p))
        below(geo, holder_ratio(closed_form(f), rA, rB, p), ("holder_ratio", p))
    below(factor.value, by_name["pair-squares"].value, "pair-squares")
    for name in ("norm-split", "mixed-split"):
        below(product.value, by_name[name].value, name)


def test_product_radius_needs_the_norm_of_ab_inside_the_disk():
    # r(AB) = 0.45 < R = 1 <= ||AB||: no f(AB) row, and no f(AB) oracle
    A = as_matrix([[0.5, 10], [0, 0.5]])
    report = best_bound(GEO, A, 0.9 * np.eye(2))
    for name in ("product-radius", "factor-radius"):
        b = next(r for r in report.results if r.name == name)
        assert not b.available
        assert b.reason.startswith("precondition failed: ||AB|| < R"), name
    assert report.minimum is None
    assert "f(AB)" not in oracle_radii(GEO, [report.invariants], TOL)[0]


def test_pair_squares_zero_pair():
    Z = np.zeros((2, 2))
    assert rows(EXP, Z, Z)["pair-squares"].value == pytest.approx(1.0, abs=1e-12)


def test_pair_squares_exp_closed_form():
    A, B = commuting_pair(19)
    rA, rB = spectral_radius(A), spectral_radius(B)
    b = rows(EXP, A, B)["pair-squares"]
    assert b.value == pytest.approx(
        math.exp((rA**2 + rB**2) / 2.0), rel=1e-9
    )
    oracle, slack = oracle_with_slack(EXP, A @ B)
    assert b.value >= oracle - slack


def test_pair_squares_frozen_example():
    A = np.diag([0.6, 0.6]).astype(complex)
    B = np.diag([0.5, 0.5]).astype(complex)
    b = rows(GEO, A, B)["pair-squares"]
    assert b.value == pytest.approx(1.4433756729740643, abs=1e-10)
    r = oracle_radius(GEO, A @ B)
    assert r == pytest.approx(1.0 / 0.7, abs=1e-9)
    assert b.value >= r


# ---------------------------------------------------------------------------
# Norm-averaged pair bounds
# ---------------------------------------------------------------------------


def test_norm_split_zero_pair():
    Z = np.zeros((2, 2))
    first, second = split(EXP, Z, Z, "norm-split")
    assert first.value == pytest.approx(1.0, abs=1e-12)
    assert second == pytest.approx(1.0, abs=1e-12)


def test_norm_split_diagonal_equality():
    A = np.diag([0.7, 0.7]).astype(complex)
    first, _ = split(GEO, A, A, "norm-split")
    assert first.value == pytest.approx(1.0 / 0.51, abs=1e-9)
    oracle = oracle_radius(GEO, A @ A)
    assert first.value == pytest.approx(oracle, abs=1e-8)


def test_norm_split_chain_order_and_soundness():
    for seed in range(12):
        A, B = commuting_pair(seed + 50)
        first, second = split(GEO, A, B, "norm-split")
        assert first.value <= second + 1e-10 * max(1.0, second)
        oracle, slack = oracle_with_slack(GEO, A @ B)
        assert first.value >= oracle - slack


def test_mixed_split_zero_pair():
    Z = np.zeros((2, 2))
    first, second = split(EXP, Z, Z, "mixed-split")
    assert first.value == pytest.approx(1.0, abs=1e-12)
    assert second == pytest.approx(1.0, abs=1e-12)


def test_mixed_split_diagonal_scalar_symmetry():
    c = 0.6
    A = np.diag([c, c]).astype(complex)
    first, _ = split(GEO, A, A, "mixed-split")
    assert first.value == pytest.approx(1.0 / (1 - c * c), abs=1e-9)


def test_mixed_split_chain_order_and_soundness():
    for seed in range(12):
        A, B = commuting_pair(seed + 80)
        first, second = split(EXP, A, B, "mixed-split")
        assert first.value <= second + 1e-10 * max(1.0, second)
        oracle, slack = oracle_with_slack(EXP, A @ B)
        assert first.value >= oracle - slack


def test_mixed_split_needs_only_its_arguments_inside_the_disk():
    # R = 1/2 and ||A|| = 0.6 >= R, but r(AB) <= sqrt(||A|| ||AB^2||) = 0.18
    # and the row's other arguments lie inside the disk: the row applies,
    # with equality here
    f = PowerSeries(coefficients=lambda m: (2.0 ** np.arange(m + 1) + 0j,
                                            np.arange(m + 1) * math.log(2.0)),
                    radius=0.5, name="2^n",
                    tail_bound=lambda m, x: (2.0 * x) ** (m + 1) / (1.0 - 2.0 * x))
    A, B = np.diag([0.6, 0.1]).astype(complex), np.diag([0.3, 0.3]).astype(complex)
    b = rows(f, A, B)["mixed-split"]
    assert b.available, b.reason
    assert [p[0] for p in b.preconditions][:2] == ["||A||^2 < R", "||B||^2 < R"]
    oracle, slack = oracle_with_slack(f, A @ B)
    assert oracle == pytest.approx(1.0 / (1.0 - 2.0 * 0.18), abs=slack)
    assert oracle - slack <= b.value <= oracle + slack


def test_triple_split_chain_order_and_soundness():
    # mixed-split <= triple_split <= its Cauchy-Schwarz form: the triple
    # product form is not a row, since it is never below mixed-split
    fa = companion(GEO)
    for seed in range(12):
        A, B = commuting_pair(seed + 110)
        mixed = rows(GEO, A, B)["mixed-split"]
        triple = triple_split(fa, mixed.intermediates)
        cs = triple_split_cs(fa, mixed.intermediates)
        assert mixed.value <= triple + 1e-12 * max(1.0, triple)
        assert triple <= cs + 1e-10 * max(1.0, cs)
        oracle, slack = oracle_with_slack(GEO, A @ B)
        assert mixed.value >= oracle - slack


# ---------------------------------------------------------------------------
# Norm-only bounds
# ---------------------------------------------------------------------------


def test_pm_quadratic_shift_pair_equality():
    # AB + BA = I and AB - BA = diag(1, -1): oracle 1, bound 1
    for sign in (+1, -1):
        b = pm("pm-quadratic", SHIFT, SHIFT_T, sign)
        oracle = spectral_radius(
            SHIFT @ SHIFT_T + sign * (SHIFT_T @ SHIFT)
        )
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert b.value == pytest.approx(1.0, abs=1e-10)


def test_pm_quadratic_zero():
    Z = np.zeros((2, 2))
    assert pm("pm-quadratic", Z, Z).value == 0.0


def test_pm_quadratic_soundness_random():
    g = np.random.default_rng(5)
    for _ in range(20):
        A = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        B = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        for sign in (+1, -1):
            b = pm("pm-quadratic", A, B, sign)
            oracle = spectral_radius(A @ B + sign * (B @ A))
            assert b.value >= oracle - 1e-8 * max(1.0, oracle)


def test_pm_mixed_shift_pair():
    # B^2 = 0 kills the left arm: bound = ||AB|| = 1 = oracle, both signs
    for sign in (+1, -1):
        b = pm("pm-mixed", SHIFT, SHIFT_T, sign)
        oracle = spectral_radius(SHIFT @ SHIFT_T + sign * (SHIFT_T @ SHIFT))
        assert b.value == pytest.approx(1.0, abs=1e-12)
        assert b.value >= oracle - 1e-10


def test_pm_mixed_line_below_relaxations():
    g = np.random.default_rng(6)
    for _ in range(20):
        A = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        B = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        b = pm("pm-mixed", A, B)
        for arm in relaxed_arms(b.intermediates):
            assert b.value <= arm + 1e-10 * max(1.0, arm)


def test_product_half_identity_pair():
    eye = np.eye(2)
    b = rows(EXP, eye, eye)["product-half"]
    assert b.value == pytest.approx(1.0, abs=1e-12)


def test_product_half_signed_diagonal():
    A = np.diag([0.5, -0.5]).astype(complex)
    b = rows(EXP, A, A)["product-half"]
    assert b.value == pytest.approx(0.25, abs=1e-12)
    assert spectral_radius(A @ A) == pytest.approx(0.25, abs=1e-12)


def test_product_half_rejects_noncommuting():
    b = rows(EXP, SHIFT, SHIFT_T)["product-half"]
    assert not b.available
    assert "commutator test failed" in b.reason


def test_product_half_soundness_random():
    for seed in range(15):
        A, B = commuting_pair(seed + 140)
        b = rows(EXP, A, B)["product-half"]
        oracle = spectral_radius(A @ B)
        assert b.value >= oracle - 1e-8 * max(1.0, oracle)


def test_product_chain_identity_pair():
    eye = np.eye(3)
    b = rows(EXP, eye, eye)["product-chain"]
    assert b.value == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(eye @ eye) == pytest.approx(1.0)


def test_product_chain_line_below_relaxations_and_oracle():
    for seed in range(15):
        A, B = commuting_pair(seed + 170)
        b = rows(EXP, A, B)["product-chain"]
        oracle = spectral_radius(A @ B)
        assert b.value >= oracle - 1e-8 * max(1.0, oracle)
        for arm in relaxed_arms(b.intermediates):  # halved, as r(AB)'s row is
            assert b.value <= 0.5 * arm + 1e-10 * max(1.0, arm)


# ---------------------------------------------------------------------------
# Reverse Hölder sum inequality
# ---------------------------------------------------------------------------


def test_reverse_holder_fixed_example():
    gap = reverse_holder_gap([1.0, 2.0], [1.0, 0.5], [0.25, 1.0], 2.0)
    assert gap >= 0.0


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                               allow_infinity=False),
            st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                               allow_infinity=False),
        ),
        min_size=1, max_size=12,
    ),
    p=st.floats(min_value=1.01, max_value=8.0),
)
def test_reverse_holder_property(data, p):
    weights = [d[0] for d in data]
    xs = [d[1] for d in data]
    ys = [d[2] for d in data]
    gap = reverse_holder_gap(weights, xs, ys, p)
    scale = max(
        1.0,
        sum(weights) * max(abs(x) for x in xs) ** p
        * max(1.0, max(abs(y) for y in ys)) ** (p / (p - 1)),
    )
    assert gap >= -1e-9 * scale


# ---------------------------------------------------------------------------
# Corollaries that are not rows
# ---------------------------------------------------------------------------

_SERIES = [*catalog(), lookup("2F1:0.5,0.75,1.25")]
_ROW = {row.name: row for row in _COMMUTING_ROWS}


def _scalar_pair(norms, radii=(0.0, 0.0)):
    """The quantities of a pair given by its norms (and r(A), r(B)) alone,
    as `invariants` derives them; the norms and radii not given are 0."""
    return Invariants(_pair_values([norms.get(x, 0.0) for x in _PAIR_NORMS], [*radii, 0.0]),
                      np.empty(0))


def _evaluated(row, f, v):
    """`row` as `evaluate` fills it on the stack of one pair `v`, taken to
    commute: the row alone, whichever pair its norms come from."""
    v = Invariants({**v, "||AB-BA||": 0.0}, v.spectrum)
    (result,) = (b for b in evaluate([f], [v], TOL).results(0) if b.name == row.name)
    return result


def _real_pair(kind, seed, a, b):
    """A pair of norms a and b: aligned positive diagonals (every
    submultiplicative step an equality), a commuting pair or a generic one."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    if kind == "diagonal":
        A, B = (np.diag(np.sort(rng.uniform(0.1, 1.0, n))[::-1]).astype(complex)
                for _ in "AB")
    elif kind == "commuting":
        A, B = commuting_pair(seed, n)
    else:
        A, B = _ginibre(rng, n), _ginibre(rng, n)
    return A * (a / operator_norm(A)), B * (b / operator_norm(B))


@settings(max_examples=300, deadline=None)
@given(
    f=st.sampled_from(_SERIES),
    u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
    p=st.floats(1.05, 8.0),
    kind=st.sampled_from(("diagonal", "commuting", "generic")),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropped_corollaries_dominate_their_rows(f, u, p, kind, seed):
    # Each corollary, with f_a from its closed form, is at least the row it
    # dominates as best_bound evaluates it, at any nonnegative arguments
    # inside the disk: the norms need not come from one pair.
    fa = closed_form(f)
    R = f.radius
    top = math.sqrt(0.99 * R) if math.isfinite(R) else 3.0  # every argument < R

    def check(row, scope, corollary):
        kept = _evaluated(row, f, scope)
        assert kept.available, (row.name, kept.reason)
        assert corollary >= kept.value - 1e-12 * max(1.0, kept.value), row.name

    names = ("||A||", "||B||", "||AB||", "||A^2||", "||B^2||", "||AB^2||", "||A^2B||")
    v = _scalar_pair({k: x * top for k, x in zip(names, u)})
    for name, form in CS_FORMS.items():
        check(_ROW[name], v, form(fa, v))

    q = p / (p - 1.0)
    rA, rB = (u[0] * top * top) ** (1 / p), (u[1] * top * top) ** (1 / q)
    v = _scalar_pair({"||AB||": rA * rB}, (rA, rB))  # rA rB < R by Young
    geo = holder_geo(fa, rA, rB, p)
    check(_ROW["factor-radius"], v, geo)
    assert holder_ratio(fa, rA, rB, p) >= geo - 1e-12 * max(1.0, geo)

    # triple_split and its Cauchy-Schwarz form on the norms of one pair,
    # commuting or not: submultiplicativity need not hold for other numbers
    A, B = _real_pair(kind, seed, u[0] * top, u[1] * top)
    (v,) = invariants(A[None], B[None])
    s = _evaluated(_ROW["mixed-split"], f, v).intermediates
    triple = triple_split(fa, s)
    check(_ROW["mixed-split"], v, triple)
    assert triple_split_cs(fa, s) >= triple - 1e-12 * max(1.0, triple)


# ---------------------------------------------------------------------------
# The stacked evaluator against one instance at a time
# ---------------------------------------------------------------------------

_STACKED_SERIES = [EXP, GEO, LOG, lookup("2F1:0.5,1,2"), lookup("poly:1,-0.5+0.3j,0.25j")]
# Inside and outside R = 1, and where exp's companion leaves double range.
_STACKED_TARGETS = (0.3, 0.9, 1.3, 40.0, 800.0)


def _stack(families):
    """The invariants of every family in `families` at n = 1, 2 and 5, at
    each of `_STACKED_TARGETS`, as one list."""
    vs = []
    for family in families:
        for n in (1, 2, 5):
            specs = [InstanceSpec(seed, family, n, target)
                     for seed, target in enumerate(_STACKED_TARGETS)]
            vs += invariants(*_generate(specs))
    return vs


def _assert_stack_is_alone(vs):
    """Every instance of `vs` with every series of `_STACKED_SERIES`, all as
    one stack: each row of each instance has the bits, reason,
    preconditions and intermediates `bound_report_alone` gives it, and
    each instance that raises alone has that error in its place. Returns
    the kinds of reasons and errors met."""
    fs = [f for _ in vs for f in _STACKED_SERIES]
    vs = [v for v in vs for _ in _STACKED_SERIES]
    table = evaluate(fs, vs, TOL)
    reasons = []
    for i, (f, v) in enumerate(zip(fs, vs)):
        try:
            alone = bound_report_alone(f, v, TOL).results
        except SpecboundError as e:
            assert (type(table.errors[i]), str(table.errors[i])) == (type(e), str(e)), i
            reasons.append("error")
            continue
        assert table.errors[i] is None, i
        stacked = table.results(i)
        assert repr(stacked) == repr(alone), (i, f.name)
        reasons += [re.match(r"precondition failed|not finite: (f_a|value)|commutator test",
                             r.reason)[0] for r in stacked if r.reason]
    return set(reasons)


def test_stacked_singles_match_each_instance_alone():
    T = np.diag([1 - 1e-9, 0.0])  # ||T|| < R = 1, where no order certifies f_a(r(T))
    vs = [*_stack(FAMILIES_SINGLE), *invariants(T[None])]
    assert _assert_stack_is_alone(vs) == {
        "precondition failed", "not finite: f_a", "error"}


def test_stacked_pairs_match_each_pair_alone():
    # Commuting and generic pairs; a pair whose (||AB|| - ||BA||)^2 is past
    # double range with every product finite; and one at a difference
    # where Python's ** 2 and x * x round apart, and so pm-quadratic.
    x = 0.2553038183126349
    A, B = np.zeros((2, 2, 2, 2), dtype=complex)
    A[:, 0, 1], A[1, 0, 0], B[:, 1, 1] = (1e200, x), 0.01, 1.0
    odd = invariants(A, B)
    d, c = odd[1]["||AB||"] - odd[1]["||BA||"], 4.0 * odd[1]["||A^2||"] * odd[1]["||B^2||"]
    assert d == x and d ** 2 != d * d and math.sqrt(d ** 2 + c) != math.sqrt(d * d + c)
    vs = [*_stack((*FAMILIES_PAIR, *FAMILIES_GENERIC)), *odd]
    assert _assert_stack_is_alone(vs) == {
        "precondition failed", "not finite: f_a", "not finite: value", "commutator test", "error"}


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def test_best_bound_single_zero_exp():
    report = best_bound(EXP, np.zeros((2, 2)))
    assert report.minimum is not None
    assert report.minimum.name == "companion-radius"
    assert report.minimum.value == pytest.approx(1.0, abs=1e-12)


def test_best_bound_pair_example():
    A = np.diag([0.6, 0.6]).astype(complex)
    B = np.diag([0.5, 0.5]).astype(complex)
    report = best_bound(GEO, A, B)
    by_name = {r.name: r for r in report.results}
    assert by_name["pair-squares"].value == pytest.approx(
        1.4433756729740643, abs=1e-9
    )
    oracle = oracle_radius(GEO, A @ B)
    assert report.minimum is not None
    assert report.minimum.target == "f(AB)"
    assert report.minimum.value >= oracle - 1e-8 * max(1.0, oracle) - TOL


def test_best_bound_noncommuting_gating():
    report = best_bound(GEO, SHIFT, SHIFT_T)
    product, *gated = [r for r in report.results if r.target in ("f(AB)", "AB")]
    assert product.name == "product-radius"  # not gated: ||AB|| = 1 = R fails
    assert not product.available and "||AB|| < R" in product.reason
    assert gated and all(not r.available for r in gated)
    assert all("commutator test failed" in r.reason for r in gated)
    free = [r for r in report.results if r.target in ("AB+BA", "AB-BA")]
    assert free and all(r.available for r in free)
    assert report.minimum is None


def test_pm_rows_are_signed_rows_evaluated_apart():
    A, B = gen_commuting_pair(InstanceSpec(5, "commuting-polynomial-pair", 4, 0.8))
    pm = best_bound(EXP, A, B).results[:4]
    assert [(r.name, r.target) for r in pm] == [
        ("pm-quadratic(+)", "AB+BA"), ("pm-mixed(+)", "AB+BA"),
        ("pm-quadratic(-)", "AB-BA"), ("pm-mixed(-)", "AB-BA")]
    for plus, minus in zip(pm[:2], pm[2:]):
        assert plus.value == minus.value
        assert plus.intermediates == minus.intermediates
        assert plus.preconditions == minus.preconditions
    # No two rows share a mutable list or dict.
    assert len({id(r.preconditions) for r in pm}) == 4
    assert len({id(r.intermediates) for r in pm}) == 4


def test_bound_result_serialization():
    b = best_bound(EXP, np.zeros((2, 2))).results[0]
    record = json.loads(json.dumps(asdict(b)))
    assert record["name"] == "companion-radius"
    assert record["target"] == "f(T)"
    assert record["value"] == pytest.approx(1.0)
    assert record["preconditions"] == [["||T|| < R", True, 0.0]]
    assert "r(T)" in record["intermediates"]


# ---------------------------------------------------------------------------
# Non-finite values and work per call
# ---------------------------------------------------------------------------


def test_single_bound_past_factorial_underflow_is_available():
    # exp's companion at 150 sums terms 150^n/n! past n = 170, where 1/n!
    # is below double range: e^150 to 1e-12
    report = best_bound(EXP, np.diag([150.0, 1.0]))
    (b,) = report.results
    assert b.available, b.reason
    assert abs(b.value - mp.exp(150)) <= 1e-12 * mp.exp(150)
    assert report.minimum is b


def test_nonfinite_single_bound_is_unavailable():
    # eval_companion(exp, 710) is inf: e^710 is past double range
    report = best_bound(EXP, np.diag([710.0, 1.0]))
    (b,) = report.results
    assert not b.available
    assert "not finite" in b.reason
    assert report.minimum is None


def test_nonfinite_pair_bounds_are_unavailable():
    # every f(AB) row evaluates exp's companion at some x >= 729, where
    # eval_companion returns inf
    D = np.diag([27.0, 1.0]).astype(complex)
    report = best_bound(EXP, D, D)
    assert all(math.isfinite(r.value) for r in report.results if r.available)
    series = [r for r in report.results if r.target == "f(AB)"]
    assert len(series) == 5
    assert all(not r.available and "not finite" in r.reason for r in series)
    assert report.minimum is None


def test_preconditions_are_hypotheses_then_arguments_once():
    A, B = commuting_pair(2)
    pre = {r.name: [p[0] for p in r.preconditions]
           for r in best_bound(GEO, A, B).results}
    sq = ["||A||^2 < R", "||B||^2 < R"]
    assert pre["norm-split"] == sq + ["||AB|| < R", "sqrt(||A^2|| ||B^2||) < R"]
    assert pre["mixed-split"] == sq + [
        "||AB|| < R", "sqrt(||A|| ||AB^2||) < R", "sqrt(||A^2B|| ||B||) < R",
    ]
    assert pre["product-radius"] == ["||AB|| < R"]
    assert pre["factor-radius"] == ["||AB|| < R", "r(A) r(B) < R"]
    for name, descriptions in pre.items():
        assert len(descriptions) == len(set(descriptions)), name


def _count_companion(monkeypatch):
    import specbound.bounds as bounds_mod

    companion = []
    fa = bounds_mod.eval_companion

    def counted_fa(f, x, *args, **kwargs):
        companion.append((f.name, x))
        return fa(f, x, *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "eval_companion", counted_fa)
    return companion


@pytest.mark.parametrize("f", [EXP, GEO])
def test_best_bound_pair_computes_each_invariant_once(monkeypatch, lapack_work, f):
    # Nine norms from one SVD call; r(A), r(B), r(AB), r(AB+BA) and r(AB-BA)
    # from one eigensolve call.
    A, B = commuting_pair(5, n=8)
    lapack_work.update(dict.fromkeys(lapack_work, 0))  # the generator's norms
    companion = _count_companion(monkeypatch)
    report = best_bound(f, A, B)
    assert report.minimum is not None
    assert lapack_work == {"svd": 9, "svd_calls": 1, "eig": 5, "eig_calls": 1}
    assert companion and len(companion) == len(set(companion))


def test_best_bound_single_computes_each_invariant_once(monkeypatch, lapack_work):
    companion = _count_companion(monkeypatch)
    best_bound(EXP, as_matrix([[0.9, 1.5], [0, 0.3]]))
    assert lapack_work == {"svd": 1, "svd_calls": 1, "eig": 1, "eig_calls": 1}
    assert len(companion) == 1


def test_best_bound_noncommuting_pair_runs_one_eigensolve(monkeypatch, lapack_work):
    # product-radius needs r(AB), which comes with the pair's other radii
    companion = _count_companion(monkeypatch)
    best_bound(GEO, 0.9 * SHIFT, 0.9 * SHIFT_T)
    assert lapack_work == {"svd": 9, "svd_calls": 1, "eig": 5, "eig_calls": 1}
    assert len(companion) == 1


def test_single_invariants_keep_the_eigenvalues_behind_r(lapack_work):
    T = np.random.default_rng(8).standard_normal((3, 5, 5)) * (1 + 0.5j)
    filled = invariants(T)
    assert lapack_work == {"svd": 3, "svd_calls": 1, "eig": 3, "eig_calls": 1}
    for v, t in zip(filled, T):
        assert np.array_equal(v.spectrum, np.linalg.eigvals(t))
        assert np.abs(v.spectrum).max() == v["r(T)"] == spectral_radius(t)


# Each pair invariant as one matrix formula, the derived quantities as
# Python float arithmetic on those: the per-label reference `invariants`
# must match bit for bit.
_PAIR_REFERENCE = {
    "||A||": lambda A, B: operator_norm(A),
    "||B||": lambda A, B: operator_norm(B),
    "||AB||": lambda A, B: operator_norm(A @ B),
    "||BA||": lambda A, B: operator_norm(B @ A),
    "||A^2||": lambda A, B: operator_norm(A @ A),
    "||B^2||": lambda A, B: operator_norm(B @ B),
    "||AB^2||": lambda A, B: operator_norm(A @ B @ B),
    "||A^2B||": lambda A, B: operator_norm(A @ A @ B),
    "||AB-BA||": lambda A, B: operator_norm(A @ B - B @ A),
    "r(A)": lambda A, B: spectral_radius(A),
    "r(B)": lambda A, B: spectral_radius(B),
    "r(AB)": lambda A, B: spectral_radius(A @ B),
    "r(AB+BA)": lambda A, B: spectral_radius(A @ B + B @ A),
    "r(AB-BA)": lambda A, B: spectral_radius(A @ B - B @ A),
    "||A||^2": lambda A, B: operator_norm(A) ** 2,
    "||B||^2": lambda A, B: operator_norm(B) ** 2,
    "r(A)^2": lambda A, B: spectral_radius(A) ** 2,
    "r(B)^2": lambda A, B: spectral_radius(B) ** 2,
    "r(A) r(B)": lambda A, B: spectral_radius(A) * spectral_radius(B),
    "sqrt(||A^2|| ||B^2||)": lambda A, B: math.sqrt(
        operator_norm(A @ A) * operator_norm(B @ B)),
    "sqrt(||A|| ||AB^2||)": lambda A, B: math.sqrt(
        operator_norm(A) * operator_norm(A @ B @ B)),
    "sqrt(||A^2B|| ||B||)": lambda A, B: math.sqrt(
        operator_norm(A @ A @ B) * operator_norm(B)),
}

_PRODUCT_REFERENCE = {
    "A": lambda A, B: A,
    "B": lambda A, B: B,
    "AB": lambda A, B: A @ B,
    "BA": lambda A, B: B @ A,
    "A^2": lambda A, B: A @ A,
    "B^2": lambda A, B: B @ B,
    "AB^2": lambda A, B: A @ B @ B,
    "A^2B": lambda A, B: A @ A @ B,
    "AB-BA": lambda A, B: A @ B - B @ A,
}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
def test_pair_invariants_match_per_label_formulas(lapack_work, n):
    # A stack of complex pairs, then one of real pairs, each with a pair
    # whose products are not finite in the middle: that pair gets the
    # NormOverflow best_bound raises on it alone, and the others what they
    # get without it, from one SVD call and one eigensolve call. Each keeps
    # the eigenvalues of AB, the series argument, that gave its r(AB).
    g = np.random.default_rng(n)
    huge = 1e160 * np.eye(n), np.eye(n)  # A^2 and A^2B overflow
    with pytest.raises(NormOverflow) as alone:
        best_bound(EXP, *huge)
    for imag in (1j, 0.0):
        A, B = g.standard_normal((2, 4, n, n)) + imag * g.standard_normal((2, 4, n, n))
        lapack_work.update(dict.fromkeys(lapack_work, 0))
        stacks = (np.insert(X, 3, H, axis=0) for X, H in zip((A, B), huge))
        *left, bad, right = invariants(*stacks)
        assert lapack_work == {"svd": 4 * 9, "svd_calls": 1, "eig": 4 * 5, "eig_calls": 1}
        assert isinstance(bad, NormOverflow) and str(bad) == str(alone.value)
        filled = [*left, right]
        for v, w in zip(filled, invariants(A, B)):
            assert v == w and np.array_equal(v.spectrum, w.spectrum), n
        for v, a, b in zip(filled, A, B):
            assert v.keys() == _PAIR_REFERENCE.keys(), n
            for label, ref in _PAIR_REFERENCE.items():
                assert v[label] == ref(a, b), (n, label)
            spectrum = np.linalg.eigvals((a @ b).astype(complex))
            assert np.array_equal(v.spectrum, spectrum), n
            assert np.abs(v.spectrum).max() == v["r(AB)"], n
        # `products`, in the order of the norm labels, against its formulas.
        assert _PAIR_NORMS == tuple(f"||{x}||" for x in _PRODUCT_REFERENCE)
        for Pk, ref in zip(products(A, B), _PRODUCT_REFERENCE.values(), strict=True):
            for M, a, b in zip(Pk, A, B):
                assert M.dtype == A.dtype and np.array_equal(M, ref(a, b)), n


def test_pair_squares_round_as_python_floats_and_overflow_to_inf():
    # x ** 2, not x * x: they differ at this x, and the reports carry x ** 2.
    x = 0.25507036666599964
    assert x ** 2 != x * x
    v = best_bound(GEO, np.diag([x, 0.1]), np.eye(2)).invariants
    assert v["||A||"] == v["r(A)"] == x and v["||A||^2"] == v["r(A)^2"] == x ** 2
    # ||A|| = 1e200 with every product finite: ||A||^2 is inf, where
    # x ** 2 raises, and each row that needs ||A||^2 < R is Unavailable.
    report = best_bound(GEO, as_matrix([[0, 1e200], [0, 0]]), np.eye(2))
    assert report.invariants["||A||^2"] == math.inf
    gated = {r.name: r.reason for r in report.results if "||A||^2" in (r.reason or "")}
    assert gated == dict.fromkeys(("pair-squares", "norm-split", "mixed-split"),
                                  "precondition failed: ||A||^2 < R (measured inf)")
    assert report.minimum is None


def test_pair_product_overflow_is_named():
    # A^2 and A^2B overflow to inf; the SVD is never asked to decompose them.
    A = as_matrix(np.diag([1e160, 1.0]))
    B = as_matrix(np.diag([1.0, 2.0]))
    with pytest.raises(NormOverflow, match=r"not finite: A\^2, A\^2B;"):
        best_bound(EXP, A, B)
