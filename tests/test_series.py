"""Series construction, companion evaluation, and truncation certificates."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    NoConvergence,
    OutOfDisk,
    PowerSeries,
    catalog,
    eval_companion,
    from_coefficients,
    lookup,
    truncation_order,
)
from specbound.series import _order_and_tail

ALL_NAMES = [
    "log-resolvent", "cos", "sin", "resolvent", "exp", "half-log-ratio",
    "arcsin", "artanh", "geometric", "cosh", "sinh",
]


def grid(f, points=40, top_fraction=0.95):
    top = top_fraction * min(f.radius, 10.0)
    return [top * k / (points - 1) for k in range(points)]


# ---------------------------------------------------------------------------
# Catalog contents
# ---------------------------------------------------------------------------


def test_catalog_has_required_entries():
    names = {f.name for f in catalog()}
    assert set(ALL_NAMES) | {"2F1"} <= names
    for name in [*names, "2F1:0.5,0.75,1.25", "poly:1,-0.5+0.3j"]:
        assert lookup(name).name == name


def test_exp_entry():
    f = lookup("exp")
    assert f.coeff(3) == pytest.approx(1.0 / 6.0)
    assert f.radius == math.inf


def test_2f1_unit_parameters_collapse_to_geometric():
    for name in ("2F1", "2F1:1,1,1"):
        f = lookup(name)
        for n in range(20):
            assert f.coeff(n) == pytest.approx(1.0)


def test_2f1_rejects_nonpositive_parameters():
    for name in ("2F1:0,1,1", "2F1:1,1,-2"):
        with pytest.raises(ValueError, match="positive reals"):
            lookup(name)


def test_arcsin_coefficients_match_taylor_expansion():
    # independent oracle: mpmath Taylor coefficients of asin at 0
    expected = [float(c) for c in mpmath.taylor(mpmath.asin, 0, 9)]
    f = lookup("arcsin")
    got = [f.coeff(n).real for n in range(10)]
    assert got == pytest.approx(expected, abs=1e-15)
    assert f.coeff(3).real == pytest.approx(1.0 / 6.0)


def test_log_resolvent_coefficients_alternate():
    f = lookup("log-resolvent")
    assert f.coeff(0) == 0
    assert f.coeff(1) == pytest.approx(-1.0)
    assert f.coeff(2) == pytest.approx(0.5)
    assert f.coeff(3) == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coefficients_deterministic(name):
    f = lookup(name)
    first = [f.coeff(n) for n in range(30)]
    second = [f.coeff(n) for n in range(30)]
    assert first == second


@pytest.mark.parametrize("name", ["log-resolvent", "resolvent", "geometric",
                                  "arcsin", "artanh", "half-log-ratio"])
def test_terms_vanish_inside_finite_disk(name):
    f = lookup(name)
    assert math.isfinite(f.radius)
    for x in (0.3, 0.6, 0.9):
        assert abs(f.coeff(2000)) * x**2000 < 1e-60


def test_terms_vanish_for_2f1_with_growing_coefficients():
    # alpha + beta > gamma + 1 makes the coefficients grow polynomially;
    # terms must still vanish inside the unit disk
    f = lookup("2F1:2,2,1")
    assert f.coeff(2000).real > 1.0
    for x in (0.3, 0.6, 0.9):
        assert abs(f.coeff(2000)) * x**2000 < 1e-60


# ---------------------------------------------------------------------------
# Companion construction
# ---------------------------------------------------------------------------


def test_companion_of_log_resolvent_is_positive_log_series():
    f = lookup("log-resolvent")
    with pytest.raises(OutOfDisk):  # the companion's disk is f's
        eval_companion(f, f.radius, 1e-12)
    for n in range(1, 15):
        assert abs(f.coeff(n)) == pytest.approx(1.0 / n)
    # companion closed form is ln 1/(1-x)
    assert eval_companion(f, 0.5, 1e-12) == pytest.approx(
        math.log(2.0), abs=1e-11
    )


def test_companion_of_nonnegative_series_is_identity_on_values():
    f = lookup("exp")
    for x in (0.0, 0.7, 2.5):
        assert eval_companion(f, x, 1e-12) == pytest.approx(
            math.exp(x), abs=1e-12
        )


def test_companion_of_cos_is_cosh():
    f = lookup("cos")
    for x in (0.0, 1.0, 3.0):
        assert eval_companion(f, x, 1e-12) == pytest.approx(
            math.cosh(x), abs=1e-10
        )


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_companion_idempotent(name):
    # eval_companion reads only |a_n|: the series of |a_n| has the same
    # companion, bit for bit.
    f = lookup(name)
    once = replace(f, coeff=lambda n: complex(abs(f.coeff(n))))
    for n in range(40):
        assert abs(once.coeff(n)) == abs(f.coeff(n))
    for x in (0.0, 0.3 * min(f.radius, 2.0), 0.9 * min(f.radius, 2.0)):
        assert eval_companion(once, x, 1e-12) == eval_companion(f, x, 1e-12)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_exp_at_one():
    f = lookup("exp")
    assert abs(eval_companion(f, 1.0, 1e-12) - math.e) <= 1e-12


def test_eval_geometric_at_half():
    f = lookup("geometric")
    assert abs(eval_companion(f, 0.5, 1e-12) - 2.0) <= 1e-12


def test_eval_2f1_unit_parameters():
    f = lookup("2F1:1,1,1")
    assert abs(eval_companion(f, 0.3, 1e-12) - 1.0 / 0.7) <= 1e-12


def test_eval_rejects_points_outside_disk():
    f = lookup("geometric")
    with pytest.raises(OutOfDisk):
        eval_companion(f, 1.0, 1e-10)
    with pytest.raises(OutOfDisk):
        eval_companion(f, 1.5, 1e-10)


def test_eval_rejects_bad_arguments():
    f = lookup("exp")
    with pytest.raises(ValueError):
        eval_companion(f, -0.5, 1e-10)
    with pytest.raises(ValueError):
        eval_companion(f, 0.5, 0.0)


def test_no_convergence_near_boundary_with_small_cap():
    f = lookup("geometric")
    with pytest.raises(NoConvergence):
        eval_companion(f, 0.999, 1e-12, max_terms=100)


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_closed_form_agreement(name):
    f = lookup(name)
    tol = 1e-10
    for x in grid(f):
        value = eval_companion(f, x, tol)
        assert abs(value - f.closed_form(x)) <= 10 * tol, (name, x)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_companion_monotone_on_grid(name):
    f = lookup(name)
    tol = 1e-10
    xs = grid(f, points=15)
    values = [eval_companion(f, x, tol) for x in xs]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 2 * tol


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=0.9),
    y=st.floats(min_value=0.0, max_value=0.9),
)
def test_companion_monotone_hypothesis(x, y):
    f = lookup("log-resolvent")
    lo, hi = sorted((x, y))
    tol = 1e-10
    assert eval_companion(f, lo, tol) <= eval_companion(f, hi, tol) + 2 * tol


# ---------------------------------------------------------------------------
# Truncation certification
# ---------------------------------------------------------------------------


def test_truncation_order_exp():
    # brute-force tail: sum_{j>m} 1/j! crosses 1e-12 between m=13 and m=14
    def brute_tail(m):
        term = 1.0 / math.factorial(m + 1)
        total = 0.0
        for j in range(m + 1, m + 60):
            total += term
            term /= j + 1
        return total

    assert brute_tail(13) > 1e-12 > brute_tail(14)
    f = lookup("exp")
    assert truncation_order(f, 1.0, 1e-12) == 14


def test_truncation_order_geometric():
    # exact tail 0.5^(m+1)/0.5 = 0.5^m; smallest m with 0.5^m <= 1e-9 is 30
    assert 0.5**29 > 1e-9 >= 0.5**30
    f = lookup("geometric")
    assert truncation_order(f, 0.5, 1e-9) == 30


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_truncation_order_zero_at_origin(name):
    f = lookup(name)
    assert truncation_order(f, 0.0, 1e-12) == 0


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_tail_certificate_dominates_measured_remainder(name):
    f = lookup(name)
    tol = 1e-10
    for x in grid(f, points=12):
        m = truncation_order(f, x, tol)
        partial = sum(abs(f.coeff(j)) * x**j for j in range(m + 1))
        closed = f.closed_form(x)
        measured = closed - partial
        slack = 1e-12 * max(1.0, abs(closed))
        assert measured <= f.tail_bound(m, x) + slack, (name, x)
        assert measured <= tol + slack, (name, x)


# ---------------------------------------------------------------------------
# Polynomials and user-built series
# ---------------------------------------------------------------------------


def test_polynomial_series_is_exact():
    f = from_coefficients([1.0, -2.0, 0.25])
    assert truncation_order(f, 5.0, 1e-15) == 2
    assert eval_companion(f, 2.0, 1e-12) == pytest.approx(1 + 2 * 2 + 0.25 * 4)


@pytest.mark.parametrize("name, position", [
    ("poly:1,,0.5", 1), ("poly: ,1", 0), ("poly:nan", 0), ("poly:1,inf", 1),
    ("poly:1,2,nanj", 2), ("poly:1,x", 1), ("poly:", 0),
])
def test_lookup_rejects_empty_or_non_finite_poly_coefficients(name, position):
    with pytest.raises(ValueError, match=f"coefficient {position} of"):
        lookup(name)


def test_polynomial_tail_is_zero_beyond_degree():
    f = from_coefficients([3.0, 0.0, 1.0])
    assert f.tail_bound(2, 10.0) == 0.0
    assert f.tail_bound(0, 0.5) == pytest.approx(0.25)


def test_power_series_requires_tail_bound():
    # without a certified tail there is no true error budget to report
    with pytest.raises(TypeError):
        PowerSeries(coeff=lambda n: complex(0.7**n), radius=1.0 / 0.7,
                    name="uncertified")


# ---------------------------------------------------------------------------
# Order search and coefficient prefix against the per-term reference
# ---------------------------------------------------------------------------

COMPLEX_POLY = "poly:1,-0.5+0.3j,0.25j,1+2j"
# Every catalog entry, 2F1 at its defaults and at (0.5, 0.75, 1.25), and a
# polynomial with complex coefficients.
SEARCH_SERIES = [*ALL_NAMES, "2F1", "2F1(0.5,0.75,1.25)", COMPLEX_POLY]


def search_series(name):
    if name == "2F1(0.5,0.75,1.25)":
        return lookup("2F1:0.5,0.75,1.25")
    return lookup(name)


def linear_order_and_tail(f, x, tol, max_terms):
    """The order search as a linear scan over m = 0, 1, 2, ..."""
    for m in range(max_terms + 1):
        t = f.tail_bound(m, x)
        if t <= tol:
            return m, t
    raise NoConvergence(f"no order up to {max_terms}")


def per_term_companion(f, m, x):
    """Kahan sum of abs(f.coeff(j)) x^j over j <= m, one coeff call per term."""
    total = 0.0
    comp = 0.0
    xj = 1.0
    for j in range(m + 1):
        term = abs(f.coeff(j)) * xj
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        xj *= x
    return total


def search_points(f):
    if math.isinf(f.radius):
        return [0.0, 1.0, 9.0, 58.0, 150.0]
    return [0.0, 0.5, 0.9, 0.995, 0.9999]


@pytest.mark.parametrize("name", SEARCH_SERIES)
def test_order_search_and_companion_match_per_term_reference(name):
    # Galloping plus bisection finds the linear scan's (m, tail) bit for
    # bit, or fails where it fails; the companion sum over the prefix
    # equals the per-term loop bit for bit, NaN (exp past x = 58) included.
    f = search_series(name)
    for x in search_points(f):
        for tol in (1e-3, 1e-10, 1e-14):
            for max_terms in (100, 10**6):
                try:
                    expected = linear_order_and_tail(f, x, tol, max_terms)
                except NoConvergence:
                    with pytest.raises(NoConvergence):
                        _order_and_tail(f, x, tol, max_terms)
                    continue
                assert _order_and_tail(f, x, tol, max_terms) == expected, (x, tol)
                got = eval_companion(f, x, tol, max_terms)
                want = per_term_companion(f, expected[0], x)
                assert repr(got) == repr(want), (x, tol, max_terms)


def counted_tail(f):
    calls = []

    def tail(m, x):
        calls.append(m)
        return f.tail_bound(m, x)

    return replace(f, tail_bound=tail), calls


def test_order_search_makes_logarithmically_many_tail_calls():
    f, calls = counted_tail(lookup("geometric"))
    with pytest.raises(NoConvergence):
        truncation_order(f, 0.99999, 1e-10, max_terms=10**6)
    assert calls[-1] == 10**6  # the cap itself is tested
    assert len(calls) <= 2 * math.ceil(math.log2(10**6)) + 2
    calls.clear()
    m = truncation_order(f, 0.9999, 1e-10)
    assert m > 10**5
    assert len(calls) <= 2 * math.ceil(math.log2(m + 1)) + 2


# numpy's complex abs differs from Python's by an ulp on these two values.
ULP_POLY = ("poly:0.6404226504432821+0.1370126477621637j,1,"
            "0.1257302210933933+0.32359471786070765j")


@pytest.mark.parametrize("name", [*ALL_NAMES, "2F1", COMPLEX_POLY, ULP_POLY])
def test_prefix_matches_coeff_bit_for_bit(name):
    f = lookup(name)
    coeffs = [f.coeff(j) for j in range(201)]
    for m in (3, 200, 0):  # grow, then read a shorter prefix
        a, mags = f.prefix(m)
        assert a.tobytes() == np.array(coeffs[: m + 1], dtype=np.complex128).tobytes()
        assert mags.tobytes() == np.array(
            [abs(c) for c in coeffs[: m + 1]], dtype=np.float64).tobytes()


def test_prefix_calls_coeff_once_per_index_and_is_not_a_field():
    base = lookup("exp")
    calls = []

    def coeff(n):
        calls.append(n)
        return base.coeff(n)

    f = replace(base, coeff=coeff)  # a fresh, empty prefix
    for m in (10, 5, 30, 30):
        f.prefix(m)
    assert calls == list(range(31))
    assert f == replace(f) and "_prefix=" not in repr(f)
    g = replace(f)
    g.prefix(2)
    assert calls == [*range(31), 0, 1, 2]
