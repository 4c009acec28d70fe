"""Series construction, companion evaluation, and truncation certificates."""

import math
from dataclasses import replace

import mpmath
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
    hypergeometric_series,
    lookup,
    truncation_order,
)

ALL_NAMES = [
    "log-resolvent", "cos", "sin", "resolvent", "exp", "half-log-ratio",
    "arcsin", "artanh", "geometric", "cosh", "sinh",
]


def grid(entry, points=40, top_fraction=0.95):
    top = top_fraction * min(entry.series.radius, 10.0)
    return [top * k / (points - 1) for k in range(points)]


# ---------------------------------------------------------------------------
# Catalog contents
# ---------------------------------------------------------------------------


def test_catalog_has_required_entries():
    names = {e.series.name for e in catalog()}
    assert set(ALL_NAMES) | {"2F1"} <= names


def test_exp_entry():
    e = lookup("exp")
    assert e.series.coeff(3) == pytest.approx(1.0 / 6.0)
    assert e.series.radius == math.inf


def test_2f1_unit_parameters_collapse_to_geometric():
    e = lookup("2F1", {"alpha": 1.0, "beta": 1.0, "gamma": 1.0})
    for n in range(20):
        assert e.series.coeff(n) == pytest.approx(1.0)


def test_lookup_rejects_a_parameter_no_series_takes():
    with pytest.raises(KeyError, match="alfa"):
        lookup("2F1", {"alfa": 0.5})


def test_2f1_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        hypergeometric_series(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hypergeometric_series(1.0, 1.0, -2.0)


def test_arcsin_coefficients_match_taylor_expansion():
    # independent oracle: mpmath Taylor coefficients of asin at 0
    expected = [float(c) for c in mpmath.taylor(mpmath.asin, 0, 9)]
    e = lookup("arcsin")
    got = [e.series.coeff(n).real for n in range(10)]
    assert got == pytest.approx(expected, abs=1e-15)
    assert e.series.coeff(3).real == pytest.approx(1.0 / 6.0)


def test_log_resolvent_coefficients_alternate():
    f = lookup("log-resolvent").series
    assert f.coeff(0) == 0
    assert f.coeff(1) == pytest.approx(-1.0)
    assert f.coeff(2) == pytest.approx(0.5)
    assert f.coeff(3) == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coefficients_deterministic(name):
    f = lookup(name).series
    first = [f.coeff(n) for n in range(30)]
    second = [f.coeff(n) for n in range(30)]
    assert first == second


@pytest.mark.parametrize("name", ["log-resolvent", "resolvent", "geometric",
                                  "arcsin", "artanh", "half-log-ratio"])
def test_terms_vanish_inside_finite_disk(name):
    f = lookup(name).series
    assert math.isfinite(f.radius)
    for x in (0.3, 0.6, 0.9):
        assert abs(f.coeff(2000)) * x**2000 < 1e-60


def test_terms_vanish_for_2f1_with_growing_coefficients():
    # alpha + beta > gamma + 1 makes the coefficients grow polynomially;
    # terms must still vanish inside the unit disk
    f = hypergeometric_series(2.0, 2.0, 1.0).series
    assert f.coeff(2000).real > 1.0
    for x in (0.3, 0.6, 0.9):
        assert abs(f.coeff(2000)) * x**2000 < 1e-60


# ---------------------------------------------------------------------------
# Companion construction
# ---------------------------------------------------------------------------


def test_companion_of_log_resolvent_is_positive_log_series():
    f = lookup("log-resolvent").series
    with pytest.raises(OutOfDisk):  # the companion's disk is f's
        eval_companion(f, f.radius, 1e-12)
    for n in range(1, 15):
        assert abs(f.coeff(n)) == pytest.approx(1.0 / n)
    # companion closed form is ln 1/(1-x)
    assert eval_companion(f, 0.5, 1e-12) == pytest.approx(
        math.log(2.0), abs=1e-11
    )


def test_companion_of_nonnegative_series_is_identity_on_values():
    f = lookup("exp").series
    for x in (0.0, 0.7, 2.5):
        assert eval_companion(f, x, 1e-12) == pytest.approx(
            math.exp(x), abs=1e-12
        )


def test_companion_of_cos_is_cosh():
    f = lookup("cos").series
    for x in (0.0, 1.0, 3.0):
        assert eval_companion(f, x, 1e-12) == pytest.approx(
            math.cosh(x), abs=1e-10
        )


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_companion_idempotent(name):
    # eval_companion reads only |a_n|: the series of |a_n| has the same
    # companion, bit for bit.
    f = lookup(name).series
    once = replace(f, coeff=lambda n: complex(abs(f.coeff(n))))
    for n in range(40):
        assert abs(once.coeff(n)) == abs(f.coeff(n))
    for x in (0.0, 0.3 * min(f.radius, 2.0), 0.9 * min(f.radius, 2.0)):
        assert eval_companion(once, x, 1e-12) == eval_companion(f, x, 1e-12)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_exp_at_one():
    f = lookup("exp").series
    assert abs(eval_companion(f, 1.0, 1e-12) - math.e) <= 1e-12


def test_eval_geometric_at_half():
    f = lookup("geometric").series
    assert abs(eval_companion(f, 0.5, 1e-12) - 2.0) <= 1e-12


def test_eval_2f1_unit_parameters():
    f = lookup("2F1", {"alpha": 1, "beta": 1, "gamma": 1}).series
    assert abs(eval_companion(f, 0.3, 1e-12) - 1.0 / 0.7) <= 1e-12


def test_eval_rejects_points_outside_disk():
    f = lookup("geometric").series
    with pytest.raises(OutOfDisk):
        eval_companion(f, 1.0, 1e-10)
    with pytest.raises(OutOfDisk):
        eval_companion(f, 1.5, 1e-10)


def test_eval_rejects_bad_arguments():
    f = lookup("exp").series
    with pytest.raises(ValueError):
        eval_companion(f, -0.5, 1e-10)
    with pytest.raises(ValueError):
        eval_companion(f, 0.5, 0.0)


def test_no_convergence_near_boundary_with_small_cap():
    f = lookup("geometric").series
    with pytest.raises(NoConvergence):
        eval_companion(f, 0.999, 1e-12, max_terms=100)


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_closed_form_agreement(name):
    entry = lookup(name)
    tol = 1e-10
    for x in grid(entry):
        value = eval_companion(entry.series, x, tol)
        assert abs(value - entry.closed_form_eval(x)) <= 10 * tol, (name, x)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_companion_monotone_on_grid(name):
    entry = lookup(name)
    tol = 1e-10
    xs = grid(entry, points=15)
    values = [eval_companion(entry.series, x, tol) for x in xs]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 2 * tol


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=0.9),
    y=st.floats(min_value=0.0, max_value=0.9),
)
def test_companion_monotone_hypothesis(x, y):
    f = lookup("log-resolvent").series
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
    f = lookup("exp").series
    assert truncation_order(f, 1.0, 1e-12) == 14


def test_truncation_order_geometric():
    # exact tail 0.5^(m+1)/0.5 = 0.5^m; smallest m with 0.5^m <= 1e-9 is 30
    assert 0.5**29 > 1e-9 >= 0.5**30
    f = lookup("geometric").series
    assert truncation_order(f, 0.5, 1e-9) == 30


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_truncation_order_zero_at_origin(name):
    f = lookup(name).series
    assert truncation_order(f, 0.0, 1e-12) == 0


@pytest.mark.parametrize("name", ALL_NAMES + ["2F1"])
def test_tail_certificate_dominates_measured_remainder(name):
    entry = lookup(name)
    f = entry.series
    tol = 1e-10
    for x in grid(entry, points=12):
        m = truncation_order(f, x, tol)
        partial = sum(abs(f.coeff(j)) * x**j for j in range(m + 1))
        closed = entry.closed_form_eval(x)
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


def test_polynomial_tail_is_zero_beyond_degree():
    f = from_coefficients([3.0, 0.0, 1.0])
    assert f.tail_bound(2, 10.0) == 0.0
    assert f.tail_bound(0, 0.5) == pytest.approx(0.25)


def test_power_series_requires_tail_bound():
    # without a certified tail there is no true error budget to report
    with pytest.raises(TypeError):
        PowerSeries(coeff=lambda n: complex(0.7**n), radius=1.0 / 0.7,
                    name="uncertified")
