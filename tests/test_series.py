"""Series construction, companion evaluation, and truncation certificates."""

import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

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
from specbound.cli import _parse_series
from specbound.series import _order_and_tail, partial_sums

ALL_NAMES = [
    "log-resolvent", "cos", "sin", "resolvent", "exp", "half-log-ratio",
    "arcsin", "artanh", "geometric", "cosh", "sinh",
]
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


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


def test_all_names_is_the_catalog():
    # The parametrised tests below run over ALL_NAMES: a new catalog row
    # must join them.
    assert sorted(ALL_NAMES) == sorted(f.name for f in catalog() if f.name != "2F1")


def test_ci_catalog_sweep_names_every_catalog_series():
    # The CI step that runs `verify` over every catalog series under
    # -W error::RuntimeWarning must not silently skip a catalog row
    # (ALL_NAMES is the catalog: see the test above).
    text = WORKFLOW.read_text(encoding="utf-8")
    step = re.search(r"- name: Verify sweep over every catalog series.*?\n\s*run: (.*?)\n",
                     text, re.S)
    assert step, "the workflow has no 'every catalog series' verify step"
    assert "-W error::RuntimeWarning" in step[1]
    series = re.search(r"--series (\S+)", step[1])
    assert series, step[1]
    named = set(_parse_series(series[1]))
    # 2F1 alone is 2F1:1,1,1; the step runs the same builder at other parameters.
    assert set(ALL_NAMES) <= named, sorted(set(ALL_NAMES) - named)
    assert any(name.startswith("2F1:") for name in named)


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
    # eval_companion reads only ln|a_n|: the series of |a_n| has the same
    # companion, bit for bit.
    f = lookup(name)

    def magnitudes(m):
        a, logs = f.prefix(m)
        return np.abs(a).astype(complex), logs

    once = replace(f, coefficients=magnitudes)
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
    with pytest.raises(TypeError, match="tail_bound"):
        PowerSeries(coefficients=lambda m: (0.7 ** np.arange(m + 1) + 0j,
                                            np.arange(m + 1) * math.log(0.7)),
                    radius=1.0 / 0.7, name="uncertified")


# ---------------------------------------------------------------------------
# Companions past the 1/171! cutoff and past double range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, exact", [
    ("exp", mpmath.exp), ("cosh", mpmath.cosh), ("sinh", mpmath.sinh),
])
@pytest.mark.parametrize("x", [58.0, 100.0, 150.0])
def test_companion_past_factorial_underflow_matches_mpmath(name, exact, x):
    # 1/n! underflows past n = 170 while x^n overflows: the terms are
    # formed in log space, so neither reaches the sum.
    value = eval_companion(lookup(name), x, 1e-10)
    want = exact(mpmath.mpf(x))
    assert abs(value - want) <= 1e-12 * want, (name, x, value)


def test_companion_past_double_range_is_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_companion(lookup("exp"), 710.0, 1e-10) == math.inf
        assert eval_companion(lookup("sinh"), 1000.0, 1e-10) == math.inf
        assert lookup("cosh").tail_bound(10, 1e200) == math.inf


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
    """The order search as a linear scan over m = 0, 1, 2, ..., reading the
    prefix ahead of the tail (which reads ln|a_n| for n <= m + 2, and does
    not keep what it reads past 2**16 terms)."""
    for m in range(max_terms + 1):
        f.prefix(min(2 * m, max_terms) + 2)
        t = f.tail_bound(m, x)
        if t <= tol:
            return m, t
    raise NoConvergence(f"no order up to {max_terms}")


REFERENCE_TERMS = 5000  # the longest sum checked term by term in mpmath;
# longer sums are checked against the companion's closed form.


def per_term_companion(f, m, x):
    """sum of |a_j| x^j over j <= m in 50-digit arithmetic, each |a_j|
    the exponential of its stored ln|a_j|: exact up to the rounding of
    the stored magnitudes themselves."""
    with mpmath.workdps(50):
        logs = f.prefix(m)[1].tolist()
        return sum(mpmath.exp(lg) * mpmath.mpf(x) ** j
                   for j, lg in enumerate(logs) if lg > -math.inf)


def search_points(f):
    if math.isinf(f.radius):
        return [0.0, 1.0, 9.0, 58.0, 150.0]
    return [0.0, 0.5, 0.9, 0.995, 0.9999]


@pytest.mark.parametrize("name", SEARCH_SERIES)
def test_order_search_and_companion_match_per_term_reference(name):
    # Galloping plus bisection finds the linear scan's (m, tail) bit for
    # bit, or fails where it fails; the companion sum over the prefix is
    # the exact sum of its terms to 1e-12 relative, and inf past double
    # range. Past REFERENCE_TERMS terms it is within tol + 1e-12 relative
    # of the closed form instead.
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
                if expected[0] > REFERENCE_TERMS:
                    want = f.closed_form(x)
                    assert abs(got - want) <= tol + 1e-12 * want, (x, tol, max_terms)
                    continue
                want = per_term_companion(f, expected[0], x)
                if want > sys.float_info.max:
                    assert got == math.inf, (x, tol, max_terms)
                else:
                    assert abs(got - want) <= 1e-12 * want, (x, tol, max_terms)


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


@pytest.mark.parametrize("name", SEARCH_SERIES)
def test_order_memo_matches_a_fresh_search_in_any_order(name):
    # A series object that has certified orders before brackets its next
    # search with them; whatever it has seen, each (m, tail) is a fresh
    # object's and the linear scan's, bit for bit, or fails where they fail.
    f = search_series(name)
    points = grid(f, 25, 0.99) + [x for x in search_points(f) if x < 0.999 * f.radius]
    for tol in (1e-3, 1e-10, 1e-14):
        for max_terms in (100, 10**6):
            want = {}
            for x in points:
                try:
                    want[x] = linear_order_and_tail(f, x, tol, max_terms)
                except NoConvergence:
                    with pytest.raises(NoConvergence):
                        _order_and_tail(replace(f), x, tol, max_terms)
                    continue
                assert _order_and_tail(replace(f), x, tol, max_terms) == want[x]
            shuffled = np.random.default_rng(1).permutation(points).tolist()
            warm = replace(f)  # an empty memo, kept through the last order
            for order in (sorted(points), sorted(points, reverse=True), shuffled):
                for g in (replace(f), warm):
                    for x in order:
                        if x not in want:
                            with pytest.raises(NoConvergence):
                                _order_and_tail(g, x, tol, max_terms)
                        else:
                            assert _order_and_tail(g, x, tol, max_terms) == want[x], x


def test_order_memo_makes_a_repeated_search_one_tail_call():
    # The order recorded at x brackets the search at x from both sides.
    f, calls = counted_tail(lookup("geometric"))  # an empty memo
    xs = [0.99, 0.3, 0.9, 0.6, 0.0]
    orders = [truncation_order(f, x, 1e-10) for x in xs]
    calls.clear()
    assert [truncation_order(f, x, 1e-10) for x in xs] == orders
    assert calls == orders


def test_order_memo_keeps_the_smallest_and_largest_x_of_each_order():
    f = replace(lookup("geometric"))  # an empty memo
    found = {}
    for x in np.random.default_rng(2).uniform(0.0, 0.999, 400).tolist():
        found.setdefault(truncation_order(f, x, 1e-10), []).append(x)
    [(seen, ends)] = f._orders.values()
    assert ends == {m: (min(xs), max(xs)) for m, xs in found.items()}
    assert seen == sorted({(x, m) for m, ends_m in ends.items() for x in ends_m})


def test_failed_order_search_records_no_order():
    f = replace(lookup("geometric"))  # an empty memo
    for x in (0.5, 0.9, 0.99, 0.0):
        _order_and_tail(f, x, 1e-10, 10**4)
    before = {key: (list(seen), dict(ends)) for key, (seen, ends) in f._orders.items()}
    for x in (0.9995, 0.999, 0.9999):  # each above every recorded x
        with pytest.raises(NoConvergence):
            _order_and_tail(f, x, 1e-10, 10**4)
    assert f._orders == before


def test_order_memo_certifies_a_tail_that_grows_and_shrinks_with_x():
    # A certified majorant, ten times the geometric tail on every other
    # band of x: the memo's brackets can be wrong, the order found cannot.
    geometric = lookup("geometric")

    def tail(m, x):
        return geometric.tail_bound(m, x) * (10.0 if int(x * 50) % 2 else 1.0)

    f = PowerSeries(geometric.coefficients, 1.0, "banded", tail)
    for x in np.random.default_rng(3).uniform(0.0, 0.99, 300).tolist():
        m, t = _order_and_tail(f, x, 1e-8, 10**6)
        assert t == tail(m, x) <= 1e-8, x


def test_failed_order_search_keeps_a_short_prefix():
    # A failing search reads coefficients up to max_terms = 10**6; past
    # 2**16 terms they are read without being kept on the series.
    f = lookup("2F1:1,1,1")  # the geometric series, with an empty prefix
    with pytest.raises(NoConvergence):
        eval_companion(f, 0.99999)
    assert 0 < len(f._prefix[0]) <= 2**17
    assert abs(eval_companion(f, 0.5) - 2.0) <= 1e-10


# numpy's complex abs differs from Python's by an ulp on these two values.
ULP_POLY = ("poly:0.6404226504432821+0.1370126477621637j,1,"
            "0.1257302210933933+0.32359471786070765j")


@pytest.mark.parametrize("name", [*ALL_NAMES, "2F1", COMPLEX_POLY, ULP_POLY])
def test_prefix_matches_coeff_bit_for_bit(name):
    # Every prefix, grown or read shorter, is the head of one
    # coefficients(m) call, and coeff(j) reads it.
    f = replace(lookup(name))  # a fresh, empty prefix
    full, full_logs = f.coefficients(200)
    for m in (3, 200, 0):  # grow, then read a shorter prefix
        a, logs = f.prefix(m)
        assert a.tobytes() == full[: m + 1].tobytes()
        assert logs.tobytes() == full_logs[: m + 1].tobytes()
    coeffs = [f.coeff(j) for j in range(201)]
    assert np.array(coeffs, dtype=np.complex128).tobytes() == full.tobytes()
    if name.startswith("poly:"):  # each a_n as given; ln|a_n| of Python's abs
        given = [complex(t) for t in name[len("poly:"):].split(",")]
        assert coeffs[: len(given)] == given
        assert full_logs.tolist() == [math.log(abs(c)) if c else -math.inf
                                      for c in coeffs]


def test_prefix_calls_coefficients_only_to_grow_and_is_not_a_field():
    base = lookup("exp")
    calls = []

    def coefficients(m):
        calls.append(m)
        return base.coefficients(m)

    f = replace(base, coefficients=coefficients)  # a fresh, empty prefix
    # Past the prefix, it grows to a_{m+2} at least, and at least doubles.
    for m in (10, 5, 30, 30, 31, 62):
        f.prefix(m)
    f.coeff(7)
    assert calls == [12, 32, 66]
    assert f == replace(f) and "_prefix=" not in repr(f)
    g = replace(f)
    g.prefix(2)
    assert calls == [12, 32, 66, 4]


@pytest.mark.parametrize("name", ["2F1:0.5,1,2", "2F1", "poly:1,-0.5+0.3j", "exp"])
def test_lookup_builds_each_series_once(name):
    # One object per name, as for catalog names: a sweep's trials then share
    # its coefficient prefix and the orders it has certified.
    f = lookup(name)
    assert lookup(name) is f
    truncation_order(f, 0.5, 1e-10)
    assert lookup(name)._orders[1e-10, 10**6]


# ---------------------------------------------------------------------------
# Partial sums at points
# ---------------------------------------------------------------------------

_POINT_ORDERS = (0, 1, 2, 3, 4, 8, 9, 15, 16, 17, 63, 64, 65, 200)


@pytest.fixture(scope="module")
def point_reference():
    """Complex points of modulus up to 1.1 (0 among them), a complex
    polynomial of degree 200, and its partial sums at the points in
    40-digit arithmetic."""
    g = np.random.default_rng(46)
    z = g.standard_normal(12) + 1j * g.standard_normal(12)
    z *= 1.1 * g.uniform(0.0, 1.0, 12) / np.abs(z)
    z[0], z[1] = 0.0, 1.1
    top = max(_POINT_ORDERS)
    f = from_coefficients(g.standard_normal(top + 1) + 1j * g.standard_normal(top + 1))
    with mpmath.workdps(40):
        S, P, sums = [mpmath.mpc(0)] * len(z), [mpmath.mpc(1)] * len(z), []
        for k in range(top + 1):
            a = mpmath.mpc(f.coeff(k))
            S = [s + a * p for s, p in zip(S, P)]
            sums.append(np.array(S, dtype=np.complex128))
            P = [p * mpmath.mpc(x) for p, x in zip(P, z.tolist())]
    return f, z, sums


@pytest.mark.parametrize("m", _POINT_ORDERS)
def test_partial_sums_match_mpmath(point_reference, m):
    # Rounding error of Horner's form: a small multiple of u sum |a_k| |z|^k.
    f, z, sums = point_reference
    majorant = sum(abs(f.coeff(k)) * np.abs(z) ** k for k in range(m + 1))
    assert np.all(np.abs(partial_sums(f, z, m) - sums[m]) <= 1e-13 * majorant)


def test_partial_sums_low_order_is_horner():
    # m <= 3 has block size 1: the Horner loop below, bit for bit.
    f = lookup("exp")
    z = np.array([0.3 - 0.7j, -2.5 + 0.1j, 4.0 + 0j])
    for m in range(4):
        S = np.full(3, f.coeff(m))
        for j in range(m - 1, -1, -1):
            S = f.coeff(j) + z * S
        assert np.array_equal(partial_sums(f, z, m), S), m


def test_partial_sums_reach_the_closed_form_near_the_radius():
    # geometric at |z| = 0.9999 needs m of about 3.2e5: the blocks' Horner
    # nesting never forms z^m, and S_m meets 1/(1 - z) within the tail.
    f = lookup("geometric")
    z = 0.9999 * np.exp(1j * np.array([0.0, 0.5, 2.0, np.pi]))
    m, tail = _order_and_tail(f, 0.9999, 1e-10, 10**6)
    assert m > 3 * 10**5
    assert np.all(np.abs(partial_sums(f, z, m) - 1.0 / (1.0 - z)) <= tail + 1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_partial_sums_past_double_range_are_not_finite_without_a_warning():
    f = from_coefficients([1.0] * 17)
    for m in (2, 16):  # block sizes 1 and 4
        values = partial_sums(f, np.array([0.5, 1e200, -1e200 + 1e200j]), m)
        assert values[0] == pytest.approx(2.0 - 0.5**m, rel=1e-15)
        assert not np.isfinite(values[1:]).any()
