"""High-precision verification of the catalog coefficients and tail
certificates.

Rebuilds each catalog series' companion coefficients in 40-digit
arithmetic, completely independent of the package's float code, checks
the package's ln|a_n| against them, and checks that tail_bound(m, x)
dominates the exact tail sum_{j>m} |a_j| x^j at many (m, x) pairs. This
is the safety property everything else rests on: a certificate below
the true tail would make every "certified" evaluation a lie.

The exact tail is summed forward (positive terms, no cancellation), so
its accuracy is the working precision at any magnitude; tails here range
down to ~1e-70.
"""

import math

import mpmath as mp
import pytest

from specbound import lookup
from textbook import catalog

mp.mp.dps = 40

ORDERS = (0, 1, 2, 3, 5, 8, 13, 21, 34)
COEFF_ORDERS = 20_000  # beyond the orders of `bound` near the radius


def _cached_recurrence(first, step):
    cache = [first]

    def value(n):
        while len(cache) <= n:
            k = len(cache) - 1
            cache.append(step(k, cache[k]))
        return cache[n]

    return value


def _mp_coeffs(name):
    if name == "2F1":
        name = "2F1:1,1,1"
    if name == "exp":
        return lambda j: 1 / mp.factorial(j)
    if name in ("cos", "cosh"):
        return lambda j: 1 / mp.factorial(j) if j % 2 == 0 else mp.mpf(0)
    if name in ("sin", "sinh"):
        return lambda j: 1 / mp.factorial(j) if j % 2 == 1 else mp.mpf(0)
    if name in ("geometric", "resolvent"):
        return lambda j: mp.mpf(1)
    if name == "log-resolvent":
        return lambda j: mp.mpf(1) / j if j >= 1 else mp.mpf(0)
    if name in ("artanh", "half-log-ratio"):
        return lambda j: mp.mpf(1) / j if j % 2 == 1 else mp.mpf(0)
    if name == "arcsin":
        odd = _cached_recurrence(
            mp.mpf(1),
            lambda n, c: c * (2 * n + 1) ** 2 / (2 * (n + 1) * (2 * n + 3)),
        )
        return lambda j: odd((j - 1) // 2) if j % 2 == 1 else mp.mpf(0)
    if name.startswith("2F1:"):
        a, b, g = (mp.mpf(t) for t in name[len("2F1:"):].split(","))
        seq = _cached_recurrence(
            mp.mpf(1),
            lambda n, c: c * (n + a) * (n + b) / ((n + 1) * (n + g)),
        )
        return seq
    raise AssertionError(f"no reference coefficients for {name}")


def _exact_tail(coeff, mx, m):
    """Forward sum of the tail, accurate to working precision."""
    total = mp.mpf(0)
    zero_run = 0
    j = m + 1
    while j <= m + 200_000:
        t = coeff(j) * mx**j
        total += t
        if t == 0:
            zero_run += 1
            if zero_run > 3:
                break
        else:
            zero_run = 0
            if j > m + 10 and t < total * mp.mpf("1e-45"):
                break
        j += 1
    return total


def all_series():
    # The catalog with 2F1 at (0.5, 0.75, 1.25), and at (2, 2, 1): growing coefficients.
    return [*(f for f in catalog() if f.name != "2F1"),
            lookup("2F1:0.5,0.75,1.25"), lookup("2F1:2,2,1")]


@pytest.mark.parametrize("f", all_series(),
                         ids=lambda f: f.name.replace(":", "-").replace(",", "-"))
def test_tail_bound_dominates_exact_tail(f):
    coeff = _mp_coeffs(f.name)
    top = 0.9 * min(f.radius, 10.0)
    for k in range(8):
        x = top * k / 7
        mx = mp.mpf(x)  # exact binary value of the double argument
        for m in ORDERS:
            bound = f.tail_bound(m, x)
            if math.isinf(bound):
                continue
            exact = _exact_tail(coeff, mx, m)
            assert mp.mpf(bound) * (1 + mp.mpf("1e-12")) + mp.mpf(
                "1e-300"
            ) >= exact, (f.name, m, x, bound, float(exact))


@pytest.mark.parametrize("f", [*catalog(), lookup("2F1:0.5,0.75,1.25")],
                         ids=lambda f: f.name.replace(":", "-").replace(",", "-"))
def test_log_coefficients_match_recurrences(f):
    # The error of ln|a_n| is the relative error of |a_n|: within 1e-12,
    # scaled by |ln|a_n|| past 1, since a double holds ln(1/20000!) only
    # to 1e-16 relative. Differences of lgamma at large argument miss this
    # on the 2F1, log-resolvent, arcsin and artanh rows (by up to 1.4e-11
    # at n <= 20,000).
    coeff = _mp_coeffs(f.name)
    for n, got in enumerate(f.prefix(COEFF_ORDERS)[1].tolist()):
        c = coeff(n)
        if c == 0:
            assert got == -math.inf, (f.name, n)
            continue
        want = mp.log(c)
        assert abs(got - want) <= mp.mpf("1e-12") * max(1, abs(want)), (f.name, n, got)


def test_certificates_shrink_with_order():
    for f in all_series():
        x = 0.5 * min(f.radius, 2.0)
        finite = [f.tail_bound(m, x) for m in ORDERS]
        finite = [t for t in finite if math.isfinite(t)]
        assert finite, f.name
        for a, b in zip(finite, finite[1:]):
            assert b <= a * (1 + 1e-12), f.name
