"""High-precision verification of the catalog tail certificates.

Rebuilds each catalog series' companion coefficients in 40-digit
arithmetic, completely independent of the package's float code, and
checks that tail_bound(m, x) dominates the exact tail
sum_{j>m} |a_j| x^j at many (m, x) pairs. This is the safety property
everything else rests on: a certificate below the true tail would make
every "certified" evaluation a lie.

The exact tail is summed forward (positive terms, no cancellation), so
its accuracy is the working precision at any magnitude; tails here range
down to ~1e-70.
"""

import math

import mpmath as mp
import pytest

from specbound import catalog, lookup

mp.mp.dps = 40

ORDERS = (0, 1, 2, 3, 5, 8, 13, 21, 34)


def _cached_recurrence(first, step):
    cache = [first]

    def value(n):
        while len(cache) <= n:
            k = len(cache) - 1
            cache.append(step(k, cache[k]))
        return cache[n]

    return value


def _mp_coeffs(name, params):
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
    if name == "2F1":
        a, b, g = (mp.mpf(params[k]) for k in ("alpha", "beta", "gamma"))
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


def entries():
    # The catalog with 2F1 at (0.5, 0.75, 1.25), and at (2, 2, 1): growing coefficients.
    return [*(e for e in catalog() if e.series.name != "2F1"),
            lookup("2F1:0.5,0.75,1.25"), lookup("2F1:2,2,1")]


@pytest.mark.parametrize("entry", entries(), ids=lambda e: (
    e.series.name if not e.params else
    "2F1-" + "-".join(f"{v:g}" for _, v in sorted(e.params.items()))
))
def test_tail_bound_dominates_exact_tail(entry):
    f = entry.series
    coeff = _mp_coeffs(f.name, entry.params)
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


def test_certificates_shrink_with_order():
    for entry in entries():
        f = entry.series
        x = 0.5 * min(f.radius, 2.0)
        finite = [f.tail_bound(m, x) for m in ORDERS]
        finite = [t for t in finite if math.isfinite(t)]
        assert finite, f.name
        for a, b in zip(finite, finite[1:]):
            assert b <= a * (1 + 1e-12), f.name
