"""Power series with certified truncation control.

A series f(z) = sum a_n z^n is represented by a coefficient function, a
radius of convergence, and a certified tail majorant: a function
(m, x) -> upper bound on sum_{j>m} |a_j| x^j. Every evaluation
routine sums terms only up to an order whose certified tail is below the
requested tolerance, so results carry an explicit error budget.

The "companion" of f is the series with coefficients |a_n|; it has the same
radius of convergence, and equals f when all coefficients are nonnegative.
All spectral-radius bounds in this package evaluate companions at
nonnegative real arguments, which is why only that case is supported here.

Each series is one `PowerSeries` named by one string: a catalog name,
"2F1:alpha,beta,gamma" or "poly:c0,c1,...". `lookup(name)` returns it, with
`.name == name`, so every message about a series names it as it was asked for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoConvergence, OutOfDisk

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10**6


@dataclass(frozen=True)
class PowerSeries:
    """A power series sum a_n z^n with convergence radius `radius`.

    coeff(n) must be deterministic; each series object calls it once per n
    (see `prefix`). `tail_bound(m, x)` is required and must return a
    certified upper bound on sum_{j>m} |a_j| x^j (math.inf when no
    certificate holds at that order). The order search finds the smallest
    certified order when that bound is nonincreasing in m once finite, as
    every catalog tail is, and a certified but maybe larger one otherwise.
    `closed_form(x)`, when given, is the companion's value in closed form.
    """

    coeff: Callable[[int], complex]
    radius: float
    name: str
    tail_bound: Callable[[int, float], float] = field(repr=False)
    closed_form: Optional[Callable[[float], float]] = field(default=None, repr=False)
    _prefix: list = field(init=False, repr=False, compare=False,
                          default_factory=lambda: [np.empty(0, complex), np.empty(0)])

    def prefix(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """a_0..a_m (complex128) and |a_0|..|a_m| (float64), kept on the
        object and grown to m on demand: `coeff(j)` runs once per j."""
        a, mags = self._prefix
        if len(a) <= m:
            new = [self.coeff(j) for j in range(len(a), m + 1)]
            a = np.concatenate((a, new))
            mags = np.concatenate((mags, [abs(c) for c in new]))
            self._prefix[:] = a, mags
        return a[: m + 1], mags[: m + 1]


def _check_eval_args(f: PowerSeries, x: float, tol: float) -> None:
    if not (x >= 0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    if not (0 < tol < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if x >= f.radius:
        raise OutOfDisk(
            f"{f.name}: argument {x} is not inside the disk of radius {f.radius}"
        )


def _order_and_tail(
    f: PowerSeries, x: float, tol: float, max_terms: int
) -> tuple[int, float]:
    """Gallop over m = 0, 1, 3, 7, ..., max_terms to a tail <= tol, then
    bisect; the arguments are checked first (OutOfDisk, ValueError)."""
    _check_eval_args(f, x, tol)
    fail, m = -1, 0  # fail: the largest order known to miss tol
    while not (t := f.tail_bound(m, x)) <= tol:
        if m >= max_terms:
            raise NoConvergence(f"{f.name}: no order up to {max_terms} "
                                f"certifies tail <= {tol} at x={x}")
        fail, m = m, min(2 * m + 1, max_terms)
    while m - fail > 1:
        mid = (fail + m) // 2
        if (t_mid := f.tail_bound(mid, x)) <= tol:
            m, t = mid, t_mid
        else:
            fail = mid
    return m, t


def truncation_order(
    f: PowerSeries, x: float, tol: float, max_terms: int = DEFAULT_MAX_TERMS
) -> int:
    """Smallest m whose certified tail majorant at x is <= tol (see
    `PowerSeries`), found in O(log m) tail evaluations."""
    return _order_and_tail(f, x, tol, max_terms)[0]


def eval_companion(
    f: PowerSeries, x: float, tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """Evaluate sum |a_n| x^n to within tol at nonnegative real x.

    Sums with compensated (Kahan) accumulation up to the certified order,
    so the returned value is within tol of the companion's true value up
    to a few ulps of the result. For series with nonnegative coefficients
    this is also the value of f itself.
    """
    m, _ = _order_and_tail(f, x, tol, max_terms)
    total = 0.0
    comp = 0.0
    xj = 1.0
    for mag in f.prefix(m)[1].tolist():
        term = mag * xj
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        xj *= x
    return total


def from_coefficients(
    coeffs: Sequence[complex], name: str = "polynomial"
) -> PowerSeries:
    """Finite polynomial as a power series (radius +inf, exact tail)."""
    values = [complex(c) for c in coeffs]

    def tail(m: int, x: float) -> float:
        try:
            return sum(abs(values[j]) * x**j for j in range(m + 1, len(values)))
        except OverflowError:  # a float power past double range
            return math.inf

    return PowerSeries(
        coeff=lambda n: values[n] if n < len(values) else 0.0j,
        radius=math.inf,
        name=name,
        tail_bound=tail,
    )


# ---------------------------------------------------------------------------
# Certified tail majorants for the catalog families
# ---------------------------------------------------------------------------


def _factorial_tail(m: int, x: float) -> float:
    # Valid whenever |a_j| <= 1/j!: tail <= x^(m+1)/(m+1)! * 1/(1 - x/(m+2)).
    if x == 0.0:
        return 0.0
    if x >= m + 2:
        return math.inf
    lead = math.exp((m + 1) * math.log(x) - math.lgamma(m + 2))
    return lead / (1.0 - x / (m + 2))


def _geometric_tail(m: int, x: float) -> float:
    # Valid whenever |a_j| <= 1 and x < 1: tail <= x^(m+1)/(1-x).
    if x == 0.0:
        return 0.0
    return x ** (m + 1) / (1.0 - x)


def _reciprocal_tail(m: int, x: float) -> float:
    # Valid whenever |a_j| <= 1/j (j >= 1): tail <= x^(m+1)/((m+1)(1-x)).
    if x == 0.0:
        return 0.0
    return x ** (m + 1) / ((m + 1) * (1.0 - x))


def _inv_factorial(n: int) -> float:
    # 1/171! is below the double-precision normal range.
    return 1.0 / math.factorial(n) if n <= 170 else 0.0


def _memo_sequence(first: float, step: Callable[[int, float], float]):
    """Coefficient stream c_0=first, c_{n+1}=step(n, c_n), cached."""
    cache = [first]

    def value(n: int) -> float:
        while len(cache) <= n:
            k = len(cache) - 1
            cache.append(step(k, cache[k]))
        return cache[n]

    return value


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _factorial(name: str, parity: Optional[int], sign: int,
               closed_form: Callable[[float], float]) -> PowerSeries:
    """a_n = sign^(n//2) / n! on every n (parity None) or on the n of one
    parity, 0 elsewhere: exp, cos, sin, cosh and sinh."""

    def coefficient(n: int) -> complex:
        if parity is not None and n % 2 != parity:
            return 0.0j
        return complex(sign ** (n // 2) * _inv_factorial(n))

    return PowerSeries(coefficient, math.inf, name, _factorial_tail, closed_form)


def _geometric(name: str, sign: int) -> PowerSeries:
    """a_n = sign^n on |z| < 1; the companion is 1/(1-z) for either sign."""
    return PowerSeries(lambda n: complex(sign**n), 1.0, name, _geometric_tail,
                       lambda x: 1.0 / (1.0 - x))


def _odd_reciprocal_coeff(n: int) -> complex:
    return complex(1.0 / n) if n % 2 == 1 else 0.0j


def _odd_reciprocal_tail(m: int, x: float) -> float:
    # Odd terms x^j/j only: tail <= x^(m+1) / ((m+1)(1 - x^2)).
    if x == 0.0:
        return 0.0
    return x ** (m + 1) / ((m + 1) * (1.0 - x * x))


def _arcsin() -> PowerSeries:
    """arcsin(z) = sum c_n z^(2n+1) with c_n = (2n-1)!!/((2n)!! (2n+1)).

    Coefficients come from the term-to-term recurrence
    c_{n+1} = c_n (2n+1)^2 / (2(n+1)(2n+3)), never from Gamma evaluations
    at large argument.
    """
    odd = _memo_sequence(
        1.0, lambda n, c: c * (2 * n + 1) ** 2 / (2.0 * (n + 1) * (2 * n + 3))
    )

    def coefficient(n: int) -> complex:
        return complex(odd((n - 1) // 2)) if n % 2 == 1 else 0.0j

    def tail(m: int, x: float) -> float:
        if x == 0.0:
            return 0.0
        j = m + 1 if (m + 1) % 2 == 1 else m + 2
        # Odd-step term ratios are below x^2, so a geometric sum closes it.
        return odd((j - 1) // 2) * x**j / (1.0 - x * x)

    return PowerSeries(coefficient, 1.0, "arcsin", tail, math.asin)


def _hypergeometric(name: str, alpha: float, beta: float, gamma: float) -> PowerSeries:
    """2F1(alpha, beta; gamma; z) named `name` (radius 1); `lookup` has
    checked that alpha, beta and gamma are positive.

    Coefficients a_0 = 1, a_{n+1} = a_n (n+alpha)(n+beta)/((n+1)(n+gamma));
    all positive. The tail majorant uses the monotone bound on the
    coefficient ratio: for k >= m it never exceeds
    1 + max(0, alpha+beta-1-gamma)/(m+1)
      + max(0, alpha*beta-gamma)/((m+1)(m+gamma)).
    """
    coeffs = _memo_sequence(
        1.0,
        lambda n, a: a * (n + alpha) * (n + beta) / ((n + 1.0) * (n + gamma)),
    )
    excess_linear = max(0.0, alpha + beta - 1.0 - gamma)
    excess_const = max(0.0, alpha * beta - gamma)

    def tail(m: int, x: float) -> float:
        if x == 0.0:
            return 0.0
        rho = 1.0 + excess_linear / (m + 1) + excess_const / ((m + 1) * (m + gamma))
        if rho * x >= 1.0:
            return math.inf
        return coeffs(m + 1) * x ** (m + 1) / (1.0 - rho * x)

    def closed_form(x: float) -> float:
        from scipy.special import hyp2f1

        return float(hyp2f1(alpha, beta, gamma, x))

    return PowerSeries(lambda n: complex(coeffs(n)), 1.0, name, tail, closed_form)


# Every named series but 2F1, built once, each with the closed form of its
# companion.
_CATALOG: dict[str, PowerSeries] = {f.name: f for f in (
    # ln 1/(1+z) = sum_{n>=1} (-1)^n z^n / n; companion ln 1/(1-z)
    PowerSeries(lambda n: complex((-1) ** n / n) if n >= 1 else 0.0j, 1.0,
                "log-resolvent", _reciprocal_tail, lambda x: -math.log1p(-x)),
    _factorial("cos", 0, -1, math.cosh),
    _factorial("sin", 1, -1, math.sinh),
    _geometric("resolvent", -1),  # 1/(1+z)
    _factorial("exp", None, 1, math.exp),
    # (1/2) ln((1+z)/(1-z)): the artanh series under its other name
    PowerSeries(_odd_reciprocal_coeff, 1.0, "half-log-ratio", _odd_reciprocal_tail,
                math.atanh),
    _arcsin(),
    # artanh(z) = sum z^(2n-1)/(2n-1) on |z| < 1; nonnegative
    PowerSeries(_odd_reciprocal_coeff, 1.0, "artanh", _odd_reciprocal_tail, math.atanh),
    _geometric("geometric", 1),  # 1/(1-z)
    _factorial("cosh", 0, 1, math.cosh),
    _factorial("sinh", 1, 1, math.sinh),
)}


def catalog() -> list[PowerSeries]:
    """All named series, with 2F1 at alpha = beta = gamma = 1."""
    return [*_CATALOG.values(), lookup("2F1")]


def _literals(name: str, what: str) -> list[complex]:
    """The comma-separated finite complex literals after the ":" of
    `name`; ValueError names the first that is not one as `what` i."""
    values = []
    for i, token in enumerate(name.partition(":")[2].split(",")):
        try:
            values.append(complex(token))
        except ValueError:
            values.append(cmath.nan)
        if not cmath.isfinite(values[-1]):
            raise ValueError(f"{what} {i} of {name!r} is {token.strip()!r}, "
                             "not a finite complex literal")
    return values


def lookup(name: str) -> PowerSeries:
    """The series called `name`: a catalog name, "2F1:alpha,beta,gamma"
    with three positive finite reals ("2F1" alone: all three 1), or a
    finite polynomial "poly:c0,c1,..." whose coefficients are finite
    complex literals (e.g. "poly:1,-0.5,0.25j"); its `.name` is `name`.
    ValueError names a malformed or unknown name.
    """
    if name == "2F1" or name.startswith("2F1:"):
        params = _literals(name, "parameter") if name != "2F1" else [1.0] * 3
        if len(params) != 3 or not all(c.imag == 0 < c.real for c in params):
            raise ValueError(f"{name!r} needs three positive reals alpha,beta,gamma")
        return _hypergeometric(name, *(c.real for c in params))
    if name.startswith("poly:"):
        return from_coefficients(_literals(name, "coefficient"), name=name)
    if name in _CATALOG:
        return _CATALOG[name]
    raise ValueError(f"unknown series {name!r}; known: {sorted(_CATALOG)}, "
                     "2F1:alpha,beta,gamma and poly:c0,c1,...")
