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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

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
    """

    coeff: Callable[[int], complex]
    radius: float
    name: str
    tail_bound: Callable[[int, float], float] = field(repr=False)
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


@dataclass(frozen=True)
class SeriesCatalogEntry:
    """A named series plus the closed form of its companion, when known."""

    series: PowerSeries
    closed_form_eval: Optional[Callable[[float], float]] = None
    params: Optional[dict[str, float]] = None


def _check_eval_args(f: PowerSeries, x: float, tol: float) -> None:
    if not (x >= 0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    if x >= f.radius:
        raise OutOfDisk(
            f"{f.name}: argument {x} is not inside the disk of radius {f.radius}"
        )


def _order_and_tail(
    f: PowerSeries, x: float, tol: float, max_terms: int
) -> tuple[int, float]:
    """Gallop over m = 0, 1, 3, 7, ..., max_terms to a tail <= tol, then bisect."""
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
    _check_eval_args(f, x, tol)
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
    _check_eval_args(f, x, tol)
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


def _entry(name: str, coeff: Callable[[int], complex], radius: float,
           tail: Callable[[int, float], float],
           closed_form: Callable[[float], float],
           params: Optional[dict[str, float]] = None) -> SeriesCatalogEntry:
    series = PowerSeries(coeff=coeff, radius=radius, name=name, tail_bound=tail)
    return SeriesCatalogEntry(series, closed_form, params)


def _factorial_entry(name: str, parity: Optional[int], sign: int,
                     closed_form: Callable[[float], float]) -> SeriesCatalogEntry:
    """a_n = sign^(n//2) / n! on every n (parity None) or on the n of one
    parity, 0 elsewhere: exp, cos, sin, cosh and sinh."""

    def coefficient(n: int) -> complex:
        if parity is not None and n % 2 != parity:
            return 0.0j
        return complex(sign ** (n // 2) * _inv_factorial(n))

    return _entry(name, coefficient, math.inf, _factorial_tail, closed_form)


def _geometric_entry(name: str, sign: int) -> SeriesCatalogEntry:
    """a_n = sign^n on |z| < 1; the companion is 1/(1-z) for either sign."""
    return _entry(name, lambda n: complex(sign**n), 1.0, _geometric_tail,
                  lambda x: 1.0 / (1.0 - x))


def _odd_reciprocal_coeff(n: int) -> complex:
    return complex(1.0 / n) if n % 2 == 1 else 0.0j


def _odd_reciprocal_tail(m: int, x: float) -> float:
    # Odd terms x^j/j only: tail <= x^(m+1) / ((m+1)(1 - x^2)).
    if x == 0.0:
        return 0.0
    return x ** (m + 1) / ((m + 1) * (1.0 - x * x))


def _arcsin_entry() -> SeriesCatalogEntry:
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

    return _entry("arcsin", coefficient, 1.0, tail, math.asin)


def hypergeometric_series(
    alpha: float, beta: float, gamma: float
) -> SeriesCatalogEntry:
    """2F1(alpha, beta; gamma; z) with alpha, beta, gamma > 0 (radius 1).

    Coefficients a_0 = 1, a_{n+1} = a_n (n+alpha)(n+beta)/((n+1)(n+gamma));
    all positive. The tail majorant uses the monotone bound on the
    coefficient ratio: for k >= m it never exceeds
    1 + max(0, alpha+beta-1-gamma)/(m+1)
      + max(0, alpha*beta-gamma)/((m+1)(m+gamma)).
    """
    if not (alpha > 0 and beta > 0 and gamma > 0):
        raise ValueError("2F1 parameters must be positive")

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

    return _entry("2F1", lambda n: complex(coeffs(n)), 1.0, tail, closed_form,
                  {"alpha": alpha, "beta": beta, "gamma": gamma})


# Every named series but 2F1, built once, each with the closed form of its
# companion.
_CATALOG: dict[str, SeriesCatalogEntry] = {e.series.name: e for e in (
    # ln 1/(1+z) = sum_{n>=1} (-1)^n z^n / n; companion ln 1/(1-z)
    _entry("log-resolvent", lambda n: complex((-1) ** n / n) if n >= 1 else 0.0j,
           1.0, _reciprocal_tail, lambda x: -math.log1p(-x)),
    _factorial_entry("cos", 0, -1, math.cosh),
    _factorial_entry("sin", 1, -1, math.sinh),
    _geometric_entry("resolvent", -1),  # 1/(1+z)
    _factorial_entry("exp", None, 1, math.exp),
    # (1/2) ln((1+z)/(1-z)): the artanh series under its other name
    _entry("half-log-ratio", _odd_reciprocal_coeff, 1.0, _odd_reciprocal_tail,
           math.atanh),
    _arcsin_entry(),
    # artanh(z) = sum z^(2n-1)/(2n-1) on |z| < 1; nonnegative
    _entry("artanh", _odd_reciprocal_coeff, 1.0, _odd_reciprocal_tail, math.atanh),
    _geometric_entry("geometric", 1),  # 1/(1-z)
    _factorial_entry("cosh", 0, 1, math.cosh),
    _factorial_entry("sinh", 1, 1, math.sinh),
)}

# The parameters a series can take (2F1's), with their defaults.
_PARAM_DEFAULTS = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0}


def catalog(params: Optional[Mapping[str, float]] = None) -> list[SeriesCatalogEntry]:
    """All named series, with 2F1 at `params` (see `lookup`)."""
    return [*_CATALOG.values(), lookup("2F1", params)]


def _poly_coefficient(name: str, i: int, token: str) -> complex:
    """Coefficient i of the "poly:" series `name`, written as `token`."""
    try:
        c = complex(token)
        if cmath.isfinite(c):
            return c
    except ValueError:
        pass
    raise ValueError(f"coefficient {i} of {name!r} is {token.strip()!r}, "
                     "not a finite complex literal")


def lookup(name: str,
           params: Optional[Mapping[str, float]] = None) -> SeriesCatalogEntry:
    """The series called `name`: a catalog name, "2F1" with its alpha,
    beta and gamma taken from `params` (1.0 where absent), or a finite
    polynomial "poly:c0,c1,..." whose coefficients are finite complex
    literals (e.g. "poly:1,-0.5,0.25j"; ValueError names any other). A
    sweep shares `params` across its series, so a series without
    parameters ignores them; a key that no series takes raises KeyError.
    """
    params = dict(params or {})
    unknown = sorted(params.keys() - _PARAM_DEFAULTS.keys())
    if unknown:
        raise KeyError(
            f"unknown series parameter(s) {unknown}; known: {list(_PARAM_DEFAULTS)}"
        )
    if name == "2F1":
        return hypergeometric_series(**{**_PARAM_DEFAULTS, **params})
    if name.startswith("poly:"):
        coeffs = [_poly_coefficient(name, i, tok)
                  for i, tok in enumerate(name[5:].split(","))]
        return SeriesCatalogEntry(series=from_coefficients(coeffs, name=name))
    if name in _CATALOG:
        return _CATALOG[name]
    raise KeyError(f"unknown series {name!r}; known: {sorted(_CATALOG)} + 2F1")
