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

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .errors import NoConvergence, OutOfDisk

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10**6


@dataclass(frozen=True)
class PowerSeries:
    """A power series sum a_n z^n with convergence radius `radius`.

    coeff(n) must be deterministic. `tail_bound(m, x)` is required and
    must return a certified upper bound on sum_{j>m} |a_j| x^j (math.inf
    when no certificate holds at that order).
    """

    coeff: Callable[[int], complex]
    radius: float
    name: str
    tail_bound: Callable[[int, float], float] = field(repr=False)


@dataclass(frozen=True)
class SeriesCatalogEntry:
    """A named series plus the closed form of its companion, when known."""

    series: PowerSeries
    closed_form_eval: Optional[Callable[[float], float]] = None
    params: Optional[dict[str, float]] = None


def abs_companion(f: PowerSeries) -> PowerSeries:
    """Series with coefficients |a_n|: same radius, nonnegative terms.

    Tail certificates transfer unchanged because they only ever see |a_n|.
    """
    base = f.coeff
    return replace(
        f,
        coeff=lambda n: complex(abs(base(n))),
        name=f.name + "_abs",
    )


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
    for m in range(max_terms + 1):
        t = f.tail_bound(m, x)
        if t <= tol:
            return m, t
    raise NoConvergence(
        f"{f.name}: no order up to {max_terms} certifies tail <= {tol} at x={x}"
    )


def truncation_order(
    f: PowerSeries, x: float, tol: float, max_terms: int = DEFAULT_MAX_TERMS
) -> int:
    """Smallest tested m whose certified tail majorant at x is <= tol."""
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
    for j in range(m + 1):
        term = abs(f.coeff(j)) * xj
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

    def coefficient(n: int) -> complex:
        return values[n] if n < len(values) else 0.0j

    def tail(m: int, x: float) -> float:
        return sum(abs(values[j]) * x**j for j in range(m + 1, len(values)))

    return PowerSeries(
        coeff=coefficient,
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


def exp_series() -> SeriesCatalogEntry:
    """exp(z) = sum z^n / n!; companion is exp itself."""
    series = PowerSeries(
        coeff=lambda n: complex(_inv_factorial(n)),
        radius=math.inf,
        name="exp",
        tail_bound=_factorial_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.exp)


def cos_series() -> SeriesCatalogEntry:
    """cos(z) = sum (-1)^n z^(2n) / (2n)!; companion is cosh."""
    series = PowerSeries(
        coeff=lambda n: complex(
            (-1) ** (n // 2) * _inv_factorial(n) if n % 2 == 0 else 0.0
        ),
        radius=math.inf,
        name="cos",
        tail_bound=_factorial_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.cosh)


def sin_series() -> SeriesCatalogEntry:
    """sin(z) = sum (-1)^n z^(2n+1) / (2n+1)!; companion is sinh."""
    series = PowerSeries(
        coeff=lambda n: complex(
            (-1) ** ((n - 1) // 2) * _inv_factorial(n) if n % 2 == 1 else 0.0
        ),
        radius=math.inf,
        name="sin",
        tail_bound=_factorial_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.sinh)


def cosh_series() -> SeriesCatalogEntry:
    """cosh(z) = sum z^(2n) / (2n)!; already nonnegative."""
    series = PowerSeries(
        coeff=lambda n: complex(_inv_factorial(n) if n % 2 == 0 else 0.0),
        radius=math.inf,
        name="cosh",
        tail_bound=_factorial_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.cosh)


def sinh_series() -> SeriesCatalogEntry:
    """sinh(z) = sum z^(2n+1) / (2n+1)!; already nonnegative."""
    series = PowerSeries(
        coeff=lambda n: complex(_inv_factorial(n) if n % 2 == 1 else 0.0),
        radius=math.inf,
        name="sinh",
        tail_bound=_factorial_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.sinh)


def geometric_series() -> SeriesCatalogEntry:
    """sum z^n = 1/(1-z) on |z| < 1."""
    series = PowerSeries(
        coeff=lambda n: complex(1.0),
        radius=1.0,
        name="geometric",
        tail_bound=_geometric_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=lambda x: 1.0 / (1.0 - x))


def resolvent_series() -> SeriesCatalogEntry:
    """1/(1+z) = sum (-1)^n z^n on |z| < 1; companion is 1/(1-z)."""
    series = PowerSeries(
        coeff=lambda n: complex((-1) ** n),
        radius=1.0,
        name="resolvent",
        tail_bound=_geometric_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=lambda x: 1.0 / (1.0 - x))


def log_resolvent_series() -> SeriesCatalogEntry:
    """ln 1/(1+z) = sum_{n>=1} (-1)^n z^n / n; companion is ln 1/(1-z)."""
    series = PowerSeries(
        coeff=lambda n: complex((-1) ** n / n) if n >= 1 else 0.0j,
        radius=1.0,
        name="log-resolvent",
        tail_bound=_reciprocal_tail,
    )
    return SeriesCatalogEntry(
        series=series, closed_form_eval=lambda x: -math.log1p(-x)
    )


def _odd_reciprocal_coeff(n: int) -> complex:
    return complex(1.0 / n) if n % 2 == 1 else 0.0j


def _odd_reciprocal_tail(m: int, x: float) -> float:
    # Odd terms x^j/j only: tail <= x^(m+1) / ((m+1)(1 - x^2)).
    if x == 0.0:
        return 0.0
    return x ** (m + 1) / ((m + 1) * (1.0 - x * x))


def artanh_series() -> SeriesCatalogEntry:
    """artanh(z) = sum z^(2n-1)/(2n-1) on |z| < 1; nonnegative."""
    series = PowerSeries(
        coeff=_odd_reciprocal_coeff,
        radius=1.0,
        name="artanh",
        tail_bound=_odd_reciprocal_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.atanh)


def half_log_ratio_series() -> SeriesCatalogEntry:
    """(1/2) ln((1+z)/(1-z)): the same odd series as artanh."""
    series = PowerSeries(
        coeff=_odd_reciprocal_coeff,
        radius=1.0,
        name="half-log-ratio",
        tail_bound=_odd_reciprocal_tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.atanh)


def arcsin_series() -> SeriesCatalogEntry:
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

    series = PowerSeries(
        coeff=coefficient,
        radius=1.0,
        name="arcsin",
        tail_bound=tail,
    )
    return SeriesCatalogEntry(series=series, closed_form_eval=math.asin)


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

    series = PowerSeries(
        coeff=lambda n: complex(coeffs(n)),
        radius=1.0,
        name="2F1",
        tail_bound=tail,
    )

    def closed_form(x: float) -> float:
        from scipy.special import hyp2f1

        return float(hyp2f1(alpha, beta, gamma, x))

    return SeriesCatalogEntry(
        series=series,
        closed_form_eval=closed_form,
        params={"alpha": alpha, "beta": beta, "gamma": gamma},
    )


_DEFAULT_2F1 = (1.0, 1.0, 1.0)

_CATALOG_BUILDERS: dict[str, Callable[[], SeriesCatalogEntry]] = {
    "log-resolvent": log_resolvent_series,
    "cos": cos_series,
    "sin": sin_series,
    "resolvent": resolvent_series,
    "exp": exp_series,
    "half-log-ratio": half_log_ratio_series,
    "arcsin": arcsin_series,
    "artanh": artanh_series,
    "geometric": geometric_series,
    "cosh": cosh_series,
    "sinh": sinh_series,
}


def catalog(
    hyp_params: tuple[float, float, float] = _DEFAULT_2F1,
) -> list[SeriesCatalogEntry]:
    """All named series, with 2F1 instantiated at the given parameters."""
    entries = [build() for build in _CATALOG_BUILDERS.values()]
    entries.append(hypergeometric_series(*hyp_params))
    return entries


def lookup(name: str, params: Optional[dict[str, float]] = None) -> SeriesCatalogEntry:
    """Fetch a catalog entry by name; "2F1" takes alpha/beta/gamma params."""
    if name == "2F1":
        p = params or {}
        return hypergeometric_series(
            p.get("alpha", 1.0), p.get("beta", 1.0), p.get("gamma", 1.0)
        )
    if name in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[name]()
    raise KeyError(f"unknown series {name!r}; known: {sorted(_CATALOG_BUILDERS)} + 2F1")
