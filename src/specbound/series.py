"""Power series with certified truncation control.

A series f(z) = sum a_n z^n is its coefficients, a radius of convergence
and a certified tail majorant (m, x) -> bound on sum_{j>m} |a_j| x^j; every
evaluation sums only up to an order whose tail is below the requested
tolerance. The "companion" of f has coefficients |a_n| and the same radius,
and equals f when every a_n >= 0; every bound in this package evaluates
companions at nonnegative real arguments, the only case supported here.

Every catalog series is s z^k sum_j t_j (c z^d)^j, t_j = prod(a)_j /
(j! prod(b)_j): one row (k, d, c, a, b, s) of `_ROWS`, one builder, one
tail certificate, and magnitudes kept as ln|a_n|, so none underflows.

Each series is one `PowerSeries` named by one string: a catalog name,
"2F1:alpha,beta,gamma" or "poly:c0,c1,...". `lookup(name)` returns it, with
`.name == name`, so every message about a series names it as it was asked for.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergence, OutOfDisk

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10**6


@dataclass(frozen=True)
class PowerSeries:
    """A power series sum a_n z^n with convergence radius `radius`.

    `coefficients(m)` returns a_0..a_m (complex128) and ln|a_0|..ln|a_m|
    (float64, -inf where a_n = 0); it must be deterministic, and each
    series object keeps a prefix of it (see `prefix`). `tail_bound(m, x)`
    is required and must return a certified upper bound on
    sum_{j>m} |a_j| x^j (math.inf when no certificate holds at that
    order). The order search finds the smallest certified order when that
    bound is nonincreasing in m once finite and nondecreasing in x, as
    every catalog tail is, and a certified but maybe larger one otherwise;
    each object keeps the orders it certified (`_orders`) to bracket later
    searches. A catalog tail reads ln|a_n| of the series it was built with
    (`log_abs`), so a copy given other coefficients needs its own tail.
    """

    coefficients: Callable[[int], tuple[np.ndarray, np.ndarray]]
    radius: float
    name: str
    tail_bound: Callable[[int, float], float] = field(repr=False)
    _prefix: list = field(init=False, repr=False, compare=False,
                          default_factory=lambda: [np.empty(0, complex), np.empty(0)])
    # (tol, max_terms) -> (sorted [(x, order)], {order: (smallest x, largest x)})
    _orders: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def prefix(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """a_0..a_m and ln|a_0|..ln|a_m|, kept on the object: `coefficients`
        runs only when m is past the stored prefix, which then at least
        doubles, so reading m = 0, 1, 2, ... costs O(m) in all. It keeps
        a_{m+1} and a_{m+2} too, the furthest a catalog tail at order m reads."""
        if len(self._prefix[0]) <= m:
            self._prefix[:] = self.coefficients(max(m + 2, 2 * len(self._prefix[0])))
        a, logs = self._prefix
        return a[: m + 1], logs[: m + 1]

    def log_abs(self, n: int) -> float:
        """ln|a_n|; past n = 2**16 from a `coefficients(n)` result that is not
        kept, as an order search that fails reads up to max_terms."""
        logs = self._prefix[1]
        if n >= len(logs):
            logs = (self.prefix(n) if n < 2**16 else self.coefficients(n))[1]
        return logs.item(n)


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
    """Gallop to a tail <= tol, then bisect, and record the order in
    `f._orders`; the arguments are checked first (OutOfDisk, ValueError).
    The order recorded at the nearest x below, less one, misses tol here too
    (tails grow with x); the gallop starts at the one at the nearest x above."""
    _check_eval_args(f, x, tol)
    seen, ends = f._orders.setdefault((tol, max_terms), ([], {}))
    i, j = bisect.bisect(seen, (x, math.inf)), bisect.bisect(seen, (x, -1))
    fail = seen[i - 1][1] - 1 if i else -1  # the largest order known to miss tol
    m = seen[j][1] if j < len(seen) else fail + 1
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
    lo, hi = ends.get(m, (math.inf, -math.inf))
    if not lo <= x <= hi:
        if lo < hi:  # the old end on x's side is now inside the range
            seen.remove((lo if x < lo else hi, m))
        ends[m] = (min(lo, x), max(hi, x))
        bisect.insort(seen, (x, m))
    return m, t


def eval_companion(
    f: PowerSeries, x: float, tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """Evaluate sum |a_n| x^n to within tol at nonnegative real x.

    Each term up to the certified order is exp(ln|a_n| + n ln x), so no
    coefficient underflows where x^n is large, and `math.fsum` adds them
    exactly rounded: the result is within tol of the companion's value up
    to a few ulps of each term's exponent, and math.inf past double range.
    For series with nonnegative coefficients this is also f's value.
    """
    m, _ = _order_and_tail(f, x, tol, max_terms)
    logs = f.prefix(m)[1]
    if x == 0.0:
        return math.exp(logs[0])
    exponents = (logs + math.log(x) * np.arange(m + 1)).tolist()
    try:
        return math.fsum(map(math.exp, exponents))
    except OverflowError:  # a term or the sum past double range
        return math.inf


def partial_sums(f: PowerSeries, z: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """S_m(z) = sum_{j<=m} a_j z^j at each point of row k of the (k, n)
    array z, with m = orders[k].

    Paterson-Stockmeyer: with s = max(1, isqrt(m)), a row's blocks
    B_i(z) = sum_{j<s} a_{is+j} z^j are one (m/s, s) by (s, n) product of
    its powers z^0..z^(s-1), and nest by Horner in z^s, so no power past
    z^s is formed and the work and memory are O(sqrt(m) n) per row beyond
    the coefficients. A point where the sum leaves double range gives inf
    or nan, with no warning.

    Every row gets the bits it gets alone, in a stack of one: the rows of
    one s share one cumprod of length s, the rows of one s and block count
    one block product, and the rows of one m one tail product, each a
    stack of the products a row alone makes. Sorted by block count, the
    rows still nesting at each Horner step are a prefix of the stack, so
    each step is one multiply and one add.
    """
    z = np.asarray(z, dtype=np.complex128)  # the powers' buffer below
    k, n = z.shape
    # (-block count, s, m, row), most blocks first
    rows = sorted((-(m // s), s, m, r) for r, m in enumerate(orders)
                  for s in (max(1, math.isqrt(m)),))
    a = f.prefix(max(orders, default=0))[0]
    S = np.empty((k, n), np.complex128)  # the sum of rows[i] at S[i]
    zs = np.empty((k, n), np.complex128)  # its z^s
    blocks = np.empty((k, -rows[0][0] if rows else 0, n), np.complex128)  # [i, j]: B_j of rows[i]
    members: dict[int, list[int]] = {}  # s -> the places of its rows in `rows`
    for i, row in enumerate(rows):
        members.setdefault(row[1], []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, places in members.items():
            points = z[[rows[i][3] for i in places]]
            powers = np.ones((len(places), s + 1, n), np.complex128)  # z^0..z^s
            # each point s times, as np.broadcast_to repeats it, at less cost
            repeated = np.ndarray((len(places), s, n), np.complex128, points,
                                  strides=(points.strides[0], 0, points.strides[1]))
            np.multiply.accumulate(repeated, axis=1, out=powers[:, 1:])
            zs[places] = powers[:, s]
            for nb, run in itertools.groupby(places, key=lambda i: rows[i][0]):
                run = list(run)
                i, top = run[0], -nb * s
                table = powers[places.index(i):][:len(run)]
                if top:
                    np.matmul(a[:top].reshape(-nb, s), table[:, :s],
                              blocks[i:i + len(run), :-nb])
                for m, same in itertools.groupby(run, key=lambda j: rows[j][2]):
                    same = list(same)
                    j, end = same[0], same[-1] + 1
                    np.matmul(a[top:m + 1], table[j - i:end - i, :m + 1 - top], S[j:end])
        live = 0
        counts = [(-nb, len(list(run))) for nb, run in itertools.groupby(r[0] for r in rows)]
        for (nb, count), (below, _) in zip(counts, counts[1:] + [(0, 0)]):
            live += count  # the rows with more than `below` blocks
            nested, power = S[:live], zs[:live]
            # new arrays, as alone: an in-place product of one point differs
            for block in blocks[:live].swapaxes(0, 1)[below:nb][::-1]:
                nested = block + power * nested
            S[:live] = nested
    order = [row[3] for row in rows]
    return S if order == list(range(k)) else S[np.argsort(order)]  # in `orders`' order


def from_coefficients(
    coeffs: Sequence[complex], name: str = "polynomial"
) -> PowerSeries:
    """Finite polynomial as a power series (radius +inf, exact tail); each
    a_n is kept exactly as given."""
    values = [complex(c) for c in coeffs]
    logs = [math.log(abs(c)) if c else -math.inf for c in values]

    def coefficients(m: int) -> tuple[np.ndarray, np.ndarray]:
        pad = max(0, m + 1 - len(values))
        return (np.array(values[: m + 1] + [0j] * pad, complex),
                np.array(logs[: m + 1] + [-math.inf] * pad))

    def tail(m: int, x: float) -> float:
        try:
            return sum(abs(values[j]) * x**j for j in range(m + 1, len(values)))
        except OverflowError:  # a float power past double range
            return math.inf

    return PowerSeries(coefficients, math.inf, name, tail)


def _hypergeometric(name: str, k: int, d: int, c: float, a: Sequence[float],
                    b: Sequence[float], s: int) -> PowerSeries:
    """s z^k sum_j t_j (c z^d)^j with t_j = prod(a)_j / (j! prod(b)_j), for
    positive a and b with len(a) <= len(b) + 1 and s = +1 or -1.

    ln t_j is the running sum of ln rho_i, i < j, with the term ratio
    rho_i = |c| prod(i + a) / ((i + 1) prod(i + b)), not lgamma differences,
    which lose digits at large argument. Tail: pair each a with one of the
    denominators b and 1. A factor (j + a)/(j + b) is monotone in j: at most
    1 when a <= b, else largest at j = J, as is an unpaired 1/(j + b). So
    every ratio from j = J on is at most rho_bar(J), and the terms from J on
    sum to at most t_J x^(k+dJ) / (1 - rho_bar(J) x^d) while that is positive.
    """
    ratio_c = abs(c)
    denominators = sorted((*b, 1.0), reverse=True)
    pairs = zip(sorted(a, reverse=True), denominators)
    growing = tuple((ai, bi) for ai, bi in pairs if ai > bi)
    unpaired = tuple(denominators[len(a):])

    def coefficients(m: int) -> tuple[np.ndarray, np.ndarray]:
        coeffs, logs = np.zeros(m + 1, complex), np.full(m + 1, -math.inf)
        log_t, t = logs[k::d], coeffs.real[k::d]  # views: n = k + dj <= m
        i = np.arange(len(log_t) - 1, dtype=float)
        rho = np.full_like(i, ratio_c)  # in place: the prefix may be 10^6 long
        for ai in a:
            rho *= i + ai
        rho /= i + 1.0
        for bi in b:
            rho /= i + bi
        log_t[:1] = 0.0
        np.cumsum(np.log(rho, out=rho), out=log_t[1:])
        np.exp(log_t, out=t)
        t *= s
        t[1::2] *= math.copysign(1.0, c)  # (sign c)^j
        return coeffs, logs

    def tail(m: int, x: float) -> float:
        if x == 0.0:
            return 0.0
        J = (m - k) // d + 1 if m >= k else 0  # the first term past m
        rho_bar = ratio_c
        for ai, bi in growing:
            rho_bar *= (J + ai) / (J + bi)
        for bi in unpaired:
            rho_bar /= J + bi
        try:
            q = rho_bar * x**d
            if q >= 1.0:
                return math.inf
            n = k + d * J
            return math.exp(f.log_abs(n) + n * math.log(x)) / (1.0 - q)
        except OverflowError:  # past double range
            return math.inf

    radius = ratio_c ** (-1.0 / d) if len(a) == len(b) + 1 else math.inf
    f = PowerSeries(coefficients, radius, name, tail)  # read by tail
    return f


# Every named series but 2F1: names, (k, d, c, a, b, s).
_ROWS = (
    (("log-resolvent",), 1, 1, -1.0, (1.0, 1.0), (2.0,), -1),  # ln 1/(1+z)
    (("cos",), 0, 2, -0.25, (), (0.5,), 1),
    (("sin",), 1, 2, -0.25, (), (1.5,), 1),
    (("resolvent",), 0, 1, -1.0, (1.0,), (), 1),  # 1/(1+z)
    (("exp",), 0, 1, 1.0, (), (), 1),
    # artanh(z) = sum z^(2j+1)/(2j+1), also named half-log-ratio: (1/2) ln((1+z)/(1-z))
    (("half-log-ratio", "artanh"), 1, 2, 1.0, (0.5, 1.0), (1.5,), 1),
    (("arcsin",), 1, 2, 1.0, (0.5, 0.5), (1.5,), 1),
    (("geometric",), 0, 1, 1.0, (1.0,), (), 1),  # 1/(1-z)
    (("cosh",), 0, 2, 0.25, (), (0.5,), 1),
    (("sinh",), 1, 2, 0.25, (), (1.5,), 1),
)
_CATALOG: dict[str, PowerSeries] = {
    name: _hypergeometric(name, *row) for names, *row in _ROWS for name in names
}


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


@functools.cache
def lookup(name: str) -> PowerSeries:
    """The series called `name`: a catalog name, "2F1:alpha,beta,gamma"
    with three positive finite reals ("2F1" alone: all three 1), or a
    finite polynomial "poly:c0,c1,..." whose coefficients are finite
    complex literals (e.g. "poly:1,-0.5,0.25j"); its `.name` is `name`.
    ValueError names a malformed or unknown name. Each name's object is
    built once per process, so its coefficient prefix and certified orders
    serve every later caller.
    """
    if name == "2F1" or name.startswith("2F1:"):
        params = _literals(name, "parameter") if name != "2F1" else [1.0] * 3
        if len(params) != 3 or not all(c.imag == 0 < c.real for c in params):
            raise ValueError(f"{name!r} needs three positive reals alpha,beta,gamma")
        alpha, beta, gamma = (c.real for c in params)
        return _hypergeometric(name, 0, 1, 1.0, (alpha, beta), (gamma,), 1)
    if name.startswith("poly:"):
        return from_coefficients(_literals(name, "coefficient"), name=name)
    if name in _CATALOG:
        return _CATALOG[name]
    raise ValueError(f"unknown series {name!r}; known: {sorted(_CATALOG)}, "
                     "2F1:alpha,beta,gamma and poly:c0,c1,...")
