"""Upper bounds on spectral radii of power-series functions of matrices.

Every bound here evaluates the companion series f_a (coefficients |a_n|)
at scalar arguments built from spectral radii and operator norms:

* single operator:      r[f(T)]  <= f_a(r(T))
* commuting pair, Hölder exponents p, q = p/(p-1):
      r[f(AB)] <= f_a(r(A)^p)^(1/p) f_a(r(B)^q)^(1/q)
      r[f(AB)]^2 <= f_a(r(A)^2) f_a(r(B)^2)                    (p = q = 2)
* commuting pair, norm-averaged:
      r[f(AB)] <= (1/2)[f_a(||AB||) + f_a(sqrt(||A^2|| ||B^2||))]
  and the variants with mixed powers ||AB^2||, ||A^2B|| or the triple
  product ||A|| ||B|| ||AB||.
* norm-only quadratic bounds for r(AB +/- BA) and r(AB) that need no
  series at all.

`Invariants` computes each norm and radius of an instance once, on first
use; each bound is a `Row` of a table, turned into a `BoundResult` by one
evaluator. A bound that cannot apply, a commutativity-gated one on a
non-commuting pair included, comes back Unavailable with the reason;
only structural problems (dimension mismatch, a bad exponent or
tolerance, products out of range) raise.
"""

from __future__ import annotations

import math
import sys
from collections import ChainMap
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import BadExponent, DimMismatch, NormOverflow
from .matrices import (Matrix, commutes, operator_norm, operator_norms,
                       spectral_radii, spectral_radius)
from .series import DEFAULT_TOL, PowerSeries, eval_companion

Precondition = tuple[str, bool, float]


@dataclass
class BoundResult:
    """One bound's value (or unavailability) plus its audit trail.

    `target` names the quantity being bounded: "f(T)", "f(AB)", "AB",
    "AB+BA" or "AB-BA". `preconditions` holds (description, holds,
    measured) triples; any failed precondition forces unavailability.
    """

    name: str
    value: Optional[float]
    target: str
    reason: Optional[str] = None
    preconditions: list[Precondition] = field(default_factory=list)
    intermediates: dict[str, float] = field(default_factory=dict)

    @property
    def available(self) -> bool:
        return self.value is not None


# A pair's products, in the order of `Invariants.products`, and their norms.
_PRODUCTS = ("A", "B", "AB", "BA", "A^2", "B^2", "AB^2", "A^2B", "AB-BA")
_PAIR_NORMS = tuple(f"||{x}||" for x in _PRODUCTS)

# Every other quantity a bound uses, by label; A is T in single mode.
_QUANTITIES: dict[str, Callable[["Invariants"], float]] = {
    "||T||": lambda v: operator_norm(v.A),
    "r(T)": lambda v: spectral_radius(v.A),
    "||A||^2": lambda v: v["||A||"] ** 2,
    "||B||^2": lambda v: v["||B||"] ** 2,
    "r(A)^2": lambda v: v["r(A)"] ** 2,
    "r(B)^2": lambda v: v["r(B)"] ** 2,
    "sqrt(||A^2|| ||B^2||)": lambda v: math.sqrt(v["||A^2||"] * v["||B^2||"]),
    "sqrt(||A|| ||AB^2||)": lambda v: math.sqrt(v["||A||"] * v["||AB^2||"]),
    "sqrt(||A^2B|| ||B||)": lambda v: math.sqrt(v["||A^2B||"] * v["||B||"]),
    "sqrt(||A|| ||B|| ||AB||)": lambda v: math.sqrt(v["||A||"] * v["||B||"] * v["||AB||"]),
    "||A|| sqrt(||B^2||)": lambda v: v["||A||"] * math.sqrt(v["||B^2||"]),
    "sqrt(||A^2||) ||B||": lambda v: math.sqrt(v["||A^2||"]) * v["||B||"],
}


class Invariants(dict):
    """Norms and spectral radii of one instance by label, each computed on
    first use (||T||, r(T) for one operator; ||A||, r(A), ||AB-BA||, ... for
    a pair), and the quantities derived from them. A pair's nine norms come
    from one SVD call on `products`, its two radii from one eigensolve."""

    def __init__(self, A: Matrix, B: Optional[Matrix] = None):
        if B is not None and A.shape != B.shape:
            raise DimMismatch(f"dimension mismatch: {A.shape} vs {B.shape}")
        super().__init__()
        self.A, self.B = A, B

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # checked below, by name
    def products(self) -> np.ndarray:
        """A, B, AB, BA, A^2, B^2, AB^2, A^2B and AB-BA as one stack, in
        the order of `_PRODUCTS`; NormOverflow if one is not finite."""
        A, B = self.A, self.B
        P = np.empty((len(_PRODUCTS), *A.shape), dtype=np.result_type(A, B))
        P[0], P[1] = A, B
        for i, (X, Y) in enumerate(((A, B), (B, A), (A, A), (B, B)), 2):
            np.matmul(X, Y, out=P[i])
        np.matmul(P[2:5:2], B, out=P[6:8])  # AB^2 = (AB)B, A^2B = (AA)B
        np.subtract(P[2], P[3], out=P[8])
        finite = np.isfinite(P).all(axis=(1, 2))
        if not finite.all():
            bad = ", ".join(x for x, ok in zip(_PRODUCTS, finite) if not ok)
            raise NormOverflow(f"not finite: {bad}; normalize the pair first")
        return P

    def matrix(self, label: str) -> np.ndarray:
        """The pair's product called `label`, one of `_PRODUCTS` (e.g. "AB-BA")."""
        return self.products[_PRODUCTS.index(label)]

    def __missing__(self, label: str) -> float:
        if label in _PAIR_NORMS:
            self.update(zip(_PAIR_NORMS, operator_norms(self.products).tolist()))
        elif label in ("r(A)", "r(B)"):
            self["r(A)"], self["r(B)"] = spectral_radii(self.products[:2]).tolist()
        else:
            self[label] = _QUANTITIES[label](self)
        return self[label]

    @property
    def commuting(self) -> bool:
        """The commutator test `matrices.commutes` on this pair's norms."""
        return commutes(self["||AB-BA||"], self["||A||"], self["||B||"])


def _holder_scope(v: Invariants, p: float) -> Mapping[str, float]:
    """`v` plus the quantities of the Hölder exponent p."""
    q = p / (p - 1.0)
    rA, rB = v["r(A)"], v["r(B)"]
    return ChainMap({
        "p": p, "q": q, "||A||^p": v["||A||"] ** p, "||B||^q": v["||B||"] ** q,
        "r(A)^p": rA**p, "r(B)^q": rB**q,
    }, v)


@dataclass(frozen=True)
class Row:
    """One bound: f_a is evaluated at `args`, and `combine` maps those
    values and the quantities to (value, extra intermediates). The
    preconditions are "x < R" for each of `hyps`, then each argument."""

    name: str
    target: str
    args: tuple[str, ...]
    combine: Callable[[list[float], Mapping[str, float]], tuple[float, dict]]
    hyps: tuple[str, ...] = ()  # below R, like each argument
    notes: tuple[str, ...] = ()  # quantities recorded as intermediates
    check_args: bool = True  # False when the hypotheses imply args < R


def _evaluate(row: Row, f: Optional[PowerSeries], s: Mapping[str, float],
              tol: float, fa: dict[float, float]) -> BoundResult:
    """Check the preconditions on the quantities `s`, then evaluate f_a
    (memoised in `fa` by argument across the rows of one instance) and
    combine."""
    checked = dict.fromkeys(row.hyps + (row.args if row.check_args else ()))
    # One shared description string per label, as a literal would be.
    pre = [(sys.intern(f"{x} < R"), s[x] < f.radius, s[x]) for x in checked]
    notes = {x: s[x] for x in row.notes}
    if row.args:
        notes["eval_uncertainty"] = 3 * tol
    out = BoundResult(row.name, None, row.target, None, pre, notes)
    for desc, holds, measured in pre:
        if not holds:
            out.reason = f"precondition failed: {desc} (measured {measured:.6g})"
            return out
    for x in row.args:
        if s[x] not in fa:
            fa[s[x]] = eval_companion(f, s[x], tol)
    F = [fa[s[x]] for x in row.args]
    value, extra = row.combine(F, s)
    notes.update(extra)
    for name, y in [*zip((f"f_a({x})" for x in row.args), F), ("value", value)]:
        if not math.isfinite(y):
            out.reason = f"not finite: {name} = {y!r}"
            return out
    out.value = value
    return out


_SQ = ("||A||^2", "||B||^2")
_NORMS = ("||A||", "||B||", "||AB||", "||A^2||", "||B^2||", "||AB^2||", "||A^2B||")
_MIXED = ("sqrt(||A|| ||AB^2||)", "sqrt(||A^2B|| ||B||)")
_TRIPLE = ("sqrt(||A|| ||B|| ||AB||)", "||A|| sqrt(||B^2||)", "sqrt(||A^2||) ||B||")


def _mixed(u: float, left: float, right: float) -> tuple[float, dict]:
    """(1/2) f_a(||AB||) + (1/2) min of the two arms, recording both."""
    return 0.5 * u + 0.5 * min(left, right), {"arm-left": left, "arm-right": right}


def _triple(u: float, geo: float, low: float) -> tuple[float, dict]:
    """(1/2) f_a(||AB||) + (1/2) min of the two branches, recording both."""
    half_u = 0.5 * u
    return half_u + 0.5 * min(geo, low), {
        "branch-geo": half_u + 0.5 * geo, "branch-min": half_u + 0.5 * low}


def _chain(s: Mapping[str, float], half: bool) -> tuple[float, dict]:
    """||AB|| + min of the mixed arms, with the relaxed arms; halved for r(AB)."""
    u, geo = s["||AB||"], s[_TRIPLE[0]]
    arm = min(s[_MIXED[0]], s[_MIXED[1]])
    low = min(s[_TRIPLE[1]], s[_TRIPLE[2]])
    if half:
        return 0.5 * (u + arm), {
            "relaxed-geo": 0.5 * u + 0.5 * geo, "relaxed-min": 0.5 * u + 0.5 * low}
    return u + arm, {"relaxed-geo": u + geo, "relaxed-min": u + low}


_SINGLE = Row("companion-radius", "f(T)", ("r(T)",), lambda F, s: (F[0], {}),
              ("||T||",), ("r(T)", "||T||"), check_args=False)  # r(T) <= ||T||
# The sign of r(AB +/- BA) changes only the name and the target.
_PM_ROWS = (
    Row("pm-quadratic", "AB+/-BA", (), lambda F, s: (0.5 * (
        s["||AB||"] + s["||BA||"] + math.sqrt(
            (s["||AB||"] - s["||BA||"]) ** 2 + 4.0 * s["||A^2||"] * s["||B^2||"])), {}),
        notes=("||AB||", "||BA||", "||A^2||", "||B^2||")),
    Row("pm-mixed", "AB+/-BA", (), lambda F, s: _chain(s, False), notes=_NORMS),
)
# Commuting pairs, after the Hölder rows of each exponent.
_COMMUTING_ROWS = (
    Row("pair-squares", "f(AB)", ("r(A)^2", "r(B)^2"),
        lambda F, s: (math.sqrt(F[0] * F[1]), {}), _SQ, ("r(A)", "r(B)", "||A||", "||B||")),
    Row("norm-split", "f(AB)", ("||AB||", "sqrt(||A^2|| ||B^2||)"),
        lambda F, s: (0.5 * (F[0] + F[1]), {}), _SQ, _NORMS),
    Row("mixed-split", "f(AB)", ("||AB||", *_MIXED), lambda F, s: _mixed(*F),
        _SQ + ("||A||", "||B||"), _NORMS + _MIXED),
    Row("triple-split", "f(AB)", ("||AB||", *_TRIPLE),
        lambda F, s: _triple(F[0], F[1], min(F[2], F[3])), _SQ, _NORMS + _TRIPLE),
    Row("product-half", "AB", (),
        lambda F, s: (0.5 * (s["||AB||"] + s["sqrt(||A^2|| ||B^2||)"]), {}),
        notes=("||AB||", "||A^2||", "||B^2||")),
    Row("product-chain", "AB", (), lambda F, s: _chain(s, True), notes=_NORMS),
)


@cache
def _holder_row(p: float) -> Row:
    """The row of the Hölder exponent p, evaluated on `_holder_scope`."""
    if not (1 < p < math.inf):
        raise BadExponent(f"need 1 < p < inf, got {p}")
    args = ("r(A)^p", "r(B)^q")
    return Row(f"holder-geo(p={p:g})", "f(AB)", args,
               lambda F, s: (F[0] ** (1.0 / s["p"]) * F[1] ** (1.0 / s["q"]), {}),
               ("||A||^p", "||B||^q"), ("r(A)", "r(B)", "||A||", "||B||", "p", "q", *args))


def _holder_rows(p_grid: Sequence[float]) -> list[tuple[float, Row]]:
    """(p, row) for each p of p_grid; BadExponent on a p out of range or repeated."""
    repeated = [p for i, p in enumerate(p_grid) if p in p_grid[:i]]
    if repeated:
        raise BadExponent(f"Hölder exponent p={repeated[0]:g} is given twice")
    return [(p, _holder_row(p)) for p in p_grid]


def _signed(result: BoundResult, sign: int) -> BoundResult:
    tag = "+" if sign > 0 else "-"
    return replace(result, name=f"{result.name}({tag})", target=f"AB{tag}BA",
                   preconditions=list(result.preconditions),
                   intermediates=dict(result.intermediates))


def _pm_rows(v: Invariants) -> list[BoundResult]:
    """pm-quadratic and pm-mixed on `v`, unsigned: each holds for either sign."""
    return [_evaluate(row, None, v, 0.0, {}) for row in _PM_ROWS]


def bound_single(f: PowerSeries, T: Matrix, tol: float = DEFAULT_TOL) -> BoundResult:
    """r[f(T)] <= f_a(r(T)), valid whenever ||T|| < radius."""
    return best_bound(f, T, tol=tol).results[0]


# p = 2 is left out: its row is pair-squares.
DEFAULT_P_GRID = (1.5, 3.0)


@dataclass
class BestBoundReport:
    """All evaluated bounds, the minimum over the series target, and the
    instance's invariants."""

    results: list[BoundResult]
    minimum: Optional[BoundResult]
    invariants: Invariants


def best_bound(f: PowerSeries, A: Matrix, B: Optional[Matrix] = None,
               tol: float = DEFAULT_TOL,
               p_grid: Sequence[float] = DEFAULT_P_GRID) -> BestBoundReport:
    """Evaluate every bound on r[f(A)] (B omitted) or on r[f(AB)] and the
    norm-only targets; report all plus the minimum over the available
    bounds on the series target (None if there are none). A non-commuting
    pair makes each commutativity-gated bound Unavailable instead of
    raising, so the report always describes the full menu.
    """
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    v, fa = Invariants(A, B), {}
    holder = _holder_rows(p_grid)  # checks each p in both modes
    if B is None:
        results = [_evaluate(_SINGLE, f, v, tol, fa)]
    else:
        pm = _pm_rows(v)
        results = [_signed(r, sign) for sign in (+1, -1) for r in pm]
        rows = [row for _, row in holder] + list(_COMMUTING_ROWS)
        if v.commuting:
            scopes = [_holder_scope(v, p) for p, _ in holder]
            scopes += [v] * len(_COMMUTING_ROWS)
            results += [_evaluate(row, f, s, tol, fa) for row, s in zip(rows, scopes)]
        else:
            cnorm = v["||AB-BA||"]
            reason = f"commutator test failed (||AB-BA|| = {cnorm:.6e})"
            results += [BoundResult(row.name, None, row.target, reason,
                                    [("AB = BA", False, cnorm)]) for row in rows]
    target = "f(T)" if B is None else "f(AB)"
    candidates = [r for r in results if r.available and r.target == target]
    minimum = min(candidates, key=lambda r: r.value) if candidates else None
    return BestBoundReport(results, minimum, v)
