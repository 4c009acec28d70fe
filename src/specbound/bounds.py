"""Upper bounds on spectral radii of power-series functions of matrices.

Every bound here evaluates the companion series f_a (coefficients |a_n|)
at scalar arguments built from spectral radii and operator norms:

* single operator:      r[f(T)]  <= f_a(r(T))
* any pair, the same at T = AB:
      r[f(AB)] <= f_a(r(AB))
* commuting pair, where r(AB) <= r(A) r(B):
      r[f(AB)] <= f_a(r(A) r(B))
      r[f(AB)]^2 <= f_a(r(A)^2) f_a(r(B)^2)
* commuting pair, norm-averaged:
      r[f(AB)] <= (1/2)[f_a(||AB||) + f_a(sqrt(||A^2|| ||B^2||))]
  and the variant with the mixed powers ||AB^2||, ||A^2B||.
* norm-only quadratic bounds for r(AB +/- BA) and r(AB) that need no
  series at all.

`invariants` fills the norms, radii and derived quantities of a whole
stack of instances at once, all norms from one SVD call and all radii from
one eigensolve (for a pair of n >= 96, one per product, run on every CPU
with the SVD), and keeps the eigenvalues of T or AB for the oracle; each
bound is a `Row` of a table, turned into a `BoundResult` by one evaluator.
A bound that cannot apply, a commutativity-gated one on a non-commuting
pair included, comes back Unavailable with the reason; only structural
problems (dimension mismatch, a bad tolerance, products out of range)
raise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import jobs
from .errors import DimMismatch, NormOverflow
from .matrices import Matrix, commutes, eigenvalues, operator_norms
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


# A pair's products, in the order of `products`, and their norms.
_PRODUCTS = ("A", "B", "AB", "BA", "A^2", "B^2", "AB^2", "A^2B", "AB-BA")
_PAIR_NORMS = tuple(f"||{x}||" for x in _PRODUCTS)
# The radii of A, B, AB, AB+BA and AB-BA, from one eigensolve.
_PAIR_RADII = ("r(A)", "r(B)", "r(AB)", "r(AB+BA)", "r(AB-BA)")
_MIXED = ("sqrt(||A|| ||AB^2||)", "sqrt(||A^2B|| ||B||)")
# From this size on, a pair's five eigensolves and its SVD stack run as
# `jobs.run_jobs` jobs, on every CPU. Starting the workers takes about 10 ms
# on a 2-CPU host, where the split won at n = 96 and 128 but lost at n = 64.
_SPLIT_MIN_DIM = 96


def products(A: Matrix, B: Matrix) -> np.ndarray:
    """A, B, AB, BA, A^2, B^2, AB^2, A^2B and AB-BA of (k, n, n) stacks A
    and B as one (9, k, n, n) stack, in the order of `_PRODUCTS`. A product
    past double range holds inf or nan."""
    P = np.empty((len(_PRODUCTS), *A.shape), dtype=np.result_type(A, B))
    P[0], P[1] = A, B
    with np.errstate(over="ignore", invalid="ignore"):  # checked by `invariants`
        for i, (X, Y) in enumerate(((A, B), (B, A), (A, A), (B, B)), 2):
            np.matmul(X, Y, out=P[i])
        np.matmul(P[2:5:2], B, out=P[6:8])  # AB^2 = (AB)B, A^2B = (AA)B
        np.subtract(P[2], P[3], out=P[8])
    return P


def _pair_values(norms: list[float], radii: list[float]) -> dict[str, float]:
    """A pair's quantities by label from its norms (`_PAIR_NORMS` order) and
    radii (`_PAIR_RADII` order): those, and the ones derived from them."""
    s = dict(zip(_PAIR_NORMS, norms))
    s.update(zip(_PAIR_RADII, radii))
    for x in ("||A||", "||B||", "r(A)", "r(B)"):
        try:  # x ** 2, not x * x, which can round otherwise; it raises past double range
            s[f"{x}^2"] = s[x] ** 2
        except OverflowError:
            s[f"{x}^2"] = math.inf
    s["r(A) r(B)"] = s["r(A)"] * s["r(B)"]
    s["sqrt(||A^2|| ||B^2||)"] = math.sqrt(s["||A^2||"] * s["||B^2||"])
    s["sqrt(||A|| ||AB^2||)"] = math.sqrt(s["||A||"] * s["||AB^2||"])
    s["sqrt(||A^2B|| ||B||)"] = math.sqrt(s["||A^2B||"] * s["||B||"])
    return s


class Invariants(dict):
    """Norms and spectral radii of one instance by label (||T||, r(T) for one
    operator; ||A||, r(A), r(AB+BA), ... for a pair) and the quantities
    derived from them, as `invariants` fills them, plus `spectrum`, the
    eigenvalues of the series argument (T, or AB for a pair) whose largest
    modulus is r(T) or r(AB)."""

    def __init__(self, values: dict[str, float], spectrum: np.ndarray):
        super().__init__(values)
        self.spectrum = spectrum

    @property
    def commuting(self) -> bool:
        """The commutator test `matrices.commutes` on this pair's norms."""
        return commutes(self["||AB-BA||"], self["||A||"], self["||B||"])


def invariants(A: Matrix, B: Optional[Matrix] = None) -> list[Invariants | NormOverflow]:
    """The `Invariants` of each instance of the (k, n, n) stack A, or of
    each pair of stacks A and B: every norm from one SVD call and every
    radius from one eigensolve, which also gives each `spectrum`. From
    n = `_SPLIT_MIN_DIM` on, a pair's eigensolve is one call per product and
    runs with its SVD call as `jobs.run_jobs` jobs, with the same results.
    A pair whose products are not finite gets, in its place, the
    NormOverflow naming them, for the caller to raise."""
    if B is None:
        eigs = eigenvalues(A)
        radii = np.abs(eigs).max(axis=-1).tolist()
        return [Invariants({"||T||": x, "r(T)": r}, spectrum)
                for spectrum, x, r in zip(eigs, operator_norms(A).tolist(), radii)]
    if A.shape != B.shape:
        raise DimMismatch(f"dimension mismatch: {A.shape[-2:]} vs {B.shape[-2:]}")
    P = products(A, B)
    finite = np.isfinite(P).all(axis=(-2, -1))
    ok = finite.all(axis=0)
    good = P if ok.all() else P[:, ok]
    terms = (*good[:3], good[2] + good[3], good[8])  # in `_PAIR_RADII` order
    if A.shape[-1] < _SPLIT_MIN_DIM:
        eigs, norms = eigenvalues(np.stack(terms)), operator_norms(good)
    else:  # LAPACK solves each matrix alone: the same bits from every process
        *parts, norms = jobs.run_jobs([*((eigenvalues, (X,)) for X in terms),
                                       (operator_norms, (good,))])  # longest last
        eigs = np.stack(parts)
    radii = np.abs(eigs).max(axis=-1)
    values = map(_pair_values, norms.T.tolist(), radii.T.tolist())
    spectra = iter(eigs[2])  # of AB
    out: list = []
    for k, pair_finite in enumerate(finite.T):
        bad = ", ".join(x for x, fine in zip(_PRODUCTS, pair_finite) if not fine)
        out.append(NormOverflow(f"not finite: {bad}; normalize the pair first") if bad
                   else Invariants(next(values), next(spectra)))
    return out


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


def _evaluate(row: Row, f: PowerSeries, s: Mapping[str, float],
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
    for name, y in [*zip((f"f_a({x})" for x in row.args), F), ("value", value)]:
        if not math.isfinite(y):
            out.reason = f"not finite: {name} = {y!r}"
            return out
    notes.update(extra)
    out.value = value
    return out


_SQ = ("||A||^2", "||B||^2")
_NORMS = ("||A||", "||B||", "||AB||", "||A^2||", "||B^2||", "||AB^2||", "||A^2B||")


def _mixed(u: float, left: float, right: float) -> tuple[float, dict]:
    """(1/2) f_a(||AB||) + (1/2) min of the two arms, recording both."""
    return 0.5 * u + 0.5 * min(left, right), {"arm-left": left, "arm-right": right}


def _chain(s: Mapping[str, float], half: bool) -> tuple[float, dict]:
    """||AB|| + min of the mixed arms, from the norms; halved for r(AB)."""
    value = s["||AB||"] + min(s[x] for x in _MIXED)
    return (0.5 * value if half else value), {}


def _first(F: list[float], s: Mapping[str, float]) -> tuple[float, dict]:
    """The row's one f_a value."""
    return F[0], {}


# r(T) <= ||T||, and r(AB) <= ||AB||: the hypothesis puts each argument in the disk.
_SINGLE = Row("companion-radius", "f(T)", ("r(T)",), _first, ("||T||",),
              ("r(T)", "||T||"), check_args=False)
_PRODUCT = Row("product-radius", "f(AB)", ("r(AB)",), _first, ("||AB||",),
               ("r(AB)", "||AB||"), check_args=False)
# r(AB + BA), then r(AB - BA): each row holds for either sign.
_PM_ROWS = tuple(row for sign in "+-" for row in (
    Row(f"pm-quadratic({sign})", f"AB{sign}BA", (), lambda F, s: (0.5 * (
        s["||AB||"] + s["||BA||"] + math.sqrt(
            (s["||AB||"] - s["||BA||"]) ** 2 + 4.0 * s["||A^2||"] * s["||B^2||"])), {}),
        notes=("||AB||", "||BA||", "||A^2||", "||B^2||")),
    Row(f"pm-mixed({sign})", f"AB{sign}BA", (), lambda F, s: _chain(s, False),
        notes=_NORMS),
))
# Commuting pairs. ||AB|| < R keeps f(AB)'s oracle for every row.
_COMMUTING_ROWS = (
    Row("factor-radius", "f(AB)", ("r(A) r(B)",), _first, ("||AB||",),
        ("r(A)", "r(B)", "||AB||")),  # r(AB) <= r(A) r(B)
    Row("pair-squares", "f(AB)", ("r(A)^2", "r(B)^2"),
        lambda F, s: (math.sqrt(F[0] * F[1]), {}), _SQ, ("r(A)", "r(B)", "||A||", "||B||")),
    Row("norm-split", "f(AB)", ("||AB||", "sqrt(||A^2|| ||B^2||)"),
        lambda F, s: (0.5 * (F[0] + F[1]), {}), _SQ, _NORMS),
    # (AB)^2 = A AB^2 = A^2B B puts r(AB) below each argument: no ||A||, ||B|| < R
    Row("mixed-split", "f(AB)", ("||AB||", *_MIXED), lambda F, s: _mixed(*F),
        _SQ, _NORMS + _MIXED),
    Row("product-half", "AB", (),
        lambda F, s: (0.5 * (s["||AB||"] + s["sqrt(||A^2|| ||B^2||)"]), {}),
        notes=("||AB||", "||A^2||", "||B^2||")),
    Row("product-chain", "AB", (), lambda F, s: _chain(s, True), notes=_NORMS),
)


@dataclass
class BestBoundReport:
    """All evaluated bounds, the minimum over the series target, and the
    instance's invariants."""

    results: list[BoundResult]
    minimum: Optional[BoundResult]
    invariants: Invariants


def best_bound(f: PowerSeries, A: Matrix, B: Optional[Matrix] = None,
               tol: float = DEFAULT_TOL) -> BestBoundReport:
    """Evaluate every bound on r[f(A)] (B omitted) or on r[f(AB)] and the
    norm-only targets; report all plus the minimum over the available
    bounds on the series target (None if there are none). A non-commuting
    pair makes each commutativity-gated bound Unavailable instead of
    raising, so the report always describes the full menu. The instance is
    a stack of one for `invariants` and `bound_report`, the code a sweep
    runs on each stack of instances.
    """
    if not (0 < tol < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    (v,) = invariants(np.asarray(A)[None], None if B is None else np.asarray(B)[None])
    if isinstance(v, NormOverflow):
        raise v
    return bound_report(f, v, tol)


def bound_report(f: PowerSeries, v: Invariants, tol: float) -> BestBoundReport:
    """`best_bound` of the instance whose invariants are `v`."""
    fa: dict[float, float] = {}
    target = "f(T)" if "r(T)" in v else "f(AB)"
    if target == "f(T)":
        results = [_evaluate(_SINGLE, f, v, tol, fa)]
    else:
        results = [_evaluate(row, f, v, tol, fa) for row in (*_PM_ROWS, _PRODUCT)]
        if v.commuting:
            results += [_evaluate(row, f, v, tol, fa) for row in _COMMUTING_ROWS]
        else:
            cnorm = v["||AB-BA||"]
            reason = f"commutator test failed (||AB-BA|| = {cnorm:.6e})"
            results += [BoundResult(row.name, None, row.target, reason,
                                    [("AB = BA", False, cnorm)])
                        for row in _COMMUTING_ROWS]
    candidates = [r for r in results if r.available and r.target == target]
    minimum = min(candidates, key=lambda r: r.value) if candidates else None
    return BestBoundReport(results, minimum, v)
