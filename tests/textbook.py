"""Textbook facts about spectral radii and operator norms, checked on the
harness's random instances; the certified matrix truncation S_m(T), by
Horner's rule on matrices, as a reference for the oracle's spectral
mapping that shares no code with it; the oracle's scalar sum at one row
of points, the bit-for-bit reference for its stacked kernel; the bound
rows of one instance in Python floats, the bit-for-bit reference for the
stacked `bounds.evaluate`; one sweep trial's spec drawn from numpy's
own `default_rng`, the reference for the harness's per-chunk streams; and
the references the tests read that the package does not: each catalog
companion in closed form, the catalog as a list, the scalar spectral
radius and operator norm, the truncation order alone, and a sweep's
reports read back as rows and statistics.

These checks exercise LAPACK and the instance generators rather than any
bound of the package, so they run in the test suite, not in `verify`.
"""

import csv
import io
import itertools
import math
import sys
from typing import Sequence

import mpmath
import numpy as np

from inequalities import relaxed_arms
from specbound import (BestBoundReport, BoundResult, NormOverflow, PowerSeries,
                       eval_companion, from_coefficients, lookup)
from specbound.bounds import _COMMUTING_ROWS, _MIXED, _PM_ROWS, _PRODUCT, _SINGLE, invariants
from specbound.harness import (
    FAMILIES_GENERIC,
    FAMILIES_PAIR,
    FAMILIES_SINGLE,
    _CSV_COLUMNS,
    CheckResult,
    InstanceSpec,
    SweepConfig,
    _generate,
    _ginibre,
    _haar_unitary,
    _scaled,
    _trials,
    gen_matrix,
    run_sweep,
    summarize_tallies,
)
from specbound.matrices import eigenvalues, operator_norms
from specbound.series import _CATALOG, DEFAULT_MAX_TERMS, DEFAULT_TOL, _order_and_tail

# Each catalog series' companion sum_n |a_n| x^n in closed form.
CLOSED_FORMS = {
    "log-resolvent": lambda x: -math.log1p(-x),  # ln 1/(1-x)
    "cos": math.cosh,
    "sin": math.sinh,
    "resolvent": lambda x: 1.0 / (1.0 - x),
    "exp": math.exp,
    "half-log-ratio": math.atanh,
    "artanh": math.atanh,
    "arcsin": math.asin,
    "geometric": lambda x: 1.0 / (1.0 - x),
    "cosh": math.cosh,
    "sinh": math.sinh,
}


def closed_form(f: PowerSeries):
    """The companion of the catalog or 2F1 series `f` in closed form, as a
    function of x: `CLOSED_FORMS[f.name]`, or mpmath's hyp2f1 at the
    parameters of a 2F1 name ("2F1" alone: all three 1)."""
    if f.name == "2F1" or f.name.startswith("2F1:"):
        params = ([1.0] * 3 if f.name == "2F1"
                  else [complex(p).real for p in f.name[4:].split(",")])
        return lambda x: float(mpmath.hyp2f1(*params, x))
    return CLOSED_FORMS[f.name]


def catalog() -> list[PowerSeries]:
    """All named series of the package, with 2F1 at alpha = beta = gamma = 1."""
    return [*_CATALOG.values(), lookup("2F1")]


def coeff(f: PowerSeries, n: int) -> complex:
    """a_n of `f`, read from its prefix."""
    return complex(f.prefix(n)[0][n])


def spectral_radii(S) -> np.ndarray:
    """max |eigenvalue| of each matrix of a (..., n, n) stack, one eigensolve."""
    return np.abs(eigenvalues(S)).max(axis=-1)


def spectral_radius(T) -> float:
    """max |eigenvalue| via a dense eigensolve."""
    return float(spectral_radii(T))


def operator_norm(T) -> float:
    """Largest singular value (induced 2-norm)."""
    return float(operator_norms(T))


def truncation_order(f: PowerSeries, x: float, tol: float,
                     max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """The certified truncation order the package's order search finds."""
    return _order_and_tail(f, x, tol, max_terms)[0]


def read_rows(text: str) -> list[dict[str, str]]:
    """The `trials.csv` rows `text` (joined report pieces' rows, no header)
    as `csv.DictReader` reads them under the header `_CSV_COLUMNS`."""
    return list(csv.DictReader(io.StringIO(text), fieldnames=_CSV_COLUMNS))


def sweep_reports(config: SweepConfig) -> tuple[list[dict[str, str]], dict]:
    """What `verify` reports of the sweep `config`, read back: the rows of
    `run_sweep`'s pieces by `read_rows`, and `summarize_tallies` of their
    tallies, the sweep part of `summary.json`."""
    pieces = run_sweep(config)
    return (read_rows("".join(rows for rows, _ in pieces)),
            summarize_tallies(tally for _, tally in pieces))


def row_spec(row: dict[str, str]) -> InstanceSpec:
    """The instance of a `trials.csv` row, from its spec columns."""
    return InstanceSpec(int(row["seed"]), row["family"], int(row["dim"]),
                        float(row["norm_target"]))


def trial_rows(rows: list[dict[str, str]]) -> list[list[dict[str, str]]]:
    """`rows` split into each trial's rows, which are consecutive and share
    their spec and series columns."""
    return [list(group) for _, group in itertools.groupby(
        rows, lambda row: [row[c] for c in ("family", "seed", "dim", "norm_target", "series")])]


# Squaring past this norm risks leaving double range within a few steps.
_SQUARING_NORM_CAP = 1e120


def matrix_partial_sum(f, T, m: int):
    """S_m(T) = sum_{j<=m} a_j T^j by Horner's rule: m matrix products."""
    T = np.asarray(T, dtype=np.complex128)
    eye = np.eye(len(T), dtype=np.complex128)
    a = f.prefix(m)[0]
    S = a[m] * eye
    for j in range(m - 1, -1, -1):
        S = a[j] * eye + T @ S
    return S


def partial_sums_alone(f, z, m: int):
    """S_m(z) at each point of the 1-D array z, by Paterson-Stockmeyer as
    one row sums alone: s = max(1, isqrt(m)), the powers z^0..z^s from one
    cumprod, the blocks of s coefficients from one (m/s, s) by (s, n)
    product and the last block from one more, nested by Horner in z^s.
    Each row of a stacked `series.partial_sums` call must have these bits."""
    a = f.prefix(m)[0]
    s = max(1, math.isqrt(m))
    top = m // s * s  # the last block, a_top..a_m, has 1 to s coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.ones((s + 1, len(z)), dtype=np.complex128)  # z^0..z^s
        np.cumprod(np.broadcast_to(z, (s, len(z))), axis=0, out=powers[1:])
        blocks = a[:top].reshape(-1, s) @ powers[:s]
        S = a[top:] @ powers[: m + 1 - top]
        for block in blocks[::-1]:
            S = block + powers[s] * S
    return S


def certified_truncation(f, T, tol=DEFAULT_TOL):
    """(S_m(T), tail): f(T) truncated at the order the oracle certifies at
    ||T||, as a matrix, with that order's tail bound, which dominates the
    matrix remainder's operator norm. OutOfDisk when ||T|| >= R."""
    m, tail = _order_and_tail(f, operator_norm(T), tol, DEFAULT_MAX_TERMS)
    return matrix_partial_sum(f, T, m), tail


def gelfand_sequence(T, k_max: int) -> list[float]:
    """g_k = ||T^(2^k)||^(1/2^k) for k = 0..k_max, by repeated squaring.

    Non-increasing, and every term is at least the spectral radius.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    P = np.asarray(T, dtype=np.complex128)
    cur = operator_norm(P)
    out = [cur]
    for k in range(1, k_max + 1):
        if cur > _SQUARING_NORM_CAP:
            raise NormOverflow(
                f"norm {cur:.3e} too large to square safely; normalize first"
            )
        P = P @ P
        cur = operator_norm(P)
        if not math.isfinite(cur):
            raise NormOverflow("repeated squaring overflowed; normalize first")
        out.append(cur ** (1.0 / 2.0**k) if cur > 0 else 0.0)
    return out


def trial_spec_alone(config: SweepConfig, family: str, family_index: int, index: int):
    """The (series, instance) of one sweep trial, drawn alone from numpy's
    `default_rng([seed, family_index, index])`: what the stacked
    `harness._trial_specs` must give each trial."""
    trial_rng = np.random.default_rng([config.seed, family_index, index])
    f = lookup(config.series_names[index % len(config.series_names)])
    if family in FAMILIES_GENERIC:  # ||AB|| <= target^2 <= 0.9025 R
        base = min(2.0, 0.95 * math.sqrt(f.radius))
        fraction = trial_rng.uniform(0.1, 1.0)
    elif family in FAMILIES_PAIR:
        base = 0.8 * math.sqrt(f.radius) if math.isfinite(f.radius) else 1.0
        fraction = trial_rng.uniform(0.3, 1.0)
    else:
        base = 0.9 * min(f.radius, 10.0)
        fraction = trial_rng.uniform(0.05, 1.0)
    return f, InstanceSpec(
        seed=int(trial_rng.integers(0, 2**63)),
        family=family,
        dim=config.dims[index // len(config.series_names) % len(config.dims)],
        norm_target=float(base * fraction),
    )


def _identity_spec(seed: int, i: int, dims: Sequence[int]) -> InstanceSpec:
    rng = np.random.default_rng([seed, i])
    return InstanceSpec(
        seed=int(rng.integers(0, 2**63)),
        family=FAMILIES_SINGLE[i % len(FAMILIES_SINGLE)],
        dim=dims[i % len(dims)],
        norm_target=float(rng.uniform(0.2, 1.2)),
    )


def run_identity_checks(
    seed: int = 0, trials: int = 300, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """Spectral-radius ground truths on random instances.

    Checks r <= ||.||, the power identity r(T^m) = r(T)^m for m <= 5,
    r(AB) = r(BA) for arbitrary pairs, r = ||.|| for normal matrices, and
    the monotone norm-root sequence from repeated squaring.
    """
    results = {
        "radius-below-norm": CheckResult(),
        "power-identity": CheckResult(),
        "product-order": CheckResult(),
        "normal-equality": CheckResult(),
        "norm-root-monotone": CheckResult(),
        "norm-root-above-radius": CheckResult(),
    }
    for i in range(trials):
        spec = _identity_spec(seed, i, dims)
        T = gen_matrix(spec)
        powers = [T] + [np.linalg.matrix_power(T, m) for m in range(2, 6)]
        r, *rms = spectral_radii(np.stack(powers)).tolist()
        g = gelfand_sequence(T, 5)
        results["radius-below-norm"].record(r - g[0] - 1e-10)
        for m, rm in enumerate(rms, 2):
            margin = abs(rm - r**m) - 1e-8 * max(1.0, r**m)
            results["power-identity"].record(margin)
        for gk, gk1 in zip(g, g[1:]):
            results["norm-root-monotone"].record(gk1 - gk - 1e-10)
        for gk in g:
            results["norm-root-above-radius"].record(r - gk - 1e-8)

        pair_rng = np.random.default_rng([seed, i, 1])
        n = dims[i % len(dims)]
        A = _ginibre(pair_rng, n)
        B = _ginibre(pair_rng, n)
        rab, rba = spectral_radii(np.stack((A @ B, B @ A))).tolist()
        results["product-order"].record(
            abs(rab - rba) - 1e-8 * max(1.0, rab)
        )

        normal_rng = np.random.default_rng([seed, i, 2])
        H = gen_matrix(InstanceSpec(
            seed=int(normal_rng.integers(0, 2**63)),
            family="hermitian", dim=n, norm_target=1.0,
        ))
        HU = np.stack((H, _haar_unitary(_ginibre(normal_rng, n))))
        for r, nrm in zip(spectral_radii(HU).tolist(), operator_norms(HU).tolist()):
            results["normal-equality"].record(abs(r - nrm) - 1e-10)
    return results


def run_limit_laws(
    seed: int = 0, trials: int = 300, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """Subadditivity of r over commuting families (the terms of a matrix
    polynomial) and radius continuity along commuting perturbations."""
    results = {
        "subadditivity": CheckResult(),
        "radius-continuity": CheckResult(),
    }
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 3])
        n = dims[i % len(dims)]
        M = _scaled(_ginibre(rng, n), 1.0)
        k = int(rng.integers(2, 7))
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        terms = [coeffs[j] * np.linalg.matrix_power(M, j) for j in range(k)]
        lhs, *rs = spectral_radii(np.stack([sum(terms)] + terms)).tolist()
        results["subadditivity"].record(lhs - sum(rs) - 1e-8)

        ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        V = matrix_partial_sum(from_coefficients(ca), M, len(ca) - 1)
        S = matrix_partial_sum(from_coefficients(cb), M, len(cb) - 1)
        rV, rS, rVS = spectral_radii(np.stack((V, S, V - S))).tolist()
        results["radius-continuity"].record(abs(rV - rS) - rVS - 1e-8)
    return results


def run_mixed_chain(
    seed: int = 0, trials: int = 500, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """pm-mixed is at most each of its `relaxed_arms` on the `generic-pair`
    trials of `verify --seed seed --trials trials --dims dims`: the row's
    value as the sweep writes it, the arms from the norms of its pair,
    generated again from the row's spec columns. This is
    submultiplicativity of LAPACK's norms."""
    result = CheckResult()
    config = SweepConfig(trials=trials, dims=tuple(dims), seed=seed)
    family = "generic-pair"
    text, _ = _trials(config, family, config.families.index(family), range(trials))
    for row in read_rows(text):
        if row["bound"] == "pm-mixed(+)":
            (norms,) = invariants(*_generate([row_spec(row)]))
            value = float(row["value"])
            for arm in relaxed_arms(norms):
                result.record(value - arm - 1e-10 * max(1.0, arm))
    return {"pm-mixed-chain": result}


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _chain(s, half: bool) -> float:
    value = s["||AB||"] + min(s[x] for x in _MIXED)
    return 0.5 * value if half else value


def _quadratic(F, s):
    return 0.5 * (s["||AB||"] + s["||BA||"] + math.sqrt(
        _square(s["||AB||"] - s["||BA||"]) + 4.0 * s["||A^2||"] * s["||B^2||"])), {}


# Each row's combination on one instance's Python floats.
_COMBINE = {
    "companion-radius": lambda F, s: (F[0], {}),
    "product-radius": lambda F, s: (F[0], {}),
    "factor-radius": lambda F, s: (F[0], {}),
    "pair-squares": lambda F, s: (math.sqrt(F[0] * F[1]), {}),
    "norm-split": lambda F, s: (0.5 * (F[0] + F[1]), {}),
    "mixed-split": lambda F, s: (0.5 * F[0] + 0.5 * min(F[1], F[2]),
                                 {"arm-left": F[1], "arm-right": F[2]}),
    "product-half": lambda F, s: (0.5 * (s["||AB||"] + s["sqrt(||A^2|| ||B^2||)"]), {}),
    "product-chain": lambda F, s: (_chain(s, True), {}),
    "pm-quadratic(+)": _quadratic,
    "pm-quadratic(-)": _quadratic,
    "pm-mixed(+)": lambda F, s: (_chain(s, False), {}),
    "pm-mixed(-)": lambda F, s: (_chain(s, False), {}),
}


def _evaluate_alone(row, f, s, tol: float, fa: dict) -> BoundResult:
    """Check the preconditions on the quantities `s`, then evaluate f_a
    (memoised in `fa` by argument across the rows of one instance) and
    combine."""
    checked = dict.fromkeys(row.hyps + (row.args if row.check_args else ()))
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
    value, extra = _COMBINE[row.name](F, s)
    for name, y in [*zip((f"f_a({x})" for x in row.args), F), ("value", value)]:
        if not math.isfinite(y):
            out.reason = f"not finite: {name} = {y!r}"
            return out
    notes.update(extra)
    out.value = value
    return out


def bound_report_alone(f, v, tol: float) -> BestBoundReport:
    """`best_bound` of the instance whose invariants are `v`, one row at a
    time in Python floats: what every instance of a stacked
    `bounds.evaluate` must get, bit for bit."""
    fa: dict[float, float] = {}
    target = "f(T)" if "r(T)" in v else "f(AB)"
    if target == "f(T)":
        results = [_evaluate_alone(_SINGLE, f, v, tol, fa)]
    else:
        results = [_evaluate_alone(row, f, v, tol, fa) for row in (*_PM_ROWS, _PRODUCT)]
        if v.commuting:
            results += [_evaluate_alone(row, f, v, tol, fa) for row in _COMMUTING_ROWS]
        else:
            cnorm = v["||AB-BA||"]
            reason = f"commutator test failed (||AB-BA|| = {cnorm:.6e})"
            results += [BoundResult(row.name, None, row.target, reason,
                                    [("AB = BA", False, cnorm)])
                        for row in _COMMUTING_ROWS]
    candidates = [r for r in results if r.available and r.target == target]
    minimum = min(candidates, key=lambda r: r.value) if candidates else None
    return BestBoundReport(results, minimum, v)
