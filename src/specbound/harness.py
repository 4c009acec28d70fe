"""Randomized verification harness: instances, sweeps, reports.

Random instances come from a seedable PCG64 generator (numpy's
default_rng), so identical (seed, family, dim, norm_target) specs
reproduce bit-identical matrices and identical sweep configurations
reproduce byte-identical reports.

A sweep evaluates every applicable bound against a brute-force oracle
(dense eigensolve of the certified truncated series) and flags any bound
that dips below oracle minus slack, where slack accounts for both
floating-point rounding and the oracle's own truncation error.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import BoundResult, Invariants, _PM_ROWS, _evaluate, best_bound
from .errors import GenerationFailure, OutOfDisk, UnknownFamily
from .matrices import (
    Matrix,
    _series_at_norm,
    operator_norm,
    series_partial_sum,
    spectral_radii,
)
from .series import (
    DEFAULT_TOL,
    PowerSeries,
    from_coefficients,
    lookup,
    truncation_order,
)

FAMILIES_SINGLE = (
    "diagonal-positive",
    "hermitian",
    "unitary-conjugated-jordan",
    "nilpotent",
    "dense-random",
)
FAMILIES_PAIR = (
    "commuting-polynomial-pair",
    "commuting-triangular-pair",
)

_SLACK_REL = 1e-8
_WIN_TIE_REL = 1e-12


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic descriptor of one random instance."""

    seed: int
    family: str
    dim: int
    norm_target: float

    def __post_init__(self):
        if (type(self.dim) is not int or self.dim < 1
                or not 0 < self.norm_target < math.inf):
            raise ValueError(f"bad instance spec {self}")


def _ginibre(rng: np.random.Generator, n: int) -> Matrix:
    return (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / math.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> Matrix:
    Q, R = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _scaled(M: Matrix, norm_target: float) -> Matrix:
    nrm = operator_norm(M)
    if nrm == 0.0:
        return M
    return M * (norm_target / nrm)


def gen_matrix(spec: InstanceSpec) -> Matrix:
    """One matrix of the requested family, scaled to the target norm."""
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    n = spec.dim
    if spec.family == "diagonal-positive":
        d = rng.uniform(0.05, 1.0, n)
        return np.diag(d * (spec.norm_target / d.max())).astype(np.complex128)
    if spec.family == "hermitian":
        G = _ginibre(rng, n)
        return _scaled((G + G.conj().T) / 2.0, spec.norm_target)
    if spec.family == "unitary-conjugated-jordan":
        # Well-separated eigenvalues plus short superdiagonal chains keep
        # the instance strongly non-normal but still numerically
        # diagonalizable, so the eigensolver oracle stays trustworthy.
        radii = rng.uniform(0.4, 1.0, n)
        turn = rng.uniform(0.0, 1.0)
        angles = 2.0 * math.pi * (np.arange(n) + turn) / n
        D = np.diag(radii * np.exp(1j * angles))
        coupling = rng.uniform(2.0, 4.0)
        for j in range(0, n - 1, 2):
            D[j, j + 1] = coupling
        U = _haar_unitary(rng, n)
        return _scaled(U @ D @ U.conj().T, spec.norm_target)
    if spec.family == "nilpotent":
        N = np.triu(_ginibre(rng, n), 1)
        return _scaled(N, spec.norm_target)
    if spec.family == "dense-random":
        return _scaled(_ginibre(rng, n), spec.norm_target)
    raise UnknownFamily(f"unknown single-matrix family {spec.family!r}")


def gen_commuting_pair(spec: InstanceSpec) -> tuple[Matrix, Matrix]:
    """A commuting pair, each factor scaled to the target norm.

    Polynomial pairs (p(M), q(M)) of a common dense M cover the
    non-normal regime; two diagonal matrices conjugated by one unitary
    cover the normal regime. Both commute by construction; `run_trial`
    fails on a pair that fails `best_bound`'s commutator test.
    """
    if spec.family not in FAMILIES_PAIR:
        raise UnknownFamily(f"unknown pair family {spec.family!r}")
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    n = spec.dim
    if spec.family == "commuting-polynomial-pair":
        M = _scaled(_ginibre(rng, n), 1.0)
        ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        A = series_partial_sum(from_coefficients(ca), M, len(ca) - 1)
        B = series_partial_sum(from_coefficients(cb), M, len(cb) - 1)
    else:
        U = _haar_unitary(rng, n)
        da = rng.uniform(0.2, 1.0, n) * np.exp(
            2j * math.pi * rng.uniform(0.0, 1.0, n)
        )
        db = rng.uniform(0.2, 1.0, n) * np.exp(
            2j * math.pi * rng.uniform(0.0, 1.0, n)
        )
        A = U @ np.diag(da) @ U.conj().T
        B = U @ np.diag(db) @ U.conj().T
    return _scaled(A, spec.norm_target), _scaled(B, spec.norm_target)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic description of a verification sweep.

    `trials` counts instances per family; dims and series cycle across
    trials. Norm targets default to 0.9*min(R, 10) for single families
    and 0.8*sqrt(R) (1.0 when R is infinite) for pairs, each times a
    per-trial fraction drawn from the trial's own seed.
    """

    series_names: tuple[str, ...] = ("exp", "geometric", "log-resolvent")
    families: tuple[str, ...] = FAMILIES_SINGLE + FAMILIES_PAIR
    trials: int = 500
    dims: tuple[int, ...] = (2, 4, 8)
    seed: int = 0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not (self.series_names and self.families and self.dims) or self.trials < 0:
            raise ValueError(
                "a sweep needs a series, a family, a dimension and trials >= 0"
            )
        unknown = [f for f in self.families if f not in FAMILIES_SINGLE + FAMILIES_PAIR]
        if unknown:
            raise UnknownFamily(f"unknown families {unknown}")
        if not all(type(d) is int and d >= 1 for d in self.dims):  # as InstanceSpec
            raise ValueError(f"dimensions must be ints >= 1, got {self.dims}")
        if not (0 < self.tol < math.inf) or self.seed < 0:
            raise ValueError(f"need 0 < tol < inf and seed >= 0, got tol={self.tol}, "
                             f"seed={self.seed}")
        for name in self.series_names:  # ValueError on a bad series name
            lookup(name)


@dataclass
class TrialRecord:
    """Outcome of one instance: oracles, all bounds, tightness, verdict."""

    spec: InstanceSpec
    series_name: str
    oracles: dict[str, tuple[float, float]]
    bounds: list[BoundResult]
    tightness: dict[str, Optional[float]]
    violation: bool


def _below_oracle(value: float, oracle: float, oracle_err: float) -> bool:
    """True when a bound's `value` is below its oracle by more than the
    oracle's error plus `_SLACK_REL` * max(1, oracle). A non-finite oracle
    or oracle error checks nothing, so any value meeting one fails."""
    if not (math.isfinite(oracle) and math.isfinite(oracle_err)):
        return True
    return value < oracle - (_SLACK_REL * max(1.0, oracle) + oracle_err)


def _judged(bounds: Sequence[BoundResult], oracles: dict[str, tuple[float, float]]
            ) -> tuple[dict[str, Optional[float]], list[BoundResult]]:
    """(tightness ratio by bound name, bounds below their oracle), over the
    available bounds whose target has an oracle.

    A missing oracle (series argument outside the disk) can only happen
    when every bound on that target is unavailable, so skipping is safe.
    """
    tightness, low = {}, []
    for b in bounds:
        if not b.available or b.target not in oracles:
            continue
        oracle, oracle_err = oracles[b.target]
        if _below_oracle(b.value, oracle, oracle_err):
            low.append(b)
        trusted = math.isfinite(oracle) and math.isfinite(oracle_err)
        tightness[b.name] = b.value / oracle if trusted and oracle > 1e-12 else None
    return tightness, low


def oracle_radii(
    f: PowerSeries, v: Invariants, tol: float = DEFAULT_TOL
) -> dict[str, tuple[float, float]]:
    """(value, error) of the oracle for each target quantity of the
    instance whose invariants are `v` (as `best_bound` reports them).

    Pair mode gives r(AB), read from `v`, and r(AB+BA) and r(AB-BA), with
    no error. The series target f(T) or f(AB) gets the spectral radius of
    its certified truncation, with the truncation's remainder bound as
    error, when its argument lies inside the disk; the norm of that
    argument is read from `v`. The radii not read from `v` take one
    eigensolve call.
    """
    oracles = {}
    if v.B is None:
        M, nrm, target, terms = v.A, v["||T||"], "f(T)", {}
    else:
        M, nrm, target = v.matrix("AB"), v["||AB||"], "f(AB)"
        oracles["AB"] = (v["r(AB)"], 0.0)
        terms = {"AB+BA": (M + v.matrix("BA"), 0.0),
                 "AB-BA": (v.matrix("AB-BA"), 0.0)}
    try:
        terms[target] = _series_at_norm(f, M, nrm, tol)
    except OutOfDisk:
        pass
    stack = [S for S, _ in terms.values()]  # empty: one matrix outside the disk
    radii = spectral_radii(np.stack(stack)).tolist() if stack else []
    oracles.update((k, (r, err)) for (k, (_, err)), r in zip(terms.items(), radii))
    return oracles


def run_trial(
    config: SweepConfig, family: str, family_index: int, index: int
) -> TrialRecord:
    """One deterministic trial; pure function of (config, family, index)."""
    trial_rng = np.random.default_rng([config.seed, family_index, index])
    name = config.series_names[index % len(config.series_names)]
    f = lookup(name)
    dim = config.dims[index % len(config.dims)]
    pair_mode = family in FAMILIES_PAIR
    if pair_mode:
        base = 0.8 * math.sqrt(f.radius) if math.isfinite(f.radius) else 1.0
        fraction = trial_rng.uniform(0.3, 1.0)
    else:
        base = 0.9 * min(f.radius, 10.0)
        fraction = trial_rng.uniform(0.05, 1.0)
    spec = InstanceSpec(
        seed=int(trial_rng.integers(0, 2**63)),
        family=family,
        dim=dim,
        norm_target=float(base * fraction),
    )
    matrices = gen_commuting_pair(spec) if pair_mode else (gen_matrix(spec),)
    report = best_bound(f, *matrices, tol=config.tol)
    if pair_mode and not report.invariants.commuting:
        raise GenerationFailure(
            f"{spec} is not a commuting pair "
            f"(||AB-BA|| = {report.invariants['||AB-BA||']:.6e})"
        )
    oracles = oracle_radii(f, report.invariants, tol=config.tol)
    tightness, low = _judged(report.results, oracles)
    return TrialRecord(spec, name, oracles, report.results, tightness, bool(low))


def run_sweep(config: SweepConfig) -> list[TrialRecord]:
    """Run every trial of the sweep; records come back in seed order."""
    return [
        run_trial(config, family, fi, i)
        for fi, family in enumerate(config.families)
        for i in range(config.trials)
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# The columns of one bound and its oracle, shared with `bound --format csv`.
_BOUND_COLUMNS = ("bound", "target", "available", "value", "reason",
                  "oracle", "oracle_error")
_CSV_COLUMNS = ("family", "seed", "dim", "norm_target", "series", *_BOUND_COLUMNS,
                "tightness", "violation")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _bound_cells(b: BoundResult, oracles: dict[str, tuple[float, float]]) -> list[str]:
    """The `_BOUND_COLUMNS` cells of bound `b` and the oracle of its target."""
    oracle, oracle_err = oracles.get(b.target, (None, None))
    return [b.name, b.target, "1" if b.available else "0",
            *map(_fmt, (b.value, b.reason, oracle, oracle_err))]


def trial_rows(record: TrialRecord) -> list[list[str]]:
    """One CSV row per bound of one trial, in `_CSV_COLUMNS` order."""
    spec = record.spec
    head = [spec.family, str(spec.seed), str(spec.dim), _fmt(spec.norm_target),
            record.series_name]
    violation = "1" if record.violation else "0"
    return [[*head, *_bound_cells(b, record.oracles),
             _fmt(record.tightness.get(b.name)), violation] for b in record.bounds]


def write_trials_csv(records: Sequence[TrialRecord], path: Union[str, Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            writer.writerows(trial_rows(record))


def summarize(records: Sequence[TrialRecord]) -> dict:
    """Aggregate availability, tightness, and win statistics per bound.

    A bound "wins" a trial when it attains the minimum among the
    available bounds sharing its target quantity (ties count for all).
    """
    per_bound: dict[str, dict] = {}
    violations = 0
    for record in records:
        if record.violation:
            violations += 1
        floors: dict[str, float] = {}
        for b in record.bounds:
            if b.available:
                cur = floors.get(b.target)
                floors[b.target] = (
                    b.value if cur is None else min(cur, b.value)
                )
        for b in record.bounds:
            stat = per_bound.setdefault(b.name, {
                "target": b.target,
                "evaluated": 0,
                "available": 0,
                "wins": 0,
                "tightness": [],
            })
            stat["evaluated"] += 1
            if b.available:
                stat["available"] += 1
                t = record.tightness.get(b.name)
                if t is not None:
                    stat["tightness"].append(t)
                if b.value <= floors[b.target] * (1.0 + _WIN_TIE_REL):
                    stat["wins"] += 1
    summary_bounds = {}
    for name in sorted(per_bound):
        stat = per_bound[name]
        ts = stat["tightness"]
        summary_bounds[name] = {
            "target": stat["target"],
            "evaluated": stat["evaluated"],
            "available": stat["available"],
            "availability_rate": stat["available"] / stat["evaluated"],
            "wins": stat["wins"],
            "win_rate": stat["wins"] / stat["evaluated"],
            "tightness_mean": statistics.fmean(ts) if ts else None,
            "tightness_median": statistics.median(ts) if ts else None,
            "tightness_max": max(ts) if ts else None,
        }
    return {
        "trials": len(records),
        "violations": violations,
        "bounds": summary_bounds,
    }


def write_summary_json(summary: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Checks of the package's own certificates
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one property check over many instances.

    `worst_margin` is the largest signed violation margin seen (negative
    means the property held with room to spare).
    """

    trials: int = 0
    violations: int = 0
    worst_margin: float = -math.inf

    def record(self, margin: float) -> None:
        self.trials += 1
        if margin > 0:
            self.violations += 1
        self.worst_margin = max(self.worst_margin, margin)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def run_limit_checks(
    seed: int = 0, trials: int = 300, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """The Cauchy behaviour of the truncated-series radius: radii of
    truncations certified to different tolerances differ by at most the
    coarser one's tail bound."""
    result = CheckResult()
    cauchy_series = [lookup("exp"), lookup("geometric")]
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 3])
        n = dims[i % len(dims)]
        f = cauchy_series[i % len(cauchy_series)]
        norm_cap = 1.5 if math.isinf(f.radius) else 0.7 * f.radius
        T = _scaled(_ginibre(rng, n), float(rng.uniform(0.3, 1.0)) * norm_cap)
        x = operator_norm(T)
        orders = sorted({
            truncation_order(f, x, t) for t in (1e-3, 1e-5, 1e-7, 1e-9)
        })
        sums = np.stack([series_partial_sum(f, T, m) for m in orders])
        radii = spectral_radii(sums).tolist()
        for a in range(len(orders)):
            for b in range(a + 1, len(orders)):
                allowed = f.tail_bound(orders[a], x) + 1e-8
                result.record(abs(radii[a] - radii[b]) - allowed)
    return {"truncation-cauchy": result}


def run_pm_checks(
    seed: int = 0, trials: int = 500, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """Soundness of the norm-only bounds on r(AB +/- BA) for arbitrary
    (generically non-commuting) random pairs, both signs."""
    results = {"pm-quadratic": CheckResult(), "pm-mixed": CheckResult()}
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 4])
        n = dims[i % len(dims)]
        A = _scaled(_ginibre(rng, n), float(rng.uniform(0.2, 2.0)))
        B = _scaled(_ginibre(rng, n), float(rng.uniform(0.2, 2.0)))
        # Both bounds are the same for either sign.
        v = Invariants(A, B)
        quad, mixed = (_evaluate(row, None, v, 0.0, {}) for row in _PM_ROWS[:2])
        plus, minus = v.matrix("AB") + v.matrix("BA"), v.matrix("AB-BA")
        for oracle in spectral_radii(np.stack((plus, minus))).tolist():
            slack = _SLACK_REL * max(1.0, oracle)
            results["pm-quadratic"].record(oracle - quad.value - slack)
            results["pm-mixed"].record(oracle - mixed.value - slack)
    return results
