"""Randomized verification harness: instances, sweeps, reports.

Random instances come from a seedable PCG64 generator (numpy's
default_rng), so identical (seed, family, dim, norm_target) specs
reproduce bit-identical matrices and identical sweep configurations
reproduce byte-identical reports.

A sweep evaluates every applicable bound against an oracle (the certified
truncated series at the instance's eigenvalues) and flags any bound
that dips below oracle minus slack, where slack accounts for both
floating-point rounding and the oracle's own truncation error. It runs in
chunks of one family's trials; a chunk's trials of one dimension are
generated, factored and solved as one stack, one LAPACK call per step.

`run_jobs` runs a sweep's trials, in chunks, and `verify`'s checks on one
forked worker process per CPU the process's affinity allows. With one
CPU (`taskset -c 0`) or off Linux it runs them in-process, the only mode
in which a tracer that wraps this package's functions sees their work.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import statistics
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import (BoundResult, Invariants, _PAIR_NORMS, _PM_ROWS, _evaluate,
                     _pm_terms, bound_report, invariants, products)
from .errors import (GenerationFailure, NormOverflow, OutOfDisk, SpecboundError,
                     UnknownFamily)
from .matrices import Matrix, operator_norms, series_partial_sum, spectral_radii
from .series import (DEFAULT_MAX_TERMS, DEFAULT_TOL, PowerSeries, _order_and_tail, lookup,
                     partial_sums, truncation_order)

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


def _scaled(M: Matrix, norm_target) -> Matrix:
    """M times norm_target / ||M||, or each matrix of a (k, n, n) stack
    times its own of k targets, from one SVD call; a zero matrix stays."""
    nrm = operator_norms(M)
    scale = np.divide(norm_target, nrm, out=np.ones_like(nrm), where=nrm != 0.0)
    return M * scale[..., None, None]


def _draw(family: str, rng: np.random.Generator, n: int):
    """One instance's draws from its own stream, before any SVD: the matrix
    to scale (a single family; the diagonal for "diagonal-positive"), or
    (M, ca, cb) and (U, da, db) for the pair families."""
    if family == "diagonal-positive":
        return rng.uniform(0.05, 1.0, n)
    if family == "hermitian":
        G = _ginibre(rng, n)
        return (G + G.conj().T) / 2.0
    if family == "unitary-conjugated-jordan":
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
        return U @ D @ U.conj().T
    if family == "nilpotent":
        return np.triu(_ginibre(rng, n), 1)
    if family == "dense-random":
        return _ginibre(rng, n)
    if family == "commuting-polynomial-pair":
        G = _ginibre(rng, n)
        return G, *(rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in "ab")
    U = _haar_unitary(rng, n)
    return U, *(rng.uniform(0.2, 1.0, n) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
                for _ in "ab")


def _cubic(c: np.ndarray, M: Matrix) -> Matrix:
    """c[k, 0] I + c[k, 1] M_k + c[k, 2] M_k^2 + c[k, 3] M_k^3 by Horner's
    rule, for each matrix M_k of a stack."""
    eye = np.eye(M.shape[-1], dtype=np.complex128)
    S = c[:, 3, None, None] * eye
    for j in (2, 1, 0):
        S = c[:, j, None, None] * eye + M @ S
    return S


def _generate(specs: Sequence[InstanceSpec]) -> tuple[Matrix, ...]:
    """The instances of `specs`, all of one family and one dimension, as
    (T,) with T a (k, n, n) stack, or (A, B) for a pair family. Each is
    drawn from its own seed and scaled to its own norm target, each scaling
    of the stack by one SVD call.

    Polynomial pairs (p(M), q(M)) of a common dense M cover the non-normal
    regime; two diagonal matrices conjugated by one unitary cover the
    normal regime. Both commute by construction; a sweep fails on a pair
    that fails `best_bound`'s commutator test.
    """
    family, n = specs[0].family, specs[0].dim
    draws = [_draw(family, np.random.default_rng(np.random.PCG64(s.seed)), n)
             for s in specs]
    targets = np.array([s.norm_target for s in specs])
    if family == "diagonal-positive":
        D = np.stack([np.diag(d * (t / d.max())) for d, t in zip(draws, targets)])
        return (D.astype(np.complex128),)
    if family in FAMILIES_SINGLE:
        return (_scaled(np.stack(draws), targets),)
    X, ca, cb = map(np.stack, zip(*draws))
    if family == "commuting-polynomial-pair":
        M = _scaled(X, 1.0)
        pair = _cubic(ca, M), _cubic(cb, M)
    else:  # U, then the diagonals of A and B in U's basis
        D = np.zeros((2, *X.shape), dtype=np.complex128)
        D[..., range(n), range(n)] = ca, cb
        pair = X @ D @ X.conj().swapaxes(-1, -2)
    return tuple(_scaled(np.stack(pair), targets))


def gen_matrix(spec: InstanceSpec) -> Matrix:
    """One matrix of the requested family, scaled to the target norm."""
    if spec.family not in FAMILIES_SINGLE:
        raise UnknownFamily(f"unknown single-matrix family {spec.family!r}")
    return _generate([spec])[0][0]


def gen_commuting_pair(spec: InstanceSpec) -> tuple[Matrix, Matrix]:
    """A commuting pair, each factor scaled to the target norm (see `_generate`)."""
    if spec.family not in FAMILIES_PAIR:
        raise UnknownFamily(f"unknown pair family {spec.family!r}")
    A, B = _generate([spec])
    return A[0], B[0]


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
        if not (self.series_names and self.families and self.dims):
            raise ValueError("a sweep needs a series, a family and a dimension")
        # type() is int, as for dims: True is a bool, not 1 trial or seed 1.
        if not all(type(x) is int and x >= 0 for x in (self.trials, self.seed)):
            raise ValueError(f"trials and seed must be ints >= 0, got "
                             f"trials={self.trials!r}, seed={self.seed!r}")
        unknown = [f for f in self.families if f not in FAMILIES_SINGLE + FAMILIES_PAIR]
        if unknown:
            raise UnknownFamily(f"unknown families {unknown}")
        if not all(type(d) is int and d >= 1 for d in self.dims):  # as InstanceSpec
            raise ValueError(f"dimensions must be ints >= 1, got {self.dims}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"need 0 < tol < inf, got tol={self.tol}")
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

    Pair mode gives r(AB), r(AB+BA) and r(AB-BA), read from `v`, with no
    error. When its argument lies inside the disk, the series target f(T)
    or f(AB) gets r[S_m] = max |S_m(lambda)| over the eigenvalues
    `v.spectrum` of T or AB (spectral mapping), with the truncation's
    remainder bound as error: m is the order whose scalar majorant tail
    sum_{j>m} |a_j| x^j at x = ||T|| or ||AB||, read from `v`, is <= tol,
    and that tail dominates the matrix remainder's operator norm. No SVD
    or eigensolve runs. NormOverflow if S_m is not finite at an eigenvalue.
    """
    if "r(T)" in v:
        target, nrm, oracles = "f(T)", v["||T||"], {}
    else:
        target, nrm = "f(AB)", v["||AB||"]
        oracles = {x: (v[f"r({x})"], 0.0) for x in ("AB", "AB+BA", "AB-BA")}
    try:
        m, tail = _order_and_tail(f, nrm, tol, DEFAULT_MAX_TERMS)
    except OutOfDisk:
        return oracles
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        radius = float(np.abs(partial_sums(f, v.spectrum, m)).max())
    if not math.isfinite(radius):
        raise NormOverflow(f"{f.name}: the order-{m} truncation at ||T|| = {nrm:g} "
                           "is not finite; normalize the matrix first")
    oracles[target] = (radius, tail)
    return oracles


def _trial_spec(config: SweepConfig, family: str, family_index: int,
                index: int) -> tuple[PowerSeries, InstanceSpec]:
    """The series and instance of one trial, drawn from its own stream."""
    trial_rng = np.random.default_rng([config.seed, family_index, index])
    name = config.series_names[index % len(config.series_names)]
    f = lookup(name)
    dim = config.dims[index % len(config.dims)]
    if family in FAMILIES_PAIR:
        base = 0.8 * math.sqrt(f.radius) if math.isfinite(f.radius) else 1.0
        fraction = trial_rng.uniform(0.3, 1.0)
    else:
        base = 0.9 * min(f.radius, 10.0)
        fraction = trial_rng.uniform(0.05, 1.0)
    return f, InstanceSpec(
        seed=int(trial_rng.integers(0, 2**63)),
        family=family,
        dim=dim,
        norm_target=float(base * fraction),
    )


def _trials(config: SweepConfig, family: str, family_index: int,
            indices: Iterable[int], reduce: Callable[[list], list] = list) -> list:
    """`reduce` of the records of the trials `indices` of one family. Each
    trial is drawn from its own stream; then the trials of each dimension
    are generated, factored and solved as one stack, and only the bound
    rows and the oracle, read off the trial's eigenvalues, are per trial.
    A failing trial raises what it would raise alone; the first in index
    order wins."""
    trials = [_trial_spec(config, family, family_index, i) for i in indices]
    groups: dict[int, list[int]] = {}  # dim -> positions in `trials`
    for k, (_, spec) in enumerate(trials):
        groups.setdefault(spec.dim, []).append(k)
    filled: list = [None] * len(trials)
    for ks in groups.values():
        for k, v in zip(ks, invariants(*_generate([trials[k][1] for k in ks]))):
            filled[k] = v
    records = []
    for (f, spec), v in zip(trials, filled):
        if isinstance(v, NormOverflow):
            raise v
        report = bound_report(f, v, config.tol)
        if "r(T)" not in v and not v.commuting:
            raise GenerationFailure(
                f"{spec} is not a commuting pair "
                f"(||AB-BA|| = {v['||AB-BA||']:.6e})"
            )
        oracles = oracle_radii(f, v, config.tol)
        tightness, low = _judged(report.results, oracles)
        records.append(TrialRecord(spec, f.name, oracles, report.results,
                                   tightness, bool(low)))
    return reduce(records)


def run_trial(
    config: SweepConfig, family: str, family_index: int, index: int
) -> TrialRecord:
    """One deterministic trial; pure function of (config, family, index).
    It is a sweep chunk of one trial."""
    return _trials(config, family, family_index, [index])[0]


# ---------------------------------------------------------------------------
# Running jobs on every CPU
# ---------------------------------------------------------------------------

# One unit of work: fn(*args).
Job = tuple[Callable[..., Any], tuple]


def _cpus() -> int:
    """CPUs this process may run on; 1 off Linux, which runs jobs in-process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _worker(conn, jobs: Sequence[Job]) -> None:
    """Run the jobs whose indices arrive on `conn` and send back (exception,
    result) for each. The jobs come with the fork, so only indices and
    results cross the pipe. Ctrl-C is the parent's to handle."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        fn, args = jobs[conn.recv()]
        try:
            conn.send((None, fn(*args)))
        except Exception as exc:
            conn.send((exc, None))


def run_jobs(jobs: Sequence[Job]) -> list:
    """[fn(*args) for fn, args in jobs], with the jobs spread over
    `fork`-started worker processes, one per CPU of the process's affinity
    set. With one CPU (`taskset -c 0`), off Linux or with other threads
    running they run in-process, where a failing job also shows its whole
    traceback.

    Jobs start from the end of the list, so callers put their longest jobs
    last. Results are pickled back and keep the jobs' order. A job that
    raises re-raises here with its type and message; when several do, the
    first in list order wins, as in-process. Every worker has exited when
    this returns or raises.
    """
    workers = min(_cpus(), len(jobs))
    # A fork copies only this thread, so a lock another thread holds would
    # stay held in the workers. Fork, not spawn: a spawned worker would
    # import numpy and this package again, with cold series caches.
    if workers <= 1 or threading.active_count() > 1:
        return [fn(*args) for fn, args in jobs]
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    todo = list(range(len(jobs)))
    done, busy, procs, conns = {}, {}, [], []
    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            procs.append(ctx.Process(target=_worker, args=(child_conn, jobs)))
            procs[-1].start()
            child_conn.close()
            conns.append(conn)
        idle = conns
        while todo or busy:
            for conn in idle[:len(todo)]:
                busy[conn] = todo.pop()
                conn.send(busy[conn])
            idle = wait(list(busy))
            for conn in idle:
                try:
                    done[busy.pop(conn)] = conn.recv()
                except EOFError:  # an OOM kill or a signal, say
                    proc = procs[conns.index(conn)]
                    proc.join()
                    raise SpecboundError(
                        f"a worker process died with exit code {proc.exitcode}") from None
    finally:
        # Idle workers wait for an index that never comes; after an error
        # here, busy ones run jobs whose results no one reads.
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    outcomes = [done[i] for i in range(len(jobs))]
    for exc, _ in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result in outcomes]


_CHUNK_TRIALS = 25


def run_sweep(config: SweepConfig, *extra: Job,
              reduce: Callable[[list], list] = list) -> list:
    """Run every trial of the sweep with `run_jobs`, in chunks of one
    family's trials, each solved as stacks by dimension (see `_trials`).
    Each chunk's records go to `reduce` in the worker, which sends back
    only the list it returns; the lists come back joined in seed order:
    the records themselves with `list`, or each chunk's `report_piece`.
    The `extra` jobs' results, run after the trials, follow."""
    trials = range(config.trials)
    chunks = [(_trials, (config, family, fi, trials[start:start + _CHUNK_TRIALS],
                             reduce))
              for fi, family in enumerate(config.families)
              for start in trials[::_CHUNK_TRIALS]]
    results = run_jobs([*chunks, *extra])
    return [r for chunk in results[:len(chunks)] for r in chunk] + results[len(chunks):]


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


def write_trials_csv(records: Union[str, Iterable[TrialRecord]],
                     path: Union[str, Path]) -> None:
    """Write `trials.csv`: the header, then the rows of `records`, or
    `records` itself when it is the rows' text (joined `report_piece`s)."""
    rows = records if isinstance(records, str) else report_piece(records)[0][0]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_CSV_COLUMNS) + "\n" + rows)


def report_piece(records: Iterable[TrialRecord], rows=True) -> list[tuple[str, tuple]]:
    """`run_sweep`'s reduction for the reports, strings and numbers only:
    [(`trials.csv` rows or "" if not `rows`, (trials, violations, {bound:
    [target, evaluated, available, wins, tightness values]}))], in one pass
    per record. A bound "wins" a trial when it attains the minimum among the
    available bounds sharing its target quantity (ties count for all)."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    trials = violations = 0
    per_bound: dict[str, list] = {}
    for trials, record in enumerate(records, 1):
        violations += record.violation
        if rows:
            writer.writerows(trial_rows(record))
        floors: dict[str, float] = {}
        for b in record.bounds:
            if b.available:
                floors[b.target] = min(floors.get(b.target, math.inf), b.value)
        for b in record.bounds:
            stat = per_bound.setdefault(b.name, [b.target, 0, 0, 0, []])
            stat[1] += 1
            if b.available:
                stat[2] += 1
                t = record.tightness.get(b.name)
                if t is not None:
                    stat[4].append(t)
                if b.value <= floors[b.target] * (1.0 + _WIN_TIE_REL):
                    stat[3] += 1
    return [(text.getvalue(), (trials, violations, per_bound))]


def summarize_tallies(tallies: Iterable[tuple]) -> dict:
    """Per-bound statistics of the trials whose `report_piece` tallies are `tallies`."""
    trials = violations = 0
    per_bound: dict[str, list] = {}
    for chunk_trials, chunk_violations, bounds in tallies:
        trials, violations = trials + chunk_trials, violations + chunk_violations
        for name, stat in bounds.items():
            total = per_bound.setdefault(name, [stat[0], 0, 0, 0, []])
            for k in range(1, 5):  # the counts add, the tightness lists join
                total[k] += stat[k]
    summary_bounds = {}
    for name in sorted(per_bound):
        target, evaluated, available, wins, ts = per_bound[name]
        summary_bounds[name] = {
            "target": target, "evaluated": evaluated, "available": available,
            "availability_rate": available / evaluated,
            "wins": wins, "win_rate": wins / evaluated,
            "tightness_mean": statistics.fmean(ts) if ts else None,
            "tightness_median": statistics.median(ts) if ts else None,
            "tightness_max": max(ts) if ts else None,
        }
    return {"trials": trials, "violations": violations, "bounds": summary_bounds}


def summarize(records: Iterable[TrialRecord]) -> dict:
    """The `summary.json` statistics of `records`, as `verify` writes them."""
    return summarize_tallies(tally for _, tally in report_piece(records))


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
    coarser one's tail bound. The instances of one dimension are scaled,
    normed and solved as one stack."""
    result = CheckResult()
    cauchy_series = [lookup("exp"), lookup("geometric")]
    drawn: dict[int, list] = {}  # dim -> [(f, G, norm target)]
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 3])
        n = dims[i % len(dims)]
        f = cauchy_series[i % len(cauchy_series)]
        norm_cap = 1.5 if math.isinf(f.radius) else 0.7 * f.radius
        G = _ginibre(rng, n)
        drawn.setdefault(n, []).append((f, G, float(rng.uniform(0.3, 1.0)) * norm_cap))
    for draws in drawn.values():
        fs, G, targets = zip(*draws)
        T = _scaled(np.stack(G), np.array(targets))
        xs = operator_norms(T).tolist()
        orders = [sorted({truncation_order(f, x, t) for t in (1e-3, 1e-5, 1e-7, 1e-9)})
                  for f, x in zip(fs, xs)]
        sums = [series_partial_sum(f, Tk, m) for f, Tk, ms in zip(fs, T, orders) for m in ms]
        radii = iter(spectral_radii(np.stack(sums)).tolist())
        for f, x, ms in zip(fs, xs, orders):
            r = [next(radii) for _ in ms]
            for a, b in itertools.combinations(range(len(ms)), 2):
                result.record(abs(r[a] - r[b]) - (f.tail_bound(ms[a], x) + 1e-8))
    return {"truncation-cauchy": result}


def run_pm_checks(
    seed: int = 0, trials: int = 500, dims: Sequence[int] = (2, 4, 8)
) -> dict[str, CheckResult]:
    """Soundness of the norm-only bounds on r(AB +/- BA) for arbitrary
    (generically non-commuting) random pairs, both signs. The pairs of one
    dimension are scaled, multiplied and solved as one stack."""
    results = {"pm-quadratic": CheckResult(), "pm-mixed": CheckResult()}
    drawn: dict[int, list] = {}  # dim -> [(G, norm target)], A then B of each pair
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 4])
        n = dims[i % len(dims)]
        drawn.setdefault(n, []).extend(
            (_ginibre(rng, n), rng.uniform(0.2, 2.0)) for _ in "AB")
    for draws in drawn.values():
        G, targets = zip(*draws)
        AB = _scaled(np.stack(G), np.array(targets))
        P = products(AB[0::2], AB[1::2])  # a stack of pairs
        radii = spectral_radii(_pm_terms(P)).T.tolist()  # AB +/- BA
        for norms, oracles in zip(operator_norms(P).T.tolist(), radii):
            # Both bounds are the same for either sign, and read only norms.
            w = dict(zip(_PAIR_NORMS, norms))
            quad, mixed = (_evaluate(row, None, w, 0.0, {}) for row in _PM_ROWS[:2])
            for oracle in oracles:
                slack = _SLACK_REL * max(1.0, oracle)
                results["pm-quadratic"].record(oracle - quad.value - slack)
                results["pm-mixed"].record(oracle - mixed.value - slack)
    return results
