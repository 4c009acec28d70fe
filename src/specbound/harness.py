"""Randomized verification harness: instances, sweeps, reports.

Every random draw comes from a PCG64 stream that is numpy's
`default_rng` stream for the same entropy: a trial's [seed, family index,
index], an instance's seed. `_streams` builds a chunk's streams in one
pass, SeedSequence's mixing run over every entropy's words at once. So
identical (seed, family, dim, norm_target) specs reproduce bit-identical
matrices and identical sweep configurations reproduce byte-identical
reports.

A sweep evaluates every applicable bound against an oracle (the certified
truncated series at the instance's eigenvalues) and flags any bound
that dips below oracle minus slack, where slack accounts for both
floating-point rounding and the oracle's own truncation error. It runs in
chunks of up to `_CHUNK_TRIALS` (100) of one family's trials; a chunk's
trials of one dimension are generated, factored and solved as one stack,
one LAPACK call per step: the Haar unitaries' QR, each scaling's SVD, the
invariants' SVD and their eigensolve; then the oracle sums the stack's
truncations of each series in one `series.partial_sums` call, each with
the bits it has alone. `bounds.evaluate` fills the chunk's bound rows as
one stack of columns, and `Judged` judges them there, so the chunk's
verdicts, `trials.csv` rows and tallies come from arrays; `BoundResult`s
are built only for the callers that read them. Its judge is the only one:
the norm-only rows on r(AB +/- BA) and product-radius meet non-commuting
pairs in the "generic-pair" family.

`jobs.run_jobs` runs a sweep's trials, in chunks, and `verify`'s check on
one forked worker process per CPU the process's affinity allows. With one
CPU (`taskset -c 0`) or off Linux it runs them in-process, the only mode
in which a tracer that wraps this package's functions sees their work.
In a worker, a chunk's large pairs are solved in-process too.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import BoundResult, Invariants, evaluate, invariants
from .errors import GenerationFailure, NoConvergence, NormOverflow, OutOfDisk, UnknownFamily
from .jobs import Job, run_jobs
from .matrices import Matrix, operator_norms
from .series import (DEFAULT_MAX_TERMS, DEFAULT_TOL, PowerSeries, _order_and_tail, lookup,
                     partial_sums)

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
# Pairs that do not commute: the rows that hold for any pair are judged on them.
FAMILIES_GENERIC = ("generic-pair",)
_FAMILIES = FAMILIES_SINGLE + FAMILIES_PAIR + FAMILIES_GENERIC

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


# numpy's SeedSequence (O'Neill's seed_seq): a pool of 4 uint32 words, the
# (initial value, multiplier) of the hash constants that mix the entropy
# into it and of those that draw the state from it, and the mix step's
# multipliers.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_HASH_MIX = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


@functools.cache
def _hash_constants(first: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of `count` successive hash steps, as uint32 arrays:
    step j xors with h_j and multiplies by h_{j+1}, h_0 = `first` and
    h_{j+1} = h_j * `mult` mod 2^32. They do not depend on the data."""
    h = [first]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    h.flags.writeable = False  # shared by every call
    return h[:-1], h[1:]


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(e).generate_state(4, np.uint64)` for each row e of the
    (k, w) uint32 entropy words `words`, w >= 4, as a (k, 4) array. The
    hash steps run in SeedSequence's order: each pool word's, then each
    pool word into each other one, then each word past the pool into every
    pool word; a step's constants are the same for every row."""
    width = words.shape[1]
    # _POOL + _POOL * (_POOL - 1) + _POOL * (width - _POOL) steps
    xor, mul = _hash_constants(*_HASH_MIX, _POOL * width)
    pool = _hashmix(words[:, :_POOL], xor[:_POOL], mul[:_POOL])
    j = _POOL
    for s, others in enumerate(_OTHERS):
        step = slice(j, j + _POOL - 1)
        pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, s, None], xor[step], mul[step]))
        j += _POOL - 1
    for s in range(_POOL, width):
        step = slice(j, j + _POOL)
        pool = _mix(pool, _hashmix(words[:, s, None], xor[step], mul[step]))
        j += _POOL
    state = _hashmix(np.tile(pool, 2), *_hash_constants(*_HASH_STATE, 2 * _POOL))
    # Little-endian word pairs, as SeedSequence reads them on any host.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _entropy_words(entropy) -> list[int]:
    """The uint32 words SeedSequence assembles from `entropy`, an int >= 0
    or a list of them, each int's least significant word first, padded with
    zeros to the pool size: a missing pool word mixes in as a 0 word."""
    words = []
    for n in [entropy] if isinstance(entropy, (int, np.integer)) else entropy:
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words + [0] * (_POOL - len(words))


@functools.cache
def _seeded_generator() -> Callable[[np.ndarray], np.random.Generator]:
    """The function from a PCG64 state row to its Generator. numpy.random is
    imported here, on the first stream, not when the CLI starts."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        """The seed sequence whose PCG64 state is a given row."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, np.uint64)
            return self.state

    return lambda state: Generator(PCG64(State(state)))


def _streams(entropies: Sequence) -> list[np.random.Generator]:
    """numpy's `default_rng(e)` stream for each entropy e of `entropies`,
    bit for bit, built in one pass: the SeedSequence states of every
    entropy of one word count come from one `_pcg64_states` call, and each
    seeds its PCG64 directly."""
    words = [_entropy_words(e) for e in entropies]
    by_width: dict[int, list[int]] = {}
    for k, w in enumerate(words):
        by_width.setdefault(len(w), []).append(k)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for ks in by_width.values():
        states[ks] = _pcg64_states(np.array([words[k] for k in ks], dtype=np.uint32))
    generator = _seeded_generator()
    return [generator(state) for state in states]


def _ginibre(rng: np.random.Generator, n: int) -> Matrix:
    return (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / math.sqrt(2.0)


def _haar_unitary(G: Matrix) -> Matrix:
    """The Haar unitary Q diag(R_jj / |R_jj|) of each Ginibre matrix G = QR
    of a (..., n, n) stack, from one QR call."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _conjugated(G: Matrix, D: Matrix) -> Matrix:
    """U D U^H, U the Haar unitary of each Ginibre matrix of the stack G."""
    U = _haar_unitary(G)
    return U @ D @ U.conj().swapaxes(-1, -2)


def _scaled(M: Matrix, norm_target) -> Matrix:
    """M times norm_target / ||M||, or each matrix of a (k, n, n) stack
    times its own of k targets, from one SVD call; a zero matrix stays."""
    nrm = operator_norms(M)
    scale = np.divide(norm_target, nrm, out=np.ones_like(nrm), where=nrm != 0.0)
    return M * scale[..., None, None]


def _cubic(c: np.ndarray, M: Matrix) -> Matrix:
    """c[k, 0] I + c[k, 1] M_k + c[k, 2] M_k^2 + c[k, 3] M_k^3 by Horner's
    rule, for each matrix M_k of a stack."""
    eye = np.eye(M.shape[-1], dtype=np.complex128)
    S = c[:, 3, None, None] * eye
    for j in (2, 1, 0):
        S = c[:, j, None, None] * eye + M @ S
    return S


def _diagonal(d: np.ndarray) -> Matrix:
    """The complex matrices whose diagonals are the rows of `d`."""
    n = d.shape[-1]
    D = np.zeros((*d.shape, n), dtype=np.complex128)
    D[..., range(n), range(n)] = d
    return D


def _generate(specs: Sequence[InstanceSpec]) -> tuple[Matrix, ...]:
    """The instances of `specs`, all of one family and one dimension, as
    (T,) with T a (k, n, n) stack, or (A, B) for a pair family. Each
    instance's values are drawn from its own seed's stream, in the order
    of its family's branch, and each instance is scaled to its own norm
    target; the stack's Haar unitaries come from one QR call and each
    scaling from one SVD call.

    The Jordan family's well-separated eigenvalues plus short
    superdiagonal chains keep it strongly non-normal but numerically
    diagonalizable, so the eigensolver oracle stays trustworthy.
    Polynomial pairs (p(M), q(M)) of a common dense M cover the non-normal
    regime; two diagonal matrices conjugated by one Haar unitary cover the
    normal regime. Both commute by construction; a sweep fails on a pair
    that fails `best_bound`'s commutator test. A generic pair is two
    independent Ginibre matrices.
    """
    family, n = specs[0].family, specs[0].dim
    rngs = _streams([s.seed for s in specs])
    targets = np.array([s.norm_target for s in specs])

    def stack(draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
        """Each instance's `draw` from its own stream, as one stack."""
        return np.stack([draw(rng) for rng in rngs])

    def ginibre(rng: np.random.Generator) -> Matrix:
        return _ginibre(rng, n)

    if family == "diagonal-positive":
        d = stack(lambda rng: rng.uniform(0.05, 1.0, n))
        return (_diagonal(d * (targets / d.max(axis=1))[:, None]),)
    if family == "hermitian":
        G = stack(ginibre)
        X = [(G + G.conj().swapaxes(-1, -2)) / 2.0]
    elif family == "unitary-conjugated-jordan":
        radii = stack(lambda rng: rng.uniform(0.4, 1.0, n))
        turn = stack(lambda rng: rng.uniform(0.0, 1.0))
        coupling = stack(lambda rng: rng.uniform(2.0, 4.0))
        angles = 2.0 * math.pi * (np.arange(n) + turn[:, None]) / n
        D = _diagonal(radii * np.exp(1j * angles))
        D[:, range(0, n - 1, 2), range(1, n, 2)] = coupling[:, None]
        X = [_conjugated(stack(ginibre), D)]
    elif family == "nilpotent":
        X = [np.triu(stack(ginibre), 1)]
    elif family == "dense-random":
        X = [stack(ginibre)]
    elif family == "commuting-polynomial-pair":
        M = _scaled(stack(ginibre), 1.0)
        X = [_cubic(stack(lambda rng: rng.standard_normal(4) + 1j * rng.standard_normal(4)), M)
             for _ in "ab"]
    elif family == "commuting-triangular-pair":
        G = stack(ginibre)  # then the diagonals of A and B in the basis of its Haar unitary
        D = [stack(lambda rng: rng.uniform(0.2, 1.0, n)
                   * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))) for _ in "ab"]
        X = _conjugated(G, _diagonal(np.stack(D)))
    else:  # "generic-pair"
        X = [stack(ginibre), stack(ginibre)]
    return tuple(_scaled(np.stack(X), targets))


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
    and 0.8*sqrt(R) (1.0 when R is infinite) for commuting pairs, each
    times a per-trial fraction drawn from the trial's own seed. A generic
    pair's target is min(2, 0.95*sqrt(R)) times a fraction in (0.1, 1):
    U(0.2, 2.0) when R is infinite, the range the norm-only rows on
    r(AB +/- BA) need, and ||AB|| <= 0.9025*R otherwise, whose truncation
    orders stay small.
    """

    series_names: tuple[str, ...] = ("exp", "geometric", "log-resolvent")
    families: tuple[str, ...] = _FAMILIES
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
        unknown = [f for f in self.families if f not in _FAMILIES]
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


_NO_ORACLE = (math.nan, math.nan)  # the (value, error) of a target without an oracle


def _verdicts(values: np.ndarray, targets: Sequence[str],
              oracles: Sequence[dict[str, tuple[float, float]]]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(compared, margins, tightness) of the (rows, trials) bound values
    `values` (nan where Unavailable), row r on `targets[r]`, trial i judged
    against `oracles[i]`. A bound is compared with its oracle when it is
    available and its target has one. Its margin is how far it is below
    the oracle beyond the oracle's error plus `_SLACK_REL` * max(1,
    oracle), relative to max(1, oracle): positive exactly when the bound
    is below its oracle. A non-finite oracle or oracle error checks
    nothing, so any value meeting one is below it by inf; a bound not
    compared has margin -inf. The tightness ratio value / oracle is nan
    where the bound is not compared or the oracle is untrusted or at most
    1e-12.

    A missing oracle (series argument outside the disk) can only happen
    when every bound on that target is unavailable, so skipping is safe.
    """
    pairs = np.array([[o.get(t, _NO_ORACLE) for o in oracles] for t in targets]
                     ).reshape(*values.shape, 2)
    oracle, oracle_err = pairs[..., 0], pairs[..., 1]
    compared = np.array([[t in o for o in oracles] for t in targets]).reshape(values.shape)
    compared &= values == values
    trusted = np.isfinite(pairs).all(axis=-1)
    with np.errstate(all="ignore"):  # in the entries replaced below
        scale = np.maximum(1.0, oracle)
        margins = (oracle - (_SLACK_REL * scale + oracle_err) - values) / scale
        tightness = values / oracle
    margins[~trusted] = np.inf
    margins[~compared] = -np.inf
    tightness[~(compared & trusted & (oracle > 1e-12))] = np.nan
    return compared, margins, tightness


def _judged(bounds: Sequence[BoundResult], oracles: dict[str, tuple[float, float]]
            ) -> tuple[dict[str, Optional[float]], list[BoundResult]]:
    """(tightness ratio by bound name, bounds below their oracle) of one
    trial, as `_verdicts` judges it, over the available bounds whose
    target has an oracle."""
    values = np.array([[np.nan if b.value is None else b.value] for b in bounds])
    compared, margins, tightness = _verdicts(values, [b.target for b in bounds], [oracles])
    return (_tightness([b.name for b in bounds], compared[:, 0], tightness[:, 0]),
            [b for b, low in zip(bounds, (margins[:, 0] > 0).tolist()) if low])


def _tightness(names: Sequence[str], compared: np.ndarray, tightness: np.ndarray
               ) -> dict[str, Optional[float]]:
    """One trial's tightness ratio by bound name, None where untrusted, over
    its compared bounds."""
    return {name: None if math.isnan(t) else t
            for name, c, t in zip(names, compared.tolist(), tightness.tolist()) if c}


@dataclass
class Judged:
    """Trials that share their bound rows, as columns, and their verdicts:
    row r of trial i is bound `names[r]` on `targets[r]`, of value
    `values[r, i]` (nan when Unavailable, with reason `reasons[r][i]`),
    judged against `oracles[i]` by `_verdicts`; a trial is a violation when
    one of its bounds is below its oracle. `results(i)` builds trial i's
    `BoundResult`s."""

    specs: Sequence[InstanceSpec]
    series: Sequence[str]
    oracles: Sequence[dict[str, tuple[float, float]]]
    names: Sequence[str]
    targets: Sequence[str]
    values: np.ndarray
    reasons: list[list[Optional[str]]]
    results: Callable[[int], list[BoundResult]]
    compared: np.ndarray = field(init=False)
    margins: np.ndarray = field(init=False)
    tightness: np.ndarray = field(init=False)
    violation: np.ndarray = field(init=False)

    def __post_init__(self):
        self.compared, self.margins, self.tightness = _verdicts(
            self.values, self.targets, self.oracles)
        self.violation = (self.margins > 0).any(axis=0)


def trial_records(chunks: Iterable[Judged]) -> list[TrialRecord]:
    """The `TrialRecord` of each trial of the judged stacks `chunks`:
    `run_sweep`'s default reduction."""
    return [TrialRecord(spec, series, oracles, j.results(i),
                        _tightness(j.names, j.compared[:, i], j.tightness[:, i]),
                        bool(j.violation[i]))
            for j in chunks
            for i, (spec, series, oracles) in enumerate(zip(j.specs, j.series, j.oracles))]


def oracle_radii(
    f: PowerSeries, vs: Sequence[Invariants], tol: float = DEFAULT_TOL
) -> list[Union[dict[str, tuple[float, float]], NoConvergence, NormOverflow]]:
    """(value, error) of the oracle for each target quantity of each
    instance whose invariants (as `best_bound` reports them) are in the
    stack `vs`, all of one dimension; an instance whose oracle fails gets,
    in its place, the NoConvergence or NormOverflow naming it, for the
    caller to raise.

    Pair mode gives r(AB), r(AB+BA) and r(AB-BA), read from `v`, with no
    error. When its argument lies inside the disk, the series target f(T)
    or f(AB) gets r[S_m] = max |S_m(lambda)| over the eigenvalues
    `v.spectrum` of T or AB (spectral mapping), with the truncation's
    remainder bound as error: m is the order whose scalar majorant tail
    sum_{j>m} |a_j| x^j at x = ||T|| or ||AB||, read from `v`, is <= tol,
    and that tail dominates the matrix remainder's operator norm.
    NoConvergence if no order up to DEFAULT_MAX_TERMS is certified, and
    NormOverflow if S_m is not finite at an eigenvalue. Every instance's
    order is found first; then one `partial_sums` call sums every
    truncation, each with the bits it has alone. No SVD or eigensolve runs.
    """
    out: list = []
    summed = []  # (place in `out`, argument, order, tail) of each truncation
    for v in vs:
        if "r(T)" in v:
            arg, oracles = "T", {}
        else:
            arg = "AB"
            oracles = {x: (v[f"r({x})"], 0.0) for x in ("AB", "AB+BA", "AB-BA")}
        try:
            m, tail = _order_and_tail(f, v[f"||{arg}||"], tol, DEFAULT_MAX_TERMS)
        except OutOfDisk:
            pass
        except NoConvergence as e:
            oracles = e
        else:
            summed.append((len(out), arg, m, tail))
        out.append(oracles)
    if not summed:
        return out
    places, _, orders, _ = zip(*summed)
    spectra = np.array([vs[k].spectrum for k in places])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        radii = np.abs(partial_sums(f, spectra, orders)).max(axis=1).tolist()
    for (k, arg, m, tail), radius in zip(summed, radii):
        if math.isfinite(radius):
            out[k][f"f({arg})"] = (radius, tail)
        else:
            given = "matrix" if arg == "T" else "pair"
            out[k] = NormOverflow(
                f"{f.name}: the order-{m} truncation at ||{arg}|| = {vs[k][f'||{arg}||']:g} "
                f"is not finite; normalize the {given} first")
    return out


def _trial_specs(config: SweepConfig, family: str, family_index: int,
                 indices: Sequence[int]) -> list[tuple[PowerSeries, InstanceSpec]]:
    """The series and instance of each trial `indices` of one family, each
    drawn from the trial's own stream, default_rng([seed, family_index,
    index])."""
    out = []
    for index, trial_rng in zip(indices, _streams([[config.seed, family_index, i]
                                                   for i in indices])):
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
        out.append((f, InstanceSpec(
            seed=int(trial_rng.integers(0, 2**63)),
            family=family,
            dim=config.dims[index % len(config.dims)],
            norm_target=float(base * fraction),
        )))
    return out


def _trials(config: SweepConfig, family: str, family_index: int,
            indices: Sequence[int], reduce: Callable[[list], list] = trial_records) -> list:
    """`reduce` of the trials `indices` of one family, as a list of one
    `Judged`. Each trial is drawn from its own stream, the chunk's streams
    built in one `_streams` pass; then the trials of each dimension are
    generated, factored and solved as one stack, their oracles are summed
    as one stack per series, and their bound rows are evaluated and judged
    as one stack. A failing trial raises what it would
    raise alone; the first in index order wins. A pair of a commuting
    family that fails the commutator test raises GenerationFailure; a
    generic pair gets the commuting rows Unavailable, as `bound` does."""
    trials = _trial_specs(config, family, family_index, indices)
    groups: dict[int, list[int]] = {}  # dim -> positions in `trials`
    for k, (_, spec) in enumerate(trials):
        groups.setdefault(spec.dim, []).append(k)
    filled: list = [None] * len(trials)
    for ks in groups.values():
        for k, v in zip(ks, invariants(*_generate([trials[k][1] for k in ks]))):
            filled[k] = v
    stacks: dict[tuple[int, str], list[int]] = {}  # (dim, series) -> positions
    for k, ((f, spec), v) in enumerate(zip(trials, filled)):
        if not isinstance(v, NormOverflow):
            stacks.setdefault((spec.dim, f.name), []).append(k)
    found: list = [None] * len(trials)
    for ks in stacks.values():
        for k, oracles in zip(ks, oracle_radii(trials[ks[0]][0], [filled[k] for k in ks],
                                               config.tol)):
            found[k] = oracles
    valid = [(f, v) for (f, _), v in zip(trials, filled) if not isinstance(v, NormOverflow)]
    table = evaluate([f for f, _ in valid], [v for _, v in valid], config.tol)
    errors = iter(table.errors)
    for (f, spec), v, oracles in zip(trials, filled, found):
        if isinstance(v, NormOverflow):
            raise v
        error = next(errors)
        if error is not None:
            raise error
        if family in FAMILIES_PAIR and not v.commuting:
            raise GenerationFailure(
                f"{spec} is not a commuting pair "
                f"(||AB-BA|| = {v['||AB-BA||']:.6e})"
            )
        if not isinstance(oracles, dict):
            raise oracles
    return reduce([Judged([spec for _, spec in trials], [f.name for f, _ in trials], found,
                          [row.name for row in table.rows], [row.target for row in table.rows],
                          table.values, table.reasons, table.results)])


def run_trial(
    config: SweepConfig, family: str, family_index: int, index: int
) -> TrialRecord:
    """One deterministic trial; pure function of (config, family, index).
    It is a sweep chunk of one trial."""
    return _trials(config, family, family_index, [index])[0]


# Trials per sweep chunk: about 33 per dimension's stack at the default
# three dimensions. A fixed cap, not trials / CPUs, bounds what a worker
# stacks: a chunk of n = 64 pairs holds 9 products and a 5-matrix
# eigensolve stack per pair, 92 MB at 100 trials.
_CHUNK_TRIALS = 100


def run_sweep(config: SweepConfig, *extra: Job,
              reduce: Callable[[list], list] = trial_records) -> list:
    """Run every trial of the sweep with `run_jobs`, in chunks of one
    family's trials, each solved as stacks (see `_trials`). Each chunk's
    judged trials go to `reduce` in the worker, which sends back only the
    list it returns; the lists come back joined in seed order: the
    `TrialRecord`s with `trial_records`, or each chunk's `report_piece`.
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


class _Quoted(dict):
    """Each string as csv's QUOTE_MINIMAL writes it in a row, memoised: a
    series name such as "poly:1,-0.5+0.3j,0.25j" is quoted."""

    def __missing__(self, text: str) -> str:
        row = io.StringIO()
        csv.writer(row, lineterminator="\n").writerow((text, ""))  # alone, "" is quoted
        self[text] = quoted = row.getvalue()[:-2]
        return quoted


def _rows_text(j: Judged, quoted: _Quoted) -> str:
    """The `trials.csv` rows of the judged stack `j`, in `_CSV_COLUMNS`
    order, one f-string a row."""
    bounds = [f"{quoted[name]},{quoted[target]}," for name, target in zip(j.names, j.targets)]
    lines = []
    for spec, series, oracles, values, reasons, ratios, low in zip(
            j.specs, j.series, j.oracles, j.values.T.tolist(), zip(*j.reasons),
            j.tightness.T.tolist(), j.violation.tolist()):
        head = (f"{quoted[spec.family]},{spec.seed},{spec.dim},{spec.norm_target!r},"
                f"{quoted[series]},")
        tail = ",1\n" if low else ",0\n"
        oracle = {t: f"{value!r},{err!r}" for t, (value, err) in oracles.items()}
        for bound, target, value, reason, ratio in zip(bounds, j.targets, values, reasons,
                                                        ratios):
            cell = f"1,{value!r}" if value == value else "0,"
            lines.append(f"{head}{bound}{cell},{quoted[reason] if reason else ''},"
                         f"{oracle.get(target, ',')},{'' if ratio != ratio else repr(ratio)}"
                         f"{tail}")
    return "".join(lines)


def write_trials_csv(rows: str, path: Union[str, Path]) -> None:
    """Write `trials.csv`: the header, then `rows`, the rows' text (the
    joined `report_piece`s of a sweep)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_CSV_COLUMNS) + "\n" + rows)


def report_piece(chunks: Iterable[Judged]) -> list[tuple[str, tuple]]:
    """`run_sweep`'s reduction for the reports, strings and numbers only:
    [(`trials.csv` rows, (trials, violations, {bound: [target, evaluated,
    available, wins, tightness values, worst margin]}))], from the columns
    of the judged stacks `chunks`, each string quoted once. A bound "wins"
    a trial when it attains the minimum among the available bounds sharing
    its target quantity (ties count for all). Its worst margin is the
    largest of its `_verdicts` margins over the trials where it was
    compared with its oracle (-inf if none)."""
    text, quoted = [], _Quoted()
    trials = violations = 0
    per_bound: dict[str, list] = {}
    for j in chunks:
        trials += len(j.specs)
        violations += int(j.violation.sum())
        text.append(_rows_text(j, quoted))
        floors: dict[str, np.ndarray] = {}  # target -> least available value of each trial
        for target, values in zip(j.targets, j.values):
            floors[target] = np.fmin(floors.get(target, math.inf), values)
        for name, target, values, ratios, margins in zip(j.names, j.targets, j.values,
                                                         j.tightness, j.margins):
            stat = per_bound.setdefault(name, [target, 0, 0, 0, [], -math.inf])
            available = ~np.isnan(values)
            stat[1] += len(j.specs)
            stat[2] += int(available.sum())
            stat[3] += int((available & (values <= floors[target] * (1.0 + _WIN_TIE_REL))).sum())
            stat[4] += ratios[~np.isnan(ratios)].tolist()
            stat[5] = max(stat[5], margins.max().item())
    return [("".join(text), (trials, violations, per_bound))]


def summarize_tallies(tallies: Iterable[tuple]) -> dict:
    """Per-bound statistics of the trials whose `report_piece` tallies are `tallies`."""
    trials = violations = 0
    per_bound: dict[str, list] = {}
    for chunk_trials, chunk_violations, bounds in tallies:
        trials, violations = trials + chunk_trials, violations + chunk_violations
        for name, stat in bounds.items():
            total = per_bound.setdefault(name, [stat[0], 0, 0, 0, [], -math.inf])
            for k in range(1, 5):  # the counts add, the tightness lists join
                total[k] += stat[k]
            total[5] = max(total[5], stat[5])
    summary_bounds = {}
    for name in sorted(per_bound):
        target, evaluated, available, wins, ts, worst = per_bound[name]
        summary_bounds[name] = {
            "target": target, "evaluated": evaluated, "available": available,
            "availability_rate": available / evaluated,
            "wins": wins, "win_rate": wins / evaluated,
            "tightness_mean": statistics.fmean(ts) if ts else None,
            "tightness_median": statistics.median(ts) if ts else None,
            "tightness_max": max(ts) if ts else None,
            # null if never judged, or if judged against a non-finite oracle
            "worst_margin": worst if math.isfinite(worst) else None,
        }
    return {"trials": trials, "violations": violations, "bounds": summary_bounds}


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
    """The Cauchy behaviour of the oracle: its radii at different
    tolerances differ by at most the coarser one's error. The instances of
    one dimension are scaled and get their `invariants` as one stack; each
    radius is `oracle_radii`'s, the one every trial is judged against,
    from one call per dimension, tolerance and series."""
    result = CheckResult()
    cauchy_series = [lookup("exp"), lookup("geometric")]
    drawn: dict[int, list] = {}  # dim -> [(f, G, norm target)]
    for i, rng in enumerate(_streams([[seed, i, 3] for i in range(trials)])):
        n = dims[i % len(dims)]
        f = cauchy_series[i % len(cauchy_series)]
        norm_cap = 1.5 if math.isinf(f.radius) else 0.7 * f.radius
        G = _ginibre(rng, n)
        drawn.setdefault(n, []).append((f, G, float(rng.uniform(0.3, 1.0)) * norm_cap))
    for draws in drawn.values():
        fs, G, targets = zip(*draws)
        vs = invariants(_scaled(np.stack(G), np.array(targets)))
        for f in cauchy_series:
            stack = [v for g, v in zip(fs, vs) if g is f]
            by_tol = [oracle_radii(f, stack, t) for t in (1e-3, 1e-5, 1e-7, 1e-9)]
            for oracles in zip(*by_tol):
                radii = [o["f(T)"] for o in oracles]
                for (r_a, err_a), (r_b, _) in itertools.combinations(radii, 2):
                    result.record(abs(r_a - r_b) - (err_a + 1e-8))
    return {"truncation-cauchy": result}
