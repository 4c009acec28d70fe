"""Randomized verification harness: instances, sweeps, reports.

Every random draw is, bit for bit, a draw of numpy's `default_rng`
stream for its entropy: a trial's [seed, family index, index], an
instance's seed. SeedSequence's mixing runs over the words of a chunk's
entropies at once (`_seed_states`). A trial's two draws are then PCG64's
arithmetic on those states, one uint64 array pass for the chunk
(`_pcg64_draws`), with no Generator built; each instance's values come
from numpy's own methods on its own Generator (`_streams`), each draw
filling that instance's row of one stack (`_drawn`). So identical (seed,
family, dim, norm_target) specs reproduce bit-identical matrices and
identical sweep configurations reproduce byte-identical reports.

A sweep evaluates every applicable bound against an oracle (the certified
truncated series at the instance's eigenvalues) and flags any bound
that dips below oracle minus slack, where slack accounts for both
floating-point rounding and the oracle's own truncation error. It runs in
chunks of up to `_CHUNK_TRIALS` (100) of one family's trials; a chunk's
trials of one dimension are generated, factored and solved as one stack,
one LAPACK call per step: the Haar unitaries' QR, each scaling's SVD, the
invariants' SVD and their eigensolve. Then the whole chunk, every
series and dimension, goes to `oracle_radii` and to `bounds.evaluate` as
one stack each: the oracle sums the truncations of each dimension and
series in one `series.partial_sums` call, each with the bits it has
alone, `evaluate` fills the chunk's bound rows as one stack of columns,
and `Judged` judges them there; the chunk's
`report_piece`, its `trials.csv` rows and summary tallies, is built from
those arrays and is all the chunk returns, so a sweep builds no
`BoundResult`: only `bound` does. Its judge is the only one:
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


def _seed_states(entropies: Sequence) -> np.ndarray:
    """`SeedSequence(e).generate_state(4, np.uint64)` for each entropy e of
    `entropies`, as a (k, 4) array: the states of every entropy of one word
    count come from one `_pcg64_states` call."""
    words = [_entropy_words(e) for e in entropies]
    by_width: dict[int, list[int]] = {}
    for k, w in enumerate(words):
        by_width.setdefault(len(w), []).append(k)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for ks in by_width.values():
        states[ks] = _pcg64_states(np.array([words[k] for k in ks], dtype=np.uint32))
    return states


def _streams(entropies: Sequence) -> list[np.random.Generator]:
    """numpy's `default_rng(e)` stream for each entropy e of `entropies`,
    bit for bit, built in one pass: each `_seed_states` row seeds its PCG64
    directly."""
    generator = _seeded_generator()
    return [generator(state) for state in _seed_states(entropies)]


# numpy's PCG64 (XSL-RR 128/64): the high and low 64-bit words of its LCG
# multiplier 0x2360ED051FC65DA4_4385DF649FCCF645, the low word's 32-bit
# halves, and the mask of a low half.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_L0, _MULT_L1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_LOW32 = np.uint64(_MASK32)


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128 of (high, low) uint64 word arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _lcg_step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """state * multiplier + inc mod 2^128 of (high, low) uint64 word
    arrays; the high word of low * `_MULT_LO` is summed from 32-bit halves."""
    high, low = state
    l0, l1 = low & _LOW32, low >> 32
    cross0, cross1 = l0 * _MULT_L1, l1 * _MULT_L0
    mid = (l0 * _MULT_L0 >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carried = l1 * _MULT_L1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return _add128((carried + low * _MULT_HI + high * _MULT_LO, low * _MULT_LO), inc)


def _pcg64_draws(states: np.ndarray, k: int) -> np.ndarray:
    """The first k outputs of numpy's PCG64 seeded with each (4,) uint64
    state row of `states`, as a (rows, k) uint64 array:
    `Generator(PCG64(s)).bit_generator.random_raw(k)`. With initstate = s0
    2^64 + s1 and inc = 2 (s2 2^64 + s3) + 1, the state is one LCG step
    from initstate + inc (one step from 0 is inc); each output is one more
    step, then the XSL-RR of the new state."""
    s0, s1, s2, s3 = states.T
    inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)
    state = _lcg_step(_add128(inc, (s0, s1)), inc)
    out = np.empty((len(states), k), dtype=np.uint64)
    for j in range(k):
        state = _lcg_step(state, inc)
        high, low = state
        x, rot = high ^ low, high >> 58
        out[:, j] = x >> rot | x << (64 - rot & 63)
    return out


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


def _drawn(rngs: Sequence[np.random.Generator], method: str,
           shape: tuple[int, ...]) -> np.ndarray:
    """Each stream's `method` ("standard_normal" or "random") draws of
    `shape`, as one (len(rngs), *shape) float64 stack: each stream fills
    its own row in place, taking the values it would return alone."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out.reshape(len(rngs), math.prod(shape))):
        getattr(rng, method)(out=row)
    return out


def _uniforms(rngs: Sequence[np.random.Generator], low: float, high: float,
              *shape: int) -> np.ndarray:
    """Each stream's `uniform(low, high, shape)`, formed once per stack as
    numpy forms it: low + (high - low) * u of the stream's `random` u."""
    return low + (high - low) * _drawn(rngs, "random", shape)


def _complex_normals(rngs: Sequence[np.random.Generator], *shape: int) -> np.ndarray:
    """Each stream's `standard_normal(shape) + 1j * standard_normal(shape)`."""
    re, im = _drawn(rngs, "standard_normal", (2, *shape)).swapaxes(0, 1)
    return re + 1j * im


def _ginibres(rngs: Sequence[np.random.Generator], n: int) -> Matrix:
    """Each stream's n x n Ginibre matrix, complex normals over sqrt(2)."""
    return _complex_normals(rngs, n, n) / math.sqrt(2.0)


def _generate(specs: Sequence[InstanceSpec]) -> tuple[Matrix, ...]:
    """The instances of `specs`, all of one family and one dimension, as
    (T,) with T a (k, n, n) stack, or (A, B) for a pair family. Each
    instance's values are drawn from its own seed's stream, in the order
    of its family's branch, each draw into one stack for all instances,
    and each instance is scaled to its own norm target; the stack's Haar
    unitaries come from one QR call and each scaling from one SVD call.

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
    if family == "diagonal-positive":
        d = _uniforms(rngs, 0.05, 1.0, n)
        return (_diagonal(d * (targets / d.max(axis=1))[:, None]),)
    if family == "hermitian":
        G = _ginibres(rngs, n)
        X = [(G + G.conj().swapaxes(-1, -2)) / 2.0]
    elif family == "unitary-conjugated-jordan":
        radii = _uniforms(rngs, 0.4, 1.0, n)
        turn = _uniforms(rngs, 0.0, 1.0)
        coupling = _uniforms(rngs, 2.0, 4.0)
        angles = 2.0 * math.pi * (np.arange(n) + turn[:, None]) / n
        D = _diagonal(radii * np.exp(1j * angles))
        D[:, range(0, n - 1, 2), range(1, n, 2)] = coupling[:, None]
        X = [_conjugated(_ginibres(rngs, n), D)]
    elif family == "nilpotent":
        X = [np.triu(_ginibres(rngs, n), 1)]
    elif family == "dense-random":
        X = [_ginibres(rngs, n)]
    elif family == "commuting-polynomial-pair":
        M = _scaled(_ginibres(rngs, n), 1.0)
        X = [_cubic(_complex_normals(rngs, 4), M) for _ in "ab"]
    elif family == "commuting-triangular-pair":
        G = _ginibres(rngs, n)  # then the diagonals of A and B in the basis of its Haar unitary
        D = [_uniforms(rngs, 0.2, 1.0, n) * np.exp(2j * math.pi * _uniforms(rngs, 0.0, 1.0, n))
             for _ in "ab"]
        X = _conjugated(G, _diagonal(np.stack(D)))
    else:  # "generic-pair"
        X = [_ginibres(rngs, n), _ginibres(rngs, n)]
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

    `trials` counts instances per family. Across a family's trials the
    series cycles fastest and the dimension steps once per cycle of the
    series, so every (series, dimension) pair recurs each
    len(series_names) * len(dims) trials. Norm targets default to
    0.9*min(R, 10) for single families and 0.8*sqrt(R) (1.0 when R is
    infinite) for commuting pairs, each times a per-trial fraction drawn
    from the trial's own seed. A generic
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


_NO_ORACLE = (math.nan, math.nan)  # the (value, error) of a target without an oracle


def _verdicts(values: np.ndarray, targets: Sequence[str],
              oracles: Sequence[dict[str, tuple[float, float]]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """(margins, tightness) of the (rows, trials) bound values `values`
    (nan where Unavailable), row r on `targets[r]`, trial i judged against
    `oracles[i]`. A bound is compared with its oracle when it is
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
    return margins, tightness


def _judged(bounds: Sequence[BoundResult], oracles: dict[str, tuple[float, float]]
            ) -> list[BoundResult]:
    """The bounds of one trial below their oracle, as `_verdicts` judges
    them."""
    values = np.array([[np.nan if b.value is None else b.value] for b in bounds])
    margins, _ = _verdicts(values, [b.target for b in bounds], [oracles])
    return [b for b, low in zip(bounds, (margins[:, 0] > 0).tolist()) if low]


@dataclass
class Judged:
    """Trials that share their bound rows, as columns, and their verdicts:
    row r of trial i is bound `names[r]` on `targets[r]`, of value
    `values[r, i]` (nan when Unavailable, with reason `reasons[r][i]`),
    judged against `oracles[i]` by `_verdicts`; a trial is a violation when
    one of its bounds is below its oracle."""

    specs: Sequence[InstanceSpec]
    series: Sequence[str]
    oracles: Sequence[dict[str, tuple[float, float]]]
    names: Sequence[str]
    targets: Sequence[str]
    values: np.ndarray
    reasons: list[list[Optional[str]]]
    margins: np.ndarray = field(init=False)
    tightness: np.ndarray = field(init=False)
    violation: np.ndarray = field(init=False)

    def __post_init__(self):
        self.margins, self.tightness = _verdicts(
            self.values, self.targets, self.oracles)
        self.violation = (self.margins > 0).any(axis=0)


def oracle_radii(
    fs: Sequence[PowerSeries], vs: Sequence[Invariants], tol: float = DEFAULT_TOL
) -> list[Union[dict[str, tuple[float, float]], NoConvergence, NormOverflow]]:
    """(value, error) of the oracle for each target quantity of each
    instance whose invariants (as `best_bound` reports them) are in the
    stack `vs`, each with its own series in `fs`; an instance whose oracle
    fails gets, in its place, the NoConvergence or NormOverflow naming it,
    for the caller to raise.

    Pair mode gives r(AB), r(AB+BA) and r(AB-BA), read from `v`, with no
    error. When its argument lies inside the disk, the series target f(T)
    or f(AB) gets r[S_m] = max |S_m(lambda)| over the eigenvalues
    `v.spectrum` of T or AB (spectral mapping), with the truncation's
    remainder bound as error: m is the order whose scalar majorant tail
    sum_{j>m} |a_j| x^j at x = ||T|| or ||AB||, read from `v`, is <= tol,
    and the tail bounds |f(lambda) - S_m(lambda)| at every eigenvalue,
    |lambda| <= x. NoConvergence if no order up to DEFAULT_MAX_TERMS is
    certified, and NormOverflow if S_m is not finite at an eigenvalue.
    Every instance's order is found first; then one `partial_sums` call
    per dimension and series sums their truncations, each with the bits it
    has alone. No SVD or eigensolve runs.
    """
    out: list = []
    stacks: dict = {}  # (n, id of f) -> [(place in `out`, argument, order, tail)]
    for f, v in zip(fs, vs):
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
            stacks.setdefault((len(v.spectrum), id(f)), []).append((len(out), arg, m, tail))
        out.append(oracles)
    for summed in stacks.values():
        places, _, orders, _ = zip(*summed)
        f = fs[places[0]]
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


def _fractions_and_seeds(x: np.ndarray, low: float) -> tuple[list[float], list[int]]:
    """`uniform(low, 1.0)`, then `integers(0, 2**63)`, of each numpy stream
    whose first two PCG64 outputs are a row of the (k, 2) uint64 `x`: low +
    (1.0 - low) * u for the first output's top 53 bits u in [0, 1), as
    numpy forms it, and the second output's top 63 bits, as Lemire's
    method gives them on a power-of-two span, which never rejects."""
    fractions = low + (1.0 - low) * ((x[:, 0] >> 11) * 2.0**-53)
    return fractions.tolist(), (x[:, 1] >> 1).tolist()


def _trial_specs(config: SweepConfig, family: str, family_index: int,
                 indices: Sequence[int]) -> list[tuple[PowerSeries, InstanceSpec]]:
    """The series and instance of each trial `indices` of one family, drawn
    from the trial's own stream, default_rng([seed, family_index, index]):
    the fraction of its norm target is the stream's `uniform(low, 1.0)`, at
    its family's low end, and its instance seed the stream's
    `integers(0, 2**63)`. Every trial's two draws come from one
    `_pcg64_draws` pass over the chunk; no Generator is built."""
    if family in FAMILIES_GENERIC:  # ||AB|| <= target^2 <= 0.9025 R
        low, base = 0.1, lambda R: min(2.0, 0.95 * math.sqrt(R))
    elif family in FAMILIES_PAIR:
        low, base = 0.3, lambda R: 0.8 * math.sqrt(R) if math.isfinite(R) else 1.0
    else:
        low, base = 0.05, lambda R: 0.9 * min(R, 10.0)
    states = _seed_states([[config.seed, family_index, i] for i in indices])
    out = []
    for index, fraction, seed in zip(indices, *_fractions_and_seeds(_pcg64_draws(states, 2), low)):
        f = lookup(config.series_names[index % len(config.series_names)])
        out.append((f, InstanceSpec(
            seed=seed,
            family=family,
            dim=config.dims[index // len(config.series_names) % len(config.dims)],
            norm_target=base(f.radius) * fraction,
        )))
    return out


def _trials(config: SweepConfig, family: str, family_index: int,
            indices: Sequence[int]) -> tuple[str, tuple]:
    """The `report_piece` of the trials `indices` of one family. Each trial
    is drawn from its own stream, every trial's draws in one
    `_trial_specs` pass; then the trials of each dimension are generated,
    factored and solved as one stack, and the chunk's oracles and bound
    rows come from one `oracle_radii` and one `evaluate` call, judged as
    one `Judged` stack. A failing trial raises what it would raise alone, as
    a chunk of one trial; the first in index order wins. A pair of a
    commuting family that fails the commutator test raises
    GenerationFailure; a generic pair gets the commuting rows Unavailable,
    as `bound` does."""
    trials = _trial_specs(config, family, family_index, indices)
    groups: dict[int, list[int]] = {}  # dim -> positions in `trials`
    for k, (_, spec) in enumerate(trials):
        groups.setdefault(spec.dim, []).append(k)
    filled: list = [None] * len(trials)
    for ks in groups.values():
        for k, v in zip(ks, invariants(*_generate([trials[k][1] for k in ks]))):
            filled[k] = v
    fs = [f for (f, _), v in zip(trials, filled) if not isinstance(v, NormOverflow)]
    vs = [v for v in filled if not isinstance(v, NormOverflow)]
    table = evaluate(fs, vs, config.tol)
    found = oracle_radii(fs, vs, config.tol)
    checked = zip(table.errors, found)  # one of each per trial in `vs`
    for (_, spec), v in zip(trials, filled):
        if isinstance(v, NormOverflow):
            raise v
        error, oracles = next(checked)
        if error is not None:
            raise error
        if family in FAMILIES_PAIR and not v.commuting:
            raise GenerationFailure(
                f"{spec} is not a commuting pair "
                f"(||AB-BA|| = {v['||AB-BA||']:.6e})"
            )
        if not isinstance(oracles, dict):
            raise oracles
    return report_piece(Judged([spec for _, spec in trials], [f.name for f, _ in trials], found,
                               [row.name for row in table.rows],
                               [row.target for row in table.rows],
                               table.values, table.reasons))


# Trials per sweep chunk: about 33 per dimension's stack at the default
# three dimensions. A fixed cap, not trials / CPUs, bounds what a worker
# stacks: a chunk of n = 64 pairs holds 9 products and a 5-matrix
# eigensolve stack per pair, 92 MB at 100 trials.
_CHUNK_TRIALS = 100


def run_sweep(config: SweepConfig, *extra: Job) -> list:
    """Run every trial of the sweep with `run_jobs`, in chunks of one
    family's trials, each solved as stacks (see `_trials`). Each chunk's
    worker sends back only the chunk's `report_piece`; the pieces come
    back in seed order, followed by the results of the `extra` jobs, run
    after the trials."""
    trials = range(config.trials)
    chunks = [(_trials, (config, family, fi, trials[start:start + _CHUNK_TRIALS]))
              for fi, family in enumerate(config.families)
              for start in trials[::_CHUNK_TRIALS]]
    return run_jobs([*chunks, *extra])


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


def _rows_text(j: Judged) -> str:
    """The `trials.csv` rows of the judged stack `j`, in `_CSV_COLUMNS`
    order, one f-string a row, each string quoted once."""
    quoted = _Quoted()
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


def write_trials_csv(rows: Iterable[str], path: Union[str, Path]) -> None:
    """Write `trials.csv`: the header, then each text of `rows` in turn (the
    rows of a sweep's `report_piece`s), so no copy of the whole report is
    built."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_CSV_COLUMNS) + "\n")
        handle.writelines(rows)


def report_piece(j: Judged) -> tuple[str, tuple]:
    """The reports' part of the judged stack `j`, strings and numbers only:
    (`trials.csv` rows, (trials, violations, {bound: [target, evaluated,
    available, wins, tightness values, worst margin]})), the tallies that
    `summarize_tallies` merges. A bound "wins" a trial when it attains the
    minimum among the available bounds sharing its target quantity (ties
    count for all). Its worst margin is the largest of its `_verdicts`
    margins over the stack, -inf if it was never compared with its oracle."""
    floors: dict[str, np.ndarray] = {}  # target -> least available value of each trial
    for target, values in zip(j.targets, j.values):
        floors[target] = np.fmin(floors.get(target, math.inf), values)
    per_bound = {}
    for name, target, values, ratios, margins in zip(j.names, j.targets, j.values,
                                                     j.tightness, j.margins):
        available = ~np.isnan(values)
        wins = available & (values <= floors[target] * (1.0 + _WIN_TIE_REL))
        per_bound[name] = [target, len(j.specs), int(available.sum()), int(wins.sum()),
                           ratios[~np.isnan(ratios)].tolist(), margins.max().item()]
    return _rows_text(j), (len(j.specs), int(j.violation.sum()), per_bound)


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
    tolerances differ by at most the coarser one's error. Draw i is of
    series i % 2 (exp, geometric) and dimension dims[i // 2 % len(dims)],
    a Ginibre matrix scaled to uniform(0.3, 1.0) times its series' norm
    cap, from the stream default_rng([seed, i, 3]). The draws of one
    dimension are drawn into one stack, scaled and get their `invariants`
    as one stack; each radius is `oracle_radii`'s, the one every trial is
    judged against, from one call per tolerance on every instance."""
    result = CheckResult()
    cauchy_series = [lookup("exp"), lookup("geometric")]
    rngs = _streams([[seed, i, 3] for i in range(trials)])
    drawn: dict[int, list[int]] = {}  # dim -> draws
    for i in range(trials):
        drawn.setdefault(dims[i // 2 % len(dims)], []).append(i)
    fs, vs = [], []
    for n, draws in drawn.items():
        stack = [rngs[i] for i in draws]
        drawn_fs = [cauchy_series[i % 2] for i in draws]
        norm_caps = np.array([1.5 if math.isinf(f.radius) else 0.7 * f.radius for f in drawn_fs])
        G = _ginibres(stack, n)
        fs += drawn_fs
        vs += invariants(_scaled(G, _uniforms(stack, 0.3, 1.0) * norm_caps))
    by_tol = [oracle_radii(fs, vs, t) for t in (1e-3, 1e-5, 1e-7, 1e-9)]
    for oracles in zip(*by_tol):
        radii = [o["f(T)"] for o in oracles]
        for (r_a, err_a), (r_b, _) in itertools.combinations(radii, 2):
            result.record(abs(r_a - r_b) - (err_a + 1e-8))
    return {"truncation-cauchy": result}
