"""The three benchmark workloads and their seeded inputs.

Each workload turns a numpy Generator and a work directory into a list of
operations. An operation is one in-process `specbound` command line; the
program sees only these arguments and the matrix files written here. The
matrices come from the benchmark's own generators, which mirror the
harness families, so a change to the program's generators cannot change
the inputs.

Operations run in list order and the list repeats, so every prefix of
the list should already be a fair mix of the workload.

Each workload also has a reference kernel: numpy and json work of the
same kind as the workload's hot path, on fixed inputs, that runs no
specbound code. The benchmark times it around every operation to follow
the host's speed, which on a shared machine drifts by a third or more
within minutes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Families of specbound.harness, by the names the harness uses.
SINGLE_FAMILIES = ("hermitian", "unitary-conjugated-jordan", "nilpotent",
                   "dense-random")
PAIR_FAMILIES = ("commuting-polynomial-pair", "commuting-triangular-pair")
NEAR_RADIUS_SERIES = ("geometric", "log-resolvent", "artanh")
NEAR_RADIUS_NORMS = (0.9, 0.995)  # range of ||T|| in bound-near-radius
# Reference inputs are the same for every --seed, so the kernel's cost is too.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str    # "verify" or "bound": selects the output check
    out: Path    # report file ("bound") or report directory ("verify")


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _scaled(M: np.ndarray, norm: float) -> np.ndarray:
    return M * (norm / np.linalg.norm(M, 2))


def _horner(coeffs: np.ndarray, M: np.ndarray) -> np.ndarray:
    eye = np.eye(M.shape[0], dtype=np.complex128)
    S = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        S = c * eye + M @ S
    return S


def single_matrix(rng: np.random.Generator, family: str, n: int, norm: float) -> np.ndarray:
    """One matrix of a non-diagonal harness family with operator norm `norm`."""
    if family == "hermitian":
        G = _ginibre(rng, n)
        return _scaled((G + G.conj().T) / 2.0, norm)
    if family == "unitary-conjugated-jordan":
        radii = rng.uniform(0.4, 1.0, n)
        angles = 2.0 * math.pi * (np.arange(n) + rng.uniform()) / n
        D = np.diag(radii * np.exp(1j * angles))
        coupling = rng.uniform(2.0, 4.0)
        for j in range(0, n - 1, 2):
            D[j, j + 1] = coupling
        U = _haar_unitary(rng, n)
        return _scaled(U @ D @ U.conj().T, norm)
    if family == "nilpotent":
        return _scaled(np.triu(_ginibre(rng, n), 1), norm)
    if family == "dense-random":
        return _scaled(_ginibre(rng, n), norm)
    raise ValueError(f"unknown family {family!r}")


def commuting_pair(rng: np.random.Generator, family: str, n: int,
                   norm: float) -> tuple[np.ndarray, np.ndarray]:
    """(p(M), q(M)) for a dense M, or two diagonals under one unitary."""
    if family == "commuting-polynomial-pair":
        M = _scaled(_ginibre(rng, n), 1.0)
        A = _horner(rng.standard_normal(4) + 1j * rng.standard_normal(4), M)
        B = _horner(rng.standard_normal(4) + 1j * rng.standard_normal(4), M)
    elif family == "commuting-triangular-pair":
        U = _haar_unitary(rng, n)
        da, db = (
            rng.uniform(0.2, 1.0, n) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
            for _ in range(2)
        )
        A = U @ np.diag(da) @ U.conj().T
        B = U @ np.diag(db) @ U.conj().T
    else:
        raise ValueError(f"unknown pair family {family!r}")
    return _scaled(A, norm), _scaled(B, norm)


def write_matrix(path: Path, T: np.ndarray) -> str:
    """The program's matrix file format: {"dim": n, "entries": [[re, im], ...]}."""
    entries = [[float(z.real), float(z.imag)] for z in T.ravel()]
    path.write_text(json.dumps({"dim": T.shape[0], "entries": entries}) + "\n",
                    encoding="utf-8")
    return str(path)


def verify_default(rng: np.random.Generator, workdir: Path, trials: int = 200,
                   seeds: int = 3) -> list[Op]:
    """`verify` with its default series, families and dims, over a few seeds."""
    ops = []
    for i in range(seeds):
        out = workdir / f"verify-{i}"
        seed = str(int(rng.integers(2**31)))
        ops.append(Op(("verify", "--trials", str(trials), "--seed", seed,
                       "--out", str(out)), "verify", out))
    return ops


def bound_pair_large(rng: np.random.Generator, workdir: Path, n: int = 128,
                     pairs: int = 4) -> list[Op]:
    """exp on commuting pairs at size n; the two pair families alternate.

    Factor norms are drawn like verify's for exp: uniform in [0.3, 1.0].
    """
    ops = []
    for i in range(pairs):
        family = PAIR_FAMILIES[i % len(PAIR_FAMILIES)]
        A, B = commuting_pair(rng, family, n, float(rng.uniform(0.3, 1.0)))
        a = write_matrix(workdir / f"pair-{i}-A.mat", A)
        b = write_matrix(workdir / f"pair-{i}-B.mat", B)
        ops.append(Op(("bound", "--series", "exp", "--format", "structured",
                       "--matrix", a, "--matrix", b,
                       "--out", str(workdir / f"pair-{i}.json")),
                      "bound", workdir / f"pair-{i}.json"))
    return ops


def bound_near_radius(rng: np.random.Generator, workdir: Path, n: int = 32,
                      count: int = 72) -> list[Op]:
    """Single-matrix bounds with ||T|| uniform in NEAR_RADIUS_NORMS, near radius 1.

    Series cycle fastest, then families. Each series gets its norms by
    stratified sampling (one uniform draw per equal-width stratum, strata
    in random order), so the cost mix is nearly the same for every seed.
    """
    low, high = NEAR_RADIUS_NORMS
    per_series = math.ceil(count / len(NEAR_RADIUS_SERIES))
    strata = [rng.permutation(per_series) for _ in NEAR_RADIUS_SERIES]
    ops = []
    for i in range(count):
        s, j = i % len(NEAR_RADIUS_SERIES), i // len(NEAR_RADIUS_SERIES)
        family = SINGLE_FAMILIES[j % len(SINGLE_FAMILIES)]
        norm = low + (high - low) * (strata[s][j] + rng.uniform()) / per_series
        path = write_matrix(workdir / f"near-{i}.mat",
                            single_matrix(rng, family, n, float(norm)))
        out = workdir / f"near-{i}.json"
        ops.append(Op(("bound", "--series", NEAR_RADIUS_SERIES[s],
                       "--format", "structured", "--matrix", path,
                       "--out", str(out)), "bound", out))
    return ops


def verify_reference():
    """Small-matrix norms, eigensolves and products, as in verify's trials."""
    rng = np.random.default_rng(REFERENCE_SEED)
    mats = [_ginibre(rng, n) for n in (2, 4, 8) for _ in range(20)]

    def kernel():
        for M in mats:
            np.linalg.norm(M, 2)
            np.linalg.eigvals(M)
            M @ M
    return kernel


def pair_reference():
    """One n = 128 SVD and eigensolve: the LAPACK work of a pair bound."""
    M = _ginibre(np.random.default_rng(REFERENCE_SEED), 128)

    def kernel():
        np.linalg.svd(M, compute_uv=False)
        np.linalg.eigvals(M)
    return kernel


def near_radius_reference():
    """Parse one n = 32 matrix file and run 60 Horner steps on it."""
    M = _ginibre(np.random.default_rng(REFERENCE_SEED), 32) / 40.0
    text = json.dumps({"dim": 32, "entries": [[z.real, z.imag] for z in M.ravel()]})
    eye = np.eye(32, dtype=np.complex128)

    def kernel():
        json.loads(text)
        S = eye
        for _ in range(60):
            S = M @ S + eye
    return kernel


# name -> (input generator, operations per traced pass or None for all of
# them, reference kernel factory)
WORKLOADS = {
    "verify-default": (verify_default, 1, verify_reference),
    "bound-pair-large": (bound_pair_large, None, pair_reference),
    "bound-near-radius": (bound_near_radius, None, near_radius_reference),
}
