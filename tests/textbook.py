"""Textbook facts about spectral radii and operator norms, checked on the
harness's random instances, and the certified matrix truncation S_m(T),
by Horner's rule on matrices, as a reference for the oracle's spectral
mapping that shares no code with it.

These checks exercise LAPACK and the instance generators rather than any
bound of the package, so they run in the test suite, not in `verify`.
"""

import math
from typing import Sequence

import numpy as np

from inequalities import relaxed_arms
from specbound import NormOverflow, from_coefficients, operator_norm
from specbound.bounds import _PM_ROWS, _evaluate, invariants
from specbound.harness import (
    FAMILIES_SINGLE,
    CheckResult,
    InstanceSpec,
    _ginibre,
    _haar_unitary,
    _scaled,
    gen_matrix,
)
from specbound.matrices import operator_norms, spectral_radii
from specbound.series import DEFAULT_MAX_TERMS, DEFAULT_TOL, _order_and_tail

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
    """pm-mixed is at most each of its `relaxed_arms`, computed from the
    row's own intermediates, on the pairs of `run_pm_checks` (the same
    [seed, i, 4] stream). This is submultiplicativity of LAPACK's norms."""
    result = CheckResult()
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 4])
        n = dims[i % len(dims)]
        A = _scaled(_ginibre(rng, n), float(rng.uniform(0.2, 2.0)))
        B = _scaled(_ginibre(rng, n), float(rng.uniform(0.2, 2.0)))
        mixed = _evaluate(_PM_ROWS[1], None, invariants(A[None], B[None])[0], 0.0, {})
        for arm in relaxed_arms(mixed.intermediates):
            result.record(mixed.value - arm - 1e-10 * max(1.0, arm))
    return {"pm-mixed-chain": result}
