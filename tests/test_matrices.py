"""Spectral radius, operator norm, the tests' matrix series reference, and
the file format."""

import math

import mpmath as mp
import numpy as np
import pytest

from specbound import (
    DimMismatch,
    NormOverflow,
    OutOfDisk,
    as_matrix,
    from_coefficients,
    load_matrix,
    lookup,
    oracle_radii,
    save_matrix,
)
from specbound.bounds import invariants
from specbound.matrices import operator_norms
from textbook import (certified_truncation, coeff, gelfand_sequence, matrix_partial_sum,
                      operator_norm, spectral_radii, spectral_radius)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_complex(seed, n):
    g = rng(seed)
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Construction and file format
# ---------------------------------------------------------------------------


def test_as_matrix_validates_shape():
    with pytest.raises(DimMismatch):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimMismatch):
        as_matrix([1, 2, 3])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, math.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, complex(0, math.inf)], [0.0, 1.0]])


def test_file_round_trip_is_exact(tmp_path):
    T = random_complex(11, 5)
    path = tmp_path / "m.mat"
    save_matrix(path, T)
    back = load_matrix(path)
    assert np.array_equal(T, back)


def test_load_rejects_malformed_documents(tmp_path):
    bad_len = tmp_path / "bad.mat"
    bad_len.write_text('{"dim": 2, "entries": [[1, 0]]}')
    with pytest.raises(ValueError):
        load_matrix(bad_len)
    bad_dim = tmp_path / "bad2.mat"
    bad_dim.write_text('{"dim": 0, "entries": []}')
    with pytest.raises(ValueError):
        load_matrix(bad_dim)
    for entries in ('[["1", 0]]', '[[null, 0]]', '[5]', '[[1%s, 0]]' % ("0" * 400),
                    '[[true, false]]', '[[0.5, false]]'):
        bad_entry = tmp_path / "bad3.mat"
        bad_entry.write_text('{"dim": 1, "entries": %s}' % entries)
        with pytest.raises(ValueError):
            load_matrix(bad_entry)
    for text, match in (('[1]', "JSON object"), ('{"dim": 1, "entries": 5}', "list"),
                        ('"x"', "JSON object"),
                        ('{"dim": true, "entries": [[0.5, 0]]}', "dim must be"),
                        ('{"entries": [[1, 0]]}', "no dim field"),
                        ('{"dim": 1}', "no entries field")):
        bad_doc = tmp_path / "bad4.mat"
        bad_doc.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_matrix(bad_doc)


def test_load_rejects_a_deeply_nested_document(tmp_path):
    # json.loads raises RecursionError on it, which is not a malformed-input error.
    deep = tmp_path / "deep.mat"
    deep.write_text('{"dim": 1, "entries": %s%s}' % ("[" * 200000, "]" * 200000))
    with pytest.raises(ValueError, match="nested too deeply"):
        load_matrix(deep)


# ---------------------------------------------------------------------------
# Spectral radius and operator norm
# ---------------------------------------------------------------------------


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0)


def test_spectral_radius_nilpotent():
    assert spectral_radius(as_matrix([[0, 4], [0, 0]])) == 0.0


def test_spectral_radius_rotation():
    assert spectral_radius(as_matrix([[0, 1], [-1, 0]])) == pytest.approx(1.0)


def test_operator_norm_examples():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert operator_norm(as_matrix([[0, 4], [0, 0]])) == pytest.approx(4.0)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
def test_stacked_norms_and_radii_are_bit_identical(n):
    # Each entry of a stacked call equals the one-matrix call and the
    # textbook formula exactly; the stack holds a zero and a nilpotent matrix.
    g = rng(n)
    S = g.standard_normal((6, n, n)) + 1j * g.standard_normal((6, n, n))
    S[1] = 0
    S[2] = np.triu(S[2], 1)
    norms, radii = operator_norms(S), spectral_radii(S)
    assert norms.shape == radii.shape == (6,)
    for i, T in enumerate(S):
        assert norms[i] == operator_norm(T) == np.linalg.norm(T, 2)
        assert radii[i] == spectral_radius(T) == np.abs(np.linalg.eigvals(T)).max()
    assert norms[1] == radii[1] == 0.0 and radii[2] == 0.0


def test_radius_never_exceeds_norm():
    for seed in range(20):
        T = random_complex(seed, 6)
        assert spectral_radius(T) <= operator_norm(T) + 1e-10


def test_spectral_mapping_for_powers():
    for seed in range(10):
        T = random_complex(seed, 5)
        T /= operator_norm(T)
        r = spectral_radius(T)
        for m in range(2, 6):
            rm = spectral_radius(np.linalg.matrix_power(T, m))
            assert abs(rm - r**m) <= 1e-8 * max(1.0, r**m)


def test_product_radius_symmetric():
    for seed in range(10):
        A = random_complex(seed, 4)
        B = random_complex(seed + 100, 4)
        rab = spectral_radius(A @ B)
        assert abs(rab - spectral_radius(B @ A)) <= 1e-8 * max(1.0, rab)


def test_normal_matrices_attain_the_norm():
    g = rng(42)
    H = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
    H = (H + H.conj().T) / 2
    assert abs(spectral_radius(H) - operator_norm(H)) <= 1e-10


# ---------------------------------------------------------------------------
# Norm-root (repeated squaring) sequence
# ---------------------------------------------------------------------------


def test_norm_root_sequence_constant_for_scalar():
    assert gelfand_sequence(np.diag([0.5]), 3) == pytest.approx([0.5] * 4)


def test_norm_root_sequence_nilpotent():
    g = gelfand_sequence(as_matrix([[0, 1], [0, 0]]), 2)
    assert g == pytest.approx([1.0, 0.0, 0.0])


def test_norm_root_sequence_decreases_toward_radius():
    # spectrum placed at radius 0.7 under a non-unitary similarity
    g = rng(3)
    D = np.diag(0.7 * np.exp(2j * math.pi * g.uniform(0, 1, 6)))
    V = np.eye(6) + 0.5 * np.triu(g.standard_normal((6, 6)), 1)
    T = V @ D @ np.linalg.inv(V)
    r = spectral_radius(T)
    assert r == pytest.approx(0.7, abs=1e-8)
    seq = gelfand_sequence(T, 6)
    for a, b in zip(seq, seq[1:]):
        assert b <= a + 1e-10
    for gk in seq:
        assert gk >= r - 1e-8
    assert seq[-1] == pytest.approx(r, abs=0.05)


def test_norm_root_sequence_overflow_guard():
    with pytest.raises(NormOverflow):
        gelfand_sequence(10.0 * np.eye(2), 12)


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


def test_polynomials_of_same_matrix_commute():
    M = random_complex(5, 4)
    A = 0.3 * M @ M + M + np.eye(4)
    B = M @ M @ M - 2.0 * M
    (v,) = invariants(A[None], B[None])
    assert v["||AB-BA||"] <= 1e-12 * operator_norm(A) * operator_norm(B)
    assert v.commuting


def test_shift_pair_commutator():
    A = as_matrix([[0, 1], [0, 0]])
    B = as_matrix([[0, 0], [1, 0]])
    (v,) = invariants(A[None], B[None])
    assert v["||AB-BA||"] == pytest.approx(1.0)
    assert not v.commuting


def test_self_commutator_is_zero():
    A = random_complex(9, 3)
    assert invariants(A[None], A[None])[0]["||AB-BA||"] == 0.0


def test_commutator_dim_mismatch():
    with pytest.raises(DimMismatch):
        invariants(np.eye(2)[None], np.eye(3)[None])


# ---------------------------------------------------------------------------
# Matrix series evaluation
# ---------------------------------------------------------------------------


def test_series_of_zero_matrix_is_identity_coefficient():
    f = lookup("exp")
    value, tail = certified_truncation(f, np.zeros((2, 2)), 1e-12)
    assert np.allclose(value, np.eye(2), atol=1e-14)
    assert tail <= 1e-12


def test_geometric_series_of_nilpotent_matches_resolvent():
    f = lookup("geometric")
    T = as_matrix([[0, 0.5], [0, 0]])
    value, _ = certified_truncation(f, T, 1e-10)
    expected = np.linalg.inv(np.eye(2) - T)
    assert np.array_equal(value, np.eye(2) + T)
    assert np.allclose(value, expected, atol=1e-14)


def test_exp_of_nilpotent():
    # two terms of the series are exact here: I + T
    f = lookup("exp")
    T = as_matrix([[0, 1], [0, 0]])
    value, _ = certified_truncation(f, T, 1e-12)
    assert np.allclose(value, [[1, 1], [0, 1]], atol=1e-12)


def test_series_rejects_norm_outside_disk():
    f = lookup("geometric")
    with pytest.raises(OutOfDisk):
        certified_truncation(f, np.diag([1.5, 0.1]), 1e-10)


def test_truncation_certificate_consistency():
    # two evaluations at different tolerances differ by at most the
    # combined certified remainders (plus an ulp-level cushion)
    f = lookup("log-resolvent")
    T = 0.8 * random_complex(17, 4) / operator_norm(random_complex(17, 4))
    tol = 1e-8
    a, _ = certified_truncation(f, T, tol)
    b, _ = certified_truncation(f, T, tol / 10)
    assert operator_norm(a - b) <= 1.1 * (tol + tol / 10)


# The tests' reference S_m(T), which the oracle is compared with, checked
# on its own.


def test_partial_sum_matches_direct_powers():
    f = lookup("exp")
    T = 0.5 * random_complex(23, 3)
    direct = sum(
        coeff(f, j) * np.linalg.matrix_power(T, j) for j in range(6)
    )
    assert np.allclose(matrix_partial_sum(f, T, 5), direct, atol=1e-13)


def _complex_poly(seed, degree):
    g = rng(seed)
    return from_coefficients(g.standard_normal(degree + 1)
                             + 1j * g.standard_normal(degree + 1))


_PS_ORDERS = (0, 1, 2, 3, 4, 8, 9, 15, 16, 17, 63, 64, 65, 200)


@pytest.fixture(scope="module")
def ps_reference():
    """A non-normal complex T (n = 4, ||T|| = 1.1), a complex polynomial of
    degree 200, and its partial sums in 40-digit arithmetic."""
    T = np.triu(random_complex(43, 4), 1) * 2.0 + random_complex(44, 4)
    T *= 1.1 / operator_norm(T)
    f = _complex_poly(45, max(_PS_ORDERS))
    with mp.workdps(40):
        Tm, P = mp.matrix(T.tolist()), mp.eye(4)
        S, sums = mp.zeros(4, 4), []
        for k in range(max(_PS_ORDERS) + 1):
            S += mp.mpc(coeff(f, k)) * P
            sums.append(np.array(S.tolist(), dtype=np.complex128))
            P = P * Tm
    return f, T, sums


@pytest.mark.parametrize("m", _PS_ORDERS)
def test_partial_sum_matches_mpmath(ps_reference, m):
    # Rounding error of Horner's form: a small multiple of u sum |a_k| ||T||^k.
    f, T, sums = ps_reference
    majorant = sum(abs(coeff(f, k)) * operator_norm(T) ** k for k in range(m + 1))
    err = operator_norm(matrix_partial_sum(f, T, m) - sums[m])
    assert err <= 1e-13 * majorant


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_exp_of_diagonal():
    f = lookup("exp")
    value = oracle_radii([f], invariants(np.diag([0.5, 0.2])[None]), 1e-10)[0]["f(T)"][0]
    assert value == pytest.approx(math.exp(0.5), abs=1e-10)


def test_oracle_geometric_of_nilpotent():
    f = lookup("geometric")
    T = as_matrix([[0, 0.5], [0, 0]])
    value = oracle_radii([f], invariants(T[None]), 1e-10)[0]["f(T)"][0]
    assert value == pytest.approx(1.0, abs=1e-12)


def test_oracle_log_resolvent_below_scalar_bound():
    f = lookup("log-resolvent")
    G = random_complex(31, 4)
    T = 0.8 * G / operator_norm(G)
    tol = 1e-10
    value = oracle_radii([f], invariants(T[None]), tol)[0]["f(T)"][0]
    r = spectral_radius(T)
    assert value <= -math.log1p(-r) + tol + 1e-10
