"""Dense complex matrices: eigenvalues and operator norms of stacks.

Matrices are plain numpy arrays (complex128, square). `as_matrix` is the
validating constructor; the file format is a JSON document with fields
`dim` and `entries` (row-major [re, im] pairs) that round-trips floats
exactly through repr.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DimMismatch, EigenFailure

Matrix = np.ndarray

# Relative tolerance and absolute floor of the commutator test `commutes`.
_COMMUTE_REL_TOL = 1e-10
_COMMUTE_FLOOR = 1e-300


def as_matrix(entries) -> Matrix:
    """Validate and return a square complex matrix (n >= 1, finite)."""
    T = np.array(entries, dtype=np.complex128)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("matrix entries must be finite")
    return T


def eigenvalues(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of a (..., n, n) stack, as (..., n), one eigensolve."""
    try:
        return np.linalg.eigvals(np.asarray(S, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue solve failed: {exc}") from exc


def operator_norms(S: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., n, n) stack, one SVD."""
    try:
        return np.linalg.svd(np.asarray(S, dtype=np.complex128), compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"singular value solve failed: {exc}") from exc


def commutes(cnorm: float, nA: float, nB: float) -> bool:
    """Commutator test on given norms: ||AB-BA|| <= tol (||A|| ||B|| + floor)."""
    return cnorm <= _COMMUTE_REL_TOL * (nA * nB + _COMMUTE_FLOOR)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def format_matrix(T: Matrix) -> str:
    """Serialize to the JSON document {dim, entries: [[re, im], ...]}."""
    T = np.asarray(T, dtype=np.complex128)
    entries = [[float(z.real), float(z.imag)] for z in T.ravel()]
    return json.dumps({"dim": int(T.shape[0]), "entries": entries})


def parse_matrix(text: str) -> Matrix:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("the matrix document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("dim", "entries") if key not in doc]
    if missing:
        raise ValueError(f"the matrix document has no {' or '.join(missing)} field")
    dim, entries = doc["dim"], doc["entries"]
    if type(dim) is not int or dim < 1:  # a JSON true is a bool, not a dim
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {type(entries).__name__}")
    if len(entries) != dim * dim:
        raise ValueError(
            f"expected {dim * dim} entries for dim {dim}, got {len(entries)}"
        )
    try:
        if bool in map(type, itertools.chain.from_iterable(entries)):
            raise TypeError("a JSON boolean is not a number")
        flat = [complex(re, im) for re, im in entries]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entries must be [re, im] number pairs: {exc}") from exc
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(dim, dim))


def save_matrix(path: Union[str, Path], T: Matrix) -> None:
    Path(path).write_text(format_matrix(T) + "\n", encoding="utf-8")


def load_matrix(path: Union[str, Path]) -> Matrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))
