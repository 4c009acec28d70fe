"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import specbound.bounds as bounds_mod
import specbound.harness as harness_mod
import specbound.matrices as matrices_mod


@pytest.fixture
def lapack_work(monkeypatch):
    """Count the package's SVD, eigensolve and QR work: "svd", "eig" and
    "qr" count matrices (k for a (k, n, n) stack, 1 for one matrix),
    "svd_calls", "eig_calls" and "qr_calls" count calls. Every operator
    norm goes through `operator_norms`, every eigensolve through
    `eigenvalues`, and every QR (the Haar unitaries') through
    `np.linalg.qr`. The "qr" keys appear with the first QR call."""
    work = {"svd": 0, "svd_calls": 0, "eig": 0, "eig_calls": 0}

    def counted(kind, fn):
        def wrapper(S):
            work[kind] = work.get(kind, 0) + int(np.prod(np.shape(S)[:-2]))
            work[f"{kind}_calls"] = work.get(f"{kind}_calls", 0) + 1
            return fn(S)
        return wrapper

    for kind, name in (("svd", "operator_norms"), ("eig", "eigenvalues")):
        wrapper = counted(kind, getattr(matrices_mod, name))
        for mod in (bounds_mod, harness_mod, matrices_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    return work


@pytest.fixture
def non_commuting_pairs(monkeypatch):
    """Call with {spec: scale} (by default every pair at scale 1): the
    instance generator then gives each of those pairs as (scale J, scale J^T),
    J the upper shift. They do not commute at n >= 2, and at scale 1e200
    their products are not finite. A pair of matrices (A, B) given in place
    of a scale is that spec's pair. The fork carries the patch into the
    workers."""
    generate = harness_mod._generate

    def patch(scales=None):
        def patched(batch):
            stacks = generate(batch)
            for k, spec in enumerate(batch):
                scale = 1.0 if scales is None else scales.get(spec)
                if len(stacks) == 2 and isinstance(scale, tuple):
                    stacks[0][k], stacks[1][k] = scale
                elif len(stacks) == 2 and scale is not None:
                    J = scale * np.eye(spec.dim, k=1, dtype=complex)
                    stacks[0][k], stacks[1][k] = J, J.T
            return stacks
        monkeypatch.setattr(harness_mod, "_generate", patched)

    return patch
