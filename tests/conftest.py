"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import specbound.bounds as bounds_mod
import specbound.harness as harness_mod
import specbound.matrices as matrices_mod


@pytest.fixture
def lapack_work(monkeypatch):
    """Count the package's SVD and eigensolve work: "svd" and "eig" count
    matrices (k for a (k, n, n) stack, 1 for one matrix), "svd_calls" and
    "eig_calls" count calls. Every operator norm and spectral radius goes
    through `operator_norms` or `spectral_radii`."""
    work = {"svd": 0, "svd_calls": 0, "eig": 0, "eig_calls": 0}

    def counted(kind, fn):
        def wrapper(S):
            work[kind] += int(np.prod(np.shape(S)[:-2]))
            work[f"{kind}_calls"] += 1
            return fn(S)
        return wrapper

    for kind, name in (("svd", "operator_norms"), ("eig", "spectral_radii")):
        wrapper = counted(kind, getattr(matrices_mod, name))
        for mod in (bounds_mod, harness_mod, matrices_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    return work
