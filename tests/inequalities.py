"""Scalar inequalities the bounds rest on, checked directly by the tests."""

import numpy as np

from specbound import BadExponent


def reverse_holder_gap(weights, xs, ys, p):
    """Gap of (sum m|x|^p)(sum m|y|^q) >= (sum m|xy|)(sum m|x|^(p-1)|y|^(q-1)).

    Returns LHS - RHS, which is nonnegative for nonnegative weights and
    p > 1 with 1/p + 1/q = 1. The ratio-form pair bound rests on this.
    """
    if not (p > 1):
        raise BadExponent(f"need p > 1, got {p}")
    q = p / (p - 1.0)
    m = np.asarray(weights, dtype=np.float64)
    if np.any(m < 0):
        raise ValueError("weights must be nonnegative")
    ax = np.abs(np.asarray(xs, dtype=np.complex128))
    ay = np.abs(np.asarray(ys, dtype=np.complex128))
    lhs = float(np.sum(m * ax**p) * np.sum(m * ay**q))
    rhs = float(np.sum(m * ax * ay) * np.sum(m * ax ** (p - 1) * ay ** (q - 1)))
    return lhs - rhs
