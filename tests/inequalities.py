"""Scalar inequalities the bounds rest on, checked directly by the tests.

The pair corollaries below are not rows of `best_bound`: each is at
least a row it reports, for every companion f_a (`fa`), so it can never
be the strict minimum.

* `holder_geo` >= factor-radius: Hölder's inequality on the coefficients
  of f_a gives f_a(xy) <= f_a(x^p)^(1/p) f_a(y^q)^(1/q) for 1/p + 1/q = 1,
  at x = r(A), y = r(B); at p = 2 it is pair-squares.
* `holder_ratio` >= `holder_geo`: f_a has nonnegative coefficients, so
  it is log-convex, and Hölder's inequality on those coefficients gives
  f_a(x^(1/q) y^(1/p)) <= f_a(x)^(1/q) f_a(y)^(1/p) at x = r(A)^p,
  y = r(B)^q.
* each `*_cs` form >= its row without the suffix, by Cauchy-Schwarz:
  f_a(sqrt(x y)) <= sqrt(f_a(x) f_a(y)).
* `triple_split` >= mixed-split, and each of `relaxed_arms` >= pm-mixed,
  by submultiplicativity: ||AB^2|| <= ||AB|| ||B||, ||AB^2|| <= ||A|| ||B^2||
  and ||A^2B|| <= ||A^2|| ||B||, and f_a is nondecreasing. These hold for
  the norms of one pair, commuting or not, but not for arbitrary numbers.
"""

import math

import numpy as np


def reverse_holder_gap(weights, xs, ys, p):
    """Gap of (sum m|x|^p)(sum m|y|^q) >= (sum m|xy|)(sum m|x|^(p-1)|y|^(q-1)).

    Returns LHS - RHS, which is nonnegative for nonnegative weights and
    p > 1 with 1/p + 1/q = 1. `holder_ratio` rests on this.
    """
    if not (p > 1):
        raise ValueError(f"need p > 1, got {p}")
    q = p / (p - 1.0)
    m = np.asarray(weights, dtype=np.float64)
    if np.any(m < 0):
        raise ValueError("weights must be nonnegative")
    ax = np.abs(np.asarray(xs, dtype=np.complex128))
    ay = np.abs(np.asarray(ys, dtype=np.complex128))
    lhs = float(np.sum(m * ax**p) * np.sum(m * ay**q))
    rhs = float(np.sum(m * ax * ay) * np.sum(m * ax ** (p - 1) * ay ** (q - 1)))
    return lhs - rhs


def holder_geo(fa, rA, rB, p):
    """f_a(r(A)^p)^(1/p) f_a(r(B)^q)^(1/q), 1/p + 1/q = 1: the Hölder form
    of the factor row, pair-squares at p = 2."""
    if not (1 < p < math.inf):
        raise ValueError(f"need 1 < p < inf, got {p}")
    q = p / (p - 1.0)
    return fa(rA**p) ** (1.0 / p) * fa(rB**q) ** (1.0 / q)


def holder_ratio(fa, rA, rB, p):
    """f_a(r(A)^p) f_a(r(B)^q) / f_a(r(A)^(p-1) r(B)^(q-1)); inf (no bound)
    when the denominator vanishes."""
    q = p / (p - 1.0)
    denominator = fa(rA ** (p - 1.0) * rB ** (q - 1.0))
    if denominator == 0.0:
        return math.inf
    return fa(rA**p) * fa(rB**q) / denominator


def norm_split_cs(fa, ab, a2, b2):
    """(1/2)[f_a(||AB||) + sqrt(f_a(||A^2||) f_a(||B^2||))]."""
    return 0.5 * (fa(ab) + math.sqrt(fa(a2) * fa(b2)))


def mixed_split_cs(fa, a, b, ab, ab2, a2b):
    """(1/2) f_a(||AB||) + (1/2) min of sqrt(f_a(||A||) f_a(||AB^2||)) and
    sqrt(f_a(||A^2B||) f_a(||B||))."""
    return 0.5 * fa(ab) + 0.5 * min(math.sqrt(fa(a) * fa(ab2)),
                                    math.sqrt(fa(a2b) * fa(b)))


def triple_split(fa, s):
    """(1/2) f_a(||AB||) + (1/2) min of f_a(sqrt(||A|| ||B|| ||AB||)),
    f_a(||A|| sqrt(||B^2||)) and f_a(sqrt(||A^2||) ||B||), on a pair's
    norms `s`."""
    a, b, ab = s["||A||"], s["||B||"], s["||AB||"]
    return 0.5 * fa(ab) + 0.5 * min(fa(math.sqrt(a * b * ab)),
                                    fa(a * math.sqrt(s["||B^2||"])),
                                    fa(math.sqrt(s["||A^2||"]) * b))


def triple_split_cs(fa, s):
    """(1/2) f_a(||AB||) + (1/2) min of sqrt(f_a(||A|| ||B||) f_a(||AB||)),
    sqrt(f_a(||A||^2) f_a(||B^2||)) and sqrt(f_a(||A^2||) f_a(||B||^2)),
    on a pair's norms `s`: `triple_split`'s Cauchy-Schwarz form."""
    a, b, ab, a2, b2 = (s[k] for k in ("||A||", "||B||", "||AB||", "||A^2||", "||B^2||"))
    return 0.5 * fa(ab) + 0.5 * min(math.sqrt(fa(a * b) * fa(ab)),
                                    math.sqrt(fa(a**2) * fa(b2)),
                                    math.sqrt(fa(a2) * fa(b**2)))


def relaxed_arms(s):
    """||AB|| + sqrt(||A|| ||B|| ||AB||) and ||AB|| + the smaller of
    ||A|| sqrt(||B^2||) and sqrt(||A^2||) ||B||, on a pair's norms `s`:
    each is at least pm-mixed, ||AB|| + the smaller mixed arm."""
    a, b, ab = s["||A||"], s["||B||"], s["||AB||"]
    return (ab + math.sqrt(a * b * ab),
            ab + min(a * math.sqrt(s["||B^2||"]), math.sqrt(s["||A^2||"]) * b))


# Each norm-averaged row's Cauchy-Schwarz form, as a function of f_a and
# that row's intermediates.
CS_FORMS = {
    "norm-split": lambda fa, s: norm_split_cs(
        fa, s["||AB||"], s["||A^2||"], s["||B^2||"]),
    "mixed-split": lambda fa, s: mixed_split_cs(
        fa, s["||A||"], s["||B||"], s["||AB||"], s["||AB^2||"], s["||A^2B||"]),
}
