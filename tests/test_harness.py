"""Instance generation, sweeps, the job runner, and report determinism."""

import csv
import io
import math
import multiprocessing
import os
import pickle
import signal
import statistics
import subprocess
import sys

import numpy as np
import pytest

import specbound.harness as harness_mod
from specbound import (
    FAMILIES_PAIR,
    BoundResult,
    FAMILIES_SINGLE,
    GenerationFailure,
    InstanceSpec,
    NoConvergence,
    NormOverflow,
    SpecboundError,
    SweepConfig,
    UnknownFamily,
    best_bound,
    from_coefficients,
    gen_commuting_pair,
    gen_matrix,
    lookup,
    run_sweep,
    write_trials_csv,
)
from specbound.bounds import _COMMUTING_ROWS, invariants
from specbound.harness import (
    _SLACK_REL,
    FAMILIES_GENERIC,
    CheckResult,
    Judged,
    _cubic,
    _haar_unitary,
    _judged,
    _generate,
    _scaled,
    _trial_specs,
    _trials,
    oracle_radii,
    report_piece,
    run_jobs,
    run_limit_checks,
    summarize_tallies,
)
from specbound.series import DEFAULT_MAX_TERMS, DEFAULT_TOL, _order_and_tail, partial_sums
from textbook import (certified_truncation, ginibre, matrix_partial_sum, operator_norm,
                      partial_sums_alone, read_rows, row_spec, run_identity_checks,
                      run_limit_laws, run_mixed_chain, spectral_radius, sweep_reports,
                      trial_rows, trial_spec_alone, truncation_order)


def spec(family, seed=1, dim=4, target=0.8):
    return InstanceSpec(seed=seed, family=family, dim=dim, norm_target=target)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES_SINGLE)
def test_single_families_hit_norm_target(family):
    T = gen_matrix(spec(family))
    assert T.shape == (4, 4)
    assert operator_norm(T) == pytest.approx(0.8, rel=1e-12)


def test_scaled_scales_each_matrix_of_a_stack_and_leaves_zero_ones():
    G = ginibre(np.random.default_rng(0), 3)
    S = _scaled(np.stack((G, 0 * G, 2 * G)), np.array([0.5, 0.7, 0.9]))
    assert S[0].tobytes() == (G * (0.5 / operator_norm(G))).tobytes()
    assert [operator_norm(M) for M in S] == pytest.approx([0.5, 0.0, 0.9])
    assert np.array_equal(_scaled(np.zeros((1, 1), complex), 0.5), [[0]])


def test_diagonal_positive_structure():
    T = gen_matrix(spec("diagonal-positive", seed=3, dim=3, target=0.9))
    assert np.allclose(T, np.diag(np.diagonal(T)))
    d = np.diagonal(T).real
    assert (d > 0).all()
    assert d.max() == pytest.approx(0.9)


def test_nilpotent_structure():
    T = gen_matrix(spec("nilpotent", seed=5, dim=2, target=0.5))
    assert np.allclose(np.tril(T), 0)
    assert spectral_radius(T) == 0.0


def test_generator_determinism():
    a = gen_matrix(spec("dense-random", seed=11))
    b = gen_matrix(spec("dense-random", seed=11))
    assert np.array_equal(a, b)
    c = gen_matrix(spec("dense-random", seed=12))
    assert not np.array_equal(a, c)


def drawn_alone(s):
    """The matrices of instance `s` built alone, each value drawn from the
    instance's own stream in the order written here."""
    rng = np.random.default_rng(np.random.PCG64(s.seed))
    n, t = s.dim, s.norm_target

    def haar():
        return _haar_unitary(ginibre(rng, n))

    if s.family == "diagonal-positive":
        d = rng.uniform(0.05, 1.0, n)
        return [np.diag(d * (t / d.max())).astype(complex)]
    if s.family == "hermitian":
        G = ginibre(rng, n)
        X = [(G + G.conj().T) / 2.0]
    elif s.family == "unitary-conjugated-jordan":
        radii = rng.uniform(0.4, 1.0, n)
        angles = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 1.0)) / n
        D = np.diag(radii * np.exp(1j * angles))
        D[range(0, n - 1, 2), range(1, n, 2)] = rng.uniform(2.0, 4.0)  # drawn at n = 1 too
        U = haar()
        X = [U @ D @ U.conj().T]
    elif s.family == "nilpotent":
        X = [np.triu(ginibre(rng, n), 1)]
    elif s.family == "dense-random":
        X = [ginibre(rng, n)]
    elif s.family == "commuting-polynomial-pair":
        M = _scaled(ginibre(rng, n), 1.0)
        X = [_cubic((rng.standard_normal(4) + 1j * rng.standard_normal(4))[None], M[None])[0]
             for _ in "ab"]
    elif s.family == "commuting-triangular-pair":
        U = haar()
        X = [U @ np.diag(rng.uniform(0.2, 1.0, n)
                         * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))) @ U.conj().T
             for _ in "ab"]
    else:
        assert s.family == "generic-pair"
        X = [ginibre(rng, n), ginibre(rng, n)]
    return [_scaled(M, t) for M in X]


@pytest.mark.parametrize("family", FAMILIES_SINGLE + FAMILIES_PAIR + FAMILIES_GENERIC)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_generated_stacks_match_each_instance_drawn_alone(family, n):
    # A pin on the draws: a changed draw order or stacking changes the bits.
    specs = [spec(family, seed=seed, dim=n, target=target)
             for seed, target in ((3, 0.3), (17, 0.8), (2**62 + 5, 1.7))]
    stacks = _generate(specs)
    for k, s in enumerate(specs):
        assert [S[k].tobytes() for S in stacks] == [M.tobytes() for M in drawn_alone(s)], s


# Entropies of 1 to 5 words: trailing zero words inside the 4-word pool,
# both sides of 2^32 and 2^64, and [2**100, 3, 5], whose words past the
# pool are mixed in by SeedSequence's last loop.
_ENTROPIES = [0, [0], [7, 0, 0], [7], 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1, [2**100, 3, 5]]


def test_streams_are_numpys_default_rng_streams_bit_for_bit():
    entropies = _ENTROPIES + [[7, 0, 3], [2**64 + 1, 2, 99], [2**100, 3, 5, 0]]
    # The first 7 have at most 4 words: one `_pcg64_states` pass.
    words = np.array([harness_mod._entropy_words(e) for e in _ENTROPIES[:7]], dtype=np.uint32)
    states = harness_mod._pcg64_states(words).tolist()
    assert states == [np.random.SeedSequence(e).generate_state(4, np.uint64).tolist()
                      for e in _ENTROPIES[:7]]
    assert states[2] == states[3]  # [7, 0, 0] mixes as [7]
    for e, rng in zip(entropies, harness_mod._streams(entropies)):
        alone = np.random.default_rng(e)
        assert rng.bit_generator.state == alone.bit_generator.state, e
        assert rng.integers(0, 2**63, 3).tolist() == alone.integers(0, 2**63, 3).tolist(), e
        assert rng.standard_normal(5).tobytes() == alone.standard_normal(5).tobytes(), e


def test_streams_of_mixed_word_counts_keep_their_order():
    # One `_pcg64_states` pass per word count, each stream back in its place.
    entropies = _ENTROPIES[::-1] * 2
    got = [rng.integers(0, 2**63) for rng in harness_mod._streams(entropies)]
    assert got == [np.random.default_rng(e).integers(0, 2**63) for e in entropies]
    assert harness_mod._streams([]) == []
    with pytest.raises(ValueError, match="non-negative"):
        harness_mod._streams([[3, -1]])


def test_pcg64_draws_are_numpys_raw_outputs():
    # Every entropy above, and 10^4 trial entropies [seed, family index,
    # index] with seeds of 1 to 5 words.
    g = np.random.default_rng(20261022)
    entropies = _ENTROPIES + [
        [int(g.integers(0, 2**63)) << int(g.integers(0, 70)), int(g.integers(0, 8)),
         int(g.integers(0, 10**6))] for _ in range(10**4)]
    states = harness_mod._seed_states(entropies)
    assert (harness_mod._pcg64_draws(states, 5) == np.array(
        [np.random.default_rng(e).bit_generator.random_raw(5) for e in entropies])).all()
    assert harness_mod._pcg64_draws(states[:0], 2).shape == (0, 2)


@pytest.mark.parametrize("low", [0.05, 0.3, 0.1])  # each family's low end
def test_trial_fractions_and_seeds_are_numpys_uniform_and_integers(low):
    # 10^5 pairs of draws from one stream, each as a trial's first two.
    draws = 10**5
    x = np.random.default_rng(11).bit_generator.random_raw(2 * draws).reshape(draws, 2)
    g = np.random.default_rng(11)
    assert list(zip(*harness_mod._fractions_and_seeds(x, low))) == [
        (g.uniform(low, 1.0), int(g.integers(0, 2**63))) for _ in range(draws)]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
def test_trial_specs_match_each_trial_drawn_alone(seed):
    config = SweepConfig(trials=30, dims=(1, 3, 5), seed=seed)
    for fi, family in enumerate(config.families):
        indices = range(3, 30)
        assert _trial_specs(config, family, fi, indices) == [
            trial_spec_alone(config, family, fi, i) for i in indices], family


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # Importing numpy.random takes a new process 12-18 ms (`python -X
    # importtime`, 2-CPU x86 host), counted in every command's start-up; the
    # first stream loads it.
    code = "import sys, specbound.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("dim, target", [
    (0, 0.8), (True, 0.8), (4, 0.0), (4, -1.0), (4, math.nan), (4, math.inf),
])
def test_instance_spec_rejects_bad_dim_or_norm_target(dim, target):
    # A NaN or infinite target would scale every generated entry to NaN or inf.
    with pytest.raises(ValueError, match="bad instance spec"):
        spec("dense-random", dim=dim, target=target)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        gen_matrix(spec("banded"))
    with pytest.raises(UnknownFamily):
        gen_commuting_pair(spec("dense-random"))


@pytest.mark.parametrize("family", FAMILIES_PAIR)
def test_pair_families_commute_and_hit_target(family):
    # The generator does not check itself: its pairs commute by construction.
    for dim in (1, 2, 8, 32, 64):
        for seed in range(8):
            A, B = gen_commuting_pair(spec(family, seed=seed, dim=dim))
            (v,) = invariants(A[None], B[None])
            assert v.commuting
            assert v["||AB-BA||"] <= 1e-12 * max(
                1e-300, operator_norm(A) * operator_norm(B)
            )
            assert operator_norm(A) == pytest.approx(0.8, rel=1e-12)
            assert operator_norm(B) == pytest.approx(0.8, rel=1e-12)


@pytest.mark.parametrize(
    "family, svds", [("commuting-polynomial-pair", 3), ("commuting-triangular-pair", 2)]
)
def test_pair_generator_computes_each_norm_once(lapack_work, family, svds):
    # M's norm (polynomial only), then ||A|| and ||B|| once each, in one
    # call; the commutator test is left to best_bound.
    for seed in range(20):
        gen_commuting_pair(spec(family, seed=seed, dim=8))
    assert lapack_work["svd"] == 20 * svds
    assert lapack_work["svd_calls"] == 20 * (svds - 1)


@pytest.mark.parametrize(
    "family, svds", [("commuting-polynomial-pair", 12), ("commuting-triangular-pair", 11)]
)
def test_pair_trial_svd_count(lapack_work, family, svds):
    # The generator's norms, then best_bound's 9 in one call, whose
    # commutator test is the only one the trial runs; best_bound's five
    # radii in one eigensolve call, the trial's only one: the oracle reads
    # ||AB||, the other radii and AB's eigenvalues from the report.
    config = SweepConfig(families=(family,), trials=20, dims=(8,), seed=5)
    for i in range(config.trials):
        _trials(config, family, 0, [i])
    assert lapack_work["svd"] == 20 * svds
    assert lapack_work["svd_calls"] == 20 * (svds - 9)
    assert lapack_work["eig_calls"] == 20  # best_bound's
    assert lapack_work["eig"] == 20 * 5


def test_pair_oracle_makes_no_lapack_call(lapack_work):
    A, B = gen_commuting_pair(spec("commuting-polynomial-pair", dim=8))
    T = gen_matrix(spec("dense-random", dim=8))
    f = lookup("exp")
    (v,) = invariants(A[None], B[None])  # best_bound's SVD call and eigensolve
    (w,) = invariants(T[None])
    lapack_work.update(dict.fromkeys(lapack_work, 0))
    (oracles,) = oracle_radii([f], [v])  # everything is read from v
    (single,) = oracle_radii([f], [w])
    assert lapack_work == dict.fromkeys(lapack_work, 0)
    # Bit for bit the one-target-at-a-time formulas: f(AB) is S_m at the
    # eigenvalues of AB, m the order certified at ||AB||.
    AB, BA = A @ B, B @ A
    m, tail = _order_and_tail(f, operator_norm(AB), DEFAULT_TOL, DEFAULT_MAX_TERMS)
    fab = np.abs(partial_sums(f, np.linalg.eigvals(AB)[None], [m])[0]).max()
    assert oracles == {
        "AB": (spectral_radius(AB), 0.0),
        "AB+BA": (spectral_radius(AB + BA), 0.0),
        "AB-BA": (spectral_radius(AB - BA), 0.0),
        "f(AB)": (fab, tail),
    }
    m, tail = _order_and_tail(f, operator_norm(T), DEFAULT_TOL, DEFAULT_MAX_TERMS)
    ft = np.abs(partial_sums(f, np.linalg.eigvals(T)[None], [m])[0]).max()
    assert single == {"f(T)": (ft, tail)}


_ORACLE_SERIES = ("exp", "geometric", "log-resolvent", "2F1:0.5,1,2",
                  "poly:1,-0.5+0.3j,0.25j")


@pytest.mark.parametrize("name", _ORACLE_SERIES)
@pytest.mark.parametrize("family", FAMILIES_SINGLE + FAMILIES_PAIR + FAMILIES_GENERIC)
def test_oracle_matches_the_matrix_truncation(family, name):
    # Spectral mapping: r[S_m(T)] = max |S_m(lambda)| over T's eigenvalues.
    # The oracle reads S_m off the eigenvalues of T or AB; the reference is
    # the matrix truncation of the same order, by Horner's rule, solved on
    # its own. The sweep's norm targets, the top of their range included.
    f = lookup(name)
    config = SweepConfig(series_names=(name,), families=(family,), trials=12,
                         dims=(2, 4, 8), seed=19)
    specs = [s for _, s in _trial_specs(config, family, 0, range(config.trials))]
    if family in FAMILIES_GENERIC:
        top = min(2.0, 0.95 * math.sqrt(f.radius))
    elif family in FAMILIES_PAIR:
        top = 0.8 * math.sqrt(f.radius) if math.isfinite(f.radius) else 1.0
    else:
        top = 0.9 * min(f.radius, 10.0)
    specs += [spec(family, seed=s.seed, dim=s.dim, target=top) for s in specs[:3]]
    for s in specs:
        stacks = _generate([s])
        (v,) = invariants(*stacks)
        arg = stacks[0][0] if len(stacks) == 1 else stacks[0][0] @ stacks[1][0]
        value, err = oracle_radii([f], [v])[0]["f(T)" if len(stacks) == 1 else "f(AB)"]
        S, tail = certified_truncation(f, arg)
        reference = spectral_radius(S)
        assert err == tail, s
        assert abs(value - reference) <= tail + 1e-12 * max(1.0, reference), s


@pytest.mark.parametrize("name", ["geometric", "log-resolvent", "artanh"])
def test_near_radius_stack_keeps_each_oracle(name):
    # n = 32 at ||T|| in [0.9, 0.995], the orders no sweep reaches (183 to
    # 5,650 over the three series), in one stack: each instance's
    # (value, error) is the one it gets alone, and the one-row sum's.
    f = lookup(name)
    g = np.random.default_rng(len(name))
    norms = np.array([0.93, 0.995, 0.9, 0.96, 0.9, 0.98])
    vs = invariants(_scaled(np.stack([ginibre(g, 32) for _ in norms]), norms))
    orders = []
    for v, oracles in zip(vs, oracle_radii([f] * len(vs), vs)):
        m, tail = _order_and_tail(f, v["||T||"], DEFAULT_TOL, DEFAULT_MAX_TERMS)
        orders.append(m)
        radius = np.abs(partial_sums_alone(f, v.spectrum, m)).max()
        assert oracle_radii([f], [v]) == [oracles] == [{"f(T)": (radius, tail)}]
    assert min(orders) < 250 and max(orders) > 3800


def test_oracle_stack_of_mixed_series_and_dimensions(monkeypatch):
    # Singles and pairs of five series at n = 1, 2 and 5, in shuffled
    # order, with a single outside geometric's disk and one whose order no
    # tolerance up to DEFAULT_MAX_TERMS certifies: each instance gets what
    # it gets alone, and the stack sums each (dimension, series) in one
    # kernel call.
    g = np.random.default_rng(37)
    stack = []  # (series, invariants)
    for name in _ORACLE_SERIES:
        for n in (1, 2, 5):
            T, A, B = (_scaled(ginibre(g, n)[None], 0.6) for _ in range(3))
            stack += [(lookup(name), *invariants(T)), (lookup(name), *invariants(A, B))]
    geometric = lookup("geometric")
    for norm in (1.5, 1.0 - 1e-7):
        stack.append((geometric, *invariants(_scaled(ginibre(g, 2)[None], norm))))
    stack = [stack[k] for k in g.permutation(len(stack))]
    fs, vs = [f for f, _ in stack], [v for _, v in stack]

    def outcome(oracles):
        return oracles if isinstance(oracles, dict) else (type(oracles), oracles.args)

    alone = [outcome(oracle_radii([f], [v])[0]) for f, v in stack]
    calls = []

    def counted(f, z, orders):
        calls.append((z.shape[1], f.name, len(orders)))
        return partial_sums(f, z, orders)

    monkeypatch.setattr(harness_mod, "partial_sums", counted)
    assert [outcome(o) for o in oracle_radii(fs, vs)] == alone
    assert sorted(calls) == sorted((n, name, 2) for name in _ORACLE_SERIES for n in (1, 2, 5))
    assert alone.count({}) == 1  # the single outside the disk
    assert [o[0] for o in alone if isinstance(o, tuple)] == [NoConvergence]


def test_verify_sums_each_oracle_stack_in_one_kernel_call(monkeypatch, tmp_path):
    # On one CPU: one call per chunk, dimension and series for the 1,600
    # sweep trials (8 families, 2 chunks, 3 dimensions with 3 series
    # each), and one per dimension, tolerance and series for the 800
    # truncation-cauchy radii (3 dimensions, 4 tolerances, 2 series).
    import specbound.jobs as jobs_mod
    from specbound import cli

    rows = []

    def counted(f, z, orders):
        rows.append(len(orders))
        return partial_sums(f, z, orders)

    monkeypatch.setattr(jobs_mod, "_cpus", lambda: 1)
    monkeypatch.setattr(harness_mod, "partial_sums", counted)
    assert cli.main(["verify", "--trials", "200", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert len(rows) == 168 and sum(rows) == 2400


def test_verify_builds_each_chunks_streams_in_one_pass(monkeypatch, tmp_path):
    # On one CPU: one `_streams` call per chunk and dimension for the
    # instances (8 families, 2 chunks, 3 dimensions) and one for the 200
    # truncation-cauchy draws. The trial specs build no Generator: their
    # draws come from `_pcg64_draws`.
    import specbound.jobs as jobs_mod
    from specbound import cli

    sizes, streams, trial_specs = [], harness_mod._streams, harness_mod._trial_specs

    def counted(entropies):
        sizes.append(len(entropies))
        return streams(entropies)

    def no_generator(*args):
        raise AssertionError("a trial spec built a Generator")

    def specs_without_generators(*args):
        with monkeypatch.context() as m:
            m.setattr(harness_mod, "_seeded_generator", no_generator)
            m.setattr(np.random, "default_rng", no_generator)
            return trial_specs(*args)

    monkeypatch.setattr(jobs_mod, "_cpus", lambda: 1)
    monkeypatch.setattr(harness_mod, "_streams", counted)
    monkeypatch.setattr(harness_mod, "_trial_specs", specs_without_generators)
    assert cli.main(["verify", "--trials", "200", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert len(sizes) == 49 and sum(sizes) == 1600 + 200


def test_oracle_memory_is_far_below_a_table_of_powers():
    # geometric at ||T|| = 0.9999 and n = 32 certifies an order m of about
    # 3.2e5. A repeated oracle call (the coefficients are kept) sums in
    # O(sqrt(m) n) memory, far below the 16 m n bytes of a table of every
    # power of every eigenvalue; recomputing the coefficients would take
    # 48 m bytes.
    import tracemalloc

    f = lookup("geometric")
    (v,) = invariants(_scaled(ginibre(np.random.default_rng(3), 32), 0.9999)[None])
    (first,) = oracle_radii([f], [v])
    m = truncation_order(f, v["||T||"], DEFAULT_TOL)
    assert m > 3 * 10**5
    tracemalloc.start()
    try:
        assert oracle_radii([f], [v]) == [first]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m


@pytest.mark.parametrize("name, norm", [("geometric", 0.9999), ("artanh", 0.99995)])
def test_repeated_oracle_computes_no_coefficient(monkeypatch, name, norm):
    # Orders past 2**16: the tail at order m reads a_{m+1} (geometric) or
    # a_{m+2} (artanh, odd terms only), which the kept prefix holds.
    f = lookup(name)
    (v,) = invariants(_scaled(ginibre(np.random.default_rng(3), 32), norm)[None])
    (first,) = oracle_radii([f], [v])
    assert truncation_order(f, v["||T||"], DEFAULT_TOL) > 2**16
    orders = []
    coefficients = f.coefficients
    monkeypatch.setitem(vars(f), "coefficients",
                        lambda m: (orders.append(m), coefficients(m))[1])
    assert oracle_radii([f], [v]) == [first]
    assert orders == []


def scaled_as_drawn(G, norm_target):
    return G * (norm_target / operator_norm(G))


def test_limit_checks_match_the_one_matrix_formulas():
    # The reference loop: one spectral radius per call, as the checks state.
    seed, trials, dims = 2, 9, (2, 4, 8)
    sub = cont = -math.inf
    for i in range(trials):
        rng = np.random.default_rng([seed, i, 3])
        n = dims[i % len(dims)]
        M = _scaled(ginibre(rng, n), 1.0)
        k = int(rng.integers(2, 7))
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        terms = [coeffs[j] * np.linalg.matrix_power(M, j) for j in range(k)]
        rhs = sum(spectral_radius(V) for V in terms)
        sub = max(sub, spectral_radius(sum(terms)) - rhs - 1e-8)
        ca, cb = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in "ab")
        V = matrix_partial_sum(from_coefficients(ca), M, 3)
        S = matrix_partial_sum(from_coefficients(cb), M, 3)
        gap = abs(spectral_radius(V) - spectral_radius(S)) - spectral_radius(V - S)
        cont = max(cont, gap - 1e-8)
    checks = run_limit_laws(seed, trials, dims)
    assert checks["subadditivity"].worst_margin == sub
    assert checks["radius-continuity"].worst_margin == cont


def test_trial_on_non_commuting_pair_fails_loudly(non_commuting_pairs):
    non_commuting_pairs()
    config = SweepConfig(trials=1, dims=(2,))
    with pytest.raises(GenerationFailure, match="not a commuting pair"):
        _trials(config, FAMILIES_PAIR[0], 0, [0])


def test_generic_pair_trial_judges_the_rows_of_any_pair():
    # A generic pair fails the commutator test and raises nothing: its six
    # commuting rows are Unavailable with the commutator reason, as in
    # `bound`, and product-radius is judged against the f(AB) oracle.
    config = SweepConfig(series_names=("exp",), families=FAMILIES_GENERIC, trials=6,
                         dims=(2, 4, 8), seed=2)
    for i in range(config.trials):
        text, _ = _trials(config, "generic-pair", 0, [i])
        rows = {row["bound"]: row for row in read_rows(text)}
        assert len(rows) == 5 + len(_COMMUTING_ROWS) == 11
        s = row_spec(rows["product-radius"])
        assert 0.2 <= s.norm_target <= 2.0
        A, B = _generate([s])
        assert operator_norm(A[0]) == pytest.approx(s.norm_target, rel=1e-12)
        assert operator_norm(B[0]) == pytest.approx(s.norm_target, rel=1e-12)
        (v,) = invariants(A, B)
        assert not v.commuting
        reason = f"commutator test failed (||AB-BA|| = {v['||AB-BA||']:.6e})"
        for row in _COMMUTING_ROWS:
            assert (rows[row.name]["available"], rows[row.name]["reason"]) == ("0", reason)
        product = rows["product-radius"]
        assert product["available"] == "1" and product["tightness"] == repr(
            float(product["value"]) / float(product["oracle"]))
        assert {row["violation"] for row in rows.values()} == {"0"}


def test_limit_checks_match_the_per_instance_loop():
    # Drawn one by one, stacked by dimension: the same CheckResult as the
    # loop over instances, each with its own invariants and oracle calls.
    def per_instance(seed, trials, dims):
        result, series = CheckResult(), [lookup("exp"), lookup("geometric")]
        for i in range(trials):
            rng = np.random.default_rng([seed, i, 3])
            n, f = dims[i // 2 % len(dims)], series[i % 2]
            cap = 1.5 if math.isinf(f.radius) else 0.7 * f.radius
            T = scaled_as_drawn(ginibre(rng, n), float(rng.uniform(0.3, 1.0)) * cap)
            (v,) = invariants(T[None])
            tols = (1e-3, 1e-5, 1e-7, 1e-9)
            for a in range(len(tols)):
                for b in range(a + 1, len(tols)):
                    r_a, err_a = oracle_radii([f], [v], tols[a])[0]["f(T)"]
                    r_b, _ = oracle_radii([f], [v], tols[b])[0]["f(T)"]
                    result.record(abs(r_a - r_b) - (err_a + 1e-8))
        return {"truncation-cauchy": result}

    for dims in ((2, 4, 8), (1,), (3, 5)):
        for trials in (0, 1, 12, 200):
            want = per_instance(2, trials, dims)
            assert run_limit_checks(2, trials, dims) == want, (dims, trials)


def test_limit_checks_sum_every_series_at_every_dimension(monkeypatch):
    # Two series against an even number of dimensions: the series cycles
    # fastest and the dimension steps once per cycle, so each series is
    # checked at each dimension, in one kernel call per tolerance.
    summed = []

    def counted(f, z, orders):
        summed.append((f.name, z.shape[1]))
        return partial_sums(f, z, orders)

    monkeypatch.setattr(harness_mod, "partial_sums", counted)
    assert run_limit_checks(7, 300, (2, 4))["truncation-cauchy"].passed
    pairs = [(name, n) for name in ("exp", "geometric") for n in (2, 4)]
    assert sorted(summed) == sorted(pairs * 4)


def test_limit_check_is_three_calls_per_dimension(lapack_work):
    # Per dimension: one SVD call to scale, one for ||T||, and one
    # eigensolve of T, whose eigenvalues every oracle call reads.
    run_limit_checks(seed=3, trials=12, dims=(2, 4, 8))
    assert lapack_work["svd_calls"] == 3 * 2 and lapack_work["svd"] == 12 * 2
    assert lapack_work["eig_calls"] == 3 and lapack_work["eig"] == 12


def test_limit_check_catches_a_short_oracle_sum(monkeypatch):
    # The check runs the oracle's own scalar sums: one that stops a term
    # early, at m - 1, breaks the Cauchy bound between tolerances.
    import specbound.harness as harness_mod

    def short(f, z, orders):
        return partial_sums(f, z, [max(m - 1, 0) for m in orders])

    assert run_limit_checks(1, 60)["truncation-cauchy"].passed
    monkeypatch.setattr(harness_mod, "partial_sums", short)
    assert run_limit_checks(1, 60)["truncation-cauchy"].violations > 0


def test_pair_generator_determinism():
    a1, b1 = gen_commuting_pair(spec("commuting-polynomial-pair", seed=2))
    a2, b2 = gen_commuting_pair(spec("commuting-polynomial-pair", seed=2))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_hermitian_family_is_normal():
    T = gen_matrix(spec("hermitian", seed=9))
    assert np.allclose(T, T.conj().T)
    assert abs(spectral_radius(T) - operator_norm(T)) <= 1e-10


def test_jordan_family_is_nonnormal():
    T = gen_matrix(spec("unitary-conjugated-jordan", seed=4, dim=6, target=1.0))
    assert operator_norm(T) > 1.5 * spectral_radius(T)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def small_config(**overrides):
    defaults = dict(
        series_names=("exp", "geometric"),
        families=FAMILIES_PAIR,
        trials=10,
        dims=(2, 4),
        seed=123,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_empty_sweep():
    assert run_sweep(small_config(trials=0)) == []


@pytest.mark.parametrize("dims", [(True,), (np.int64(2),), (2, 0), (2.0,)])
def test_sweep_config_rejects_dims_instance_spec_rejects(dims):
    # InstanceSpec's rule, at construction rather than at the first trial
    with pytest.raises(ValueError, match="dimensions must be ints >= 1"):
        small_config(dims=dims)


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials", True), ("trials", -1), ("trials", np.int64(2)),
    ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", np.int64(2)),
])
def test_sweep_config_rejects_non_int_trials_and_seed(field, value):
    # at construction, as for dims: not at the first trial, inside a worker
    with pytest.raises(ValueError, match="trials and seed must be ints >= 0"):
        small_config(**{field: value})


def test_sweep_has_no_violations_and_full_records():
    rows, summary = sweep_reports(small_config())
    assert (summary["trials"], summary["violations"]) == (20, 0)
    trials = trial_rows(rows)
    assert len(trials) == 20
    for trial in trials:
        assert {row["violation"] for row in trial} == {"0"}
        assert all(row["oracle"] for row in trial if row["target"] == "f(AB)")
        assert {"pair-squares", "pm-quadratic(+)", "product-radius",
                "factor-radius"} <= {row["bound"] for row in trial}
        for row in trial:
            if row["available"] == "1":
                assert float(row["value"]) >= 0


def test_single_mode_sweep():
    rows, summary = sweep_reports(small_config(families=("diagonal-positive",)))
    assert (summary["trials"], summary["violations"], len(rows)) == (10, 0, 10)
    for row in rows:
        assert (row["bound"], row["target"], row["violation"]) == (
            "companion-radius", "f(T)", "0")
        assert row["oracle"]


def joined(pieces):
    """The `trials.csv` rows and the sweep statistics of report pieces."""
    pieces = list(pieces)
    return "".join(rows for rows, _ in pieces), summarize_tallies(t for _, t in pieces)


def one_by_one(config):
    """`joined` of the sweep's trials, each run alone as a chunk of one."""
    return joined(_trials(config, family, fi, [i])
                  for fi, family in enumerate(config.families) for i in range(config.trials))


def test_sweep_records_come_back_in_seed_order(monkeypatch):
    # Two chunks per family: each trial's rows come back in the order of
    # its family and index, with the instance numpy's own stream draws.
    monkeypatch.setattr(harness_mod, "_CHUNK_TRIALS", 25)
    config = small_config(trials=30, dims=(2,))
    rows, _ = sweep_reports(config)
    assert [(t[0]["family"], t[0]["seed"], t[0]["series"]) for t in trial_rows(rows)] == [
        (s.family, str(s.seed), f.name)
        for fi, family in enumerate(config.families)
        for f, s in (trial_spec_alone(config, family, fi, i) for i in range(30))]


def test_sweep_of_mixed_stacks_equals_trials_run_one_by_one(monkeypatch):
    # Each dimension's stack mixes series (4 names, 3 dims), and every
    # family has a full chunk and a short one: the rows and statistics are
    # those of the trials run alone.
    monkeypatch.setattr(harness_mod, "_CHUNK_TRIALS", 25)
    config = SweepConfig(
        series_names=("exp", "geometric", "2F1:0.5,1,2", "poly:1,-0.5+0.3j"),
        trials=30, dims=(2, 3, 5), seed=17)
    assert len(config.families) == 8
    expected = one_by_one(config)
    first = read_rows(expected[0])[:25]  # the first chunk, one row a trial
    assert {row["family"] for row in first} == {config.families[0]}
    assert len({(row["dim"], row["series"]) for row in first}) == 12
    assert joined(run_sweep(config)) == expected


def near_radius_pair(n):
    """A = B = a (I + J) at n = 2, with ||AB|| = 1 - 5e-6 > r(AB) and
    ||A||^2 > 1: for log-resolvent (R = 1) every row computes, as none
    evaluates f_a at ||AB||, but no order up to the term cap certifies
    the oracle's truncation there."""
    assert n == 2
    M = np.eye(2, dtype=complex) + np.eye(2, k=1)
    A = M * math.sqrt((1.0 - 5e-6) / operator_norm(M @ M))
    return A, A


# Within one chunk: pairs not commuting (scale 1) or with products out of
# range (1e200) at the given indices, a series whose truncation is not
# finite at trials 1, 3, 4, ..., and a commuting pair near the radius
# ("near", at n = 2), whose oracle finds no order.
@pytest.mark.parametrize("series, scales, index, error", [
    ("exp", {13: 1.0, 20: 1.0}, 13, GenerationFailure),
    ("exp", {4: 1.0, 9: 1e200}, 4, GenerationFailure),
    ("exp", {2: 1e200, 4: 1.0}, 2, NormOverflow),
    ("poly:1.7e308,1.7e308", {2: 1.0}, 1, NormOverflow),
    ("poly:1.7e308,1.7e308", {0: 1.0}, 0, GenerationFailure),
    ("log-resolvent", {6: "near"}, 6, NoConvergence),
    ("log-resolvent", {4: 1.0, 6: "near"}, 4, GenerationFailure),
    ("log-resolvent", {9: "near", 4: 1e200}, 4, NormOverflow),
])
def test_sweep_raises_what_its_first_failing_trial_raises_alone(
        non_commuting_pairs, series, scales, index, error):
    family = FAMILIES_PAIR[0]
    config = SweepConfig(series_names=(series,), families=(family,), trials=25,
                         dims=(2, 3, 5), seed=4)
    specs = [s for _, s in _trial_specs(config, family, 0, range(config.trials))]
    non_commuting_pairs({specs[i]: near_radius_pair(specs[i].dim) if scale == "near" else scale
                         for i, scale in scales.items()})
    for i in range(index):
        _trials(config, family, 0, [i])
    with pytest.raises(error) as alone:
        _trials(config, family, 0, [index])
    with pytest.raises(error) as swept:
        run_sweep(config)
    assert str(swept.value) == str(alone.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("family", FAMILIES_SINGLE + FAMILIES_PAIR + FAMILIES_GENERIC)
def test_a_chunk_is_solved_as_one_stack_per_dimension(lapack_work, monkeypatch, family):
    # Chunks of 100 trials (250 trials: 100, 100 and 50) factor `trials`
    # times one trial's matrices, in one call per Haar QR, per scaling and
    # per invariant kind, per dimension and chunk; the oracle makes none.
    import specbound.jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "_cpus", lambda: 1)  # counted in-process
    haar = family in ("unitary-conjugated-jordan", "commuting-triangular-pair")
    for trials, chunks in ((100, 1), (250, 3)):
        config = SweepConfig(families=(family,), trials=trials, dims=(2, 4, 8), seed=5)
        lapack_work.update(dict.fromkeys(lapack_work, 0))
        _trials(config, family, 0, [0])
        one = dict(lapack_work)
        lapack_work.update(dict.fromkeys(lapack_work, 0))
        run_sweep(config)
        assert one["eig"] == (1 if family in FAMILIES_SINGLE else 5)  # the invariants' own
        assert one.get("qr", 0) == one.get("qr_calls", 0) == haar
        assert one["svd_calls"] <= 3 and one["eig_calls"] == 1
        for kind in ("svd", "eig", "qr"):
            assert lapack_work.get(kind, 0) == trials * one.get(kind, 0)
            assert (lapack_work.get(f"{kind}_calls", 0)
                    == 3 * chunks * one.get(f"{kind}_calls", 0))


def test_sweep_determinism_and_csv_bytes(tmp_path):
    config = small_config()
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    write_trials_csv((rows for rows, _ in run_sweep(config)), one)
    write_trials_csv((rows for rows, _ in run_sweep(config)), two)
    assert one.read_bytes() == two.read_bytes()
    header = one.read_text().splitlines()[0]
    assert header.startswith("family,seed,dim,norm_target,series")


def test_trials_csv_is_the_header_then_each_piece(tmp_path):
    pieces = [rows for rows, _ in run_sweep(small_config())]
    assert len(pieces) > 1
    header = ",".join(harness_mod._CSV_COLUMNS) + "\n"
    for given in (pieces, iter(pieces)):
        write_trials_csv(given, tmp_path / "trials.csv")
        assert (tmp_path / "trials.csv").read_bytes() == (header + "".join(pieces)).encode()


def test_verify_holds_its_trials_csv_once(monkeypatch, tmp_path):
    # The parent's traced peak while verify turns the sweep's results, as
    # it unpickles them from its workers, into its reports: the pieces
    # themselves, and no join of them, header-plus-rows string or encoding
    # of the whole report, each of which is one more trials.csv.
    import tracemalloc
    from specbound import cli

    sweep, sent = harness_mod.run_sweep, []

    def received(*args):
        if not sent:
            sent.append(pickle.dumps(sweep(*args)))
        return pickle.loads(sent[0])

    monkeypatch.setattr(harness_mod, "run_sweep", received)
    argv = ["verify", "--trials", "200", "--seed", "7", "--out"]
    assert cli.main([*argv, str(tmp_path / "first")]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, str(tmp_path / "traced")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "traced" / "trials.csv").stat().st_size
    assert size > 10**6
    assert peak <= 2 * size


def _judged_trial(f, matrices):
    """(oracles, bounds, bounds below their oracle) of one instance."""
    report = best_bound(f, *matrices)
    (oracles,) = oracle_radii([f], [report.invariants])
    return oracles, report.results, _judged(report.results, oracles)


def test_sweep_survives_targets_outside_disk():
    f = lookup("geometric")
    for seed in range(6):
        # single mode: ||T|| = 1.5 >= R = 1 leaves the bound unavailable
        # and the oracle uncomputable; the trial must report, not crash
        s = spec("diagonal-positive", seed=seed, dim=2 + 2 * (seed % 2), target=1.5)
        oracles, bounds, low = _judged_trial(f, (gen_matrix(s),))
        assert oracles == {}
        assert [b.available for b in bounds] == [False]
        assert not low
        # pair mode at ||A|| = ||B|| = 1.3: every series precondition
        # fails, norm-only bounds still apply and are judged
        s = spec(FAMILIES_PAIR[seed % 2], seed=seed, dim=2 + 2 * (seed % 2), target=1.3)
        oracles, bounds, low = _judged_trial(f, gen_commuting_pair(s))
        assert {"AB", "AB+BA", "AB-BA"} <= oracles.keys()
        assert not low
        assert all(not b.available for b in bounds if b.target == "f(AB)")
        assert any(b.available for b in bounds)


def test_sweep_accepts_polynomial_series():
    rows, summary = sweep_reports(small_config(
        series_names=("poly:1,0,0.5",), families=("diagonal-positive",),
        trials=4,
    ))
    assert (summary["trials"], summary["violations"]) == (4, 0)
    assert {(row["series"], row["violation"]) for row in rows} == {("poly:1,0,0.5", "0")}


def test_summarize_statistics():
    _, summary = sweep_reports(small_config())
    assert summary["trials"] == 20
    assert summary["violations"] == 0
    sq = summary["bounds"]["pair-squares"]
    assert sq["evaluated"] == 20
    assert 0.0 <= sq["availability_rate"] <= 1.0
    assert sq["tightness_mean"] is None or sq["tightness_mean"] >= 1.0 - 1e-8
    wins = sum(b["wins"] for b in summary["bounds"].values()
               if b["target"] == "f(AB)")
    assert wins >= 20  # every trial has at least one winner (ties allowed)


def _stack(trials, rows):
    """The `Judged` stack of `trials`, each (spec, series, oracles), and of
    `rows`, each (name, target, cells) with one cell a trial: the row's
    value there, or the reason it is Unavailable."""
    specs, series, oracles = zip(*trials)
    names, targets, cells = zip(*rows)
    return Judged(specs, series, oracles, names, targets,
                  np.array([[math.nan if isinstance(c, str) else c for c in row]
                            for row in cells]),
                  [[c if isinstance(c, str) else None for c in row] for row in cells])


def _sliced(j, start, stop):
    """Trials start:stop of the stack `j`, as a stack of their own."""
    return Judged(j.specs[start:stop], j.series[start:stop], j.oracles[start:stop],
                  j.names, j.targets, j.values[:, start:stop],
                  [reasons[start:stop] for reasons in j.reasons])


def _report_stacks():
    """Hand-made stacks of two layouts: rows Unavailable, rows on a zero
    oracle (no tightness, as log-resolvent on a nilpotent matrix), two rows
    that tie for every win and one violation among three pairs, and 30
    single trials, enough for chunks of 1, 7 and 25 to split."""
    oracles = {"AB": (0.5, 0.0), "f(AB)": (0.0, 0.0)}
    xs = [1.0, 0.25, 0.6]
    ties = _stack([(spec(FAMILIES_PAIR[0], seed=k), "exp", oracles) for k in range(3)],
                  [("x", "AB", xs), ("y", "AB", [x * (1 + 1e-13) for x in xs]),
                   ("z", "f(AB)", ["outside the disk"] * 3),
                   ("w", "f(AB)", [2.0, "outside the disk", 3.0])])
    single = [({"f(T)": (0.0, 0.0)} if k % 10 == 0 else {"f(T)": (1.0 + k / 8, 1e-10)},
               "precondition failed: ||T|| < R (measured 1.2)" if k % 7 == 3
               else 0.0 if k % 10 == 0 else (1.0 + k / 8) * (1.0 + k / 64))
              for k in range(30)]
    return [ties, _stack([(spec("nilpotent", seed=k), "log-resolvent", o)
                          for k, (o, _) in enumerate(single)],
                         [("companion-radius", "f(T)", [cell for _, cell in single])])]


def _alone(stacks):
    """(spec, series, oracles, bounds) of each trial of `stacks`, its rows
    as `BoundResult`s."""
    for j in stacks:
        for i, (s, series, oracles) in enumerate(zip(j.specs, j.series, j.oracles)):
            yield s, series, oracles, [
                BoundResult(name, None if reasons[i] else value, target, reasons[i])
                for name, target, value, reasons in zip(j.names, j.targets,
                                                        j.values[:, i].tolist(), j.reasons)]


def _tightness_alone(b, oracles):
    """value / oracle of an available bound whose oracle and its error are
    finite and the oracle above 1e-12, else None."""
    oracle, err = oracles.get(b.target, (math.nan, math.nan))
    if b.available and math.isfinite(oracle) and math.isfinite(err) and oracle > 1e-12:
        return b.value / oracle
    return None


def _case_counts(stacks):
    trials = list(_alone(stacks))
    return (sum(not b.available for *_, bounds in trials for b in bounds),
            sum(b.available and _tightness_alone(b, oracles) is None
                for _, _, oracles, bounds in trials for b in bounds),
            sum(bool(_judged(bounds, oracles)) for _, _, oracles, bounds in trials))


def _assert_summary_of(summary, stacks):
    """Counts and tightness statistics read off the trials one by one."""
    trials = [(oracles, bounds) for _, _, oracles, bounds in _alone(stacks)]
    assert (summary["trials"], summary["violations"]) == (
        len(trials), sum(bool(_judged(bounds, oracles)) for oracles, bounds in trials))
    for name, stat in summary["bounds"].items():
        rows = [(b, oracles) for oracles, bounds in trials for b in bounds if b.name == name]
        ts = [t for t in (_tightness_alone(b, oracles) for b, oracles in rows) if t is not None]
        assert (stat["evaluated"], stat["available"]) == (
            len(rows), sum(b.available for b, _ in rows))
        assert (stat["tightness_median"], stat["tightness_max"]) == (
            (statistics.median(ts), max(ts)) if ts else (None, None))


def _rows_alone(stacks):
    """The trials.csv rows of `stacks`, one csv.writer row per bound, each
    cell formatted alone, each trial judged alone: the reference for
    `report_piece`'s text."""
    def cell(value):
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for s, series, oracles, bounds in _alone(stacks):
        violation = "1" if _judged(bounds, oracles) else "0"
        for b in bounds:
            oracle, oracle_err = oracles.get(b.target, (None, None))
            writer.writerow([s.family, s.seed, s.dim, cell(s.norm_target), series,
                             b.name, b.target, "1" if b.available else "0",
                             *map(cell, (b.value, b.reason, oracle, oracle_err,
                                         _tightness_alone(b, oracles))),
                             violation])
    return text.getvalue()


def test_trials_csv_text_is_csv_writers_cell_by_cell():
    # Series names and reasons that need quoting, a quote doubled, a line
    # break and a leading space: each cell as csv.writer writes it.
    quoting = [("poly:1,-0.5+0.3j,0.25j", "a, b"), ("2F1:0.5,1,2", 'say "x"'),
               ("exp", "two\nlines"), ("geometric", " lead")]
    stacks = _report_stacks() + [_stack(
        [(spec(FAMILIES_PAIR[1], seed=k), series, {"AB": (0.5, 0.0)})
         for k, (series, _) in enumerate(quoting)],
        [("x", "AB", [0.25] * 4), ("z", "AB", [reason for _, reason in quoting])])]
    text = "".join(report_piece(j)[0] for j in stacks)
    assert text == _rows_alone(stacks)
    assert '"poly:1,-0.5+0.3j,0.25j"' in text and '"say ""x"""' in text


@pytest.mark.parametrize("size", [1, 7, 25])
def test_report_pieces_join_to_the_records_reports(size):
    # The stacks split into chunks of `size` trials: the pieces join to
    # the whole stacks' reports, which are the trials' read one by one.
    stacks = _report_stacks()
    unavailable, no_tightness, violations = _case_counts(stacks)
    assert unavailable and no_tightness and violations == 1
    whole = joined(map(report_piece, stacks))
    summary = whole[1]
    _assert_summary_of(summary, stacks)
    assert summary["bounds"]["x"]["wins"] == summary["bounds"]["y"]["wins"] == 3
    pieces = [report_piece(_sliced(j, start, start + size))
              for j in stacks for start in range(0, len(j.specs), size)]
    assert len(pieces) == sum(math.ceil(len(j.specs) / size) for j in stacks)
    assert joined(pieces) == whole
    assert whole[0] == _rows_alone(stacks)


@pytest.mark.parametrize("family", ["unitary-conjugated-jordan", "commuting-triangular-pair"])
def test_a_long_sweep_is_the_same_at_every_chunk_size(monkeypatch, family):
    # 250 trials of one family, whose Haar unitaries are factored as one
    # stack per chunk and dimension: at 100 the last chunk is a short one.
    # Every chunk size gives the rows and statistics of the trials run alone.
    config = SweepConfig(families=(family,), trials=250, dims=(2, 3, 5), seed=11)
    for size in (7, 25, 100):
        monkeypatch.setattr(harness_mod, "_CHUNK_TRIALS", size)
        pieces = run_sweep(config)
        assert len(pieces) == math.ceil(250 / size)
        assert joined(pieces) == one_by_one(config), size
    assert multiprocessing.active_children() == []


def test_report_piece_holds_only_strings_and_numbers():
    piece = report_piece(_report_stacks()[0])

    def leaves(x):
        if isinstance(x, (list, tuple)):
            return [leaf for item in x for leaf in leaves(item)]
        if isinstance(x, dict):
            return leaves(list(x)) + leaves(list(x.values()))
        return [x]

    assert {type(leaf) for leaf in leaves(piece)} <= {str, int, float}
    # so its pickle names no class of this package (no Judged, no BoundResult)
    assert b"specbound" not in pickle.dumps(piece)


@pytest.mark.parametrize("oracle, violation", [
    ((1.0, 0.0), False), ((float("nan"), 0.0), True),
    ((float("inf"), 0.0), True), ((1.0, float("nan")), True),
])
def test_judge_flags_a_non_finite_oracle(oracle, violation):
    # A NaN or inf oracle checks nothing; an available bound meeting one
    # must not count as a pass, in `bound` or in a sweep's report.
    bounds = [BoundResult("b", 2.0, "f(T)")]
    assert (_judged(bounds, {"f(T)": oracle}) == bounds) is violation
    rows, (trials, violations, _) = report_piece(
        _stack([(spec("diagonal-positive"), "exp", {"f(T)": oracle})], [("b", "f(T)", [2.0])]))
    assert (trials, violations) == (1, int(violation))
    assert rows.endswith(f",{int(violation)}\n")


def test_worst_margin_is_positive_exactly_on_a_flagged_bound():
    # The worst margin is the judge's own float, relative to max(1, oracle):
    # a bound exactly at the slack's floor is not flagged and has margin 0,
    # the next float below it is, and a bound never compared has null.
    oracle, err = 2.0, 1e-3
    floor = oracle - (_SLACK_REL * oracle + err)
    oracles = {"f(T)": (oracle, err), "AB": (float("inf"), 0.0)}
    values = {"at-floor": floor, "below": math.nextafter(floor, 0.0),
              "far-below": 0.5, "above": 3.0}
    bounds = [BoundResult(name, value, "f(T)") for name, value in values.items()]
    bounds += [BoundResult("unavailable", None, "f(T)", reason="outside the disk"),
               BoundResult("no-oracle", 1.0, "AB+BA"),
               BoundResult("non-finite-oracle", 1.0, "AB")]
    low = _judged(bounds, oracles)
    stack = _stack([(spec("diagonal-positive"), "exp", oracles)],
                   [(b.name, b.target, [b.reason or b.value]) for b in bounds])
    worst = {name: stat["worst_margin"]
             for name, stat in joined([report_piece(stack)])[1]["bounds"].items()}
    assert [b.name for b in low] == ["below", "far-below", "non-finite-oracle"]
    for b in bounds:
        flagged = b in low and b.name != "non-finite-oracle"
        assert (worst[b.name] is not None and worst[b.name] > 0) is flagged, b.name
    assert worst["at-floor"] == 0.0
    assert worst["far-below"] == (floor - 0.5) / oracle
    assert worst["above"] == (floor - 3.0) / oracle
    # never compared, or compared with a non-finite oracle: null, strict JSON
    assert worst["unavailable"] is worst["no-oracle"] is worst["non-finite-oracle"] is None


def test_worst_margin_is_null_only_on_rows_a_generic_pair_never_judges(monkeypatch):
    # Chunks of 7, run by the workers when there are CPUs for them: the
    # largest margin of each bound is the same as in one chunk. Every row
    # a generic pair gets is judged, below its slack's floor; the commuting
    # rows are never judged.
    config = small_config(families=FAMILIES_GENERIC, trials=20)
    stats = joined(run_sweep(config))[1]["bounds"]
    monkeypatch.setattr(harness_mod, "_CHUNK_TRIALS", 7)
    pieces = run_sweep(config)
    assert len(pieces) == 3 and joined(pieces)[1]["bounds"] == stats
    commuting = {row.name for row in _COMMUTING_ROWS}
    for name, stat in stats.items():
        if name in commuting:
            assert stat["available"] == 0 and stat["worst_margin"] is None, name
        else:
            assert stat["available"] > 0 and stat["worst_margin"] < 0, name
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Job runner
# ---------------------------------------------------------------------------

needs_cpus = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="worker processes need Linux and two CPUs",
)


def _fail(message):
    raise GenerationFailure(message)


def _interrupt_self():
    os.kill(os.getpid(), signal.SIGINT)
    return "ignored"


@needs_cpus
def test_run_jobs_forks_workers_and_keeps_order():
    assert os.getpid() not in run_jobs([(os.getpid, ())] * 4)
    assert run_jobs([(pow, (i, 2)) for i in range(9)]) == [i * i for i in range(9)]
    assert multiprocessing.active_children() == []


def test_run_jobs_on_one_cpu_runs_in_process(monkeypatch):
    import specbound.jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "_cpus", lambda: 1)
    assert run_jobs([(os.getpid, ())] * 3) == [os.getpid()] * 3


def test_run_jobs_with_another_thread_runs_in_process():
    # a fork copies only the calling thread, not the locks the other one holds
    import threading

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_jobs([(os.getpid, ())] * 3) == [os.getpid()] * 3
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@needs_cpus
def test_run_jobs_raises_the_first_failure_in_list_order():
    # The last job starts first, yet the first failing job in list order
    # is the one raised, with its own type and message.
    jobs = [(pow, (2, 3)), (_fail, ("first",)), (pow, (2, 4)), (_fail, ("last",))]
    with pytest.raises(GenerationFailure, match="^first$"):
        run_jobs(jobs)
    assert multiprocessing.active_children() == []


@needs_cpus
def test_run_jobs_workers_ignore_sigint():
    assert run_jobs([(_interrupt_self, ())] * 3) == ["ignored"] * 3


@needs_cpus
def test_run_jobs_reports_a_dead_worker():
    # an error of this package, so `main` prints it and exits 2
    with pytest.raises(SpecboundError, match="^a worker process died with exit code 3$"):
        run_jobs([(os._exit, (3,)), (pow, (2, 2))])
    assert multiprocessing.active_children() == []


def _pid_and_nested_pids():
    return os.getpid(), run_jobs([(os.getpid, ())] * 2)


@needs_cpus
def test_run_jobs_in_a_worker_runs_in_process():
    # A job that calls run_jobs again forks no grandchildren: a sweep chunk
    # whose pairs are large enough for `invariants` to split them, say.
    (pid, nested), other = run_jobs([(_pid_and_nested_pids, ()), (os.getpid, ())])
    assert nested == [pid, pid] and os.getpid() not in (pid, other)
    assert multiprocessing.active_children() == []


def _bits(report):
    """Everything a `best_bound` report holds, the invariants bit for bit."""
    v = report.invariants
    return ({x: float(y).hex() for x, y in v.items()}, v.spectrum.tobytes(),
            report.results, report.minimum)


@needs_cpus
def test_a_large_pair_solved_on_every_cpu_changes_no_bit(monkeypatch):
    # From `_SPLIT_MIN_DIM` on, a pair's five eigensolves and its SVD stack
    # are jobs, which LAPACK solves matrix by matrix in any process; BLAS
    # threads are left as the environment sets them.
    import specbound.bounds as bounds_mod
    import specbound.jobs as jobs_mod

    n, rng = bounds_mod._SPLIT_MIN_DIM, np.random.default_rng(6)
    pairs = [gen_commuting_pair(spec("commuting-polynomial-pair", dim=128)),
             (ginibre(rng, n) / 8, ginibre(rng, n) / 8)]  # not commuting
    run, ran = jobs_mod.run_jobs, []
    monkeypatch.setattr(jobs_mod, "run_jobs", lambda jobs: ran.append(len(jobs)) or run(jobs))
    reports = [best_bound(lookup("exp"), A, B) for A, B in pairs]
    assert ran == [6, 6] and multiprocessing.active_children() == []
    assert [r.invariants.commuting for r in reports] == [True, False]
    split = list(map(_bits, reports))
    # in-process, then as one eigensolve call, the path of smaller pairs
    for mod, name, value in ((jobs_mod, "_cpus", lambda: 1),
                             (bounds_mod, "_SPLIT_MIN_DIM", 129)):
        monkeypatch.setattr(mod, name, value)
        assert [_bits(best_bound(lookup("exp"), A, B)) for A, B in pairs] == split


def test_a_pair_below_the_split_size_runs_no_job(monkeypatch):
    import specbound.bounds as bounds_mod
    import specbound.jobs as jobs_mod

    def refuse(jobs):
        raise RuntimeError("a job ran")

    monkeypatch.setattr(jobs_mod, "run_jobs", refuse)
    for dim in (32, bounds_mod._SPLIT_MIN_DIM - 1):
        A, B = gen_commuting_pair(spec("commuting-polynomial-pair", dim=dim))
        assert best_bound(lookup("exp"), A, B).minimum is not None
    A, B = gen_commuting_pair(spec("commuting-polynomial-pair", dim=bounds_mod._SPLIT_MIN_DIM))
    with pytest.raises(RuntimeError, match="^a job ran$"):
        best_bound(lookup("exp"), A, B)


# ---------------------------------------------------------------------------
# Identity, limit and pm checks
# ---------------------------------------------------------------------------


def test_identity_checks_pass():
    for name, result in run_identity_checks(seed=1, trials=60).items():
        assert result.passed, (name, result.worst_margin)


def test_limit_checks_pass():
    checks = run_limit_checks(seed=1, trials=60)
    assert list(checks) == ["truncation-cauchy"]
    checks.update(run_limit_laws(seed=1, trials=60))
    for name, result in checks.items():
        assert result.passed, (name, result.worst_margin)


@pytest.mark.parametrize("seed", [0, 7])
def test_pm_mixed_chain_holds_on_verify_pairs(seed):
    # the 500 pairs `verify --seed` checks pm-mixed on, at the default dims
    (result,) = run_mixed_chain(seed, trials=500).values()
    assert result.trials == 500 * 2
    assert result.passed, result.worst_margin
