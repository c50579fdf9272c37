"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 evaluates the low-power containment (Z_ij^l in Z_ij for
l < kappa(i,j)) exactly as stated.  That containment is mathematically false,
so criterion 5 asserts its refutation: the harness must report violations on
the population, and every counterexample it records must be re-certified as
genuine, and as covered by a component stratum, by the exact ExactMatrix
predicates.  The analysis is in docs/low_power_lemma.md; the hand-checked
counterexample is pinned in tests/test_strata.py::
test_low_power_defect_does_not_force_threshold_defect.  The report check
lemma_below_threshold itself stays red.  All criteria pass at their stated
tolerances.
"""

import time

import numpy as np
import pytest

from rorc import (
    Composition,
    ExactMatrix,
    ExperimentConfig,
    check_component_count,
    decompose,
    dominance_leq,
    gamma_pairs,
    gl5_fixture_suite,
    in_stratum,
    kappa,
    lambda_pairs,
    minimal_movement,
    partitions_of,
    rank_defect,
    richardson_element,
    richardson_partition,
    richardson_tableau,
    run_checks,
    shape_chains,
    shared_row,
    tableau_to_chain,
    tableaux_with_content,
    witness,
)
from rorc.verify import _VIOLATION_CAP, compositions_of, random_composition

RUNNING = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)
POPULATION_SEED = 20240


@pytest.fixture(scope="module")
def random_population():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(POPULATION_SEED)))
    return [random_composition(rng, max_t=6, max_part=4) for _ in range(100)]


@pytest.fixture(scope="module")
def population_checks(random_population):
    """One verification pass per population composition (F_32003, 10^3
    trials, seed POPULATION_SEED + idx): criteria 4 and 5 read the theorem
    and lemma checks of the same ranked matrices, by check name."""
    out = []
    for idx, d in enumerate(random_population):
        cfg = ExperimentConfig(d=d, mode="sample", fieldsize=32003,
                               trials=1000, seed=POPULATION_SEED + idx)
        out.append({c.name: c for c in run_checks(cfg, ("theorem", "lemmas")).checks})
    return out


def test_criterion_1_parameter_sets():
    start = time.perf_counter()
    assert gamma_pairs(Composition.of(1, 3, 4, 2)) == {
        (1, 2), (2, 3), (3, 4), (2, 4), (1, 4)}
    assert lambda_pairs(Composition.of(1, 3, 4, 2)) == {(2, 3), (2, 4), (1, 4)}
    assert gamma_pairs(Composition.of(1, 2, 3, 2)) == {
        (1, 2), (2, 3), (3, 4), (2, 4)}
    assert lambda_pairs(Composition.of(1, 2, 3, 2)) == {(1, 2), (2, 4)}
    for parts in [(1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 3, 3)]:
        d = Composition(parts)
        assert lambda_pairs(d) == gamma_pairs(d) == {
            (i, i + 1) for i in range(1, d.t)}
    assert gamma_pairs(RUNNING) == {(i, i + 1) for i in range(1, 9)} | {
        (1, 8), (2, 4), (2, 5), (3, 6), (3, 7), (4, 6),
        (4, 7), (5, 7), (5, 8), (5, 9), (7, 9)}
    assert len(gamma_pairs(RUNNING)) == 19
    assert lambda_pairs(RUNNING) == {(1, 8), (2, 5), (3, 7), (5, 9)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS - parameter-set fixtures exact ({elapsed:.3f}s)")


def test_criterion_2_richardson_element_fixture():
    d = Composition.of(3, 1, 2, 4)
    x = richardson_element(d)
    units = lambda triples: ExactMatrix.from_triples(10, [(r, c, 1) for r, c in triples])
    assert x == units([(0, 3), (3, 4), (4, 6), (1, 5), (5, 7), (2, 8)]).with_blocks(d)
    assert x.power(2) == units([(0, 4), (3, 6), (1, 7)])
    assert x.power(3) == units([(0, 6)])
    assert x.power(4).is_zero() and x.power(5).is_zero()
    assert x.jordan_type() == (4, 3, 2, 1)
    print("\ncriterion 2: PASS - dense-orbit element and its powers match term-for-term")


def test_criterion_3_gl5_suite():
    start = time.perf_counter()
    report = gl5_fixture_suite(seed=1)
    elapsed = time.perf_counter() - start
    expected = {
        "1,1,1,1,1": 4,
        "1,1,1,2": 3, "2,1,1,1": 3,
        "1,1,2,1": 2, "1,2,1,1": 2,
        "2,2,1": 2, "1,2,2": 2,
        "2,1,2": 1,
        "1,3,1": 1,
        "4,1": 1, "1,4": 1,
    }
    by_name = {c.name: c for c in report.checks}
    assert len(by_name) == 15
    for key, n_components in expected.items():
        check = by_name[f"gl5_{key}"]
        assert check.passed, check.counts
        assert check.counts["components"] == n_components
        assert check.counts["uncovered"] == 0
    for key in ("4,1", "1,4"):
        assert by_name[f"gl5_{key}"].counts["defective"] == 1  # Z = {0}
    assert report.passed
    assert elapsed < 60.0
    print(f"\ncriterion 3: PASS - GL5 exhaustive F2 suite, 15 compositions ({elapsed:.1f}s)")


def test_criterion_4_theorem_sampling(random_population, population_checks):
    total = hits = 0
    for d, by_name in zip(random_population, population_checks):
        generic = by_name["generic_sampling"]
        forced = by_name["forced_defect_coverage"]
        for check in (generic, forced):
            assert check.passed, (d.parts, check.name, check.counts)
        assert forced.counts["uncovered"] == 0
        assert forced.counts["soundness_failures"] == 0
        total += generic.counts["trials"]
        hits += generic.counts["richardson"]
    freq = hits / total
    assert freq >= 0.99
    print(f"\ncriterion 4: PASS - 100 d x 10^3 forced defects covered; "
          f"generic frequency {freq:.5f}")


def _refutes_low_power_containment(a: ExactMatrix, d: Composition) -> bool:
    """True when some window (i, j) of a is defective at an exponent
    l < kappa(i, j) while a lies outside the stratum Z_ij."""
    return any(
        rank_defect(a, d, i, j, l) and not in_stratum(a, d, i, j)
        for i in range(1, d.t)
        for j in range(i + 1, d.t + 1)
        for l in range(1, kappa(d, i, j))
    )


def test_criterion_5_lemma_suite(random_population, population_checks):
    """The five lemma containments on the sampled population.

    The four sound containments, and the symbolic kappa/tableau identity,
    hold with zero violations.  The low-power containment Z_ij^l in Z_ij
    (l < kappa(i,j)) is false, so this criterion asserts its refutation:
    lemma_below_threshold is red exactly where it counts violations, the
    population has some, and each recorded counterexample is re-certified by
    the exact ExactMatrix predicates as genuine and as lying in a stratum of
    lambda_pairs(d).  See docs/low_power_lemma.md.
    """
    sound = {"empty_stratum_symbolic", "kappa_tableau_identity",
             "lemma_above_threshold", "lemma_outside_gamma", "lemma_absorbed"}
    below_violations = 0
    population = 0
    red = 0
    recertified = 0
    for d, by_name in zip(random_population, population_checks):
        for name in sound:
            assert by_name[name].passed, (d.parts, name, by_name[name].counts)
        below = by_name["lemma_below_threshold"]
        n_bad = below.counts["violations"]
        assert below.passed == (n_bad == 0), (d.parts, below.counts)
        assert len(below.violations) == min(n_bad, _VIOLATION_CAP), (
            d.parts, below.counts, len(below.violations))
        below_violations += n_bad
        population += below.counts["population"]
        red += not below.passed
        lam = lambda_pairs(d)
        for entry in below.violations:
            a = ExactMatrix.from_json_dict(entry["matrix"])
            assert _refutes_low_power_containment(a, d), (
                "recorded low-power counterexample is not genuine", d.parts, entry)
            assert any(in_stratum(a, d, *pq) for pq in lam), (
                "low-power counterexample outside every component stratum",
                d.parts, entry)
            recertified += 1
    assert below_violations > 0, (
        "the low-power containment (defect at l < kappa implies the stratum "
        f"defect) showed no violation on {population} population matrices; "
        "it is false (docs/low_power_lemma.md), so the harness has stopped "
        "finding its counterexamples")
    print(f"\ncriterion 5: PASS - emptyset/l>kappa/not-Gamma/not-Lambda hold on "
          f"{population} matrices; l<kappa refuted by {below_violations} "
          f"violations on {red} of {len(random_population)} d, {recertified} "
          f"counterexamples re-certified exactly, each in a Lambda stratum "
          f"(docs/low_power_lemma.md)")


def test_criterion_6_tableau_identities():
    # shape and box-count identities on the running example and at random
    assert richardson_tableau(RUNNING).shape == richardson_partition(RUNNING)
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = random_composition(rng, max_t=7, max_part=6, min_t=2)
        t = richardson_tableau(d)
        assert t.shape == richardson_partition(d)
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                s = shared_row(d, i, j)
                assert s == min(d.parts[i - 1], d.parts[j - 1])
                row = t.rows[s - 1]
                assert sum(1 for v in row if i < v < j) == kappa(d, i, j) - 1
    m25 = minimal_movement(RUNNING, 2, 5)
    m59 = minimal_movement(RUNNING, 5, 9)
    assert m25.shape == m59.shape == (9, 8, 6, 5, 4, 3, 1)
    assert m25.tableau != m59.tableau

    # unique filling at the maximal shape, for every composition of n <= 8
    for n in range(1, 9):
        for parts in compositions_of(n):
            d = Composition(parts)
            assert tableaux_with_content(richardson_partition(d), d) == [
                richardson_tableau(d)]

    # filling/chain bijection for every mu dominated by lambda(d), n <= 10
    checked = 0
    for n in range(1, 11):
        partitions = list(partitions_of(n))
        for parts in compositions_of(n):
            d = Composition(parts)
            lam = richardson_partition(d)
            for mu in partitions:
                if not dominance_leq(mu, lam):
                    assert tableaux_with_content(mu, d) == []
                    continue
                tabs = tableaux_with_content(mu, d)
                chains = shape_chains(mu, d)
                assert len(tabs) == len(chains)
                assert sorted(tableau_to_chain(t) for t in tabs) == chains
                checked += 1
    print(f"\ncriterion 6: PASS - tableau identities; bijection on {checked} "
          f"(shape, d) pairs up to n=10")


def test_criterion_7_component_count_bound():
    cfg = ExperimentConfig(d=Composition.of(1, 1), trials=10_000, seed=77)
    rep = check_component_count(cfg)
    counts = rep.checks[0].counts
    assert rep.passed, counts
    assert counts["bound_violations"] == 0
    assert counts["monotone_equality_failures"] == 0
    assert counts["distinct_equality_failures"] == 0
    print("\ncriterion 7: PASS - |Lambda(d)| <= t-1 on 10^4 random d, "
          "equality for monotone and all-distinct d")


def test_criterion_8_witness_separation(random_population):
    lam9 = sorted(lambda_pairs(RUNNING))
    for pair in lam9:
        w = witness(RUNNING, pair, seed=3)
        hits = [pq for pq in lam9 if in_stratum(w, RUNNING, *pq)]
        assert hits == [pair]
    searched = 0
    for idx, d in enumerate(random_population):
        lam = sorted(lambda_pairs(d))
        if len(lam) < 2:
            continue
        for pair in lam:
            w = witness(d, pair, seed=POPULATION_SEED + idx)
            hits = [pq for pq in lam if in_stratum(w, d, *pq)]
            assert hits == [pair], (d.parts, pair, hits)
            searched += 1
    print(f"\ncriterion 8: PASS - 4 running-example witnesses plus {searched} "
          f"strata of the random population, all separating")


def test_criterion_9_codimension_spot_checks():
    d = Composition.of(1, 1, 1, 1, 1)
    dec = decompose(d)
    assert [s.codim for s in dec.strata] == [1, 1, 1, 1]
    cfg = ExperimentConfig(d=d, mode="exhaustive", fieldsize=2)
    counts = run_checks(cfg, ("theorem",)).checks[0].counts
    free_dim = ExperimentConfig(d=d).free_dim
    for pair_key, size in counts["per_stratum"].items():
        assert size == 2 ** (free_dim - 1)  # coordinate hyperplanes over F_2

    d41 = Composition.of(4, 1)
    dec41 = decompose(d41)
    assert len(dec41.strata) == 1
    assert dec41.strata[0].codim == 4
    counts41 = run_checks(
        ExperimentConfig(d=d41, mode="exhaustive", fieldsize=2),
        ("theorem",)).checks[0].counts
    assert counts41["defective"] == 1  # the complement is the zero matrix
    assert counts41["per_stratum"]["1,2"] == 1
    print("\ncriterion 9: PASS - hyperplane counts |Z(F2)| = 2^(dim-1) and "
          "the zero-complement codimension 4")
