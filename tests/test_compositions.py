import pytest

from rorc import (
    Composition,
    conjugate,
    decompose,
    dominance_leq,
    gamma_pairs,
    high_intermediates,
    kappa,
    lambda_pairs,
    low_intermediates,
    max_window_rank,
    partitions_of,
    richardson_partition,
)
from rorc.verify import compositions_of

RUNNING = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((3, 0, 1))
    d = Composition.of(2, 4, 7)
    assert d.t == 3 and d.n == 13
    assert d.offsets == (0, 2, 6, 13)


def test_richardson_partition_known_values():
    assert richardson_partition(Composition.of(3, 1, 2, 4)) == (4, 3, 2, 1)
    assert richardson_partition(RUNNING) == (9, 8, 6, 5, 5, 2, 1)
    assert richardson_partition(Composition.of(5)) == (1, 1, 1, 1, 1)


def test_richardson_partition_properties():
    import random

    rng = random.Random(7)
    for _ in range(50):
        parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 7)))
        d = Composition(parts)
        lam = richardson_partition(d)
        assert sum(lam) == d.n
        assert lam[0] == d.t
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert richardson_partition(Composition(tuple(shuffled))) == lam


def test_intermediate_index_sets():
    assert low_intermediates(RUNNING, 2, 5) == {3, 4}
    assert low_intermediates(RUNNING, 2, 6) == frozenset()
    assert high_intermediates(RUNNING, 2, 6) == {3, 4, 5}
    d = Composition.of(1, 2, 3)
    assert low_intermediates(d, 1, 2) == frozenset()
    assert high_intermediates(d, 2, 3) == frozenset()
    with pytest.raises(ValueError):
        low_intermediates(d, 2, 2)


def test_kappa_known_values():
    assert kappa(RUNNING, 2, 6) == 4
    assert kappa(RUNNING, 4, 7) == 2
    for i in range(1, RUNNING.t):
        assert kappa(RUNNING, i, i + 1) == 1


def test_kappa_two_formulas_agree():
    import random

    rng = random.Random(3)
    for _ in range(100):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 8))))
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                k = kappa(d, i, j)
                assert k == 1 + len(high_intermediates(d, i, j))
                assert k == (j - i) - len(low_intermediates(d, i, j))


def test_gamma_pairs_examples():
    assert gamma_pairs(Composition.of(1, 3, 4, 2)) == {
        (1, 2), (2, 3), (3, 4), (2, 4), (1, 4)}
    assert gamma_pairs(Composition.of(1, 2, 3, 2)) == {
        (1, 2), (2, 3), (3, 4), (2, 4)}
    expected = {(i, i + 1) for i in range(1, 9)} | {
        (1, 8), (2, 4), (2, 5), (3, 6), (3, 7), (4, 6),
        (4, 7), (5, 7), (5, 8), (5, 9), (7, 9)}
    assert gamma_pairs(RUNNING) == expected
    assert len(gamma_pairs(RUNNING)) == 19


def test_lambda_pairs_examples():
    assert lambda_pairs(Composition.of(1, 3, 4, 2)) == {(2, 3), (2, 4), (1, 4)}
    assert lambda_pairs(Composition.of(1, 2, 3, 2)) == {(1, 2), (2, 4)}
    assert lambda_pairs(RUNNING) == {(1, 8), (2, 5), (3, 7), (5, 9)}


def test_lambda_pairs_monotone():
    for parts in [(1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 2, 3), (2, 2, 2)]:
        d = Composition(parts)
        consecutive = {(i, i + 1) for i in range(1, d.t)}
        assert gamma_pairs(d) == consecutive
        assert lambda_pairs(d) == consecutive


def test_lambda_subset_gamma_and_bound():
    import random

    rng = random.Random(11)
    for _ in range(200):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8))))
        lam = lambda_pairs(d)
        assert lam <= gamma_pairs(d)
        assert len(lam) <= d.t - 1


def test_dominance_examples():
    assert dominance_leq((9, 8, 6, 5, 4, 3, 1), (9, 8, 6, 5, 5, 2, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    lam = (4, 3, 2, 1)
    assert dominance_leq(lam, lam)
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (4,))


def test_dominance_is_partial_order_small_weights():
    for n in range(1, 9):
        parts = list(partitions_of(n))
        for a in parts:
            assert dominance_leq(a, a)
        for a in parts:
            for b in parts:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
        for a in parts:
            for b in parts:
                if not dominance_leq(a, b):
                    continue
                for c in parts:
                    if dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_conjugate_involution():
    for n in range(1, 9):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_mirror_keeps_the_combinatorics():
    """The mirror A -> J A^T J maps the nilradical of d onto that of
    reversed(d), and the window (i, j) onto (t+1-j, t+1-i).  On every
    composition with n <= 8, that relabelling carries gamma, Lambda, kappa
    and the maximal window ranks of d onto those of reversed(d), and each
    component's kappa, threshold, codim and mu onto its mirror's."""
    count = 0
    for n in range(1, 9):
        for parts in compositions_of(n):
            d, r = Composition(parts), Composition(parts[::-1])
            t = d.t

            def mirror(pair):
                return t + 1 - pair[1], t + 1 - pair[0]

            assert set(map(mirror, gamma_pairs(d))) == gamma_pairs(r)
            assert set(map(mirror, lambda_pairs(d))) == lambda_pairs(r)
            for i in range(1, t):
                for j in range(i + 1, t + 1):
                    assert kappa(d, i, j) == kappa(r, *mirror((i, j)))
                    assert [max_window_rank(d, i, j, k) for k in range(1, t + 1)] == [
                        max_window_rank(r, *mirror((i, j)), k) for k in range(1, t + 1)]
            mirrored = {s.pair: s for s in decompose(r).strata}
            for s in decompose(d).strata:
                m = mirrored[mirror(s.pair)]
                assert (s.kappa, s.rank_threshold, s.codim, s.mu) == (
                    m.kappa, m.rank_threshold, m.codim, m.mu)
            count += 1
    assert count == 2 ** 8 - 1
