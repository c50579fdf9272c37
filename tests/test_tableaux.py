import random
from collections import Counter

import pytest

from rorc import (
    Composition,
    YoungTableau,
    chain_to_tableau,
    codim,
    dominance_leq,
    kappa,
    minimal_movement,
    richardson_element,
    richardson_partition,
    richardson_tableau,
    shape_chains,
    shared_row,
    tableau_to_chain,
    tableaux_with_content,
)
from rorc.verify import compositions_of

RUNNING = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)


def test_tableau_validation():
    for rows in ((), ((1,), ())):
        with pytest.raises(ValueError, match="non-empty"):
            YoungTableau(rows)
    with pytest.raises(ValueError):
        YoungTableau(((1, 1),))          # row not strictly increasing
    with pytest.raises(ValueError):
        YoungTableau(((2,), (1,)))       # column decreasing
    with pytest.raises(ValueError):
        YoungTableau(((1,), (1, 2)))     # shape not a partition
    t = YoungTableau(((1, 2), (1,)))
    assert t.shape == (2, 1)


def test_richardson_tableau_running_example():
    t = richardson_tableau(RUNNING)
    assert t.shape == (9, 8, 6, 5, 5, 2, 1)
    assert t.rows[0] == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert t.rows[4] == (1, 2, 5, 8, 9)
    assert t.rows[5] == (1, 8)
    assert t.rows[6] == (1,)


def test_richardson_tableau_properties():
    assert richardson_tableau(Composition.of(1, 1, 1, 1, 1)).rows == ((1, 2, 3, 4, 5),)
    rng = random.Random(31)
    for _ in range(50):
        d = Composition(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 7))))
        t = richardson_tableau(d)
        assert t.shape == richardson_partition(d)
        assert t.content() == Counter({i: p for i, p in enumerate(d.parts, 1)})


def test_tableaux_with_content_unique_at_top_shape():
    rng = random.Random(37)
    for _ in range(20):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))))
        found = tableaux_with_content(richardson_partition(d), d)
        assert found == [richardson_tableau(d)]


def test_tableaux_with_content_running_mu():
    # the two minimal movements (2,5) and (5,9) share this shape, so the
    # enumeration must return exactly their two tableaux
    mu = (9, 8, 6, 5, 4, 3, 1)
    found = tableaux_with_content(mu, RUNNING)
    expected = {
        minimal_movement(RUNNING, 2, 5).tableau,
        minimal_movement(RUNNING, 5, 9).tableau,
    }
    assert len(found) == 2
    assert set(found) == expected
    assert all(t.shape == mu for t in found)


def test_tableaux_with_content_edge_cases():
    assert tableaux_with_content((2,), Composition.of(1, 1)) == [
        YoungTableau(((1, 2),))]
    with pytest.raises(ValueError):
        tableaux_with_content((3,), Composition.of(1, 1))
    # shape above the maximal class: empty, not an error
    assert tableaux_with_content((3,), Composition.of(3)) == []


def test_tableaux_with_content_not_dominated_is_empty():
    # lambda((2,2)) = (2,2); shape (3,1) is not below it
    assert tableaux_with_content((3, 1), Composition.of(2, 2)) == []


def test_shape_and_chain_constructors_refuse_malformed_input():
    d = Composition.of(1, 2)
    for build in (tableaux_with_content, shape_chains):
        with pytest.raises(ValueError, match="not a partition"):
            build((1, 2), d)
        with pytest.raises(ValueError, match="weight mismatch"):
            build((2,), d)
    with pytest.raises(ValueError, match="row 1 by more than one"):
        chain_to_tableau(((1,), (3,)), d)
    with pytest.raises(ValueError, match="do not match the composition"):
        chain_to_tableau(((1,), (1, 1)), d)


def test_chain_bijection_counts_small():
    for n in range(1, 8):
        for parts in compositions_of(n):
            d = Composition(parts)
            lam = richardson_partition(d)
            from rorc import partitions_of

            for mu in partitions_of(n):
                tabs = tableaux_with_content(mu, d)
                chains = shape_chains(mu, d)
                assert len(tabs) == len(chains)
                if not dominance_leq(mu, lam):
                    assert tabs == []
                for t in tabs:
                    chain = tableau_to_chain(t)
                    assert chain in chains
                    assert chain_to_tableau(chain, d) == t
                for c in chains:
                    assert tableau_to_chain(chain_to_tableau(c, d)) == c


def test_richardson_tableau_chain_is_prefix_rule():
    rng = random.Random(41)
    for _ in range(30):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6))))
        chain = tableau_to_chain(richardson_tableau(d))
        for i in range(1, d.t + 1):
            assert chain[i - 1] == richardson_partition(Composition(d.parts[:i]))


def test_shared_row():
    assert shared_row(RUNNING, 2, 5) == 5
    assert shared_row(Composition.of(1, 1, 1), 1, 3) == 1
    rng = random.Random(43)
    for _ in range(50):
        d = Composition(tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 7))))
        t = richardson_tableau(d)
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                s = shared_row(d, i, j)
                assert s == min(d.parts[i - 1], d.parts[j - 1])
                assert i in t.rows[s - 1] and j in t.rows[s - 1]
                assert all(
                    i not in row or j not in row for row in t.rows[s:]
                )


def test_kappa_box_count_identity():
    rng = random.Random(47)
    for _ in range(100):
        d = Composition(tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 8))))
        t = richardson_tableau(d)
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                row = t.rows[shared_row(d, i, j) - 1]
                between = sum(1 for v in row if i < v < j)
                assert between == kappa(d, i, j) - 1


def test_minimal_movement_running_example():
    m25 = minimal_movement(RUNNING, 2, 5)
    assert m25.shape == (9, 8, 6, 5, 4, 3, 1)
    assert m25.drop == 1
    assert m25.tableau.rows[4] == (1, 2, 8, 9)
    assert m25.tableau.rows[5] == (1, 5, 8)
    m59 = minimal_movement(RUNNING, 5, 9)
    assert m59.shape == m25.shape
    assert m59.tableau != m25.tableau
    assert m59.tableau.rows[5] == (1, 8, 9)


def test_minimal_movement_single_row():
    m = minimal_movement(Composition.of(1, 1, 1, 1, 1), 1, 2)
    assert m.shape == (4, 1)
    assert m.drop == 1
    assert m.tableau.rows == ((1, 3, 4, 5), (2,))


def test_minimal_movement_invariants():
    rng = random.Random(53)
    for _ in range(200):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 7))))
        lam = richardson_partition(d)
        i = rng.randint(1, d.t - 1)
        j = rng.randint(i + 1, d.t)
        m = minimal_movement(d, i, j)
        assert m.tableau.weight == d.n
        assert m.tableau.content() == Counter({q: p for q, p in enumerate(d.parts, 1)})
        assert dominance_leq(m.shape, lam) and m.shape != lam
        assert m.drop >= 1


def test_minimal_movement_always_finds_a_row():
    # exhaustive over small compositions: the insertion scan never fails
    for n in range(2, 10):
        for parts in compositions_of(n):
            if len(parts) < 2:
                continue
            d = Composition(parts)
            for i in range(1, d.t):
                for j in range(i + 1, d.t + 1):
                    minimal_movement(d, i, j)


def test_codim_values():
    d = Composition.of(1, 1, 1, 1, 1)
    for i in range(1, 5):
        assert codim(d, i, i + 1) == 1
    assert codim(Composition.of(2, 1, 2), 1, 3) == 1
    assert codim(Composition.of(4, 1), 1, 2) == 4
    with pytest.raises(ValueError):
        codim(Composition.of(2, 2, 1), 1, 3)  # not in gamma_pairs


def test_prefix_jordan_types_match_subtableau_shapes():
    rng = random.Random(59)
    for _ in range(20):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))))
        x = richardson_element(d)
        chain = tableau_to_chain(richardson_tableau(d))
        for i in range(1, d.t + 1):
            assert x.window(d, 1, i).jordan_type() == chain[i - 1]
