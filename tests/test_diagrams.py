import random

import numpy as np
import pytest

from rorc import (
    Composition,
    LineDiagram,
    chain_lengths,
    complete_diagram,
    diagram_partition,
    dominance_leq,
    max_window_rank,
    partitions_of,
    richardson_element,
    richardson_partition,
    render_ascii,
    subdiagram,
)
from rorc.diagrams import (
    chain_window_rank,
    edge_chains,
    tableau_diagram,
    vertex_id,
    window_chains,
)
from rorc.matrices import ExactMatrix
from rorc.strata import rank_tables, window_tables
from rorc.verify import compositions_of
from rorc.tableaux import richardson_tableau, tableau_to_chain, tableaux_with_content

RUNNING = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)


def random_branchless(rng: random.Random, d: Composition) -> LineDiagram:
    """Random sub-diagram of the complete one, plus a few random stub joins."""
    edges = set(e for e in complete_diagram(d).edges if rng.random() < 0.6)
    diagram = LineDiagram(d, frozenset(edges))
    for _ in range(4):
        has_right = {a for a, _ in edges}
        has_left = {b for _, b in edges}
        free = [
            (u, v)
            for u in range(1, d.n + 1) if u not in has_right
            for v in range(1, d.n + 1) if v not in has_left
            and diagram.vertex_column(u) < diagram.vertex_column(v)
        ]
        if not free:
            break
        edges.add(free[rng.randrange(len(free))])
    return LineDiagram(d, frozenset(edges))


def test_complete_diagram_chain_lengths():
    assert chain_lengths(complete_diagram(Composition.of(3, 1, 2, 4))) == (3, 2, 1, 0)
    lengths = chain_lengths(complete_diagram(RUNNING))
    assert tuple(c + 1 for c in lengths) == (9, 8, 6, 5, 5, 2, 1)
    single = complete_diagram(Composition.of(1))
    assert not single.edges
    assert chain_lengths(single) == (0,)


def test_branchless_rejected():
    d = Composition.of(1, 1, 1)
    with pytest.raises(ValueError):
        LineDiagram(d, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(ValueError):
        LineDiagram(d, frozenset({(1, 3), (2, 3)}))
    with pytest.raises(ValueError):
        LineDiagram(Composition.of(2, 1), frozenset({(1, 2)}))  # same column
    for edge in ((0, 2), (1, 4)):
        with pytest.raises(ValueError, match="out of vertex range"):
            LineDiagram(d, frozenset({edge}))


def test_subdiagram_matches_window_composition():
    rng = random.Random(5)
    for _ in range(30):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7))))
        full = complete_diagram(d)
        for i in range(1, d.t + 1):
            for j in range(i, d.t + 1):
                assert subdiagram(full, i, j) == complete_diagram(d.window(i, j))
    full = complete_diagram(RUNNING)
    assert subdiagram(full, 4, 7) == complete_diagram(Composition.of(3, 5, 1, 2))
    assert subdiagram(full, 1, RUNNING.t) == full
    assert chain_lengths(subdiagram(full, 3, 3)) == (0, 0)


def test_diagram_partition():
    assert diagram_partition(complete_diagram(Composition.of(3, 1, 2, 4))) == (4, 3, 2, 1)
    assert diagram_partition(complete_diagram(Composition.of(2, 1, 2))) == (3, 2)
    d = Composition.of(3, 2)
    assert diagram_partition(LineDiagram(d, frozenset())) == (1, 1, 1, 1, 1)


def test_vertex_count_conservation():
    rng = random.Random(6)
    for _ in range(50):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6))))
        diagram = random_branchless(rng, d)
        assert sum(c + 1 for c in chain_lengths(diagram)) == d.n
        assert dominance_leq(diagram_partition(diagram), richardson_partition(d))


def test_richardson_element_explicit():
    x = richardson_element(Composition.of(3, 1, 2, 4))
    expected = ExactMatrix.from_triples(
        10, [(0, 3, 1), (3, 4, 1), (4, 6, 1), (1, 5, 1), (5, 7, 1), (2, 8, 1)]
    )
    assert x.rows == expected.rows
    sq = x.power(2)
    assert sq.rows == ExactMatrix.from_triples(
        10, [(0, 4, 1), (3, 6, 1), (1, 7, 1)]).rows
    assert x.power(3).rows == ExactMatrix.from_triples(10, [(0, 6, 1)]).rows
    assert x.power(4).is_zero()
    assert x.jordan_type() == (4, 3, 2, 1)


def test_richardson_element_special_cases():
    ones = richardson_element(Composition.of(1, 1, 1, 1))
    assert ones.rows == ExactMatrix.from_triples(
        4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).rows
    tall = richardson_element(Composition.of(4, 1))
    assert tall.rows == ExactMatrix.from_triples(5, [(0, 4, 1)]).rows
    assert tall.jordan_type() == (2, 1, 1, 1)


def test_jordan_type_matches_diagram_partition():
    rng = random.Random(9)
    for _ in range(100):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))))
        diagram = random_branchless(rng, d)
        assert diagram.to_matrix().jordan_type() == diagram_partition(diagram)


def test_max_window_rank_known_values():
    d212 = Composition.of(2, 1, 2)
    assert max_window_rank(d212, 1, 3, 1) == 3
    assert max_window_rank(d212, 1, 3, 2) == 1
    d = Composition.of(3, 1, 2, 4)
    assert max_window_rank(d, 1, 4, 2) == 3
    assert max_window_rank(d, 1, 4, 3) == 1
    with pytest.raises(ValueError, match="power must be >= 1"):
        max_window_rank(d, 1, 4, 0)


def test_max_window_rank_positivity():
    rng = random.Random(13)
    for _ in range(50):
        d = Composition(tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 7))))
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                for k in range(1, d.t + 1):
                    assert (max_window_rank(d, i, j, k) > 0) == (k <= j - i)


def test_max_window_rank_equals_smallest_parts_sum():
    rng = random.Random(17)
    for _ in range(50):
        d = Composition(tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 7))))
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                w = sorted(d.parts[i - 1 : j])
                for k in range(1, j - i + 1):
                    assert max_window_rank(d, i, j, k) == sum(w[: j - i - k + 1])


def test_max_window_rank_is_exact_window_rank():
    rng = random.Random(19)
    for _ in range(20):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5))))
        x = richardson_element(d)
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                for k in range(1, j - i + 1):
                    assert (
                        x.window(d, i, j).power(k).rank()
                        == max_window_rank(d, i, j, k)
                    )


def _line_diagrams(d: Composition):
    """Every line diagram of d as an edge set: each vertex in turn takes no
    right partner or a vertex of a later column that has no left one yet."""
    blk = d.block_of

    def extend(u, taken, edges):
        if u > d.n:
            yield frozenset(edges)
            return
        yield from extend(u + 1, taken, edges)
        for v in range(u + 1, d.n + 1):
            if blk[v - 1] > blk[u - 1] and v not in taken:
                yield from extend(u + 1, taken | {v}, [*edges, (u, v)])

    return extend(1, frozenset(), [])


def test_chain_window_rank_matches_rank_tables_on_every_small_diagram():
    """The chain count against the mod-p rank table at every window and power
    of every line diagram of every composition of n <= 7 with t >= 2."""
    total = 0
    for n in range(2, 8):
        for parts in compositions_of(n):
            if len(parts) < 2:
                continue
            d = Composition(parts)
            tab = window_tables(d)
            diagrams = list(_line_diagrams(d))
            mats = np.zeros((len(diagrams), n, n), dtype=np.int64)
            want = np.full((len(diagrams), len(tab.pairs), tab.kmax), -1, dtype=np.int64)
            for b, edges in enumerate(diagrams):
                for u, v in edges:
                    mats[b, u - 1, v - 1] = 1
                visits = [[d.block_of[v - 1] for v in path] for path in edge_chains(n, edges)]
                for pi, (i, j) in enumerate(tab.pairs):
                    for k in range(1, j - i + 1):
                        want[b, pi, k - 1] = chain_window_rank(visits, i, j, k)
            for p in (2, 32003):
                assert np.array_equal(rank_tables(mats, tab, p), want)
            total += len(diagrams)
    assert total == 23008


def test_window_chains():
    # entry h-1: the window columns of size >= h, in order
    assert window_chains(RUNNING, 4, 7) == [[4, 5, 6, 7], [4, 5, 7], [4, 5], [5], [5]]
    assert window_chains(RUNNING, 6, 6) == [[6]]
    rows = richardson_tableau(RUNNING).rows
    assert [tuple(c) for c in window_chains(RUNNING, 1, RUNNING.t)] == list(rows)
    with pytest.raises(ValueError):
        window_chains(RUNNING, 5, 4)


def test_tableau_diagram_realizes_prefixes():
    rng = random.Random(23)
    for _ in range(20):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6))))
        tab = richardson_tableau(d)
        assert tableau_diagram(tab, d) == complete_diagram(d)


def test_tableau_diagram_realizes_every_tableau():
    # every tableau of every composition of n <= 7, mu running over partitions_of(n)
    # (those not below lambda(d) have none): chain r visits the columns of row r,
    # and the columns 1..m carry the shape of the entries <= m
    total = 0
    for n in range(1, 8):
        for parts in compositions_of(n):
            d = Composition(parts)
            for mu in partitions_of(n):
                for tab in tableaux_with_content(mu, d):
                    diagram = tableau_diagram(tab, d)
                    visits = sorted(tuple(diagram.vertex_column(v) for v in path)
                                    for path in diagram.chains())
                    assert visits == sorted(tab.rows)
                    for m, shape in enumerate(tableau_to_chain(tab), start=1):
                        assert diagram_partition(subdiagram(diagram, 1, m)) == shape
                    total += 1
    assert total == 3051


def test_render_ascii_complete():
    text = render_ascii(complete_diagram(Composition.of(3, 1, 2, 4)))
    lines = text.splitlines()
    assert lines[0] == "o---o---o---o"
    assert lines[1] == "o-------o---o"
    assert lines[2] == "o-----------o"
    assert lines[3] == "            o"
    assert "edge" not in text  # every complete-diagram edge renders horizontally


def test_render_ascii_lists_non_horizontal_edges():
    d = Composition.of(2, 1)
    diagram = LineDiagram(d, frozenset({(2, 3)}))
    text = render_ascii(diagram)
    assert "edge 2->3" in text


def test_vertex_id_and_heights():
    d = Composition.of(3, 1, 2, 4)
    assert vertex_id(d, 1, 1) == 1
    assert vertex_id(d, 2, 1) == 4
    assert vertex_id(d, 4, 4) == 10
    with pytest.raises(ValueError):
        vertex_id(d, 2, 2)


def test_subdiagram_of_general_diagram():
    # edges crossing the window boundary are dropped; inside edges re-index
    d = Composition.of(2, 1, 2)
    diagram = LineDiagram(d, frozenset({(1, 3), (3, 4), (2, 5)}))
    sub = subdiagram(diagram, 2, 3)
    assert sub.columns == Composition.of(1, 2)
    assert sub.edges == {(1, 2)}  # the old (3,4), shifted by the window offset
    assert chain_lengths(sub) == (1, 0)


def test_block_of_and_vertex_column_agree_with_offsets():
    rng = random.Random(17)
    for _ in range(40):
        d = Composition.of(*(rng.randint(1, 5) for _ in range(rng.randint(1, 7))))
        o = d.offsets
        assert d.block_of == tuple(
            next(b for b in range(1, d.t + 1) if x < o[b]) for x in range(d.n))
        diagram = LineDiagram(d)
        for v in range(1, d.n + 1):
            c = diagram.vertex_column(v)
            assert o[c - 1] < v <= o[c] and c == d.block_of[v - 1]
        for v in (0, d.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                diagram.vertex_column(v)
    # the cached geometry stays out of equality and hashing
    d = Composition.of(2, 1, 2)
    assert d.block_of == (1, 1, 2, 3, 3) and d.offsets == (0, 2, 3, 5)
    assert d == Composition.of(2, 1, 2) and hash(d) == hash(Composition.of(2, 1, 2))
