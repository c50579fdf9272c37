import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, prevprime
from sympy.polys.matrices import DomainMatrix

from rorc import (
    Composition,
    ExactMatrix,
    WitnessSearchError,
    decompose,
    defect_profile,
    in_nilradical,
    in_stratum,
    is_richardson,
    kappa,
    lambda_pairs,
    max_window_rank,
    minimal_movement,
    rank_defect,
    richardson_element,
    separates,
    witness,
)
from rorc.cli import main
from rorc.verify import compositions_of
from rorc.diagrams import LineDiagram, chain_window_rank, complete_diagram, edge_chains
from rorc.strata import defect_flags, rank_tables, stratum_flags, window_tables
from rorc.strata import _candidates, _exact_defects

RUNNING = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)


def test_in_nilradical():
    d = Composition.of(3, 1, 2, 4)
    assert in_nilradical(richardson_element(d), d)
    assert not in_nilradical(ExactMatrix.identity(10), d)
    bad = ExactMatrix.from_triples(10, [(3, 0, 1)])  # block (2,1)
    assert not in_nilradical(bad, d)
    with pytest.raises(ValueError):
        in_nilradical(ExactMatrix.identity(3), d)


def test_exact_predicates_refuse_a_matrix_outside_the_nilradical():
    d = Composition.of(2, 1, 2)
    bad = ExactMatrix.from_triples(5, [(0, 1, 1)])     # inside diagonal block 1
    for predicate in (lambda a: rank_defect(a, d, 1, 3, 1),
                      lambda a: in_stratum(a, d, 1, 3),
                      lambda a: defect_profile(a, d),
                      lambda a: separates(a, d, (1, 3)),
                      lambda a: is_richardson(a, d)):
        with pytest.raises(ValueError, match="nilradical"):
            predicate(bad)
    with pytest.raises(ValueError, match="power must be >= 1"):
        rank_defect(richardson_element(d), d, 1, 3, 0)


def test_rank_defect_on_richardson_is_false():
    rng = random.Random(5)
    for _ in range(15):
        d = Composition(tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5))))
        x = richardson_element(d)
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                for k in range(1, j - i + 1):
                    assert not rank_defect(x, d, i, j, k)
                assert not rank_defect(x, d, i, j, j - i + 1)  # beyond the span


def test_rank_defect_zeroed_superdiagonal():
    d = Composition.of(1, 1, 1, 1, 1)
    x = richardson_element(d)
    rows = [list(r) for r in x.rows]
    rows[0][1] = 0
    a = ExactMatrix(rows)
    assert rank_defect(a, d, 1, 2, 1)
    assert in_stratum(a, d, 1, 2)
    assert not in_stratum(a, d, 3, 4)


def test_in_stratum_2_1_2_zero_first_block():
    # zero block (1,2), generic blocks (1,3) and (2,3) over F_p
    d = Composition.of(2, 1, 2)
    rng = random.Random(7)
    rows = [[0] * 5 for _ in range(5)]
    for r in range(2):
        for c in (3, 4):
            rows[r][c] = rng.randint(1, 32002)
    rows[2][3] = rng.randint(1, 32002)
    rows[2][4] = rng.randint(1, 32002)
    a = ExactMatrix(rows, field="Fp:32003")
    assert in_stratum(a, d, 1, 3)


def test_kappa_definition_vs_worked_description_2_1_2():
    """Surfaces the relation between the two candidate descriptions of the
    single component for d=(2,1,2): the threshold definition {rk A < 3}
    strictly contains the squared-rank description {rk A^2 = 0} (checked
    exhaustively over F_2), and only the former matches the decomposition:
    E_13 + E_23 + E_34 has rank 2 < 3 but a nonzero square, is not of generic
    type, and lies in no other candidate stratum."""
    d = Composition.of(2, 1, 2)
    assert kappa(d, 1, 3) == 1
    positions = [
        (r, c) for r in range(5) for c in range(5)
        if (r < 2 and c >= 2) or (r == 2 and c >= 3)
    ]
    assert len(positions) == 8
    strict = 0
    for mask in range(2 ** 8):
        rows = [[0] * 5 for _ in range(5)]
        for bit, (r, c) in enumerate(positions):
            rows[r][c] = (mask >> bit) & 1
        a = ExactMatrix(rows, field="Fp:2")
        lhs = a.rank() < 3
        rhs = a.power(2).rank() == 0
        assert rhs <= lhs  # square-zero implies first-power defect
        strict += lhs and not rhs
    assert strict > 0  # the containment is strict; the sets do not coincide

    a = ExactMatrix.from_triples(5, [(0, 2, 1), (1, 2, 1), (2, 3, 1)])
    assert a.rank() == 2 and not a.power(2).is_zero()
    assert not is_richardson(a, d)
    assert in_stratum(a, d, 1, 3)
    assert not rank_defect(a, d, 1, 2, 1) and not rank_defect(a, d, 2, 3, 1)


def test_is_richardson():
    d = Composition.of(2, 2, 1)
    assert is_richardson(richardson_element(d), d)
    assert not is_richardson(ExactMatrix.zeros(5), d)
    assert is_richardson(ExactMatrix.zeros(3), Composition.of(3))


def test_is_richardson_generic_frequency():
    d = Composition.of(2, 2, 1)
    rng = np.random.default_rng(11)
    hits = 0
    trials = 400
    for _ in range(trials):
        rows = [[0] * 5 for _ in range(5)]
        for r in range(4):
            for c in range(2 if r < 2 else 4, 5):
                rows[r][c] = int(rng.integers(0, 32003))
        if is_richardson(ExactMatrix(rows, field="Fp:32003"), d):
            hits += 1
    assert hits / trials >= 0.99


def test_decompose_fixtures():
    dec = decompose(Composition.of(1, 1, 1, 1, 1))
    assert [s.pair for s in dec.strata] == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert all(s.codim == 1 for s in dec.strata)
    assert decompose(Composition.of(2, 1, 2)).strata[0].pair == (1, 3)
    assert len(decompose(Composition.of(2, 1, 2)).strata) == 1
    dec9 = decompose(RUNNING)
    assert [s.pair for s in dec9.strata] == [(1, 8), (2, 5), (3, 7), (5, 9)]
    assert dec9.lam == (9, 8, 6, 5, 5, 2, 1)


def test_stratum_spec_consistency():
    dec = decompose(RUNNING)
    for s in dec.strata:
        i, j = s.pair
        assert s.kappa == kappa(RUNNING, i, j)
        assert s.rank_threshold == max_window_rank(RUNNING, i, j, s.kappa)
        assert s.codim >= 1
        move = minimal_movement(RUNNING, i, j)
        assert s.mu == move.shape and s.tableau == move.tableau


def test_decomposition_json_schema():
    data = decompose(Composition.of(2, 1, 2)).to_json_dict()
    assert set(data) == {"d", "lambda", "components"}
    comp = data["components"][0]
    assert set(comp) == {"pair", "kappa", "rank_threshold", "codim", "mu", "tableau"}
    assert set(comp["tableau"]) == {"shape", "rows"}


def test_defect_profile():
    d = Composition.of(3, 1, 2, 4)
    assert defect_profile(richardson_element(d), d) == []
    d2 = Composition.of(1, 1)
    assert defect_profile(ExactMatrix.zeros(2), d2) == [(1, 2, 1)]
    d4 = Composition.of(1, 1, 2, 1)
    edges = complete_diagram(d4).edges - {(3, 5)}  # the height-1 edge cols 3->4
    a = LineDiagram(d4, edges).to_matrix()
    assert (2, 4, 2) in defect_profile(a, d4)


def test_defect_profile_empty_iff_richardson():
    rng = np.random.default_rng(13)
    d = Composition.of(2, 1, 2)
    for _ in range(60):
        rows = [[0] * 5 for _ in range(5)]
        for r in range(3):
            for c in range(2 if r < 2 else 3, 5):
                rows[r][c] = int(rng.integers(0, 3))
        a = ExactMatrix(rows, field="Fp:3")
        assert (defect_profile(a, d) == []) == is_richardson(a, d)


def test_witness_borel_case():
    d = Composition.of(1, 1, 1, 1, 1)
    w = witness(d, (1, 2))
    expected = ExactMatrix.from_triples(5, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert w.rows == expected.rows
    for pair in lambda_pairs(d):
        got = witness(d, pair)
        hits = [pq for pq in sorted(lambda_pairs(d)) if in_stratum(got, d, *pq)]
        assert hits == [pair]


def test_witness_single_stratum():
    d = Composition.of(2, 1, 2)
    w = witness(d, (1, 3))
    assert in_stratum(w, d, 1, 3)


def test_witness_certification_survives_optimize():
    # under python -O an assert would vanish; certify must still reject a
    # screened matrix that the exact predicate places outside the stratum
    script = (
        "import rorc.strata as s\n"
        "s._separating = lambda *args: False\n"
        "try:\n"
        "    s.witness(s.Composition.of(2, 1, 2), (1, 3))\n"
        "except AssertionError:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('returned')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "rejected"


def test_witness_running_example_separates():
    lam = sorted(lambda_pairs(RUNNING))
    for pair in lam:
        w = witness(RUNNING, pair)
        assert in_nilradical(w, RUNNING)
        hits = [pq for pq in lam if in_stratum(w, RUNNING, *pq)]
        assert hits == [pair]


def test_separates():
    d = Composition.of(1, 1, 1, 1, 1)
    w = witness(d, (1, 2))
    assert separates(w, d, (1, 2))
    assert not separates(w, d, (2, 3))
    assert not separates(ExactMatrix.zeros(5), d, (1, 2))   # in every stratum
    with pytest.raises(ValueError):
        separates(w, Composition.of(2, 1, 2), (1, 2))


@pytest.mark.parametrize("parts, pair, seed, budget", [
    ((3, 1, 1, 1, 3, 1), (2, 3), 2, 151),
    ((3, 1, 2, 3, 2), (2, 3), 0, 68),
])
def test_witness_budget_counts_walk_trials(parts, pair, seed, budget):
    # only walk trial budget - 1 separates among the first budget trials, so
    # one trial less exhausts the search
    with pytest.raises(WitnessSearchError):
        witness(parts, pair, seed=seed, budget=budget - 1)
    assert separates(witness(parts, pair, seed=seed, budget=budget), parts, pair)


def test_witness_rejects_non_lambda_pair():
    with pytest.raises(ValueError):
        witness(Composition.of(2, 1, 2), (1, 2))


def test_witness_rejects_negative_seed_before_searching():
    # the diagram phase alone finds this witness, so the seed is never read
    d = Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5)
    with pytest.raises(ValueError, match="seed"):
        witness(d, (3, 7), seed=-1)
    # only the walk finds this one; a negative budget is refused, not searched
    with pytest.raises(ValueError, match="budget"):
        witness((3, 1, 1, 1, 3, 1), (2, 3), seed=2, budget=-5)


@pytest.mark.parametrize("value", [2.5, True])
def test_witness_refuses_a_non_integer_seed_or_budget(value):
    # the diagram phase alone finds the first witness, so the seed is never
    # read; the second needs the walk
    with pytest.raises(ValueError, match="seed must be an integer"):
        witness(RUNNING, (3, 7), seed=value)
    for name in ("seed", "budget"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            witness((3, 1, 1, 1, 3, 1), (2, 3), **{name: value})


@pytest.mark.parametrize("k", [1.5, True])
def test_window_rank_predicates_refuse_a_non_integer_power(k):
    d = Composition.of(2, 1, 2)
    with pytest.raises(ValueError, match="power must be an integer"):
        max_window_rank(d, 1, 3, k)
    with pytest.raises(ValueError, match="power must be an integer"):
        rank_defect(richardson_element(d), d, 1, 3, k)


@pytest.mark.parametrize("call", [
    lambda: witness((2, 1, 2), (1.0, 3)),
    lambda: separates(richardson_element((2, 1, 2)), (2, 1, 2), (1, 3.0)),
    lambda: max_window_rank((2, 1, 2), True, 3, 1),
    lambda: max_window_rank((2, 1, 2), 1.5, 3, 1),
    lambda: in_stratum(richardson_element((2, 1, 2)), (2, 1, 2), 1.0, 3),
    lambda: Composition.of(2, 1, 2).window(True, 2),
    lambda: Composition.of(2, 1, 2).check_window(1, 2.0),
], ids=["witness", "separates", "max_window_rank-bool", "max_window_rank-float",
        "in_stratum", "window", "check_window"])
def test_pair_and_window_indices_must_be_integers(call):
    with pytest.raises(ValueError, match="indices must be integers"):
        call()


def test_rank_tables_of_an_empty_batch():
    for d in (Composition.of(3), Composition.of(2, 1, 2), RUNNING):
        tab = window_tables(d)
        for p in (2, 32003):
            empty = np.zeros((0, d.n, d.n), dtype=np.int64)
            assert rank_tables(empty, tab, p).shape == (0, len(tab.pairs), tab.kmax)


def test_window_tables_structure():
    tab = window_tables(Composition.of(2, 1, 2))
    assert tab.pairs == ((1, 2), (1, 3), (2, 3))
    assert tab.starts.tolist() == [0, 0, 2] and tab.stops.tolist() == [3, 5, 5]
    assert list(tab.kappas) == [1, 1, 1]
    assert tab.thresholds[1, 0] == 3 and tab.thresholds[1, 1] == 1
    assert tab.full_index == 1
    assert list(tab.lam) == [False, True, False]
    assert tab.positions.shape == (8, 2)


def _int64_bound_prime(n: int) -> int:
    """The largest prime p with n*(p-1)^2 < 2^63."""
    return prevprime(isqrt((2**63 - 1) // n) + 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       prime=st.sampled_from(["2", "3", "4093", "32003", "1000003", "int64 bound"]),
       seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([1.0, 0.4, 0.1]),
       count=st.integers(1, 3))
def test_rank_tables_match_sympy_window_powers(parts, prime, seed, density, count):
    """Kernel rank tables against sympy's rank over GF(p) of each window
    power, formed with Python-integer products; sparse draws make part of
    the batch rank-deficient."""
    d = Composition.of(*parts)
    p = _int64_bound_prime(d.n) if prime == "int64 bound" else int(prime)
    tab = window_tables(d)
    rng = np.random.default_rng(seed)
    mats = np.zeros((count, d.n, d.n), dtype=np.int64)
    r, c = tab.positions[:, 0], tab.positions[:, 1]
    mats[:, r, c] = (rng.integers(0, p, size=(count, len(r)))
                     * (rng.random((count, len(r))) < density))
    table = rank_tables(mats, tab, p)
    o = d.offsets
    field = GF(p)
    for b in range(count):
        a = mats[b].tolist()
        for pi, (i, j) in enumerate(tab.pairs):
            w = [row[o[i - 1]:o[j]] for row in a[o[i - 1]:o[j]]]
            wk, expected = w, []
            for _ in range(j - i):
                expected.append(DomainMatrix(
                    [[field(v) for v in row] for row in wk], (len(w), len(w)), field).rank())
                wk = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*w)]
                      for row in wk]
            assert table[b, pi, :j - i].tolist() == expected


def _random_line_diagram(rng: random.Random, d: Composition) -> LineDiagram:
    """Edges from a shuffled list of left-to-right vertex pairs, each kept
    when it keeps the diagram branchless and a coin says so."""
    column = [i for i in range(1, d.t + 1) for _ in range(d.parts[i - 1])]
    candidates = [(u, v) for u in range(1, d.n + 1) for v in range(1, d.n + 1)
                  if column[u - 1] < column[v - 1]]
    rng.shuffle(candidates)
    used_right, used_left, edges = set(), set(), []
    for u, v in candidates:
        if u not in used_right and v not in used_left and rng.random() < 0.7:
            used_right.add(u)
            used_left.add(v)
            edges.append((u, v))
    return LineDiagram(d, frozenset(edges))


def test_stratum_flags_match_in_stratum():
    rng = random.Random(5)
    for _ in range(10):
        d = Composition.of(*(rng.randint(1, 3) for _ in range(rng.randint(2, 5))))
        tab = window_tables(d)
        diagrams = [_random_line_diagram(rng, d) for _ in range(4)]
        mats = np.array([g.to_matrix().rows for g in diagrams])
        flags = stratum_flags(defect_flags(rank_tables(mats, tab, 32003), tab), tab)
        for b, g in enumerate(diagrams):
            a = g.to_matrix()
            assert flags[b].tolist() == [in_stratum(a, d, i, j) for i, j in tab.pairs]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_rank_tables_commute_with_the_mirror(p):
    """rank_tables of J A^T J over reversed(d) is the table of A with its
    pairs mirrored, (i, j) -> (t+1-j, t+1-i): the window of J A^T J is J W^T J
    for the window W of A, and so are its powers.  Dense and sparse batches
    of every composition of n <= 7 with t >= 2 and of the running example,
    where the kernel eliminates both tall corners and wide (transposed) ones."""
    rng = np.random.default_rng(p)
    transposed = set()
    for parts in [*(c for n in range(2, 8) for c in compositions_of(n) if len(c) > 1),
                  RUNNING.parts]:
        d, r = Composition(parts), Composition(parts[::-1])
        tab, rtab = window_tables(d), window_tables(r)
        order = [rtab.pairs.index((d.t + 1 - j, d.t + 1 - i)) for i, j in tab.pairs]
        for density in (1.0, 0.2):
            vals = rng.integers(0, p, size=(8, len(tab.positions)))
            vals *= rng.random(vals.shape) < density
            mats = np.zeros((8, d.n, d.n), dtype=np.int64)
            mats[:, tab.positions[:, 0], tab.positions[:, 1]] = vals
            mirrored = mats[:, ::-1, ::-1].transpose(0, 2, 1)
            assert np.array_equal(rank_tables(mirrored, rtab, p)[:, order],
                                  rank_tables(mats, tab, p))
        transposed.update(wide for _, _, _, _, wide, _ in tab.plan[3])
    assert transposed == {False, True}


@pytest.mark.parametrize("p", [2, 32003])
def test_rank_tables_match_bareiss_on_line_diagrams(p):
    """Line-diagram matrices are partial permutations, so every window
    power has the same rank over every field: the mod-p tables must equal
    the Bareiss ranks over Q."""
    rng = random.Random(97)
    for _ in range(25):
        d = Composition.of(*(rng.randint(1, 4) for _ in range(rng.randint(1, 6))))
        tab = window_tables(d)
        diagrams = [_random_line_diagram(rng, d) for _ in range(3)]
        table = rank_tables(np.array([g.to_matrix().rows for g in diagrams]), tab, p)
        for b, g in enumerate(diagrams):
            a = g.to_matrix()
            for pi, (i, j) in enumerate(tab.pairs):
                w = a.window(d, i, j)
                assert table[b, pi, :j - i].tolist() == [
                    w.power(k).rank() for k in range(1, j - i + 1)]


def test_defect_profile_matches_rank_defect():
    """defect_profile and rank_defect agree with a rank of the k-th power of
    each window, computed here independently of the exact defect table, on
    dense, sparse and line-diagram matrices."""
    rng = random.Random(41)
    comps = [RUNNING] + [Composition.of(*(rng.randint(1, 3) for _ in range(rng.randint(1, 5))))
                         for _ in range(10)]
    for d in comps:
        positions = window_tables(d).positions.tolist()
        dense = ExactMatrix.from_triples(d.n, [(r, c, rng.randint(0, 3)) for r, c in positions])
        sparse = ExactMatrix.from_triples(
            d.n, [(r, c, rng.randint(1, 3)) for r, c in positions if rng.random() < 0.2],
            field="Fp:3")
        cells = [(i, j, k) for i in range(1, d.t) for j in range(i + 1, d.t + 1)
                 for k in range(1, j - i + 1)]
        for a in (dense, sparse, _random_line_diagram(rng, d).to_matrix()):
            want = [(i, j, k) for i, j, k in cells
                    if a.window(d, i, j).power(k).rank() < max_window_rank(d, i, j, k)]
            assert defect_profile(a, d) == want
            assert [c for c in cells if rank_defect(a, d, *c)] == want


def _count_calls(monkeypatch, cls, name):
    """Wrap cls.name to count its calls; returns the one-element counter."""
    counter = [0]
    method = getattr(cls, name)

    def counting(self, *args, **kwargs):
        counter[0] += 1
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return counter


def test_defect_profile_forms_each_power_of_a_once(monkeypatch):
    a = witness(RUNNING, (3, 7))
    _exact_defects.cache_clear()
    calls = _count_calls(monkeypatch, ExactMatrix, "mul")
    assert defect_profile(a, RUNNING)
    assert calls[0] == RUNNING.t - 2 == 7


@pytest.mark.parametrize("parts, pair, seed", [
    (RUNNING.parts, "3,7", 0),
    (RUNNING.parts, "1,8", 0),
    ((3, 1, 1, 1, 3, 1), "2,3", 2),     # found by the walk phase
])
def test_cli_witness_forms_powers_once(monkeypatch, capsys, parts, pair, seed):
    """One ``rorc witness`` call certifies its witness and reports its defect
    profile off one exact table: t - 2 products, and no LineDiagram per
    screened candidate."""
    _exact_defects.cache_clear()
    muls = _count_calls(monkeypatch, ExactMatrix, "mul")
    diagrams = _count_calls(monkeypatch, LineDiagram, "__post_init__")
    argv = ["witness", "-d", ",".join(map(str, parts)), "--pair", pair,
            "--seed", str(seed), "--json"]
    assert main(argv) == 0
    assert '"defect_profile"' in capsys.readouterr().out
    assert muls[0] == len(parts) - 2
    assert diagrams[0] <= 5


def test_exact_defect_cache_keys_on_the_field():
    """Equal rows over Q and F_2 are distinct cache keys: the top-right block
    has determinant 2, so it is defective over F_2 only."""
    d = Composition.of(3, 3)
    block = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    rows = [[0, 0, 0] + r for r in block] + [[0] * 6 for _ in range(3)]
    q, f2 = ExactMatrix(rows, "Q"), ExactMatrix(rows, "Fp:2")
    for order in ((q, f2), (f2, q)):
        _exact_defects.cache_clear()
        got = {a.field: rank_defect(a, d, 1, 2, 1) for a in order}
        assert got == {"Q": False, "Fp:2": True}


def test_low_power_defect_does_not_force_threshold_defect():
    """Documented counterexample: a window defect at an exponent below the
    threshold does NOT imply the stratum membership (the claimed containment
    of the low-power strata in the threshold stratum is false).

    d=(1,3,2): A = E_12 + E_25 has window rank 2 < 3 at power 1, yet its
    square has rank 1, which is maximal at the threshold exponent 2."""
    d = Composition.of(1, 3, 2)
    assert kappa(d, 1, 3) == 2
    a = ExactMatrix.from_triples(6, [(0, 1, 1), (1, 4, 1)])
    assert in_nilradical(a, d)
    assert max_window_rank(d, 1, 3, 1) == 3
    assert max_window_rank(d, 1, 3, 2) == 1
    assert a.rank() == 2                      # defective at exponent 1
    assert a.power(2).rank() == 1             # maximal at the threshold
    assert rank_defect(a, d, 1, 3, 1)
    assert not in_stratum(a, d, 1, 3)
    # the main decomposition still covers it: (2,3) is a component stratum
    assert (1, 3) in lambda_pairs(d)
    assert in_stratum(a, d, 2, 3)
    assert (2, 3) in lambda_pairs(d)


def test_exact_predicates_build_no_validated_matrix(monkeypatch):
    """Windows, powers and products of a witness are derived, not re-checked:
    defect_profile and separates run without ExactMatrix.__init__."""
    a = witness(RUNNING, (3, 7))
    calls = 0
    init = ExactMatrix.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "__init__", counting_init)
    assert defect_profile(a, RUNNING)
    assert separates(a, RUNNING, (3, 7))
    assert calls == 0


def test_witness_builds_only_the_accepted_matrix(monkeypatch):
    to_matrix = LineDiagram.to_matrix
    calls = 0

    def counting_to_matrix(self):
        nonlocal calls
        calls += 1
        return to_matrix(self)

    monkeypatch.setattr(LineDiagram, "to_matrix", counting_to_matrix)
    for pair in sorted(lambda_pairs(RUNNING)):
        calls = 0
        witness(RUNNING, pair)
        assert calls == 1
    calls = 0
    witness(Composition.of(2, 1, 1, 1, 2), (2, 3))   # found by the walk phase
    assert calls == 1


def test_chain_counts_match_exact_defects_on_witness_candidates():
    """The screen's chain count against the exact defect table of each
    candidate's matrix: every diagram candidate of the running example's
    four components, and 200 walk candidates."""
    d = RUNNING
    tab = window_tables(d)
    candidates = [e for pair in sorted(lambda_pairs(d)) for e in _candidates(d, *pair, 0, 0)]
    first = len(list(_candidates(d, 3, 7, 11, 0)))     # the deterministic phase
    walk = list(_candidates(d, 3, 7, seed=11, budget=200))[first:]
    assert len(walk) == 200
    for edges in candidates + walk:
        assert isinstance(edges, frozenset)
        visits = [[d.block_of[v - 1] for v in path] for path in edge_chains(d.n, edges)]
        a = LineDiagram(d, edges).to_matrix()
        for (i, j), thresholds in zip(tab.pairs, tab.thresholds):
            for k in range(1, j - i + 1):
                below = chain_window_rank(visits, i, j, k) < thresholds[k - 1]
                assert below == rank_defect(a, d, i, j, k)


def test_witness_runs_no_mod_p_kernel(monkeypatch):
    """The chain-count screen alone finds the golden witnesses."""
    import rorc._kernels
    import rorc.strata

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search ran a mod-p rank table")

    monkeypatch.setattr(rorc.strata, "rank_tables", refuse)
    monkeypatch.setattr(rorc._kernels, "window_rank_table", refuse)
    golden = Path(__file__).parent / "data" / "reports"
    cases = [(RUNNING, pair, 0, f"witness_running_{pair[0]}_{pair[1]}")
             for pair in sorted(lambda_pairs(RUNNING))]
    cases.append((Composition.of(3, 1, 1, 1, 3, 1), (2, 3), 2, "witness_walk_311131"))
    for d, pair, seed, name in cases:
        want = ExactMatrix.from_json_dict(
            json.loads((golden / f"{name}.json").read_text())["matrix"])
        assert witness(d, pair, seed=seed) == want


def test_exact_layer_runs_no_mod_p_kernel(monkeypatch):
    """Over F_p, ExactMatrix and the membership predicates run no batched
    kernel, and they agree with the verifier's kernel tables on the
    lemma_below_threshold counterexamples of a sampled running-example run."""
    import rorc._kernels
    from rorc import ExperimentConfig, run_checks

    p, d = 32003, RUNNING
    cfg = ExperimentConfig(d=d, mode="sample", fieldsize=p, trials=20, seed=3)
    below = next(c for c in run_checks(cfg, ("lemmas",)).checks
                 if c.name == "lemma_below_threshold")
    mats = [ExactMatrix.from_json_dict(v["matrix"]) for v in below.violations]
    assert len(mats) == 5 and {a.field for a in mats} == {f"Fp:{p}"}
    tab = window_tables(d)
    ranks = rank_tables(np.array([a.rows for a in mats]), tab, p)
    defects = defect_flags(ranks, tab)
    stratum = stratum_flags(defects, tab)

    def refuse(*args, **kwargs):
        raise AssertionError("the exact layer ran a mod-p kernel")

    for name in ("_eliminate", "matmul_mod", "window_rank_table", "decode_matrices"):
        monkeypatch.setattr(rorc._kernels, name, refuse)
    _exact_defects.cache_clear()
    lam = sorted(lambda_pairs(d))
    for b, a in enumerate(mats):
        # the full window (1, t) is A: its row holds rank(A^k) for 0 < k < t
        powers = [d.n, *ranks[b, tab.full_index].tolist(), 0]
        assert [a.power(k).rank() for k in range(d.t + 1)] == powers
        jordan = a.jordan_type()
        assert [sum(s >= k for s in jordan) for k in range(1, d.t + 1)] == [
            r - s for r, s in zip(powers, powers[1:])]
        assert defect_profile(a, d) == [
            (*tab.pairs[pi], int(k) + 1) for pi, k in zip(*np.nonzero(defects[b]))]
        assert [[rank_defect(a, d, i, j, k) for k in range(1, tab.kmax + 1)]
                for i, j in tab.pairs] == defects[b].tolist()
        assert [in_stratum(a, d, i, j) for i, j in tab.pairs] == stratum[b].tolist()
        members = {pq for pq in lam if stratum[b, tab.pairs.index(pq)]}
        assert [separates(a, d, pq) for pq in lam] == [members == {pq} for pq in lam]
        if b == 0:
            assert members == {(2, 5), (3, 7)}
