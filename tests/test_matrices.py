import json
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

import rorc.matrices
from rorc import Composition, ExactMatrix, richardson_element
from rorc import _kernels
from rorc.diagrams import LineDiagram, complete_diagram
from rorc.matrices import _is_prime, _pivot_rows, _rank_bareiss


def rank_by_fractions(rows) -> int:
    """Independent oracle: Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_rank_trivial():
    assert ExactMatrix.zeros(4).rank() == 0
    assert ExactMatrix.identity(5).rank() == 5
    assert ExactMatrix.identity(5, field="Fp:7").rank() == 5


def test_rank_of_richardson_powers():
    x = richardson_element(Composition.of(3, 1, 2, 4))
    assert x.power(2).rank() == 3
    assert x.power(3).rank() == 1


def test_bareiss_against_fraction_oracle():
    rng = random.Random(61)
    for _ in range(100):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert _rank_bareiss(rows) == rank_by_fractions(rows)


@pytest.mark.parametrize("p", [None, 2, 3, 32003])
def test_pivot_rows_count_the_rank_of_every_leading_submatrix(p):
    """rank(M[:r, :c]) is the number of columns below c whose pivot row is
    below r, against the Fraction oracle over Q and sympy over GF(p); the
    input rows are left as they were."""
    rng = random.Random(83 if p is None else p)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((1.0, 0.5, 0.2))
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(nc)]
                for _ in range(nr)]
        if p is not None:
            rows = [[v % p for v in row] for row in rows]
        before = [row[:] for row in rows]
        pivots = _pivot_rows(rows, p)
        assert rows == before
        for r in range(1, nr + 1):
            for c in range(1, nc + 1):
                lead = [row[:c] for row in rows[:r]]
                if p is None:
                    want = rank_by_fractions(lead)
                else:
                    want = DomainMatrix([[GF(p)(v) for v in row] for row in lead],
                                        (r, c), GF(p)).rank()
                assert sum(0 <= pivots[x] < r for x in range(c)) == want


def leading_ranks_by_sympy(rows, p=None) -> list[list[int]]:
    """rank(M[:r, :c]) for r, c >= 1 by sympy over QQ or GF(p): the number of
    pivot columns below c of the reduced row echelon form of M[:r]."""
    field = QQ if p is None else GF(p)
    out = []
    for r in range(1, len(rows) + 1):
        lead = DomainMatrix([[field(v) for v in row] for row in rows[:r]], (r, len(rows[0])),
                            field)
        cols = lead.rref()[1]
        out.append([sum(x < c for x in cols) for c in range(1, len(rows[0]) + 1)])
    return out


@pytest.mark.parametrize("p", [None, 2, 3, 32003])
def test_pivot_rows_skip_zero_rows_exactly(p):
    """The elimination skips a free row whose entry in the pivot column is
    zero; over Q such a row keeps the divisor of its last update.  Its pivots
    still give the rank of every leading submatrix, against sympy, on 6x6 to
    11x11 integer matrices whose rows mix dense and sparse ones (a sparse
    row is the one that gets skipped and later updated or chosen as pivot).
    Over Q, dividing an update by the previous pivot instead of the row's
    divisor fails on 13 of these 200 matrices, and skipping the pivot row's
    rescale on 15."""
    rng = random.Random(29 if p is None else p)
    for _ in range(200):
        nr, nc = rng.randint(6, 11), rng.randint(6, 11)
        rows = []
        for _ in range(nr):
            density = rng.choice((0.9, 0.4, 0.2))
            rows.append([rng.randint(-3, 3) if rng.random() < density else 0
                         for _ in range(nc)])
        if p is not None:
            rows = [[v % p for v in row] for row in rows]
        pivots = _pivot_rows(rows, p)
        got = [[sum(0 <= pivots[x] < r for x in range(c)) for c in range(1, nc + 1)]
               for r in range(1, nr + 1)]
        assert got == leading_ranks_by_sympy(rows, p)


def test_rank_with_fractions_entries():
    a = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, 1]])
    assert a.rank() == 2
    b = ExactMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert b.rank() == 1


def test_rank_rational_vs_mod_p():
    rng = random.Random(67)
    primes = [101, 1009, 32003]
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        a = ExactMatrix(rows)
        # entries are tiny so no pivot is divisible by these primes
        for p in primes:
            assert a.rank() == ExactMatrix(rows, field=f"Fp:{p}").rank()


def test_power_and_nilpotency():
    x = richardson_element(Composition.of(3, 1, 2, 4))
    assert x.power(0) == ExactMatrix.identity(10)
    assert x.power(1) == x
    assert x.power(4).is_zero()
    rng = random.Random(71)
    for _ in range(20):
        d = Composition(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        rows = [[0] * d.n for _ in range(d.n)]
        o = d.offsets
        for bi in range(d.t):
            for bj in range(bi + 1, d.t):
                for r in range(o[bi], o[bi + 1]):
                    for c in range(o[bj], o[bj + 1]):
                        rows[r][c] = rng.randint(-4, 4)
        assert ExactMatrix(rows).power(d.t).is_zero()


def test_jordan_type():
    assert richardson_element(Composition.of(3, 1, 2, 4)).jordan_type() == (4, 3, 2, 1)
    assert ExactMatrix.zeros(4).jordan_type() == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        ExactMatrix.identity(3).jordan_type()


def test_blocks_and_windows():
    d = Composition.of(2, 4, 7)
    a = ExactMatrix([[r * 13 + c for c in range(13)] for r in range(13)])
    blk = a.block(d, 1, 2)
    assert blk.nrows == 2 and blk.ncols == 4
    assert blk.entry(0, 0) == a.entry(0, 2)
    assert blk.entry(1, 3) == a.entry(1, 5)
    assert a.window(d, 1, 3).rows == a.rows
    assert a.window(d, 2, 2).rows == a.block(d, 2, 2).rows
    with pytest.raises(ValueError):
        a.block(d, 0, 1)
    with pytest.raises(ValueError):
        a.window(d, 2, 4)


def test_window_block_of_richardson():
    d = Composition.of(3, 1, 2, 4)
    x = richardson_element(d)
    blk = x.block(d, 1, 2)
    assert blk.rows == ((1,), (0,), (0,))  # the E_{14} entry
    assert x.block(d, 2, 2).is_zero()
    w = richardson_element(Composition.of(2, 1, 2)).window(Composition.of(2, 1, 2), 1, 3)
    assert w.power(2).rank() == 1


def test_window_preserves_strict_upper_pattern():
    d = Composition.of(2, 1, 2, 1)
    x = richardson_element(d)
    w = x.window(d, 2, 4)
    sub = Composition.of(1, 2, 1)
    o = sub.offsets
    blk = []
    for i in range(sub.t):
        blk.extend([i] * sub.parts[i])
    for r in range(w.n):
        for c in range(w.n):
            if blk[r] >= blk[c]:
                assert w.entry(r, c) == 0


def test_json_round_trip():
    d = Composition.of(2, 1)
    a = ExactMatrix([[0, Fraction(1, 2), 3], [0, 0, -1], [0, 0, 0]], blocks=d)
    data = a.to_json_dict()
    assert data["field"] == "Q"
    assert data["d"] == [2, 1]
    assert data["entries"][0][1] == "1/2"
    back = ExactMatrix.from_json_dict(json.loads(json.dumps(data)))
    assert back == a
    sparse = ExactMatrix.from_json_dict(
        {"n": 3, "field": "Fp:7", "triples": [[0, 1, 9], [1, 2, 3]]})
    assert sparse.entry(0, 1) == 2  # reduced mod 7
    assert sparse.entry(1, 2) == 3


def test_json_entries_match_the_per_entry_encoding():
    """An all-int matrix is written as its rows; any other goes entry by
    entry (an int for an integral value, "a/b" otherwise).  Both give the
    same objects and bytes."""
    def per_entry(v):
        if isinstance(v, Fraction):
            return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return int(v)

    cases = [
        ExactMatrix([[0, 1, -2], [3, 0, 4], [0, 0, 5]]),                  # Q ints
        ExactMatrix([[Fraction(2, 1), 0], [1, Fraction(-3, 1)]]),          # Fraction(k, 1)
        ExactMatrix([[Fraction(1, 2), 3], [0, Fraction(-2, 3)]]),          # true Fractions
        ExactMatrix([[True, 2], [0, False]]),                              # bools
        ExactMatrix([[5, -1], [Fraction(1, 3), 0]], "Fp:7"),
        ExactMatrix([[1, 0], [0, 32002]], "Fp:32003", blocks=(1, 1)),
    ]
    for a in cases:
        want = [[per_entry(v) for v in row] for row in a.rows]
        data = a.to_json_dict()
        assert data["entries"] == want
        assert all(type(v) in (int, str) for row in data["entries"] for v in row)
        assert json.dumps(data) == json.dumps({**data, "entries": want})
        assert ExactMatrix.from_json_dict(data) == a


@pytest.mark.parametrize("data", [
    {"n": 0, "entries": []},
    {"n": True, "entries": [[0]]},
    {"n": 1, "field": 7, "entries": [[0]]},
    {"n": 1, "d": 1, "entries": [[0]]},
    {"n": 2, "entries": [[0, 0], [0]]},
    {"n": 1, "entries": [[None]]},
    {"n": 1, "entries": [["1/0"]]},
    {"n": 2, "triples": {"0": [1, 1]}},
    {"n": 2, "triples": [[0, 1]]},
    {"n": 2},
])
def test_json_rejects_malformed_matrix(data):
    with pytest.raises(ValueError):
        ExactMatrix.from_json_dict(data)


def test_fp_entries_reduce_fractions_by_inverse():
    a = ExactMatrix.from_json_dict({"n": 1, "field": "Fp:5", "entries": [["1/2"]]})
    assert a.entry(0, 0) == 3 and a.rank() == 1  # 2 * 3 = 1 mod 5
    assert ExactMatrix([[Fraction(-2, 3)]], field="Fp:7").entry(0, 0) == 4  # 3 * 4 = -2
    assert ExactMatrix([[2.5, np.int64(7)]], field="Fp:5").rows == ((0, 2),)  # 5/2, 7
    with pytest.raises(ValueError, match="denominator"):
        ExactMatrix.from_json_dict({"n": 1, "field": "Fp:5", "entries": [["1/5"]]})


def test_field_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1]], field="Fp:6")
    with pytest.raises(ValueError):
        ExactMatrix([[1]], field="R")
    assert _is_prime(2) and _is_prime(32003) and not _is_prime(1)
    for p in (1, 0, -7):
        with pytest.raises(ValueError, match="at least 2"):
            ExactMatrix([[1]], field=f"Fp:{p}")


@pytest.mark.parametrize("field", ["Fp:07", "Fp: 7", "Fp:7 ", "Fp:+7", "Fp:3_2003"])
def test_field_must_be_written_canonically(field):
    # int() reads each of these as a prime; kept as written, two spellings of
    # one field compared unequal and refused to multiply
    with pytest.raises(ValueError, match="not canonical"):
        ExactMatrix([[0, 1], [0, 0]], field=field)
    with pytest.raises(ValueError, match="not canonical"):
        ExactMatrix.from_json_dict({"n": 2, "field": field, "triples": []})


def test_matrix_json_refuses_bool_block_sizes():
    with pytest.raises(ValueError, match="positive integers"):
        ExactMatrix.from_json_dict({"n": 3, "d": [True, 2], "entries": [[0] * 3] * 3})


def test_arithmetic_and_block_errors():
    d = Composition.of(2, 1)
    for rows in ([], [[1], [1, 2]]):
        with pytest.raises(ValueError, match="equal length"):
            ExactMatrix(rows)
    with pytest.raises(ValueError, match="does not match"):
        ExactMatrix.zeros(3, blocks=(1, 1))
    a = ExactMatrix.zeros(3)
    with pytest.raises(ValueError, match="field mismatch"):
        a.mul(ExactMatrix.zeros(3, field="Fp:5"))
    with pytest.raises(ValueError, match="shape mismatch"):
        a.mul(ExactMatrix.zeros(2, 3))
    with pytest.raises(ValueError, match="negative power"):
        a.power(-1)
    with pytest.raises(ValueError, match="not square"):
        ExactMatrix.zeros(2, 3).n
    for other in (Composition.of(1, 1), Composition.of(2, 2)):
        with pytest.raises(ValueError, match="does not match"):
            a.block(other, 1, 1)
        with pytest.raises(ValueError, match="does not match"):
            a.window(other, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        a.block(d, 1, 3)
    # the window is checked by the composition it is taken from
    for i, j in ((0, 1), (2, 1), (1, 3)):
        with pytest.raises(ValueError, match=f"window \\({i},{j}\\) out of range"):
            a.window(d, i, j)


def test_prime_bounded_by_int64_products(monkeypatch):
    # 4 x 4 of p - 1 at p = 2^31 - 1 is past the verifier's int64 bound
    p = 2**31 - 1
    with pytest.raises(ValueError, match="2\\^63"):
        ExactMatrix([[p - 1] * 4] * 4, field=f"Fp:{p}")
    # two columns stay below the bound and multiply exactly: 2 (p-1)^2 = 2 mod p
    a = ExactMatrix([[p - 1] * 2] * 2, field=f"Fp:{p}")
    assert a.mul(a).rows == ((2, 2), (2, 2))

    # the bound rejects the Mersenne prime 2^89 - 1 before any trial division
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(rorc.matrices, "_is_prime", refuse)
    with pytest.raises(ValueError, match="2\\^63"):
        ExactMatrix.from_json_dict(
            {"n": 2, "field": f"Fp:{2**89 - 1}", "entries": [[0, 1], [0, 0]]})


def test_immutability_and_equality():
    a = ExactMatrix([[0, 1], [0, 0]])
    with pytest.raises(AttributeError):
        a.nrows = 3
    assert a == ExactMatrix([[0, 1], [0, 0]])
    assert a != ExactMatrix([[0, 1], [0, 0]], field="Fp:5")
    assert hash(a) == hash(ExactMatrix([[0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# the mod-p kernels against independent oracles


def rank_by_fractions_mod(rows, p) -> int:
    """Oracle for mod-p rank: lift to a field via Fraction elimination is not
    valid, so reduce with plain modular row elimination using inverses."""
    m = [[v % p for v in row] for row in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def pivot_rank(mats, p):
    """Ranks over F_p of a batch ``(B, r, c)`` reduced mod p: the pivot count
    of the kernel's elimination under no row bound."""
    return (_kernels._eliminate(mats, p, [0] * mats.shape[2]) < mats.shape[1]).sum(1)


# the primes on both sides of each change of elimination type (int8 | int16,
# int16 | int32, int32 | int64) reduce the live block after every update up
# to each boundary, and less often past it
BOUNDARY_PRIMES = [7, 11, 127, 131, 32749, 32771]


@pytest.mark.parametrize("p, dtype", [
    (2, np.int8), (3, np.int8), (7, np.int8), (11, np.int16), (127, np.int16),
    (131, np.int32), (32003, np.int32), (32749, np.int32), (32771, np.int64),
    (1_000_003, np.int64)])
def test_elimination_works_in_the_narrowest_admissible_type(p, dtype):
    # admissible: one cross-multiplied update of reduced entries, 2(p-1)^2,
    # stays within the type's largest value; no narrower type admits it
    chosen, top = _kernels._work_type(p)
    assert chosen is dtype and top == np.iinfo(dtype).max
    assert 2 * (p - 1) ** 2 <= top
    assert all(2 * (p - 1) ** 2 > np.iinfo(t).max for t, _ in _kernels._TYPES
               if np.iinfo(t).max < top)


@pytest.mark.parametrize("p, period", [
    (2, 126), (3, 4), (7, 1), (11, 3), (127, 1), (131, 3), (32003, 1), (32749, 1),
    (32771, 3), (1_000_003, 2)])
def test_live_block_is_reduced_only_when_the_next_update_could_wrap(monkeypatch, p, period):
    # the block is reduced after every period-th update; each step after an
    # unreduced update reduces its column and its pivot row with _mod, and
    # the others read reduced entries.  Member 0 pivots in every column.
    calls = []
    real = _kernels._mod
    monkeypatch.setattr(_kernels, "_mod", lambda x, q: calls.append(q) or real(x, q))
    mats = np.random.default_rng(p).integers(0, p, size=(3, 9, 8), dtype=np.int64)
    mats[0] = np.eye(9, 8, dtype=np.int64)
    _kernels._eliminate(mats, p, [0] * 8)
    assert len(calls) == 2 * sum(1 for step in range(1, 8) if step % period)


@pytest.mark.parametrize("p", [2, 3, 32003, *BOUNDARY_PRIMES])
def test_rank_mod_batches_match_inverse_oracle(p):
    """The pivot count, and the exact layer, rank batches of every shape."""
    rng = np.random.default_rng(73 + p)
    for _ in range(40):
        count = int(rng.integers(1, 6))
        r, c = (int(v) for v in rng.integers(1, 9, size=2))
        if rng.random() < 0.5:
            mats = rng.integers(0, p, size=(count, r, c), dtype=np.int64)
        else:
            # rank-deficient products (r x k)(k x c)
            k = int(rng.integers(0, min(r, c) + 1))
            mats = (rng.integers(0, p, size=(count, r, k), dtype=np.int64)
                    @ rng.integers(0, p, size=(count, k, c), dtype=np.int64)) % p
        expected = [rank_by_fractions_mod(m.tolist(), p) for m in mats]
        before = mats.copy()
        assert pivot_rank(mats, p).tolist() == expected
        assert np.array_equal(mats, before)  # the input is not modified
        assert [ExactMatrix(m.tolist(), f"Fp:{p}").rank() for m in mats] == expected


def test_rank_mod_member_without_pivot_keeps_its_matrix():
    # member 0 has an all-zero first column, member 1 pivots on it: the
    # elimination step for that column must leave member 0 as it is
    mats = np.array([
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
    ], dtype=np.int64)
    assert pivot_rank(mats, 5).tolist() == [2, 3]
    # over 7 columns the live block is reduced after every update at 7
    # (int8), 127 (int16), 32003 and 32749 (int32) and 1147878283 (int64;
    # the largest prime with 7(p-1)^2 < 2^63), and after every second at
    # 1000003, so reductions fall between steps in which some members have
    # no pivot: a zero column, or one that repeats a multiple of an earlier
    # column (nonzero only in retired rows).  Members 0 and 1 start from all
    # p - 1 and from a checkerboard of p - 1 and 0, whose updates reach
    # +-(p-1)^2
    for p in (7, 127, 32003, 32749, 1000003, 1147878283):
        rng = np.random.default_rng(p)
        mats = rng.integers(0, p, size=(14, 6, 7), dtype=np.int64)
        mats[0] = p - 1
        mats[1] = np.indices((6, 7)).sum(0) % 2 * (p - 1)
        for b, m in enumerate(mats):
            m[:, b % 7] = 0
            c = (b + 3) % 7
            if c:
                m[:, c] = m[:, c - 1] * int(rng.integers(1, p)) % p
        pivots = _kernels._eliminate(mats, p, [0] * 7)
        assert ((pivots == 6).any(0) & (pivots < 6).any(0)).all()
        assert pivot_rank(mats, p).tolist() == [
            ExactMatrix(m.tolist(), f"Fp:{p}").rank() for m in mats]
    # a member without a pivot in a column picks the sentinel row, r: members
    # that are all zero, and members whose first or last column has none,
    # beside members that have one there, in every elimination type
    for p in (2, 3, 7, 127, 32003, 32749, 32771, 1000003):
        rng = np.random.default_rng(p)
        mats = rng.integers(0, p, size=(8, 6, 6), dtype=np.int64)
        mats[0] = 0
        mats[1:3, :, 0] = 0
        mats[3:5, :, 5] = mats[3:5, :, 4] * int(rng.integers(1, p)) % p
        before = mats.copy()
        pivots = _kernels._eliminate(mats, p, [0] * 6)
        assert np.array_equal(mats, before)
        for m, piv in zip(mats, pivots.tolist()):
            ranks = [ExactMatrix(m[:, :c].tolist(), f"Fp:{p}").rank() if c else 0
                     for c in range(7)]
            # a column has a pivot exactly where it raises the rank of those before it
            assert [v < 6 for v in piv] == [ranks[c + 1] > ranks[c] for c in range(6)]
            assert all(0 <= v <= 6 for v in piv)
        assert pivots[0].tolist() == [6] * 6
        assert (pivots[1:3, 0] == 6).all() and (pivots[3:5, 5] == 6).all()
        assert (pivots[5:, 0] < 6).all()
        assert pivot_rank(mats, p).tolist() == [
            ExactMatrix(m.tolist(), f"Fp:{p}").rank() for m in mats]


def test_matmul_mod_matches_integer_products():
    rng = np.random.default_rng(79)
    p = 32003
    for _ in range(10):
        n, m, k = (int(v) for v in rng.integers(1, 10, size=3))
        a = rng.integers(0, p, size=(3, n, m), dtype=np.int64)
        b = rng.integers(0, p, size=(3, m, k), dtype=np.int64)
        got = _kernels.matmul_mod(a, b, p)
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert z == [[sum(x[i][l] * y[l][j] for l in range(m)) % p
                          for j in range(k)] for i in range(n)]
    # 23726561 is the largest prime with 16(p-1)^2 < 2^53: an inner dimension
    # of 16 takes the float64 product at its exactness bound (entries all
    # p - 1, or all p - 2, included), 17 the int64 one; 759250111, the
    # largest prime with 16(p-1)^2 < 2^63, takes the int64 product at the
    # field bound
    for p, m in ((23726561, 16), (23726561, 17), (759250111, 16), (2, 8), (32003, 36)):
        a = rng.integers(0, p, size=(4, 5, m), dtype=np.int64)
        b = rng.integers(0, p, size=(4, m, 6), dtype=np.int64)
        a[0] = b[0] = p - 1
        a[1] = b[1] = p - 2     # odd sums of products
        got = _kernels.matmul_mod(a, b, p)
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert z == [[sum(x[i][l] * y[l][j] for l in range(m)) % p
                          for j in range(6)] for i in range(5)]


def _random_nilradical(rng: random.Random, d: Composition, field: str) -> ExactMatrix:
    """Random strictly block upper triangular matrix over ``field``: entries
    in -3..3, with about a third of the blocks left zero."""
    o = d.offsets
    rows = [[0] * d.n for _ in range(d.n)]
    for bi in range(1, d.t):
        for bj in range(bi + 1, d.t + 1):
            if rng.random() < 1 / 3:
                continue
            for r in range(o[bi - 1], o[bi]):
                for c in range(o[bj - 1], o[bj]):
                    rows[r][c] = rng.randint(-3, 3)
    return ExactMatrix(rows, field)


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_window_of_power_is_power_of_window(field):
    """In the nilradical, the window (i, j) of A^k is the k-th power of the
    window (i, j) of A, so one chain of powers of A serves every window."""
    rng = random.Random(29)
    comps = [(2, 3), (1, 1), (7, 5, 2, 3, 5, 1, 2, 6, 5)] + [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 5))) for _ in range(8)]
    for parts in comps:
        d = Composition.of(*parts)
        a = _random_nilradical(rng, d, field)
        powers = [a.power(k) for k in range(1, d.t)]
        for i in range(1, d.t):
            for j in range(i + 1, d.t + 1):
                w = a.window(d, i, j)
                for k in range(1, j - i + 1):
                    assert powers[k - 1].window(d, i, j) == w.power(k)


def _nilradical_batch(rng, d, tab, count, p):
    """Random nilradical matrices, every fourth one rank-deficient."""
    mats = np.zeros((count, d.n, d.n), dtype=np.int64)
    r, c = tab.positions[:, 0], tab.positions[:, 1]
    mats[:, r, c] = rng.integers(0, p, size=(count, len(r)))
    mats[::4] %= 2
    return mats


@pytest.mark.parametrize("nilradical", [True, False])
def test_window_rank_table_matches_exact_windows(nilradical):
    from rorc.strata import window_tables

    rng = np.random.default_rng(83)
    p = 101
    count = 265
    if not nilradical:
        # the kernel ranks rectangles of global powers, which equal the
        # window powers only in the nilradical: anything else is refused
        d = Composition.of(2, 1, 2, 1)
        tab = window_tables(d)
        full = rng.integers(0, p, size=(count, d.n, d.n), dtype=np.int64)
        inside = _nilradical_batch(rng, d, tab, count, p)
        inside[count - 1, 0, 1] = 1  # one entry in a diagonal block, last matrix
        for mats in (full, inside):
            with pytest.raises(ValueError):
                _kernels.window_rank_table(mats, tab.plan, p)
        return
    for parts in [(3,), (4, 1), (1, 4), (2, 1, 2, 1), (1, 2, 1, 1, 2)]:
        d = Composition.of(*parts)
        tab = window_tables(d)
        mats = _nilradical_batch(rng, d, tab, count, p)
        table = _kernels.window_rank_table(mats, tab.plan, p)
        assert table.shape == (count, len(tab.pairs), tab.kmax)
        for b in range(count):
            a = ExactMatrix(mats[b].tolist(), field=f"Fp:{p}")
            for pi, (i, j) in enumerate(tab.pairs):
                w = a.window(d, i, j)
                span = int(tab.spans[pi])
                assert table[b, pi].tolist() == (
                    [w.power(k).rank() for k in range(1, span + 1)]
                    + [-1] * (tab.kmax - span))


def test_decode_matrices_spot_check():
    pos = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    got = _kernels.decode_matrices(0, 8, 2, pos[:, 0], pos[:, 1], 3)
    assert got.shape == (8, 3, 3)
    # index 5 = binary 101: positions 0 and 2 set
    assert got[5, 0, 1] == 1 and got[5, 0, 2] == 0 and got[5, 1, 2] == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 4093, 32003, 1_000_003]),
       count=st.integers(1, 4), r=st.integers(1, 6), c=st.integers(1, 6))
def test_rank_mod_matches_sympy_over_gf_p(data, p, count, r, c):
    """The kernel's pivot count and ExactMatrix, two eliminations, agree with
    sympy's rank over GF(p)."""
    entries = st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                       min_size=r, max_size=r)
    mats = [data.draw(entries) for _ in range(count)]
    field = GF(p)
    expected = [DomainMatrix([[field(v) for v in row] for row in m], (r, c), field).rank()
                for m in mats]
    assert pivot_rank(np.array(mats, dtype=np.int64), p).tolist() == expected
    assert [ExactMatrix(m, f"Fp:{p}").rank() for m in mats] == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 4093, 32003, 1_000_003]),
       count=st.integers(1, 4), r=st.integers(1, 7), c=st.integers(1, 7))
def test_pivots_count_the_rank_of_every_leading_submatrix(data, p, count, r, c):
    # the invariant window_rank_table reads its ranks from
    k = data.draw(st.integers(0, min(r, c)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mats = (rng.integers(0, p, size=(count, r, k), dtype=np.int64)
            @ rng.integers(0, p, size=(count, k, c), dtype=np.int64)) % p
    pivots = _kernels._eliminate(mats, p, [0] * c)
    for rows in range(1, r + 1):
        for cols in range(1, c + 1):
            inside = (pivots[:, :cols] < rows).sum(1)
            assert inside.tolist() == pivot_rank(mats[:, :rows, :cols], p).tolist()


@pytest.mark.parametrize("parts, wide", [
    ((1, 4), True), ((1, 1, 5), True), ((4, 1), False),
    ((7, 5, 2, 3, 5, 1, 2, 6, 5), False)])
@pytest.mark.parametrize("p", [2, 3, 4093, 32003, 1_000_003, *BOUNDARY_PRIMES])
def test_row_bound_keeps_the_pivots_of_every_corner(parts, wide, p):
    """Under the row bound window_rank_table derives for power k, the one
    elimination loop finds the pivots it finds without a bound, on tall
    corners and on wide (transposed) ones."""
    from rorc.strata import window_tables

    rng = np.random.default_rng(107 + p)
    d = Composition.of(*parts)
    tab = window_tables(d)
    o, t = d.offsets, d.t
    mats = _nilradical_batch(rng, d, tab, 24, p)
    mats[1::4] *= rng.random(mats[1::4].shape) < 0.1    # sparse
    mats[2] = 0
    mats[6, 0] = 0           # a zero row: rank-deficient
    power = mats
    for k in range(1, t):
        if k > 1:
            power = _kernels.matmul_mod(power, mats, p)
        corner = power[:, :o[t - k], o[k]:][:, ::-1]
        is_wide, first = _kernels._corner_bound(o, k)
        assert is_wide == (wide if k == 1 else corner.shape[1] < corner.shape[2])
        if is_wide:
            corner = corner.transpose(0, 2, 1)
        nr, nc = corner.shape[1:]
        assert len(first) == nc and first == sorted(first, reverse=True)
        # the rows above the bound are zero in their column
        assert not corner[:, np.arange(nr)[:, None] < np.array(first)].any()
        before = corner.copy()
        free = _kernels._eliminate(corner, p, [0] * nc)
        bounded = _kernels._eliminate(corner, p, first)
        assert np.array_equal(corner, before)
        assert np.array_equal(bounded, free)
        assert (bounded < nr).sum(1).tolist() == [
            ExactMatrix(m.tolist(), f"Fp:{p}").rank() for m in corner]


def _exact_window_table(mats, d, pairs, kmax, p):
    out = np.full((len(mats), len(pairs), kmax), -1, dtype=np.int64)
    for b, m in enumerate(mats):
        a = ExactMatrix(m.tolist(), field=f"Fp:{p}")
        for pi, (i, j) in enumerate(pairs):
            w = a.window(d, i, j)
            out[b, pi, :j - i] = [w.power(k).rank() for k in range(1, j - i + 1)]
    return out


def test_window_rank_table_edge_cases():
    from rorc.strata import window_tables

    rng = np.random.default_rng(89)
    p = 3
    # t = 2: one window, one power
    d = Composition.of(3, 2)
    tab = window_tables(d)
    assert tab.pairs == ((1, 2),) and tab.kmax == 1
    mats = _nilradical_batch(rng, d, tab, 12, p)
    table = _kernels.window_rank_table(mats, tab.plan, p)
    assert np.array_equal(table, _exact_window_table(mats, d, tab.pairs, 1, p))
    # windows of span 1 only: no power beyond the first is formed or ranked
    d = Composition.of(2, 1, 3, 1)
    tab = window_tables(d)
    short = [(1, 2), (2, 3), (3, 4)]
    mats = _nilradical_batch(rng, d, tab, 12, p)
    table = _kernels.window_rank_table(mats, _kernels.window_plan(d.offsets, short), p)
    assert np.array_equal(table, _exact_window_table(mats, d, short, tab.kmax, p))
    assert (table[:, :, 1:] == -1).all()
    # an all-zero batch ranks 0 up to each span, -1 beyond
    zeros = np.zeros((256, d.n, d.n), dtype=np.int64)
    table = _kernels.window_rank_table(zeros, tab.plan, p)
    spans = np.array([j - i for i, j in tab.pairs])
    expected = np.where(np.arange(1, tab.kmax + 1) <= spans[:, None], 0, -1)
    assert (table == expected).all()
    # a batch ranked whole: every member as if alone
    count = 509
    mats = _nilradical_batch(rng, d, tab, count, p)
    table = _kernels.window_rank_table(mats, tab.plan, p)
    assert np.array_equal(table, np.concatenate(
        [_kernels.window_rank_table(m[None], tab.plan, p) for m in mats]))
    # entries outside [0, p) are reduced first: every entry shifted by a
    # multiple of p, some negative, a batch ranks as reduced
    shifts = rng.integers(-3, 4, size=mats.shape) * p
    assert (mats + shifts < 0).any() and (mats + shifts >= p).any()
    assert np.array_equal(_kernels.window_rank_table(mats + shifts, tab.plan, p), table)
    assert np.array_equal(_kernels.window_rank_table(mats - p, tab.plan, p), table)
    # inside a diagonal block, p is zero mod p, and p + 1 is not
    for entry, accepted in ((p, True), (p + 1, False)):
        odd = mats.copy()
        odd[:, 0, 0] = entry
        if accepted:
            assert np.array_equal(_kernels.window_rank_table(odd, tab.plan, p), table)
        else:
            with pytest.raises(ValueError, match="outside the strictly upper block pattern"):
                _kernels.window_rank_table(odd, tab.plan, p)


def _sympy_jordan_type(a: ExactMatrix) -> tuple[int, ...]:
    """Jordan block sizes read off sympy's Jordan form: blocks end where the
    superdiagonal has a 0."""
    import sympy

    _, j = sympy.Matrix(a.rows).jordan_form()
    sizes, run = [], 1
    for r in range(a.n - 1):
        if j[r, r + 1] == 0:
            sizes.append(run)
            run = 0
        run += 1
    sizes.append(run)
    return tuple(sorted(sizes, reverse=True))


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1, 2), (1, 2, 1, 1), (2, 2, 1), (1, 3, 2)])
def test_jordan_type_matches_sympy_jordan_form(parts):
    from rorc.strata import window_tables

    rng = np.random.default_rng(97 + sum(parts))
    d = Composition.of(*parts)
    tab = window_tables(d)
    r, c = tab.positions[:, 0], tab.positions[:, 1]
    for _ in range(4):
        m = np.zeros((d.n, d.n), dtype=np.int64)
        # small entries, some zeroed, so lower Jordan types occur too
        m[r, c] = rng.integers(-2, 3, size=len(r)) * (rng.random(len(r)) < 0.6)
        rows = [[Fraction(int(v), 2) for v in row] for row in m]
        a = ExactMatrix(rows)
        assert a.jordan_type() == _sympy_jordan_type(a)


def _dense_nilradical(rng: random.Random, d: Composition, field: str) -> ExactMatrix:
    """A dense strictly upper block-triangular matrix; over Q a third of the
    entries are Fractions, some of them with denominator 1."""
    def value():
        if field == "Q" and rng.random() < 1 / 3:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
        return rng.randint(-40, 40)

    return ExactMatrix.from_triples(
        d.n, [(r, c, value()) for r in range(d.n) for c in range(d.n)
              if d.block_of[r] < d.block_of[c]], field, blocks=d)


def _assert_as_validated(m: ExactMatrix):
    """m agrees with the same rows rebuilt through the public constructor in
    rows, entry types, field, modulus and block structure."""
    ref = ExactMatrix(m.rows, m.field, m.blocks)
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert m.rows == ref.rows
    assert [[type(v) for v in r] for r in m.rows] == [[type(v) for v in r] for r in ref.rows]
    assert (m.nrows, m.ncols, m.field, m.p, m.blocks) == (
        ref.nrows, ref.ncols, ref.field, ref.p, ref.blocks)


@pytest.mark.parametrize("field", ["Q", "Fp:7", "Fp:32003"])
def test_derived_matrices_match_the_validating_constructor(field):
    rng = random.Random(field)
    for _ in range(6):
        d = Composition.of(*(rng.randint(1, 3) for _ in range(rng.randint(2, 5))))
        a = _dense_nilradical(rng, d, field)
        b = _dense_nilradical(rng, d, field)
        if field == "Q":
            assert any(type(v) is Fraction for r in a.rows for v in r)
        o = d.offsets
        for i in range(1, d.t + 1):
            for j in range(i, d.t + 1):
                w = a.window(d, i, j)
                _assert_as_validated(w)
                assert w.blocks == d.window(i, j)
                assert w.rows == ExactMatrix(
                    [r[o[i - 1]:o[j]] for r in a.rows[o[i - 1]:o[j]]], field).rows
            for j in range(1, d.t + 1):
                blk = a.block(d, i, j)
                _assert_as_validated(blk)
                assert blk.blocks is None
        prod = a.mul(b)
        _assert_as_validated(prod)
        expected = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b.rows)] for r in a.rows]
        assert prod == ExactMatrix(expected, field)
        for k in range(1, d.t + 1):
            _assert_as_validated(a.power(k))
        assert a.power(d.t).is_zero()


def test_rank_over_q_clears_denominators_of_mixed_rows():
    rows = [[True, Fraction(1, 2), 3], [False, Fraction(3, 4), Fraction(5, 1)],
            [True, Fraction(5, 4), 8]]
    assert ExactMatrix(rows).rank() == rank_by_fractions(rows) == 2
    assert ExactMatrix([[True, False], [False, True]]).rank() == 2


# -- the sparse product against the dense sum ---------------------------------

PRODUCT_FIELDS = ["Q", "Fp:2", "Fp:32003", "Fp:1147878283"]   # the last admits n <= 7


def dense_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Reference product: one sum per entry, zero terms included, reduced mod
    p by the validating constructor."""
    rows = tuple(tuple(sum(map(mul, r, c)) for c in zip(*b.rows)) for r in a.rows)
    return ExactMatrix(rows, a.field)


def assert_same_matrix(got: ExactMatrix, want: ExactMatrix):
    assert got == want
    assert hash(got) == hash(want)
    assert got.to_json_dict() == want.to_json_dict()
    assert got._integer_rows() == want._integer_rows()


def _sparse_rows(rng: random.Random, nr: int, nc: int, field: str) -> list[list]:
    """Mostly zero rows, one all-zero row and column now and then; over Q the
    entries mix ints, negatives, Fractions and explicit Fraction(0)s."""
    if field == "Q":
        values = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 1), Fraction(0))
    else:
        p = int(field[3:])
        values = (1, p - 1, rng.randrange(p), rng.randrange(p))
    rows = [[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(nc)]
            for _ in range(nr)]
    if rng.random() < 0.3:
        rows[rng.randrange(nr)] = [0] * nc
    if rng.random() < 0.3:
        c = rng.randrange(nc)
        for row in rows:
            row[c] = 0
    return rows


@pytest.mark.parametrize("field", PRODUCT_FIELDS)
def test_product_matches_the_dense_sum(field):
    rng = random.Random(field)
    for _ in range(100):
        r, k, c = (rng.randint(1, 7) for _ in range(3))
        a = ExactMatrix(_sparse_rows(rng, r, k, field), field)
        b = ExactMatrix(_sparse_rows(rng, k, c, field), field)
        assert_same_matrix(a.mul(b), dense_product(a, b))
    full = ExactMatrix([[1] * 7] * 3, field)         # every term nonzero, sums past p
    assert_same_matrix(full.mul(ExactMatrix([[1] * 2] * 7, field)),
                       ExactMatrix([[7] * 2] * 3, field))


def test_product_skips_zero_terms_that_are_fractions():
    # the dense sum of Fraction(0) * 1/2 + 1 * 0 is Fraction(0); the sparse
    # product adds neither term and returns the equal int 0
    a = ExactMatrix([[Fraction(0), 1], [Fraction(1, 2), 0]])
    b = ExactMatrix([[Fraction(1, 2), 3], [0, Fraction(0)]])
    got, want = a.mul(b), dense_product(a, b)
    assert type(want.rows[0][0]) is Fraction and type(got.rows[0][0]) is int
    assert got.rows == ((0, 0), (Fraction(1, 4), Fraction(3, 2)))
    assert_same_matrix(got, want)


def _line_diagram_matrix(rng: random.Random, d: Composition, field: str):
    """A random sub-diagram of the complete diagram of d, as a matrix whose
    edges carry nonzero entries, and the diagram itself."""
    edges = [e for e in sorted(complete_diagram(d).edges) if rng.random() < 0.8]
    if field == "Q":
        values = (1, -2, Fraction(1, 2), Fraction(-3, 4))
    else:
        values = (1, int(field[3:]) - 1)
    triples = [(u - 1, v - 1, rng.choice(values)) for u, v in edges]
    return ExactMatrix.from_triples(d.n, triples, field), LineDiagram(d, edges)


@pytest.mark.parametrize("field", PRODUCT_FIELDS)
def test_powers_and_jordan_type_of_line_diagram_matrices(field):
    rng = random.Random(field)
    shapes = [((2, 1, 2), 4), ((1, 2, 1, 1), 4), ((2, 2, 1, 2), 4), ((1,) * 7, 4)]
    if field != "Fp:1147878283":
        shapes.append(((7, 5, 2, 3, 5, 1, 2, 6, 5), 1))
    for parts, samples in shapes:
        d = Composition(parts)
        for _ in range(samples):
            a, diagram = _line_diagram_matrix(rng, d, field)
            want = ExactMatrix.identity(d.n, field)
            for k in range(5):
                assert_same_matrix(a.power(k), want)
                want = dense_product(want, a)
            # the Jordan type of a line-diagram matrix is its chain lengths
            assert a.jordan_type() == tuple(sorted(map(len, diagram.chains()), reverse=True))
