import json
import random
from fractions import Fraction

import numpy as np
import pytest

from rorc import Composition, ExactMatrix, richardson_element
from rorc import _kernels
from rorc.matrices import _is_prime, _rank_bareiss


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


def test_field_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1]], field="Fp:6")
    with pytest.raises(ValueError):
        ExactMatrix([[1]], field="R")
    assert _is_prime(2) and _is_prime(32003) and not _is_prime(1)


def test_prime_bounded_by_int64_products():
    # 4 x 4 of p - 1 at p = 2^31 - 1 would wrap int64 in the product kernel
    p = 2**31 - 1
    with pytest.raises(ValueError, match="2\\^63"):
        ExactMatrix([[p - 1] * 4] * 4, field=f"Fp:{p}")
    # two columns stay below the bound and multiply exactly: 2 (p-1)^2 = 2 mod p
    a = ExactMatrix([[p - 1] * 2] * 2, field=f"Fp:{p}")
    assert a.mul(a).rows == ((2, 2), (2, 2))


def test_immutability_and_equality():
    a = ExactMatrix([[0, 1], [0, 0]])
    with pytest.raises(AttributeError):
        a.nrows = 3
    assert a == ExactMatrix([[0, 1], [0, 0]])
    assert a != ExactMatrix([[0, 1], [0, 0]], field="Fp:5")
    assert hash(a) == hash(ExactMatrix([[0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# kernel backends agree with each other and with the exact path


def _random_mats(rng, count, n, p):
    return rng.integers(0, p, size=(count, n, n), dtype=np.int64)


def test_rank_mod_backends_agree():
    rng = np.random.default_rng(73)
    for p in (2, 3, 32003):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = rng.integers(0, p, size=(n, n), dtype=np.int64)
            expected = rank_by_fractions_mod(m.tolist(), p)
            assert _kernels.rank_mod_numpy(m.copy(), p) == expected
            if _kernels.rank_mod_numba is not None:
                assert _kernels.rank_mod_numba(m.copy(), p) == expected


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


def test_matmul_mod_backends_agree():
    rng = np.random.default_rng(79)
    p = 32003
    for _ in range(10):
        n = int(rng.integers(1, 10))
        a = _random_mats(rng, 1, n, p)[0]
        b = _random_mats(rng, 1, n, p)[0]
        expected = _kernels.matmul_mod_numpy(a, b, p)
        if _kernels.matmul_mod_numba is not None:
            assert np.array_equal(_kernels.matmul_mod_numba(a, b, p), expected)


def test_window_rank_table_backends_agree():
    from rorc.strata import window_tables

    rng = np.random.default_rng(83)
    d = Composition.of(2, 1, 3, 2)
    tab = window_tables(d)
    mats = _random_mats(rng, 8, d.n, 101)
    got_numpy = _kernels.window_rank_table_numpy(
        mats, tab.starts, tab.stops, tab.spans, tab.kmax, 101)
    if _kernels.window_rank_table_numba is not None:
        got_numba = _kernels.window_rank_table_numba(
            mats, tab.starts, tab.stops, tab.spans, tab.kmax, 101)
        assert np.array_equal(got_numpy, got_numba)
    # spot-check one cell against the exact path
    a = ExactMatrix(mats[0].tolist(), field="Fp:101")
    assert got_numpy[0, 0, 0] == a.window(d, 1, 2).rank()


def test_decode_matrices_backends_agree():
    pos = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    got_numpy = _kernels.decode_matrices_numpy(0, 8, 2, pos[:, 0], pos[:, 1], 3)
    assert got_numpy.shape == (8, 3, 3)
    # index 5 = binary 101: positions 0 and 2 set
    assert got_numpy[5, 0, 1] == 1 and got_numpy[5, 0, 2] == 0 and got_numpy[5, 1, 2] == 1
    if _kernels.decode_matrices_numba is not None:
        got_numba = _kernels.decode_matrices_numba(0, 8, 2, pos[:, 0], pos[:, 1], 3)
        assert np.array_equal(got_numpy, got_numba)


def test_backend_selection_reported():
    assert _kernels.BACKEND in ("numba", "numpy")
