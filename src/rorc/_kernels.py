"""Mod-p matrix kernels: batched elimination, products, window rank tables
and the exhaustive enumeration decode.

All kernels take int64 arrays with entries reduced mod a prime p, and the
callers keep n*(p-1)^2 below 2^63: products reduce once per product, and an
entry sums n terms of at most (p-1)^2.  Elimination works on a batch-last
``(r, c, B)`` copy with cross-multiplied rows (r <- pivot*r - f*pivot_row, no
modular inverses) and delayed reduction (FFLAS-FFPACK; Dumas-Giorgi-Pernet,
ACM TOMS 2008): a step reduces only the pivot column and row, and takes the
bound B on the live entries, p-1 at first, to B*(p-1) + (p-1)^2; the live
block is reduced only when that would pass 2^63 - 1.

The elimination takes columns in order, pivots on the topmost free row with a
nonzero entry and only ever adds a row to rows below it.  So it keeps the
rank of every leading submatrix, and that rank is the number of pivots inside
it (the rank profile matrix; Dumas-Pernet-Sultan, J. Symbolic Comput. 2017).
``window_rank_table`` uses this to rank every window of one power of A with a
single elimination.  The loop optionally takes a per-column first row, and
``window_rank_table`` derives one from the block pattern of A^k, so the rows
the pattern keeps zero are neither searched nor updated; ``rank_mod`` passes
none.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Matrices ranked together by window_rank_table: bounds the working set
# whatever the size of the batch handed in.
_SLICE = 256


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """``x % p`` as ``x - (x // p) * p``, which numpy computes several times
    faster; exact even where the product wraps, as the result is in [0, p)."""
    return x - x // p * p


def _eliminate(m: np.ndarray, p: int, first=None) -> np.ndarray:
    """Pivot rows of a batch ``(B, r, c)`` reduced mod p; ``m`` is unchanged.

    Returns ``(B, c)`` with the pivot row of each column, or r where the
    column has none; it works on a batch-last copy (see above).  A free-row
    mask replaces row swaps; a member without a pivot in the current column
    is left unchanged.  Free rows above the pivot are zero in its column, so
    only rows below it change by more than a nonzero scale.

    ``first``, when given, is a nonincreasing per-column row bound: rows above
    ``first[col]`` are zero in column ``col`` and in every earlier column.  The
    step for ``col`` then searches and updates only rows ``first[col]:``.  The
    rows it skips are zero up to ``col`` and were skipped by every earlier
    step, so skipping them differs from the full step by a nonzero row scale:
    the pivots are the same.
    """
    nb, nr, nc = m.shape
    w = m.transpose(1, 2, 0).copy()
    members = np.arange(nb)
    free = np.ones((nr, nb), dtype=bool)
    pivots = np.full((nc, nb), nr, dtype=np.int64)
    bound = p - 1
    for col, top in enumerate([0] * nc if first is None else first):
        column = _mod(w[top:, col], p)
        rfree = free[top:]
        cand = rfree & (column != 0)
        has = cand.any(0)
        if not has.any():
            continue
        piv = cand.argmax(0)
        pivots[col] = np.where(has, piv + top, nr)
        pv = np.where(has, column[piv, members], 1)
        rfree[piv, members] &= ~has
        f = np.where(rfree, column, 0)
        live = w[top:, col + 1:]
        pivot_row = _mod(live[piv, :, members].T, p)
        bound = bound * (p - 1) + (p - 1) ** 2
        if bound >= 2**63:
            live -= live // p * p
            bound = 2 * (p - 1) ** 2
        live *= pv
        live -= f[:, None] * pivot_row
    return pivots.T


def rank_mod(mats, p: int):
    """Ranks over F_p of a batch ``(B, r, c)``, or the rank of one ``(r, c)``.

    The pivot count of ``_eliminate``, run over the shorter side (rank is
    transpose-invariant) for the whole batch at once.
    """
    m = _mod(np.asarray(mats, dtype=np.int64), p)
    single = m.ndim == 2
    if single:
        m = m[None]
    if m.shape[1] < m.shape[2]:
        m = m.transpose(0, 2, 1)
    rank = (_eliminate(m, p) < m.shape[1]).sum(1)
    return int(rank[0]) if single else rank


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p, for single matrices or batches."""
    return _mod(a @ b, p)


def _leading_ranks(m: np.ndarray, nrows: np.ndarray, ncols: np.ndarray,
                   first: list[int], p: int) -> np.ndarray:
    """Ranks ``(B, q)`` of the leading ``nrows[q] x ncols[q]`` submatrices of
    a batch ``m``, all from one elimination under the row bound ``first``:
    each is the number of pivots inside it, read off a 2-D cumsum of the
    pivot indicator."""
    nb, nr, nc = m.shape
    pivots = _eliminate(m, p, first)
    # row nr of the indicator takes the columns without a pivot
    indicator = np.zeros((nb, nr + 1, nc), dtype=np.int64)
    indicator[np.arange(nb)[:, None], pivots, np.arange(nc)] = 1
    inside = indicator[:, :nr].cumsum(1).cumsum(2)
    return inside[:, nrows - 1, ncols - 1]


def _corner_bound(o: tuple[int, ...], k: int) -> tuple[bool, list[int]]:
    """How the flipped corner C_k[::-1] of A^k is eliminated: whether it is
    transposed (it is wide), and the first row each column can be nonzero in.

    An entry of C_k = A^k[:o_(t-k), o_k:] is nonzero only when its column
    block is at least its row block + k.  The mask is flipped and transposed
    with the corner; the running minimum keeps the bound nonincreasing, so
    rows that an earlier step filled stay in.
    """
    t = len(o) - 1
    block = np.repeat(np.arange(t), np.diff(o))
    support = block[None, o[k]:] >= block[:o[t - k], None][::-1] + k
    wide = support.shape[0] < support.shape[1]
    if wide:
        support = support.T
    first = np.where(support.any(0), support.argmax(0), support.shape[0])
    return wide, np.minimum.accumulate(first).tolist()


@lru_cache(maxsize=128)
def _plan(o: tuple[int, ...], pairs: tuple[tuple[int, int], ...]):
    """The fixed part of ``window_rank_table`` for one block pattern: the
    mask of entries outside the nilradical, and per power k the pairs it
    ranks, their leading submatrices in the row-flipped corner C_k[::-1]
    (o_(t-k) rows), transposed when it is wide, and the row bound of its
    elimination.  Bounded like the window tables it serves."""
    t = len(o) - 1
    block = np.repeat(np.arange(t), np.diff(o))
    queries = []
    for k in range(1, t):
        ranked = [(pi, i, j) for pi, (i, j) in enumerate(pairs) if j - i >= k]
        if not ranked:
            break
        nrows = np.array([o[t - k] - o[i - 1] for _, i, _ in ranked])
        ncols = np.array([o[j] - o[k] for _, _, j in ranked])
        wide, first = _corner_bound(o, k)
        if wide:
            nrows, ncols = ncols, nrows
        queries.append((k, [pi for pi, _, _ in ranked], nrows, ncols, wide, first))
    return block[:, None] >= block[None, :], tuple(queries)


def window_rank_table(mats, offsets, pairs, p):
    """Rank table R[b, pi, k-1] = rank((A_b window pi)^k) mod p, -1 padded.

    ``offsets`` are the block boundaries 0 = o_0 < ... < o_t = n and
    ``pairs`` the windows (i, j), blocks 1-based and inclusive.  Each A_b must
    lie in the nilradical (nonzero mod p only in blocks strictly above the
    diagonal blocks); anything else raises ValueError.

    There A^k is zero outside the blocks (r, c) with c >= r + k, so the window
    [i, j] of A^k is the k-th power of the window of A, and its rank is that
    of the bottom-left submatrix A^k[o_(i-1):, :o_j].  Flipping the rows makes
    every such submatrix a leading one, so one elimination of A^k ranks all
    windows at power k (see ``_leading_ranks``).  Only the nonzero corner
    C_k = A^k[:o_(t-k), o_k:] is eliminated (over its transpose when wide),
    and each corner is formed from the last one:

        C_(k+1) = A^k[:o_(t-k-1), o_k:o_(t-1)] @ A[o_k:o_(t-1), o_(k+1):].

    The same block pattern bounds the elimination: the rows of each column
    that the pattern keeps zero are neither searched nor updated, a bound
    derived once per power from the offsets (``_corner_bound``).  Slices of
    _SLICE matrices hold one corner at a time.
    """
    mats = np.asarray(mats, dtype=np.int64)
    o = tuple(int(v) for v in offsets)
    t = len(o) - 1
    kmax = t - 1
    outside, queries = _plan(o, tuple(tuple(pq) for pq in pairs))
    nb = mats.shape[0]
    table = np.full((nb, len(pairs), kmax), -1, dtype=np.int64)
    for start in range(0, nb, _SLICE):
        a = _mod(mats[start:start + _SLICE], p)
        if a[:, outside].any():
            raise ValueError("matrix entry outside the strictly upper block pattern")
        rows = table[start:start + _SLICE]
        corner = a[:, :o[t - 1], o[1]:]
        for k, pis, nrows, ncols, wide, first in queries:
            if k > 1:
                corner = matmul_mod(corner[:, :o[t - k], :o[t - 1] - o[k - 1]],
                                    a[:, o[k - 1]:o[t - 1], o[k]:], p)
            flipped = corner[:, ::-1]
            if wide:
                flipped = flipped.transpose(0, 2, 1)
            rows[:, pis, k - 1] = _leading_ranks(flipped, nrows, ncols, first, p)
    return table


def decode_matrices(first, count, base, pos_r, pos_c, n):
    """Matrices for enumeration indices first..first+count-1 in base ``base``.

    Index x encodes free entries as base-``base`` digits, position 0 least
    significant; all other entries are zero.  The caller keeps
    ``base ** len(pos_r)`` below 2^63.
    """
    idx = np.arange(first, first + count, dtype=np.int64)
    out = np.zeros((count, n, n), dtype=np.int64)
    scale = np.int64(1)
    for r, c in zip(pos_r, pos_c):
        out[:, r, c] = (idx // scale) % base
        scale *= base
    return out
