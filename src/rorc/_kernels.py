"""Mod-p matrix kernels: batched elimination, products, window rank tables
and the exhaustive enumeration decode.

All kernels take int64 arrays with entries reduced mod a prime p, and the
callers keep n*(p-1)^2 below 2^63: products reduce once per product, and an
entry sums n terms of at most (p-1)^2.  Elimination works on a batch-last
``(r, c, B)`` copy with cross-multiplied rows (r <- pivot*r - f*pivot_row, no
modular inverses) and delayed reduction (FFLAS-FFPACK; Dumas-Giorgi-Pernet,
ACM TOMS 2008), in the narrowest signed integer type whose largest value M
admits one update of reduced entries, 2(p-1)^2 <= M: int8 up to p = 7,
int16 up to 127, int32 up to 32749, int64 above.  A step reduces only the
pivot column and row, and takes the bound B on the live entries, p-1 at
first, to B*(p-1) + (p-1)^2; the live block is reduced only after the
update that the next one would carry past M.  So it is reduced after every
126th update at p = 2 (int8; never in a corner of fewer than 127 columns),
every 4th at 3 (int8) and every update at 32003 (int32).

The elimination takes columns in order, pivots on the topmost free row with a
nonzero entry and only ever adds a row to rows below it.  So it keeps the
rank of every leading submatrix, and that rank is the number of pivots inside
it (the rank profile matrix; Dumas-Pernet-Sultan, J. Symbolic Comput. 2017).
``window_rank_table`` uses this to rank every window of one power of A with a
single elimination.  The loop takes a per-column first row, which
``window_plan`` derives from the block pattern of A^k, so the rows the
pattern keeps zero are neither searched nor updated.

These kernels serve the verifier's populations alone, and rank each batch
they are given whole: the verifier bounds the size of the arrays it hands
in.  ``ExactMatrix`` ranks and multiplies in plain Python over Q and F_p, an
independent check on them.
"""

from __future__ import annotations

import numpy as np


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """``x % p`` as ``x - (x // p) * p``, which numpy computes several times
    faster; exact even where the product wraps, as the result is in [0, p)."""
    return x - x // p * p


# the signed integer types an elimination can work in, narrowest first, each
# with its largest value
_TYPES = tuple((t, int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32, np.int64))


def _work_type(p: int) -> tuple[type, int]:
    """The narrowest type of _TYPES whose largest value admits one
    cross-multiplied update of entries reduced mod p, 2(p-1)^2, and that
    value; int64 above p = 32749 (callers keep p within its range)."""
    return next((t for t in _TYPES if 2 * (p - 1) ** 2 <= t[1]), _TYPES[-1])


def _eliminate(m: np.ndarray, p: int, first) -> np.ndarray:
    """Pivot rows of a batch ``(B, r, c)`` reduced mod p; ``m`` is unchanged.

    Returns ``(B, c)`` with the pivot row of each column, or r where the
    column has none; it works on a batch-last copy in the type of
    ``_work_type(p)`` (see above).  A free-row mask replaces row swaps.  The
    copy has one more row, at index r: a sentinel of all ones, always free
    and never in the live block.  A member without a pivot in the current
    column finds the sentinel through the same ``argmax``, so its pivot is r
    and its pivot scale 1, its free rows are zero in the column, and it is
    left unchanged; a step in which every member finds it (every step of an
    empty batch) is skipped.
    Free rows above the pivot are zero in its column, so only rows below it
    change by more than a nonzero scale.

    ``first`` is a nonincreasing per-column row bound: rows above
    ``first[col]`` are zero in column ``col`` and in every earlier column
    (``[0] * c`` bounds nothing).  The step for ``col`` searches and updates
    only rows ``first[col]:``.  The rows it skips are zero up to ``col`` and
    were skipped by every earlier step, so skipping them differs from the full
    step by a nonzero row scale: the pivots are the same.

    A step reads the pivot row once, its pivot included, and writes its
    product into one preallocated buffer.  The live block is reduced after
    the update that the next one would carry past the type's largest value,
    so the step after a reduction (and the first) reads reduced entries and
    reduces neither its column nor its pivot row.  Pivots depend only on
    residues, so neither the type nor where the reductions fall changes
    them; ``x - (x // p) * p`` is exact even where ``(x // p) * p`` wraps.
    """
    nb, nr, nc = m.shape
    dtype, limit = _work_type(p)
    w = np.empty((nr + 1, nc, nb), dtype=dtype)
    w[:nr] = m.transpose(1, 2, 0)
    w[nr] = 1                                   # the sentinel row
    members = np.arange(nb)
    free = np.ones((nr + 1, nb), dtype=bool)
    pivots = np.empty((nc, nb), dtype=np.int64)
    product = np.empty((nr, nc, nb), dtype=dtype)
    bound = p - 1
    for col, top in enumerate(first):
        column = w[top:, col]
        if bound >= p:
            column = _mod(column, p)
        rfree = free[top:]
        piv = np.logical_and(rfree, column).argmax(0)
        pivots[col] = piv + top
        if (piv == nr - top).all():         # every member picked the sentinel
            continue
        row = w[top:, col:][piv, :, members]     # (B, 1 + live columns)
        if bound >= p:
            row = _mod(row, p)
        rfree[piv, members] = False
        free[nr] = True
        live = w[top:nr, col + 1:]
        prod = product[:live.shape[0], :live.shape[1]]
        np.multiply((column[:-1] * rfree[:-1])[:, None], row[:, 1:].T, out=prod)
        live *= row[:, 0].copy()                # contiguous: a faster multiply
        live -= prod
        bound = bound * (p - 1) + (p - 1) ** 2
        if bound * (p - 1) + (p - 1) ** 2 > limit:    # the next update could wrap
            live -= live // p * p
            bound = p - 1
    return pivots.T


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p, for single matrices or batches with entries in [0, p).

    numpy multiplies int64 arrays in a plain loop.  From an inner dimension
    of 8 up, a float64 (BLAS) product is several times faster, and it is
    exact while each sum of products, at most m(p-1)^2, stays below 2^53.
    """
    m = a.shape[-1]
    if m >= 8 and m * (p - 1) ** 2 < 2**53:
        return _mod((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), p)
    return _mod(a @ b, p)


def _leading_ranks(m: np.ndarray, nrows: np.ndarray, ncols: np.ndarray,
                   first: list[int], p: int) -> np.ndarray:
    """Ranks ``(q, B)`` of the leading ``nrows[q] x ncols[q]`` submatrices of
    a batch ``m``, all from one elimination under the row bound ``first``:
    each is the number of pivots inside it: of its ``ncols[q]`` columns, those
    whose pivot row is less than ``nrows[q]`` (a column without one has r).
    The pivots are read batch-last, ``(c, B)``, as the elimination keeps them."""
    pivots = _eliminate(m, p, first).T
    inside = pivots < nrows[:, None, None]
    inside &= (np.arange(m.shape[2]) < ncols[:, None])[:, :, None]
    return inside.sum(1)


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


def window_plan(o: tuple[int, ...], pairs):
    """The fixed part of ``window_rank_table`` for one block pattern: the
    offsets, the number of pairs, the mask of entries outside the
    nilradical, and per power k the pairs it ranks, their leading submatrices
    in the row-flipped corner C_k[::-1] (o_(t-k) rows), transposed when it
    is wide, and the row bound of its elimination.

    ``o`` are the block boundaries 0 = o_0 < ... < o_t = n and ``pairs`` the
    windows (i, j), blocks 1-based and inclusive.
    """
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
    return o, len(pairs), block[:, None] >= block[None, :], tuple(queries)


def window_rank_table(mats, plan, p):
    """Rank table R[b, pi, k-1] = rank((A_b window pi)^k) mod p, -1 padded,
    for the windows of ``plan`` (see ``window_plan``).  Each A_b must lie in
    the nilradical (nonzero mod p only in blocks strictly above the diagonal
    blocks); anything else raises ValueError.  Entries are reduced mod p
    first only when one lies outside [0, p).  R is the ``(B, P, K)`` view
    ``R.transpose(2, 1, 0)`` of a C-ordered power-major, batch-last
    ``(K, P, B)`` table, the layout its consumers reduce over.

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
    the plan derives once per power from the offsets (``_corner_bound``).
    The batch is ranked in one pass, one corner at a time.
    """
    mats = np.asarray(mats, dtype=np.int64)
    o, npairs, outside, queries = plan
    t = len(o) - 1
    table = np.full((t - 1, npairs, mats.shape[0]), -1, dtype=np.int64)
    # a negative entry is above p too as uint64: one pass tests both bounds
    reduced = not mats.size or mats.view(np.uint64).max() < p
    a = mats if reduced else _mod(mats, p)
    if a[:, outside].any():
        raise ValueError("matrix entry outside the strictly upper block pattern")
    corner = a[:, :o[t - 1], o[1]:]
    for k, pis, nrows, ncols, wide, first in queries:
        if k > 1:
            corner = matmul_mod(corner[:, :o[t - k], :o[t - 1] - o[k - 1]],
                                a[:, o[k - 1]:o[t - 1], o[k]:], p)
        flipped = corner[:, ::-1]
        if wide:
            flipped = flipped.transpose(0, 2, 1)
        table[k - 1, pis] = _leading_ranks(flipped, nrows, ncols, first, p)
    return table.transpose(2, 1, 0)


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
