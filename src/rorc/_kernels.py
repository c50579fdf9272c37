"""Mod-p matrix kernels: batched elimination rank, products, window rank
tables and the exhaustive enumeration decode.

All kernels take int64 arrays with entries reduced mod a prime p.  Elimination
uses cross-multiplied rows (r <- pivot*r - f*pivot_row), which never needs
modular inverses, and products reduce once per product; every intermediate is
bounded by n*(p-1)^2, which the callers keep below 2^63.
"""

from __future__ import annotations

import numpy as np

# Matrices ranked together by window_rank_table: bounds the working set
# whatever the size of the batch handed in.
_SLICE = 256


def rank_mod(mats, p: int):
    """Ranks over F_p of a batch ``(B, r, c)``, or the rank of one ``(r, c)``.

    Elimination runs over the shorter side (rank is transpose-invariant) for
    the whole batch at once: a free-row mask replaces row swaps, and each
    step updates the live columns in place.  A member without a pivot in the
    current column is left unchanged.
    """
    m = np.asarray(mats, dtype=np.int64) % p
    single = m.ndim == 2
    if single:
        m = m[None]
    if m.shape[1] < m.shape[2]:
        m = m.transpose(0, 2, 1).copy()
    nb, nr, nc = m.shape
    members = np.arange(nb)
    free = np.ones((nb, nr), dtype=bool)
    rank = np.zeros(nb, dtype=np.int64)
    for col in range(nc):
        cand = free & (m[:, :, col] != 0)
        has = cand.any(1)
        if not has.any():
            continue
        piv = cand.argmax(1)
        pivot_row = m[members, piv, col + 1:]
        pv = np.where(has, m[members, piv, col], 1)
        free[members, piv] &= ~has
        f = np.where(free, m[:, :, col], 0)
        live = m[:, :, col + 1:]
        live *= pv[:, None, None]
        live -= f[:, :, None] * pivot_row[:, None, :]
        live %= p
        rank += has
    return int(rank[0]) if single else rank


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p, for single matrices or batches."""
    return (a @ b) % p


def window_rank_table(mats, offsets, pairs, p):
    """Rank table R[b, pi, k-1] = rank((A_b window pi)^k) mod p, -1 padded.

    ``offsets`` are the block boundaries 0 = o_0 < ... < o_t = n and
    ``pairs`` the windows (i, j), blocks 1-based and inclusive.  Each A_b must
    lie in the nilradical (nonzero mod p only in blocks strictly above the
    diagonal blocks); anything else raises ValueError.  There the window of
    A^k is the k-th power of the window of A, and it is zero outside row
    blocks i..j-k and column blocks i+k..j.  So each slice of the batch forms
    the global powers A, A^2, ..., A^(t-1) one at a time and ranks only those
    rectangles of A^k.
    """
    mats = np.asarray(mats, dtype=np.int64)
    o = tuple(int(v) for v in offsets)
    kmax = len(o) - 2
    block = np.repeat(np.arange(kmax + 1), np.diff(o))
    outside = block[:, None] >= block[None, :]
    rects = [[(pi, slice(o[i - 1], o[j - k]), slice(o[i + k - 1], o[j]))
              for pi, (i, j) in enumerate(pairs) if j - i >= k]
             for k in range(1, kmax + 1)]
    nb = mats.shape[0]
    table = np.full((nb, len(pairs), kmax), -1, dtype=np.int64)
    for first in range(0, nb, _SLICE):
        a = mats[first:first + _SLICE] % p
        if a[:, outside].any():
            raise ValueError("matrix entry outside the strictly upper block pattern")
        rows = table[first:first + _SLICE]
        ak = a
        for k, rect in enumerate(rects, start=1):
            for pi, r, c in rect:
                rows[:, pi, k - 1] = rank_mod(ak[:, r, c], p)
            if k < kmax:
                ak = matmul_mod(ak, a, p)
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
