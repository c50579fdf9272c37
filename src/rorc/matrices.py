"""Exact matrices over Q or a prime field, with block windows, powers, rank,
and Jordan type of nilpotent matrices.

The field of the original problem is algebraically closed; computationally we
use two exact proxies: rationals for certified ranks and F_p (default
p = 32003) for high-volume sampling.  All defining conditions are integer
polynomials, so ranks certified over Q transfer, and mod-p ranks never exceed
rational ones.

Rank uses fraction-free (Bareiss) elimination for both fields: over Q on
integer rows, rational entries cleared row-wise first (row scaling preserves
rank); over F_p with each row reduced mod p.  Neither rank nor product runs
the batched mod-p kernels, so this layer checks them independently.

Validation happens once, at the public boundary: ``ExactMatrix(...)``,
``from_triples``, ``from_json_dict``, ``zeros``, ``identity`` and
``with_blocks`` check every entry, the field, the int64 bound of ``Fp:<p>``
and the block sizes.  Matrices derived from an existing one (``window``,
``block``, ``mul``, ``power``) have normalized rows by construction and are
built by ``_derived`` without re-checking them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

import numpy as np

from .compositions import Composition, _is_int, as_composition, conjugate

DEFAULT_PRIME = 32003

Scalar = int | Fraction


def _normalize_field(field: str, ncols: int) -> tuple[str, int | None]:
    if field == "Q":
        return "Q", None
    if field.startswith("Fp:"):
        p = int(field[3:])
        _check_modulus(p, ncols)
        return field, p
    raise ValueError(f"unknown field {field!r}; expected 'Q' or 'Fp:<p>'")


def _check_modulus(p: int, n: int) -> None:
    """Raise ValueError unless p is a prime with n*(p-1)^2 < 2^63, the field
    bound of the verifier's int64 kernels, whose products sum n terms of at
    most (p-1)^2.  The bound is checked first: it caps the trial division of
    the primality test."""
    if not _is_int(p) or p < 2:
        raise ValueError(f"modulus must be an integer of at least 2, got {p!r}")
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus {p} is too large for n = {n}: the int64 kernels "
                         "need n*(p-1)^2 < 2^63")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _rational_mod_p(v, p: int) -> int:
    """The residue of the rational v = a/b in [0, p), a * b^-1; a denominator
    divisible by p raises ValueError."""
    v = Fraction(v)
    if v.denominator % p == 0:
        raise ValueError(f"entry {v} has no value mod {p}: {p} divides its denominator")
    return v.numerator * pow(v.denominator, -1, p) % p


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class ExactMatrix:
    """Immutable matrix with exact scalars and an optional block structure.

    Entries are ints or Fractions over "Q", or ints in [0, p) over "Fp:<p>".
    ``blocks`` attaches the composition inducing the block pattern.
    """

    __slots__ = ("nrows", "ncols", "rows", "field", "p", "blocks")

    def __init__(self, rows, field: str = "Q", blocks: Composition | None = None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be non-empty and of equal length")
        field, p = _normalize_field(field, len(rows[0]))
        if p is not None:
            rows = tuple(tuple(int(v) % p if isinstance(v, (int, np.integer))
                               else _rational_mod_p(v, p) for v in r) for r in rows)
        else:
            rows = tuple(
                tuple(v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r)
                for r in rows
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "p", p)
        if blocks is not None:
            blocks = as_composition(blocks)
            if self.nrows != self.ncols or blocks.n != self.nrows:
                raise ValueError("block structure does not match matrix size")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, *_):
        raise AttributeError("ExactMatrix is immutable")

    def _derived(self, rows: tuple[tuple, ...], blocks: Composition | None = None
                 ) -> "ExactMatrix":
        """A matrix over this one's field from rows already normalized for it
        (tuples of int/Fraction over Q, of ints in [0, p) over F_p), with no
        per-entry checks.  Only for rows derived from existing matrices."""
        out = object.__new__(ExactMatrix)
        for name, value in (("rows", rows), ("nrows", len(rows)), ("ncols", len(rows[0])),
                            ("field", self.field), ("p", self.p), ("blocks", blocks)):
            object.__setattr__(out, name, value)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None, field: str = "Q",
              blocks=None) -> "ExactMatrix":
        ncols = nrows if ncols is None else ncols
        return cls([[0] * ncols for _ in range(nrows)], field, blocks)

    @classmethod
    def identity(cls, n: int, field: str = "Q") -> "ExactMatrix":
        return cls([[1 if r == c else 0 for c in range(n)] for r in range(n)], field)

    @classmethod
    def from_triples(cls, n: int, triples, field: str = "Q",
                     blocks=None) -> "ExactMatrix":
        """Square matrix from (row, col, value) triples, indices 0-based."""
        rows = [[0] * n for _ in range(n)]
        for r, c, v in triples:
            rows[r][c] = v
        return cls(rows, field, blocks)

    # -- basics --------------------------------------------------------------

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def entry(self, r: int, c: int) -> Scalar:
        return self.rows[r][c]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def with_blocks(self, blocks) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.field, blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols}, {self.field})"

    def pretty(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    # -- arithmetic ----------------------------------------------------------

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        rows = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows)
        if self.p is not None:
            rows = tuple(tuple(v % self.p for v in row) for row in rows)
        return self._derived(rows)

    def power(self, k: int) -> "ExactMatrix":
        if k < 0:
            raise ValueError("negative power")
        n = self.n      # raises on a non-square matrix
        out = self if k else ExactMatrix.identity(n, self.field)
        for _ in range(k - 1):
            out = out.mul(self)
        return out

    def rank(self) -> int:
        return _rank_bareiss(self._integer_rows(), self.p)

    def jordan_type(self) -> tuple[int, ...]:
        """Jordan block sizes of a nilpotent matrix, from ranks of its powers.

        The number of parts >= k equals rank(A^(k-1)) - rank(A^k).  Raises on
        non-nilpotent input.
        """
        n = self.n
        ranks = [n]
        m = self
        while ranks[-1] > 0:
            r = m.rank()
            if r == ranks[-1]:
                raise ValueError("matrix is not nilpotent")
            ranks.append(r)
            if r:
                m = m.mul(self)
        mults = tuple(ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1))
        return conjugate(mults)

    def _integer_rows(self) -> list[list[int]]:
        if set(map(type, chain.from_iterable(self.rows))) == {int}:
            return [list(row) for row in self.rows]
        out = []
        for row in self.rows:   # Fractions (or bools): clear each row's denominators
            scale = lcm(*(v.denominator for v in row))
            out.append([int(v * scale) for v in row])
        return out

    # -- block structure -----------------------------------------------------

    def block(self, d, i: int, j: int) -> "ExactMatrix":
        """Rectangular block in block-row i, block-column j (1-based)."""
        d = as_composition(d)
        if d.n != self.n:
            raise ValueError("block structure does not match matrix size")
        if not (1 <= i <= d.t and 1 <= j <= d.t):
            raise ValueError(f"block ({i},{j}) out of range for t={d.t}")
        o = d.offsets
        return self._derived(tuple(row[o[j - 1]: o[j]] for row in self.rows[o[i - 1]: o[i]]))

    def window(self, d, i: int, j: int) -> "ExactMatrix":
        """Square principal submatrix spanning blocks i..j (1-based, inclusive)."""
        d = as_composition(d)
        if d.n != self.n:
            raise ValueError("block structure does not match matrix size")
        blocks = d.window(i, j)     # checks the window
        o = d.offsets
        lo, hi = o[i - 1], o[j]
        return self._derived(tuple(row[lo:hi] for row in self.rows[lo:hi]), blocks)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            return int(v)

        out = {
            "n": self.nrows,
            "field": self.field,
            "entries": [[enc(v) for v in row] for row in self.rows],
        }
        if self.blocks is not None:
            out["d"] = list(self.blocks.parts)
        return out

    @classmethod
    def from_json_dict(cls, data) -> "ExactMatrix":
        """Inverse of to_json_dict; a sparse ``triples`` list of 0-based
        [row, col, value] may stand in for ``entries``.  Raises ValueError
        unless ``data`` describes an n x n matrix with a positive integer n."""
        if not isinstance(data, dict):
            raise ValueError("matrix JSON must be an object")
        n = data.get("n")
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"matrix JSON needs a positive integer 'n', got {n!r}")
        field = data.get("field", "Q")
        if not isinstance(field, str):
            raise ValueError(f"matrix 'field' must be a string, got {field!r}")
        d = data.get("d")
        if d is not None and not isinstance(d, list):
            raise ValueError(f"matrix 'd' must be a list, got {d!r}")
        blocks = Composition(tuple(d)) if d else None

        def dec(v):
            if _is_int(v):
                return v
            if not isinstance(v, str):
                raise ValueError(f"matrix entry {v!r} is neither an integer nor 'a/b'")
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"matrix entry {v!r} divides by zero") from None

        def index(x) -> bool:
            return _is_int(x) and 0 <= x < n

        if "entries" in data:
            entries = data["entries"]
            if not (isinstance(entries, list) and len(entries) == n
                    and all(isinstance(row, list) and len(row) == n for row in entries)):
                raise ValueError(f"matrix 'entries' must be {n} rows of {n} values")
            rows = [[dec(v) for v in row] for row in entries]
        elif "triples" in data:
            triples = data["triples"]
            if not isinstance(triples, list):
                raise ValueError("matrix 'triples' must be a list")
            rows = [[0] * n for _ in range(n)]
            for triple in triples:
                if not (isinstance(triple, list) and len(triple) == 3
                        and index(triple[0]) and index(triple[1])):
                    raise ValueError(f"matrix triple {triple!r} is not [row, col, value] "
                                     f"with 0 <= row, col < {n}")
                r, c, v = triple
                rows[r][c] = dec(v)
        else:
            raise ValueError("matrix JSON needs 'entries' or 'triples'")
        return cls(rows, field, blocks)


def _rank_bareiss(rows: list[list[int]], p: int | None = None) -> int:
    """Rank by one-step fraction-free elimination with column pivoting, over
    Q, or over F_p when ``p`` is given.

    Over Q, after k pivots every entry is a (k+1)x(k+1) minor of the input,
    so the division by the previous pivot is exact (Sylvester's identity).
    Over F_p the divisor stays 1 and each updated row is reduced mod p: the
    step r <- pivot*r - f*pivot_row scales r by a unit, so it keeps the rank.
    """
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nr):
            f = m[r][col]
            for c in range(col + 1, nc):
                m[r][c] = (m[r][c] * pv - m[rank][c] * f) // prev
            m[r][col] = 0
            if p is not None:
                m[r] = [v % p for v in m[r]]
        prev = pv if p is None else 1
        rank += 1
        if rank == nr:
            break
    return rank

