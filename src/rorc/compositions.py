"""Compositions, partitions, dominance order, and the pair sets indexing rank strata.

A composition d = (d_1, ..., d_t) of n fixes the diagonal block sizes of a
parabolic subgroup of GL_n.  Everything else in this package is derived from
it: the generic nilpotency class ``richardson_partition(d)``, the threshold
exponent ``kappa(d, i, j)`` of a window, and the pair sets ``gamma_pairs(d)``
and ``lambda_pairs(d)``.  The pairs in ``lambda_pairs(d)`` index the
irreducible components of the complement of the dense orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

Pair = tuple[int, int]


def _is_int(x) -> bool:
    """An int and not a bool: the integer rule for parts, sizes and indices."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive block sizes (d_1, ..., d_t)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if any(not _is_int(p) or p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers, got {self.parts!r}")

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(tuple(parts))

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Block boundaries 0 = o_0 < o_1 < ... < o_t = n."""
        return (0, *accumulate(self.parts))

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """The 1-based block of each index 0..n-1."""
        return tuple(b for b, p in enumerate(self.parts, start=1) for _ in range(p))

    def window(self, i: int, j: int) -> "Composition":
        """The sub-composition (d_i, ..., d_j), blocks 1-based and inclusive."""
        self.check_window(i, j)
        return Composition(self.parts[i - 1 : j])

    def check_pair(self, i: int, j: int) -> None:
        if not (1 <= i < j <= self.t):
            raise ValueError(f"pair ({i},{j}) out of range for t={self.t}")

    def check_window(self, i: int, j: int) -> None:
        if not (1 <= i <= j <= self.t):
            raise ValueError(f"window ({i},{j}) out of range for t={self.t}")

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def as_composition(d) -> Composition:
    """Accept a Composition, or any iterable of positive ints."""
    if isinstance(d, Composition):
        return d
    return Composition(tuple(d))


def is_partition(parts: tuple[int, ...]) -> bool:
    """True for a weakly decreasing tuple of positive integers (or the empty tuple)."""
    return all(p >= 1 for p in parts) and all(
        parts[k] >= parts[k + 1] for k in range(len(parts) - 1)
    )


def conjugate(parts) -> tuple[int, ...]:
    """Conjugate partition: entry h is #{i : parts_i >= h}.

    Order-insensitive, so it applies to compositions as well; the result is
    always a partition.
    """
    vals = tuple(parts)
    if not vals:
        return ()
    return tuple(sum(1 for p in vals if p >= h) for h in range(1, max(vals) + 1))


def richardson_partition(d) -> tuple[int, ...]:
    """Nilpotency class of a generic element of the nilradical for d.

    This is the conjugate of d sorted decreasingly; part h counts the blocks
    of size >= h.  Its weight is n and its first part is t.
    """
    return conjugate(as_composition(d).parts)


def low_intermediates(d, i: int, j: int) -> frozenset[int]:
    """Indices l with i < l < j and d_l < min(d_i, d_j)."""
    d = as_composition(d)
    d.check_pair(i, j)
    m = min(d.parts[i - 1], d.parts[j - 1])
    return frozenset(l for l in range(i + 1, j) if d.parts[l - 1] < m)


def high_intermediates(d, i: int, j: int) -> frozenset[int]:
    """Indices l with i < l < j and d_l >= min(d_i, d_j)."""
    d = as_composition(d)
    d.check_pair(i, j)
    m = min(d.parts[i - 1], d.parts[j - 1])
    return frozenset(l for l in range(i + 1, j) if d.parts[l - 1] >= m)


def kappa(d, i: int, j: int) -> int:
    """Threshold exponent of the window (i, j): one more than the number of
    intermediate blocks at least as large as min(d_i, d_j).

    Equals (j - i) - |low_intermediates|, so it is j - i exactly when no
    intermediate block is strictly smaller than both ends.
    """
    return 1 + len(high_intermediates(d, i, j))


def gamma_pairs(d) -> frozenset[Pair]:
    """Pairs (i, j) whose intermediate blocks all avoid [min(d_i,d_j), max(d_i,d_j)].

    Every consecutive pair (i, i+1) qualifies vacuously.
    """
    d = as_composition(d)
    out = []
    for i, j in combinations(range(1, d.t + 1), 2):
        lo = min(d.parts[i - 1], d.parts[j - 1])
        hi = max(d.parts[i - 1], d.parts[j - 1])
        if all(d.parts[l - 1] < lo or d.parts[l - 1] > hi for l in range(i + 1, j)):
            out.append((i, j))
    return frozenset(out)


def lambda_pairs(d) -> frozenset[Pair]:
    """The component index set: the subset of gamma_pairs(d) that labels the
    irreducible components of the complement of the dense orbit.

    A pair (i, j) in gamma_pairs(d) belongs here when d_i = d_j, or when
    d_i != d_j and additionally
      (i)   every other block is <= min(d_i,d_j) or >= max(d_i,d_j),
      (ii)  no block before i equals d_j,
      (iii) no block after j equals d_i.
    Clause (i) quantifies over all k in {1..t} \\ {i, j}.
    """
    d = as_composition(d)
    out = []
    for i, j in gamma_pairs(d):
        di, dj = d.parts[i - 1], d.parts[j - 1]
        if di == dj:
            out.append((i, j))
            continue
        lo, hi = min(di, dj), max(di, dj)
        others = [k for k in range(1, d.t + 1) if k != i and k != j]
        if not all(d.parts[k - 1] <= lo or d.parts[k - 1] >= hi for k in others):
            continue
        if any(d.parts[k - 1] == dj for k in range(1, i)):
            continue
        if any(d.parts[k - 1] == di for k in range(j + 1, d.t + 1)):
            continue
        out.append((i, j))
    return frozenset(out)


def dominance_leq(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Dominance order on partitions of equal weight: every prefix sum of mu
    is at most the corresponding prefix sum of lam."""
    if sum(mu) != sum(lam):
        raise ValueError(f"weight mismatch: |mu|={sum(mu)} vs |lam|={sum(lam)}")
    acc_m = acc_l = 0
    for k in range(max(len(mu), len(lam))):
        acc_m += mu[k] if k < len(mu) else 0
        acc_l += lam[k] if k < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True


def partitions_of(n: int, max_part: int | None = None):
    """Yield all partitions of n as weakly decreasing tuples, largest part first."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
