"""Young tableaux for a composition d: fillings, shape chains, and the
minimal movement producing the component tableau of a pair (i, j).

Conventions: a tableau of shape mu for d is a filling of the Young diagram of
mu with d_1 ones, d_2 twos, ... such that rows strictly increase left to right
and columns weakly increase top to bottom.  These fillings index the
irreducible components of the intersection of the nilradical with the
nilpotent class of mu.

``richardson_tableau(d)`` is the unique filling of the maximal shape: row h
lists the block indices of size >= h.  Moving the j-entry of the last row
containing both i and j down to the nearest valid row yields the component
tableau of (i, j); the number of rows it descends is the component's
codimension in the nilradical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .compositions import (
    as_composition,
    dominance_leq,
    gamma_pairs,
    is_partition,
    richardson_partition,
)
from .diagrams import window_chains


@dataclass(frozen=True)
class YoungTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.rows or any(not r for r in self.rows):
            raise ValueError("tableau rows must be non-empty")
        if not is_partition(self.shape):
            raise ValueError(f"row lengths {self.shape} are not weakly decreasing")
        for r in self.rows:
            if any(r[k] >= r[k + 1] for k in range(len(r) - 1)):
                raise ValueError(f"row {r} is not strictly increasing")
        for idx in range(len(self.rows) - 1):
            upper, lower = self.rows[idx], self.rows[idx + 1]
            if any(lower[c] < upper[c] for c in range(len(lower))):
                raise ValueError("columns must weakly increase top to bottom")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def weight(self) -> int:
        return sum(self.shape)

    def content(self) -> Counter:
        """Multiplicity of each entry."""
        return Counter(v for r in self.rows for v in r)

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    def render_ascii(self) -> str:
        return "\n".join(" ".join(str(v) for v in r) for r in self.rows)


def richardson_tableau(d) -> YoungTableau:
    """The unique tableau of maximal shape: row h lists {i : d_i >= h}, the
    columns of chain h of the complete diagram."""
    d = as_composition(d)
    return YoungTableau(window_chains(d, 1, d.t))


def tableaux_with_content(mu: tuple[int, ...], d) -> list[YoungTableau]:
    """All tableaux of shape mu with d_i copies of entry i, in lexicographic
    row-reading order.

    Raises on weight mismatch; a shape above the maximal class yields [].
    """
    d = as_composition(d)
    mu = tuple(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    if sum(mu) != d.n:
        raise ValueError(f"weight mismatch: |mu|={sum(mu)} vs n={d.n}")
    if not dominance_leq(mu, richardson_partition(d)):
        return []

    cells = [(r, c) for r, ln in enumerate(mu) for c in range(ln)]
    remaining = list(d.parts)
    grid = [[0] * ln for ln in mu]
    found: list[YoungTableau] = []

    def place(pos: int) -> None:
        if pos == len(cells):
            found.append(YoungTableau(tuple(tuple(r) for r in grid)))
            return
        r, c = cells[pos]
        lo = grid[r][c - 1] + 1 if c > 0 else 1
        if r > 0:
            lo = max(lo, grid[r - 1][c])
        for val in range(lo, d.t + 1):
            if remaining[val - 1] == 0:
                continue
            grid[r][c] = val
            remaining[val - 1] -= 1
            place(pos + 1)
            remaining[val - 1] += 1
            grid[r][c] = 0

    place(0)
    return found


def tableau_to_chain(tab: YoungTableau) -> tuple[tuple[int, ...], ...]:
    """Shapes of the sub-tableaux of entries <= i, for i = 1..max entry."""
    top = max(v for r in tab.rows for v in r)
    chain = []
    for i in range(1, top + 1):
        shape = tuple(
            ln for ln in (sum(1 for v in r if v <= i) for r in tab.rows) if ln
        )
        chain.append(shape)
    return tuple(chain)


def chain_to_tableau(chain, d) -> YoungTableau:
    """Inverse of tableau_to_chain: place entry i in the rows that grow at step i."""
    d = as_composition(d)
    rows: list[list[int]] = []
    prev: tuple[int, ...] = ()
    for i, shape in enumerate(chain, start=1):
        for r, ln in enumerate(shape):
            old = prev[r] if r < len(prev) else 0
            if ln < old or ln > old + 1:
                raise ValueError(f"chain step {i} changes row {r + 1} by more than one")
            if ln == old + 1:
                if r == len(rows):
                    rows.append([])
                rows[r].append(i)
        prev = shape
    tab = YoungTableau(tuple(tuple(r) for r in rows))
    if tab.content() != Counter({i: p for i, p in enumerate(d.parts, 1)}):
        raise ValueError("chain increments do not match the composition")
    return tab


def _next_shapes(prev: tuple[int, ...], grow: int, mu: tuple[int, ...]):
    """Partitions obtained from prev by adding ``grow`` boxes, at most one per
    row, staying componentwise inside mu."""
    out = []

    def rec(r: int, left: int, acc: list[int]):
        if left == 0:
            # remaining rows unchanged; weak decrease holds since prev does
            shape = tuple(acc) + tuple(prev[r:])
            out.append(tuple(x for x in shape if x))
            return
        if r >= len(mu):
            return
        base = prev[r] if r < len(prev) else 0
        cap = acc[-1] if acc else mu[0]
        for add in (0, 1):
            v = base + add
            if v > mu[r] or v > cap:
                continue
            rec(r + 1, left - add, acc + [v])

    rec(0, grow, [])
    return out


def shape_chains(mu: tuple[int, ...], d) -> list[tuple[tuple[int, ...], ...]]:
    """All shape chains mu^1, ..., mu^t with |mu^i| = d_1 + ... + d_i,
    mu^t = mu, and every row growing by at most one box per step.

    In bijection with tableaux_with_content(mu, d) via tableau_to_chain.
    """
    d = as_composition(d)
    mu = tuple(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    if sum(mu) != d.n:
        raise ValueError(f"weight mismatch: |mu|={sum(mu)} vs n={d.n}")
    if not dominance_leq(mu, richardson_partition(d)):
        return []

    def extend(prefix: tuple[tuple[int, ...], ...], step: int):
        if step == d.t:
            if prefix[-1] == mu:
                yield prefix
            return
        prev = prefix[-1] if prefix else ()
        for shape in _next_shapes(prev, d.parts[step], mu):
            yield from extend(prefix + (shape,), step + 1)

    return sorted(extend((), 0))


def shared_row(d, i: int, j: int) -> int:
    """Last row of richardson_tableau(d) containing both i and j: min(d_i, d_j).

    The number of boxes strictly between i and j in that row is kappa(d,i,j)-1.
    """
    d = as_composition(d)
    d.check_pair(i, j)
    return min(d.parts[i - 1], d.parts[j - 1])


class Movement(NamedTuple):
    tableau: YoungTableau
    shape: tuple[int, ...]
    drop: int


def minimal_movement(d, i: int, j: int) -> Movement:
    """Move the j-entry of row shared_row(d,i,j) down to the nearest valid row.

    The entry is deleted from row s (remaining entries shift left) and
    inserted at its sorted position in the first row r > s, possibly a new
    bottom row, that yields a valid tableau.  Returns the tableau, its shape,
    and the number of rows descended, r - s.
    """
    d = as_composition(d)
    s = shared_row(d, i, j)     # checks the pair
    rows = [list(r) for r in richardson_tableau(d).rows]
    rows[s - 1].remove(j)
    for r in range(s + 1, len(rows) + 2):
        candidate = [row[:] for row in rows]
        if r > len(candidate):
            candidate.append([j])
        else:
            target = candidate[r - 1]
            if j in target:
                continue
            pos = sum(1 for v in target if v < j)
            target.insert(pos, j)
        try:
            tab = YoungTableau(tuple(tuple(row) for row in candidate))
        except ValueError:
            continue
        return Movement(tab, tab.shape, r - s)
    raise AssertionError("a new bottom row is always a valid insertion")


def codim(d, i: int, j: int) -> int:
    """Codimension in the nilradical of the component of (i, j): the number of
    rows its minimal movement descends.  Requires (i, j) in gamma_pairs(d)."""
    d = as_composition(d)
    d.check_pair(i, j)
    if (i, j) not in gamma_pairs(d):
        raise ValueError(f"pair ({i},{j}) is not in gamma_pairs({d})")
    return minimal_movement(d, i, j).drop
