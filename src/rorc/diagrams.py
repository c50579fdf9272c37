"""Line diagrams: columns of vertices joined by branchless edges.

A diagram for a composition d has t top-adjusted columns of d_1, ..., d_t
vertices, numbered 1..n column-major (column i holds o_{i-1}+1 .. o_i, top to
bottom).  Edges join vertices of distinct columns, left column first.
Branchless means every vertex carries at most one edge to its left and at most
one to its right, so connected components are paths ("chains").

The complete diagram joins, at every height h, consecutive columns of size
>= h; its image under the edge-to-unit-matrix map is an element of the dense
orbit, and counting chain segments yields the window ranks of any diagram's
matrix (chain_window_rank), the maximal ones on the complete diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .compositions import Composition, _is_int, as_composition
from .matrices import ExactMatrix

Edge = tuple[int, int]


@dataclass(frozen=True, eq=True)
class LineDiagram:
    columns: Composition
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "columns", as_composition(self.columns))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        n = self.columns.n
        left_deg: dict[int, int] = {}
        right_deg: dict[int, int] = {}
        for u, v in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of vertex range 1..{n}")
            if self.vertex_column(u) >= self.vertex_column(v):
                raise ValueError(
                    f"edge ({u},{v}) must go from a strictly smaller column"
                )
            right_deg[u] = right_deg.get(u, 0) + 1
            left_deg[v] = left_deg.get(v, 0) + 1
            if right_deg[u] > 1 or left_deg[v] > 1:
                raise ValueError(f"branching at edge ({u},{v}); diagrams must be branchless")

    @property
    def n(self) -> int:
        return self.columns.n

    def vertex_column(self, v: int) -> int:
        """1-based column of vertex v."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.columns.block_of[v - 1]

    def vertex_height(self, v: int) -> int:
        """1-based height of vertex v inside its column (1 = top)."""
        return v - self.columns.offsets[self.vertex_column(v) - 1]

    def chains(self) -> list[tuple[int, ...]]:
        """Connected components as vertex paths, ordered by their first vertex."""
        return edge_chains(self.n, self.edges)

    def to_matrix(self) -> ExactMatrix:
        """Sum of unit matrices E_uv over the edges (u, v); entries 0-based inside."""
        return ExactMatrix.from_triples(
            self.n, [(u - 1, v - 1, 1) for u, v in self.edges],
            field="Q", blocks=self.columns,
        )


def edge_chains(n: int, edges) -> list[tuple[int, ...]]:
    """The vertex paths of a branchless edge set on vertices 1..n, ordered by
    their first vertex; the edges are taken as given, not validated."""
    right = dict(edges)
    out = []
    for start in sorted(set(range(1, n + 1)).difference(right.values())):
        path = [start]
        while path[-1] in right:
            path.append(right[path[-1]])
        out.append(tuple(path))
    return out


def vertex_id(d, col: int, height: int) -> int:
    """Vertex number of (column, height), both 1-based."""
    d = as_composition(d)
    if not (1 <= col <= d.t and 1 <= height <= d.parts[col - 1]):
        raise ValueError(f"no vertex at column {col}, height {height}")
    return d.offsets[col - 1] + height


def window_chains(d, i: int, j: int) -> list[list[int]]:
    """Chains of the complete diagram inside the window of columns i..j:
    entry h-1 lists, in order, the columns c in i..j with d_c >= h."""
    d = as_composition(d)
    d.check_window(i, j)
    return [[c for c in range(i, j + 1) if d.parts[c - 1] >= h]
            for h in range(1, max(d.parts[i - 1 : j]) + 1)]


def contributing_chains(d: Composition, i: int, j: int, k: int) -> list[tuple[int, list[Edge]]]:
    """The chains of the complete diagram inside the window (i, j) that
    contribute to the rank of its k-th power, those of more than k vertices,
    top first: each as its height and its edges (u, v) in column order.
    Breaking any one of those edges drops that rank below the maximum."""
    o = d.offsets
    return [(h, [(o[a - 1] + h, o[b - 1] + h) for a, b in zip(cols, cols[1:])])
            for h, cols in enumerate(window_chains(d, i, j), start=1) if len(cols) > k]


def complete_diagram(d) -> LineDiagram:
    """Join all same-height neighbors: one chain per height h, spanning the
    columns of size >= h in order."""
    d = as_composition(d)
    return LineDiagram(d, frozenset(e for _, edges in contributing_chains(d, 1, d.t, 0)
                                    for e in edges))


def subdiagram(diagram: LineDiagram, i: int, j: int) -> LineDiagram:
    """Columns i..j re-indexed, keeping exactly the edges inside the window."""
    d = diagram.columns
    sub = d.window(i, j)    # checks the window
    lo = d.offsets[i - 1]
    hi = d.offsets[j]
    edges = frozenset(
        (u - lo, v - lo) for u, v in diagram.edges if lo < u <= hi and lo < v <= hi
    )
    return LineDiagram(sub, edges)


def chain_lengths(diagram: LineDiagram) -> tuple[int, ...]:
    """Edge counts of the chains, sorted decreasingly.  Sum of (length+1) is n."""
    return tuple(sorted((len(c) - 1 for c in diagram.chains()), reverse=True))


def diagram_partition(diagram: LineDiagram) -> tuple[int, ...]:
    """Nilpotency class of the diagram's matrix: chain lengths plus one, sorted."""
    return tuple(sorted((len(c) for c in diagram.chains()), reverse=True))


def richardson_element(d) -> ExactMatrix:
    """0/1 matrix of the complete diagram; its Jordan type is richardson_partition(d)."""
    return complete_diagram(d).to_matrix()


def tableau_diagram(tab, d) -> LineDiagram:
    """Realize a tableau for d as a line diagram: chain r visits exactly the
    columns listed in row r, so every prefix subdiagram has the nilpotency
    class of the corresponding sub-tableau.

    The h-th row, from the top, that holds column m visits it at height h,
    and consecutive entries of a row are joined.  The complete diagram is
    the realization of the maximal tableau.
    """
    d = as_composition(d)
    height: dict[int, int] = {}
    edges = []
    for row in tab.rows:
        path = []
        for m in row:
            height[m] = height.get(m, 0) + 1
            path.append(vertex_id(d, m, height[m]))
        edges.extend(zip(path, path[1:]))
    return LineDiagram(d, frozenset(edges))


def chain_window_rank(visits, i: int, j: int, k: int) -> int:
    """Rank of the k-th power of window (i, j) of a line diagram's matrix, from
    the columns each chain visits (one sequence per chain).  The matrix is a
    partial permutation, and a chain's m vertices in columns i..j are
    consecutive on it, so they give max(m - k, 0) ones in the window of A^k."""
    return sum(max(sum(i <= c <= j for c in cols) - k, 0) for cols in visits)


def max_window_rank(d, i: int, j: int, k: int) -> int:
    """Rank of the k-th power of the window (i, j) of a dense-orbit element.

    The window of the complete diagram is a nilpotent of the window's
    generic Jordan type: one chain per height h through the window's parts
    of size >= h.  So the rank of its k-th power is the sum of the j-i-k+1
    smallest window parts, which chain_window_rank on window_chains(d, 1, t)
    counts chain by chain.  Positive exactly when k <= j - i.
    """
    d = as_composition(d)
    d.check_pair(i, j)
    if not _is_int(k):
        raise ValueError(f"power must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    return sum(sorted(d.parts[i - 1 : j])[: max(j - i + 1 - k, 0)])


def render_ascii(diagram: LineDiagram) -> str:
    """Deterministic text rendering: columns as 'o', same-height edges drawn
    as horizontal lines (spanning columns with no vertex at that height);
    edges that cannot be drawn horizontally are listed below the grid."""
    d = diagram.columns
    grid = [
        ["o" if d.parts[c] >= h + 1 else " " for c in range(d.t)]
        for h in range(max(d.parts))
    ]
    gaps = [[False] * (d.t - 1) for _ in range(max(d.parts))]
    other = []
    for u, v in sorted(diagram.edges):
        hu, hv = diagram.vertex_height(u), diagram.vertex_height(v)
        cu, cv = diagram.vertex_column(u), diagram.vertex_column(v)
        crossed = range(cu + 1, cv)
        if hu == hv and all(d.parts[c - 1] < hu for c in crossed):
            for c in crossed:
                grid[hu - 1][c - 1] = "-"
            for c in range(cu, cv):
                gaps[hu - 1][c - 1] = True
        else:
            other.append((u, v))
    lines = []
    for h in range(max(d.parts)):
        cells = []
        for c in range(d.t):
            cells.append(grid[h][c])
            if c < d.t - 1:
                cells.append("---" if gaps[h][c] else "   ")
        lines.append("".join(cells).rstrip())
    for u, v in other:
        lines.append(
            f"edge {u}->{v}  (col {diagram.vertex_column(u)} h {diagram.vertex_height(u)}"
            f" -> col {diagram.vertex_column(v)} h {diagram.vertex_height(v)})"
        )
    return "\n".join(lines)
