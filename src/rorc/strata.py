"""Rank-defect strata of the nilradical and the decomposition of the
complement of the dense orbit.

For a composition d, the nilradical consists of the strictly upper
block-triangular matrices.  A matrix A is *defective* at (i, j, k) when the
rank of the k-th power of its window A[i,j] falls below the maximal value
attained on the dense orbit.  The stratum of a pair (i, j) imposes the defect
at the threshold exponent kappa(i, j); the strata of the pairs in
lambda_pairs(d) are exactly the irreducible components of the complement.

Everything here is exact: the predicates rank with the fraction-free
elimination of ExactMatrix (matrices._pivot_rows, which skips rows with a
zero in the pivot column and keeps a Bareiss divisor per row), over Q or
reduced mod p, never with the mod-p kernels that rank_tables runs for the
verifier.  One elimination per power A^k, k < t, gives the ranks of all
windows of A^k (_exact_ranks); the powers are sparse products of one
nonzero listing of A, scaled by the common denominator of its entries.  The
predicates read the resulting defect table, cached per matrix
(_exact_defects), through defect_flags and stratum_flags.  The
witness search takes its line diagrams, kept as edge sets, from one generator
(_candidates) in two phases: the deterministic breaks of the complete diagram
and the moved tableau's diagram, then a seeded walk.  It screens each by
counting its chains (chain_window_rank) against the kappas and thresholds of
window_tables(d), and certifies the accepted one over the rationals with an
exact defect table of its own, which stays out of the predicates' cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .compositions import (
    Composition,
    _check_indices,
    _is_int,
    as_composition,
    dominance_leq,
    gamma_pairs,
    kappa,
    lambda_pairs,
    low_intermediates,
    richardson_partition,
)
from .diagrams import (
    LineDiagram,
    chain_window_rank,
    complete_diagram,
    contributing_chains,
    edge_chains,
    max_window_rank,
    tableau_diagram,
)
from .matrices import ExactMatrix, _integer_nonzeros, _pivot_rows, _product
from .tableaux import YoungTableau, minimal_movement, richardson_tableau, shared_row


class WitnessSearchError(RuntimeError):
    """Raised when the witness search exhausts its trial budget."""


# ---------------------------------------------------------------------------
# membership predicates

def in_nilradical(a: ExactMatrix, d) -> bool:
    """True when all entries outside the strict upper block pattern vanish."""
    d = as_composition(d)
    if not a.is_square() or a.n != d.n:
        raise ValueError(f"matrix size {a.nrows} does not match n={d.n}")
    o = d.offsets
    # row r may be nonzero only right of the end of its block
    return not any(any(row[:o[b]]) for row, b in zip(a.rows, d.block_of))


def _require_nilradical(a: ExactMatrix, d: Composition) -> None:
    if not in_nilradical(a, d):
        raise ValueError("matrix is not in the nilradical pattern of d")


def rank_defect(a: ExactMatrix, d, i: int, j: int, k: int) -> bool:
    """True when rank(A[i,j]^k) < max_window_rank(d, i, j, k).

    Always False for k > j - i, where the threshold is zero.
    """
    d = as_composition(d)
    positive = max_window_rank(d, i, j, k) > 0     # checks the pair and the power
    flags = _exact_defects(a, d)
    return positive and bool(flags[window_tables(d).pairs.index((i, j)), k - 1])


def in_stratum(a: ExactMatrix, d, i: int, j: int) -> bool:
    """Membership in the stratum of (i, j): the defect at exponent kappa(i, j)."""
    d = as_composition(d)
    d.check_pair(i, j)
    tab = window_tables(d)
    return bool(stratum_flags(_exact_defects(a, d), tab)[tab.pairs.index((i, j))])


def is_richardson(a: ExactMatrix, d) -> bool:
    """True when A has the generic Jordan type richardson_partition(d); inside
    the nilradical this characterizes the dense orbit."""
    d = as_composition(d)
    _require_nilradical(a, d)
    return a.jordan_type() == richardson_partition(d)


def defect_profile(a: ExactMatrix, d) -> list[tuple[int, int, int]]:
    """All (i, j, k) with k <= j - i where A is rank-defective, in (i, j, k)
    order.  Empty exactly when A is of generic Jordan type."""
    d = as_composition(d)
    return _profile(_exact_defects(a, d), d)


def _profile(defects: np.ndarray, d: Composition) -> list[tuple[int, int, int]]:
    """The (i, j, k) cells set in an exact defect table, in (i, j, k) order."""
    pairs = window_tables(d).pairs
    return [(*pairs[pi], int(k) + 1) for pi, k in zip(*np.nonzero(defects))]


# The exact window ranks of A, one elimination per power.  A^k has its
# nonzero blocks (a, b) at b >= a + k, and the window (i, j) of A^k is the
# k-th power of the window of A.  So the rows o_(i-1)..o_(t-k) and columns
# o_k..o_j of A^k hold that window's nonzero part, block rows i..j-k by
# block columns i+k..j, and zeros elsewhere.  Flip the rows of the corner
# A^k[:o_(t-k), o_k:] and that submatrix becomes a leading one, whose rank
# the corner's one elimination (_pivot_rows) gives: the number of columns
# below o_j - o_k whose pivot row is below o_(t-k) - o_(i-1).  A is listed
# once by its nonzeros, scaled by the common denominator of its entries
# (which scales every power and changes no rank), and the t - 2 sparse
# products A^2, ..., A^(t-1) and t - 1 eliminations serve every window; each
# corner is written straight from its power's listing, and the pivot rows of
# all corners, padded with n, are counted in one pass.
def _exact_ranks(a: ExactMatrix, d: Composition) -> np.ndarray:
    """rank(A[i,j]^k) in the (P, kmax) layout of rank_tables, -1 beyond
    the spans; ValueError unless A lies in the nilradical of d."""
    _require_nilradical(a, d)
    tab = window_tables(d)
    o, t, n = d.offsets, d.t, d.n
    pivots = np.full((t - 1, n), n)     # n: no pivot, below no row bound
    listing = power = _integer_nonzeros(a)
    for k in range(1, t):
        if k > 1:
            power = _product(power, listing, a.p)
        corner = []
        for row in reversed(power[:o[t - k]]):
            dense = [0] * (n - o[k])
            for c, v in row:
                dense[c - o[k]] = v
            corner.append(dense)
        pivots[k - 1, :n - o[k]] = _pivot_rows(corner, a.p)
    pivots[pivots < 0] = n
    ks, offsets = np.arange(1, t), np.array(o)
    row_bounds = offsets[t - ks] - tab.starts[:, None]      # (P, kmax)
    col_bounds = tab.stops[:, None] - offsets[ks]
    ranks = np.count_nonzero((pivots < row_bounds[..., None])
                             & (np.arange(n) < col_bounds[..., None]), axis=2)
    ranks[tab.spans[:, None] < ks] = -1
    return ranks


def _defect_table(a: ExactMatrix, d: Composition) -> np.ndarray:
    """The exact defect flags of A, read-only, aligned with _exact_ranks."""
    flags = defect_flags(_exact_ranks(a, d), window_tables(d))
    flags.flags.writeable = False
    return flags


# The membership predicates read A's table through this cache.  ``rorc
# witness`` certifies with the search's own table, which stays out of it, so
# a later predicate on the witness computes its table afresh; the small
# bound keeps the tables of a few recent matrices and no more.
_exact_defects = lru_cache(maxsize=8)(_defect_table)


# ---------------------------------------------------------------------------
# decomposition descriptor

@dataclass(frozen=True)
class StratumSpec:
    """Computational identity card of one irreducible component."""

    pair: tuple[int, int]
    kappa: int
    rank_threshold: int
    codim: int
    mu: tuple[int, ...]
    tableau: YoungTableau

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "kappa": self.kappa,
            "rank_threshold": self.rank_threshold,
            "codim": self.codim,
            "mu": list(self.mu),
            "tableau": self.tableau.to_json_dict(),
        }


@dataclass(frozen=True)
class Decomposition:
    d: Composition
    lam: tuple[int, ...]
    strata: tuple[StratumSpec, ...]

    def to_json_dict(self) -> dict:
        return {
            "d": list(self.d.parts),
            "lambda": list(self.lam),
            "components": [s.to_json_dict() for s in self.strata],
        }


def decompose(d) -> Decomposition:
    """One fully populated StratumSpec per pair in lambda_pairs(d)."""
    d = as_composition(d)
    lam = richardson_partition(d)
    strata = []
    for i, j in sorted(lambda_pairs(d)):
        kap = kappa(d, i, j)
        move = minimal_movement(d, i, j)
        if not (dominance_leq(move.shape, lam) and move.shape != lam):
            raise AssertionError(f"movement shape {move.shape} not strictly below {lam}")
        strata.append(
            StratumSpec(
                pair=(i, j),
                kappa=kap,
                rank_threshold=max_window_rank(d, i, j, kap),
                codim=move.drop,
                mu=move.shape,
                tableau=move.tableau,
            )
        )
    return Decomposition(d=d, lam=lam, strata=tuple(strata))


# ---------------------------------------------------------------------------
# shared numeric tables (used here and by the verifier)

@dataclass(frozen=True, eq=False)
class WindowTables:
    """Per-composition arrays driving the mod-p kernels and flag algebra.

    _window_tables keeps one per composition, so every array here is
    read-only.  The members that only some callers need are built on first
    use and kept with the table: ``plan`` for the rank kernel, ``positions``
    for the verifier's samples, ``lemma_masks`` and ``symbolic_violations``
    for its lemma checks, ``flag_tables`` for its reducers and
    ``forced_windows`` for its forced sample.
    """

    d: Composition
    pairs: tuple[tuple[int, int], ...]
    starts: np.ndarray
    stops: np.ndarray
    spans: np.ndarray
    kmax: int
    thresholds: np.ndarray          # (P, kmax), -1 beyond the span
    kappas: np.ndarray              # (P,)
    gamma: np.ndarray               # (P,) bool
    lam: np.ndarray                 # (P,) bool
    full_index: int                 # index of the full window (1, t); 0 when t = 1

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @cached_property
    def plan(self):
        """The fixed part of the rank kernel for this pattern
        (_kernels.window_plan), built on the first rank_tables call: the
        witness search, which ranks nothing mod p, never builds it."""
        return _kernels.window_plan(self.d.offsets, self.pairs)

    @cached_property
    def positions(self) -> np.ndarray:
        """(m, 2), read-only: the free entries (row, column) of the pattern,
        block by block, (1, 2), (1, 3), ..., (t - 1, t), and row by row in
        each block.  Only the verifier's samples read it."""
        o, t = self.d.offsets, self.d.t
        positions = np.array([(r, c)
                              for bi in range(1, t) for bj in range(bi + 1, t + 1)
                              for r in range(o[bi - 1], o[bi])
                              for c in range(o[bj - 1], o[bj])], dtype=np.int64).reshape(-1, 2)
        positions.flags.writeable = False
        return positions

    @cached_property
    def lemma_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(low, high, flank), read-only: ``low`` and ``high`` mask the
        (pair, exponent) cells below and above kappa (``high`` only for pairs
        with a small intermediate); ``flank[P, Q]`` marks Q = (i, m) or
        (m, j) for a small intermediate m of P = (i, j)."""
        index = {pq: n for n, pq in enumerate(self.pairs)}
        flank = np.zeros((len(self.pairs), len(self.pairs)), dtype=bool)
        for n, (i, j) in enumerate(self.pairs):
            for m in low_intermediates(self.d, i, j):
                flank[n, [index[i, m], index[m, j]]] = True
        power = np.arange(1, self.kmax + 1)
        low = power < self.kappas[:, None]
        high = (power > self.kappas[:, None]) & flank.any(axis=1)[:, None]
        for mask in (low, high, flank):
            mask.flags.writeable = False
        return low, high, flank

    @cached_property
    def flag_tables(self) -> tuple[np.ndarray, ...]:
        """The verifier's reducer tables, read-only, each O(P^2 + P*K) for P
        pairs and K = kmax: ``thresholds``, ``low`` and ``high`` in the
        power-major (K, P, 1) layout of a rank table's batch-last copy;
        ``at_kappa``, each pair's row of that copy's (K*P, B) reshape at its
        kappa, and ``kappa_thresholds`` (P, 1), the threshold there; and
        ``selector``, 0/1 float32 (P + 4, P), whose product with a (P, B)
        stratum table counts, per row, the strata flanking each pair
        (``flank``), then those in lambda, outside gamma, inside gamma, and
        in gamma but not in lambda."""
        low, high, flank = self.lemma_masks
        index = np.arange(len(self.pairs))
        selector = np.concatenate(
            [flank, np.stack([self.lam, ~self.gamma, self.gamma, self.gamma & ~self.lam])]
        ).astype(np.float32)
        tables = (
            *(np.ascontiguousarray(m.T[:, :, None]) for m in (self.thresholds, low, high)),
            (self.kappas - 1) * len(index) + index,
            self.thresholds[index, self.kappas - 1, None],
            selector,
        )
        for table in tables:
            table.flags.writeable = False
        return tables

    @cached_property
    def forced_windows(self) -> tuple[tuple, ...]:
        """Per pair (i, j), what the verifier's forced sample draws from:
        the chains of the window's complete diagram that have an edge, top
        first, each as the left ends of its edges in column order; how many
        of them (a prefix) contribute to the rank of the k-th power, for
        k = 1, ..., j - i; and the left ends and flat n x n indices of all
        the window's edges, in sorted order.  O(P * n) entries."""
        d, n = self.d, self.d.n
        out = []
        for i, j in self.pairs:
            chains = [edges for _, edges in contributing_chains(d, i, j, 1)]
            edges = sorted(e for chain in chains for e in chain)
            lefts = np.array([u for u, _ in edges], dtype=np.int64)
            flats = np.array([(u - 1) * n + v - 1 for u, v in edges], dtype=np.int64)
            for array in (lefts, flats):
                array.flags.writeable = False
            out.append((tuple(tuple(u for u, _ in chain) for chain in chains),
                        tuple(sum(len(chain) >= k for chain in chains)
                              for k in range(1, j - i + 1)),
                        lefts, flats))
        return tuple(out)

    @cached_property
    def symbolic_violations(self) -> tuple[tuple, tuple]:
        """The violations of the two lemma checks that need no matrices,
        in pair order: the windows (i, j, k, r) where the maximal rank r of
        the k-th power, 1 <= k <= t, is positive although k > j - i or zero
        although k <= j - i; and the pairs (i, j) whose count of entries
        strictly between i and j in their shared row of the maximal tableau
        is not kappa(i, j) - 1."""
        d = self.d
        # the thresholds hold r for k <= j - i, and r(i,j,k) = r(i,j,j-i+1) beyond
        positivity = []
        for (i, j), ranks in zip(self.pairs, self.thresholds.tolist()):
            beyond = max_window_rank(d, i, j, j - i + 1)
            for k in range(1, d.t + 1):
                r = ranks[k - 1] if k <= j - i else beyond
                if (r > 0) != (k <= j - i):
                    positivity.append((i, j, k, r))
        rows = richardson_tableau(d).rows
        identity = tuple(
            (i, j) for (i, j), kap in zip(self.pairs, self.kappas.tolist())
            if sum(1 for v in rows[shared_row(d, i, j) - 1] if i < v < j) != kap - 1)
        return tuple(positivity), identity


def window_tables(d) -> WindowTables:
    return _window_tables(as_composition(d))


# bounded, so that a process serving many compositions (a witness round
# visits about 80) does not grow with the number of calls
@lru_cache(maxsize=128)
def _window_tables(d: Composition) -> WindowTables:
    t = d.t
    o = d.offsets
    pairs = [(i, j) for i in range(1, t) for j in range(i + 1, t + 1)]
    npairs = len(pairs)
    starts = np.array([o[i - 1] for i, _ in pairs], dtype=np.int64)
    stops = np.array([o[j] for _, j in pairs], dtype=np.int64)
    spans = np.array([j - i for i, j in pairs], dtype=np.int64)
    kmax = t - 1
    thresholds = np.full((npairs, kmax), -1, dtype=np.int64)
    kappas = np.zeros(npairs, dtype=np.int64)
    for pi, (i, j) in enumerate(pairs):
        kappas[pi] = kappa(d, i, j)
        for k in range(1, j - i + 1):
            thresholds[pi, k - 1] = max_window_rank(d, i, j, k)
    gset = gamma_pairs(d)
    lset = lambda_pairs(d)
    gamma = np.array([p in gset for p in pairs], dtype=bool)
    lam = np.array([p in lset for p in pairs], dtype=bool)
    full_index = pairs.index((1, t)) if t > 1 else 0

    return WindowTables(
        d=d,
        pairs=tuple(pairs),
        starts=starts,
        stops=stops,
        spans=spans,
        kmax=kmax,
        thresholds=thresholds,
        kappas=kappas,
        gamma=gamma,
        lam=lam,
        full_index=full_index,
    )


def rank_tables(mats: np.ndarray, tab: WindowTables, p: int) -> np.ndarray:
    """Batched window rank table R[b, pair, k-1] over F_p; -1 beyond spans.
    R.transpose(2, 1, 0) is C-contiguous (see _kernels.window_rank_table).

    The matrices must lie in the nilradical of ``tab.d``; ValueError otherwise.
    """
    return _kernels.window_rank_table(mats, tab.plan, p)


def defect_flags(ranks: np.ndarray, tab: WindowTables) -> np.ndarray:
    """Boolean defect array aligned with the rank table."""
    thr = tab.thresholds
    return (thr >= 0) & (ranks < thr)


def stratum_flags(defects: np.ndarray, tab: WindowTables) -> np.ndarray:
    """Stratum membership (..., P) read off defect flags: the defect at kappa."""
    return defects[..., np.arange(len(tab.pairs)), tab.kappas - 1]


def seeded_stream(seed: int, key: int) -> np.random.Generator:
    """The random stream keyed by (seed, key); seed must be >= 0."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key))))


# ---------------------------------------------------------------------------
# separating witnesses

def _candidates(d: Composition, i: int, j: int, seed: int, budget: int):
    """Witness candidates for (i, j) as edge sets, in two phases.

    Deterministic: break one edge of a chain contributing to the window's
    rank at kappa (deepest chain first), and reconnect its loose ends,
    u (needs a right partner) and v (needs a left partner), to each free
    vertex on a strictly deeper row, or not at all; then the diagram of the
    moved tableau of (i, j).  Walk: ``budget`` trials, trial n drawing from
    seeded_stream(seed, n), each starting from a random break or the moved
    tableau's diagram and making random edge removals and reconnections
    between free chain ends.
    """
    tab = window_tables(d)
    kap = int(tab.kappas[tab.pairs.index((i, j))])
    blk, o = d.block_of, d.offsets
    base = complete_diagram(d).edges
    breaks = [(h, e) for h, edges in reversed(contributing_chains(d, i, j, kap)) for e in edges]
    for height, (u, v) in breaks:
        broken = base - {(u, v)}
        has_right = {a for a, _ in broken}
        has_left = {b for _, b in broken}
        deeper = [w for w in range(1, d.n + 1) if w - o[blk[w - 1] - 1] > height]
        left_fixes = [None, *((u, w) for w in deeper
                              if w not in has_left and blk[w - 1] > blk[u - 1])]
        right_fixes = [None, *((w, v) for w in deeper
                               if w not in has_right and blk[w - 1] < blk[v - 1])]
        for lf in left_fixes:
            for rf in right_fixes:
                yield broken | {e for e in (lf, rf) if e is not None}
    # built only after the breaks, which end most searches
    moved = tableau_diagram(minimal_movement(d, i, j).tableau, d).edges
    yield moved
    for trial in range(budget):
        rng = seeded_stream(seed, trial)
        if rng.integers(2):
            edges = set(moved)
        else:
            _, edge = breaks[int(rng.integers(len(breaks)))]
            edges = set(base) - {edge}
        for _ in range(int(rng.integers(1, 5))):
            if edges and rng.integers(2):
                edges.discard(sorted(edges)[int(rng.integers(len(edges)))])
            has_right = {a for a, _ in edges}
            has_left = {b for _, b in edges}
            free = [
                (u, v)
                for u in range(1, d.n + 1) if u not in has_right
                for v in range(1, d.n + 1) if v not in has_left
                and blk[u - 1] < blk[v - 1]
            ]
            if free and rng.integers(2):
                edges.add(free[int(rng.integers(len(free)))])
        yield frozenset(edges)


def _lambda_index(tab: WindowTables, pair) -> int:
    """The index of ``pair`` in tab.pairs; ValueError unless it is in
    lambda_pairs(d)."""
    i, j = pair
    _check_indices("pair", i, j)
    if (i, j) not in tab.pairs or not tab.lam[tab.pairs.index((i, j))]:
        raise ValueError(f"pair ({i},{j}) is not in Lambda({tab.d})")
    return tab.pairs.index((i, j))


def _separating(defects: np.ndarray, tab: WindowTables, pi: int) -> bool:
    """True when the stratum row of an exact defect table holds the pair
    tab.pairs[pi] and no other pair of lambda_pairs(d)."""
    row = stratum_flags(defects, tab)
    return bool((row == (np.arange(len(tab.pairs)) == pi))[tab.lam].all())


def separates(a: ExactMatrix, d, pair: tuple[int, int]) -> bool:
    """True when A lies in the stratum of ``pair`` and in the stratum of no
    other pair of lambda_pairs(d), read off A's one exact defect table."""
    d = as_composition(d)
    tab = window_tables(d)
    return _separating(_exact_defects(a, d), tab, _lambda_index(tab, pair))


def witness(d, pair: tuple[int, int], seed: int = 0, budget: int = 100_000) -> ExactMatrix:
    """A nilradical matrix lying in the stratum of ``pair`` and in no other
    component stratum.

    The candidates of ``_candidates``, the deterministic diagram phase and
    then ``budget`` trials of the seeded walk, are line diagrams kept as edge
    sets.  Each is screened by its chains: its window rank at kappa, from
    chain_window_rank, must fall below the threshold for ``pair`` and for no
    other pair of lambda_pairs(d), all read off window_tables(d).  The first
    candidate that passes becomes a LineDiagram and an ExactMatrix, and is
    certified over the rationals by its exact defect table, computed as
    ``separates`` computes it but kept out of the predicates' cache.
    Raises WitnessSearchError when both phases are exhausted.
    """
    return _witness(as_composition(d), pair, seed, budget)[0]


def _witness(d: Composition, pair, seed: int, budget: int) -> tuple[ExactMatrix, np.ndarray]:
    """``witness`` and the exact defect table that certified it."""
    tab = window_tables(d)
    pi = _lambda_index(tab, pair)
    for name, value in (("seed", seed), ("budget", budget)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    blk = d.block_of
    kappas = tab.kappas.tolist()
    strata = [(qi == pi, k, l, kappas[qi], int(tab.thresholds[qi, kappas[qi] - 1]))
              for qi, (k, l) in enumerate(tab.pairs) if tab.lam[qi]]
    for edges in _candidates(d, *tab.pairs[pi], seed, budget):
        visits = [[blk[v - 1] for v in path] for path in edge_chains(d.n, edges)]
        if all((chain_window_rank(visits, k, l, kap) < thr) == own
               for own, k, l, kap, thr in strata):
            a = LineDiagram(d, edges).to_matrix()
            defects = _defect_table(a, d)
            if not _separating(defects, tab, pi):
                raise AssertionError(
                    "the chain-count screen accepted a matrix that does not separate")
            return a, defects
    raise WitnessSearchError(
        f"no separating witness for {pair} within {budget} trials; "
        "this signals a bug or a degenerate configuration worth inspecting"
    )
