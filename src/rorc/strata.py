"""Rank-defect strata of the nilradical and the decomposition of the
complement of the dense orbit.

For a composition d, the nilradical consists of the strictly upper
block-triangular matrices.  A matrix A is *defective* at (i, j, k) when the
rank of the k-th power of its window A[i,j] falls below the maximal value
attained on the dense orbit.  The stratum of a pair (i, j) imposes the defect
at the threshold exponent kappa(i, j); the strata of the pairs in
lambda_pairs(d) are exactly the irreducible components of the complement.

Everything here is exact: predicates on rational matrices use fraction-free
elimination, predicates on prime-field matrices use modular elimination.
The membership predicates read one exact defect table per matrix through
the screen's defect_flags and stratum_flags.  The witness search screens its
candidates, edge sets, mod p and certifies the accepted one over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, repeat

import numpy as np

from . import _kernels
from .compositions import (
    Composition,
    as_composition,
    dominance_leq,
    gamma_pairs,
    kappa,
    lambda_pairs,
    richardson_partition,
)
from .diagrams import (
    LineDiagram,
    complete_diagram,
    max_window_rank,
    tableau_diagram,
    vertex_id,
    window_chains,
)
from .matrices import DEFAULT_PRIME, ExactMatrix
from .tableaux import YoungTableau, minimal_movement


class WitnessSearchError(RuntimeError):
    """Raised when the witness search exhausts its trial budget."""


_CHUNK = 64     # witness candidates screened per rank table


# ---------------------------------------------------------------------------
# membership predicates

def in_nilradical(a: ExactMatrix, d) -> bool:
    """True when all entries outside the strict upper block pattern vanish."""
    d = as_composition(d)
    if not a.is_square() or a.n != d.n:
        raise ValueError(f"matrix size {a.nrows} does not match n={d.n}")
    blk = d.block_of
    for r in range(a.n):
        for c in range(a.n):
            if blk[r] >= blk[c] and a.entry(r, c) != 0:
                return False
    return True


def _require_nilradical(a: ExactMatrix, d: Composition) -> None:
    if not in_nilradical(a, d):
        raise ValueError("matrix is not in the nilradical pattern of d")


def rank_defect(a: ExactMatrix, d, i: int, j: int, k: int) -> bool:
    """True when rank(A[i,j]^k) < max_window_rank(d, i, j, k).

    Always False for k > j - i, where the threshold is zero.
    """
    d = as_composition(d)
    d.check_pair(i, j)
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    flags = _exact_defects(a, d)
    return k <= j - i and bool(flags[window_tables(d).pairs.index((i, j)), k - 1])


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
    pairs = window_tables(d).pairs
    return [(*pairs[pi], int(k) + 1) for pi, k in zip(*np.nonzero(_exact_defects(a, d)))]


# The exact defect flags of A, read-only, in the (P, kmax) layout of
# rank_tables.  The window (i, j) of A^k is the k-th power of the window of A,
# so the t - 2 products A^2, ..., A^(t-1) serve every window.  ``rorc witness``
# reads each table twice, for the certificate in ``separates`` and for the
# report's ``defect_profile``; a small bound serves that and keeps no more.
@lru_cache(maxsize=8)
def _exact_defects(a: ExactMatrix, d: Composition) -> np.ndarray:
    _require_nilradical(a, d)
    tab = window_tables(d)
    powers = list(accumulate(repeat(a, d.t - 1), ExactMatrix.mul))
    ranks = np.full((len(tab.pairs), tab.kmax), -1, dtype=np.int64)
    for pi, (i, j) in enumerate(tab.pairs):
        ranks[pi, :j - i] = [powers[k].window(d, i, j).rank() for k in range(j - i)]
    flags = defect_flags(ranks, tab)
    flags.flags.writeable = False
    return flags


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
    """Per-composition arrays driving the mod-p kernels and flag algebra."""

    d: Composition
    pairs: tuple[tuple[int, int], ...]
    offsets: np.ndarray             # (t+1,) block boundaries 0 = o_0 < ... < o_t = n
    starts: np.ndarray
    stops: np.ndarray
    spans: np.ndarray
    kmax: int
    thresholds: np.ndarray          # (P, kmax), -1 beyond the span
    kappas: np.ndarray              # (P,)
    gamma: np.ndarray               # (P,) bool
    lam: np.ndarray                 # (P,) bool
    full_index: int                 # index of the full window (1, t); 0 when t = 1
    positions: np.ndarray           # (m, 2) free entries of the pattern


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

    positions = []
    for bi in range(1, t):
        for bj in range(bi + 1, t + 1):
            for r in range(o[bi - 1], o[bi]):
                for c in range(o[bj - 1], o[bj]):
                    positions.append((r, c))
    positions = np.array(positions, dtype=np.int64).reshape(-1, 2)

    return WindowTables(
        d=d,
        pairs=tuple(pairs),
        offsets=np.array(o, dtype=np.int64),
        starts=starts,
        stops=stops,
        spans=spans,
        kmax=kmax,
        thresholds=thresholds,
        kappas=kappas,
        gamma=gamma,
        lam=lam,
        full_index=full_index,
        positions=positions,
    )


def rank_tables(mats: np.ndarray, tab: WindowTables, p: int) -> np.ndarray:
    """Batched window rank table R[b, pair, k-1] over F_p; -1 beyond spans.

    The matrices must lie in the nilradical of ``tab.d``; ValueError otherwise.
    """
    return _kernels.window_rank_table(mats, tab.offsets, tab.pairs, p)


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

def _segment_edges(d: Composition, i: int, j: int) -> list[tuple[int, tuple[int, int]]]:
    """Candidate edges to break, as (height, edge): the window edges of every
    complete-diagram chain long enough to contribute at the threshold
    exponent, deepest height first.  Splitting any of them drops the window's
    rank at that exponent."""
    kap = kappa(d, i, j)
    out = []
    for h, cols in reversed(list(enumerate(window_chains(d, i, j), start=1))):
        if len(cols) > kap:
            for a, b in zip(cols, cols[1:]):
                out.append((h, (vertex_id(d, a, h), vertex_id(d, b, h))))
    return out


def _reattachment_options(d: Composition, edges: frozenset, u: int, v: int, height: int):
    """Edges reconnecting the loose ends u (needs a right partner) and v
    (needs a left partner) to vertices on strictly deeper rows."""
    blk, o = d.block_of, d.offsets
    has_right = {a for a, _ in edges}
    has_left = {b for _, b in edges}
    left_fixes = [None]
    right_fixes = [None]
    for w in range(1, d.n + 1):
        col = blk[w - 1]
        if w - o[col - 1] <= height:
            continue
        if w not in has_left and col > blk[u - 1]:
            left_fixes.append((u, w))
        if w not in has_right and col < blk[v - 1]:
            right_fixes.append((w, v))
    return left_fixes, right_fixes


def _diagram_candidates(d: Composition, i: int, j: int):
    """Deterministic witness candidates as edge sets, in order: break one
    edge of a chain contributing to the window's threshold rank (deepest
    chain first), optionally reconnecting the loose ends to deeper rows; then
    the diagram realization of the moved tableau of (i, j)."""
    base = complete_diagram(d).edges
    for height, edge in _segment_edges(d, i, j):
        broken = base - {edge}
        u, v = edge
        left_fixes, right_fixes = _reattachment_options(d, broken, u, v, height)
        for lf in left_fixes:
            for rf in right_fixes:
                yield broken | {e for e in (lf, rf) if e is not None}
    yield tableau_diagram(minimal_movement(d, i, j).tableau, d).edges


def _walk_candidates(d: Composition, i: int, j: int, seed: int, budget: int):
    """Seeded randomized walk in diagram space, ``budget`` trials yielding
    edge sets: a random break or the moved tableau's diagram, then random
    edge removals and reconnections between free chain ends.  Trial n draws
    from the stream seeded_stream(seed, n)."""
    breaks = _segment_edges(d, i, j)
    blk = d.block_of
    base = complete_diagram(d).edges
    moved = tableau_diagram(minimal_movement(d, i, j).tableau, d).edges
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


def _screen_batch(chunk: list[frozenset], n: int) -> np.ndarray:
    """The int64 matrices of the edge sets in ``chunk``: entry (u-1, v-1) of
    matrix b is 1 for each edge (u, v) of chunk[b], as in
    LineDiagram.to_matrix."""
    mats = np.zeros((len(chunk), n, n), dtype=np.int64)
    b, r, c = np.array([(k, u - 1, v - 1) for k, edges in enumerate(chunk)
                        for u, v in edges], dtype=np.int64).reshape(-1, 3).T
    mats[b, r, c] = 1
    return mats


def separates(a: ExactMatrix, d, pair: tuple[int, int]) -> bool:
    """True when A lies in the stratum of ``pair`` and in the stratum of no
    other pair of lambda_pairs(d), by the exact predicate in_stratum."""
    d = as_composition(d)
    i, j = pair
    lam = lambda_pairs(d)
    if (i, j) not in lam:
        raise ValueError(f"pair ({i},{j}) is not in lambda_pairs({d})")
    return in_stratum(a, d, i, j) and not any(
        in_stratum(a, d, k, l) for k, l in lam if (k, l) != (i, j)
    )


def witness(d, pair: tuple[int, int], seed: int = 0, budget: int = 100_000) -> ExactMatrix:
    """A nilradical matrix lying in the stratum of ``pair`` and in no other
    component stratum.

    Two candidate phases, the deterministic diagram candidates and then
    ``budget`` trials of the seeded walk, are screened mod DEFAULT_PRIME in
    chunks of _CHUNK, one rank table per chunk built from the candidates'
    edges.  Candidates stay edge sets; the first one in the stratum of
    ``pair`` alone becomes a LineDiagram and an ExactMatrix, and is certified
    over the rationals by ``separates``.
    Raises WitnessSearchError when both phases are exhausted.
    """
    d = as_composition(d)
    i, j = pair
    if (i, j) not in lambda_pairs(d):
        raise ValueError(f"pair ({i},{j}) is not in lambda_pairs({d})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    tab = window_tables(d)
    want = (np.arange(len(tab.pairs)) == tab.pairs.index((i, j)))[tab.lam]
    for candidates in (_diagram_candidates(d, i, j),
                       _walk_candidates(d, i, j, seed, budget)):
        while chunk := list(islice(candidates, _CHUNK)):
            mats = _screen_batch(chunk, d.n)
            flags = defect_flags(rank_tables(mats, tab, DEFAULT_PRIME), tab)
            hits = np.flatnonzero((stratum_flags(flags, tab)[:, tab.lam] == want).all(axis=1))
            if hits.size:
                a = LineDiagram(d, chunk[hits[0]]).to_matrix()
                if not separates(a, d, (i, j)):
                    raise AssertionError(
                        "mod-p screening accepted a matrix that does not separate")
                return a
    raise WitnessSearchError(
        f"no separating witness for {pair} within {budget} trials; "
        "this signals a bug or a degenerate configuration worth inspecting"
    )
