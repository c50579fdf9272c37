"""Rank-defect strata of the nilradical and the decomposition of the
complement of the dense orbit.

For a composition d, the nilradical consists of the strictly upper
block-triangular matrices.  A matrix A is *defective* at (i, j, k) when the
rank of the k-th power of its window A[i,j] falls below the maximal value
attained on the dense orbit.  The stratum of a pair (i, j) imposes the defect
at the threshold exponent kappa(i, j); the strata of the pairs in
lambda_pairs(d) are exactly the irreducible components of the complement.

Everything here is exact: the predicates rank with ExactMatrix, one
fraction-free elimination over Q or reduced mod p, never with the mod-p
kernels that rank_tables runs for the verifier.  They read one exact defect
table per matrix through the verifier's defect_flags and stratum_flags.  The
witness search takes its line diagrams, kept as edge sets, from one generator
(_candidates) in two phases: the deterministic breaks of the complete diagram
and the moved tableau's diagram, then a seeded walk.  It screens each by
counting its chains (chain_window_rank) against the kappas and thresholds of
window_tables(d), and certifies the accepted one over the rationals with the
predicate behind separates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat

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
    chain_window_rank,
    complete_diagram,
    contributing_chains,
    edge_chains,
    max_window_rank,
    tableau_diagram,
)
from .matrices import ExactMatrix
from .tableaux import YoungTableau, minimal_movement


class WitnessSearchError(RuntimeError):
    """Raised when the witness search exhausts its trial budget."""


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

    @cached_property
    def plan(self):
        """The fixed part of the rank kernel for this pattern
        (_kernels.window_plan), built on the first rank_tables call: the
        witness search, which ranks nothing mod p, never builds it."""
        return _kernels.window_plan(self.d.offsets, self.pairs)


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
    if (i, j) not in tab.pairs or not tab.lam[tab.pairs.index((i, j))]:
        raise ValueError(f"pair ({i},{j}) is not in Lambda({tab.d})")
    return tab.pairs.index((i, j))


def _separating(a: ExactMatrix, d: Composition, tab: WindowTables, pi: int) -> bool:
    """True when the stratum row of A's exact defect table holds the pair
    tab.pairs[pi] and no other pair of lambda_pairs(d)."""
    row = stratum_flags(_exact_defects(a, d), tab)
    return bool((row == (np.arange(len(tab.pairs)) == pi))[tab.lam].all())


def separates(a: ExactMatrix, d, pair: tuple[int, int]) -> bool:
    """True when A lies in the stratum of ``pair`` and in the stratum of no
    other pair of lambda_pairs(d), read off A's one exact defect table."""
    d = as_composition(d)
    tab = window_tables(d)
    return _separating(a, d, tab, _lambda_index(tab, pair))


def witness(d, pair: tuple[int, int], seed: int = 0, budget: int = 100_000) -> ExactMatrix:
    """A nilradical matrix lying in the stratum of ``pair`` and in no other
    component stratum.

    The candidates of ``_candidates``, the deterministic diagram phase and
    then ``budget`` trials of the seeded walk, are line diagrams kept as edge
    sets.  Each is screened by its chains: its window rank at kappa, from
    chain_window_rank, must fall below the threshold for ``pair`` and for no
    other pair of lambda_pairs(d), all read off window_tables(d).  The first
    candidate that passes becomes a LineDiagram and an ExactMatrix, and is
    certified over the rationals by the predicate behind ``separates``.
    Raises WitnessSearchError when both phases are exhausted.
    """
    d = as_composition(d)
    tab = window_tables(d)
    pi = _lambda_index(tab, pair)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    blk = d.block_of
    kappas = tab.kappas.tolist()
    strata = [(qi == pi, k, l, kappas[qi], int(tab.thresholds[qi, kappas[qi] - 1]))
              for qi, (k, l) in enumerate(tab.pairs) if tab.lam[qi]]
    for edges in _candidates(d, *tab.pairs[pi], seed, budget):
        visits = [[blk[v - 1] for v in path] for path in edge_chains(d.n, edges)]
        if all((chain_window_rank(visits, k, l, kap) < thr) == own
               for own, k, l, kap, thr in strata):
            a = LineDiagram(d, edges).to_matrix()
            if not _separating(a, d, tab, pi):
                raise AssertionError(
                    "the chain-count screen accepted a matrix that does not separate")
            return a
    raise WitnessSearchError(
        f"no separating witness for {pair} within {budget} trials; "
        "this signals a bug or a degenerate configuration worth inspecting"
    )
