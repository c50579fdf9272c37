"""Desk-scale verification harness: exhaustive finite-field scans, seeded
sampling with forced rank defects, lemma containments, and structured reports.

The central oracle is pointwise: a nilradical matrix is of generic Jordan type
exactly when no window power is rank-defective, and every defective matrix
must lie in the stratum of some pair from lambda_pairs(d).  Both statements
are integer-polynomial conditions, so they are tested over small prime fields
(exhaustively) and over F_32003 (by sampling); a finite-field counterexample
is reported as a finding, never auto-dismissed.

One pass serves every check (run_checks): the population is cut into
arrays, each array is ranked once, its rank table is read into one dict of
per-row flags (_flags), and each selected check, one row of _ROWS, counts,
records and fails from that dict.

Reports are deterministic functions of the configuration and carry no
wall-clock timing.  The sampled populations are drawn from streams keyed by
(seed, phase).  A generic trial is a pure function of (seed, trial index); a
forced trial also depends on the trial count, since its window, power and
broken edge are drawn after all of the forced sample's background entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .compositions import Composition, _is_int, as_composition, lambda_pairs
from .matrices import DEFAULT_PRIME, _check_modulus
from .strata import WindowTables, rank_tables, seeded_stream, window_tables

REPORT_SCHEMA = "rorc.report/1"
_VIOLATION_CAP = 5
_BATCH = 4096
_ENTRIES = 2**19    # matrix entries in one array to rank: 4 MB of int64


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class InfeasibleError(ConfigError):
    """Exhaustive mode would exceed the enumeration budget."""


@dataclass(frozen=True)
class ExperimentConfig:
    d: Composition
    mode: str = "sample"            # "exhaustive" | "sample"
    fieldsize: int = 2              # prime q; exhaustive scans run over F_q
    trials: int = 1000
    seed: int = 0
    dim_cap: int = 20

    def __post_init__(self):
        object.__setattr__(self, "d", as_composition(self.d))
        if self.mode not in ("exhaustive", "sample"):
            raise ConfigError(f"mode must be 'exhaustive' or 'sample', got {self.mode!r}")
        try:
            _check_modulus(self.fieldsize, self.d.n)
        except ValueError as exc:
            raise ConfigError(f"field size: {exc}") from None
        for name in ("trials", "seed", "dim_cap"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a budget of 2^64 already admits every scan the int64 index allows
        if not 1 <= self.dim_cap <= 64:
            raise ConfigError(f"dim_cap must be in 1..64, got {self.dim_cap}")

    @property
    def free_dim(self) -> int:
        return (self.d.n ** 2 - sum(p * p for p in self.d.parts)) // 2

    def to_json_dict(self) -> dict:
        return {
            "d": list(self.d.parts),
            "mode": self.mode,
            "field": self.fieldsize,
            "trials": self.trials,
            "seed": self.seed,
            "dim_cap": self.dim_cap,
        }


@dataclass
class CheckResult:
    name: str
    passed: bool
    counts: dict
    violations: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "counts": self.counts,
            "violations": self.violations,
        }


@dataclass
class VerificationReport:
    config: dict
    checks: list[CheckResult]
    components: int | None = None   # |Lambda(d)|, serialized when set

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        out = {"schema": REPORT_SCHEMA, "config": self.config}
        if self.components is not None:
            out["components"] = self.components
        out["passed"] = self.passed
        out["checks"] = [c.to_json_dict() for c in self.checks]
        return out


# ---------------------------------------------------------------------------
# populations

def _exhaustive_total(cfg: ExperimentConfig) -> int:
    total = cfg.fieldsize ** cfg.free_dim
    budget = 2 ** cfg.dim_cap
    if total > budget:
        raise InfeasibleError(
            f"exhaustive scan needs {cfg.fieldsize}^{cfg.free_dim} = {total} matrices, "
            f"over the budget 2^{cfg.dim_cap} = {budget}; raise dim_cap or sample"
        )
    if total >= 2 ** 63:
        raise ConfigError(
            f"exhaustive scan of {cfg.fieldsize}^{cfg.free_dim} matrices: "
            "the int64 enumeration index needs q^free_dim < 2^63")
    return total


def _uniform(rng: np.random.Generator, cfg: ExperimentConfig, tab: WindowTables,
             out: np.ndarray) -> np.ndarray:
    """Uniform nilradical matrices over F_p, written into ``out`` (zeroed,
    trials x n x n), which is returned."""
    vals = rng.integers(0, cfg.fieldsize, size=(out.shape[0], tab.positions.shape[0]))
    out[:, tab.positions[:, 0], tab.positions[:, 1]] = vals
    return out


def _forced_sample(cfg: ExperimentConfig, tab: WindowTables, out: np.ndarray,
                   background: np.random.Generator, draws: np.random.Generator) -> np.ndarray:
    """Defective matrices: pick a window and power, break one edge of a
    contributing chain of the complete window diagram, keep the window
    supported on the broken diagram (which pins the rank below the maximum
    for any entry values), randomize everything outside the window.

    Writes one trial per row of the zeroed ``out`` and returns forced, where
    forced[b] = (pair_index, k).  The background entries of every row come
    from ``background``, then the window, power, chain, broken edge and kept
    entries of each trial from ``draws``.  Without a window (t = 1) nothing
    can be forced, and ``out`` must be empty.  The chains and the window's
    edges come from tab.forced_windows, built once per composition.

    A trial's kept window entries, in sorted edge order, come from one vector
    draw: numpy's bounded integers are the same drawn one at a time or as a
    vector, so the stream is that of an entry-by-entry draw.
    """
    o = cfg.d.offsets
    # start from fully random nilradical matrices, then carve out each window
    mats = _uniform(background, cfg, tab, out)
    forced = np.empty((len(mats), 2), dtype=np.int64)
    for b, mat in enumerate(mats):
        pi = int(draws.integers(len(tab.pairs)))
        i, j = tab.pairs[pi]
        k = int(draws.integers(1, j - i + 1))
        chains, contributing, lefts, flats = tab.forced_windows[pi]
        chain = chains[int(draws.integers(contributing[k - 1]))]
        removed = chain[int(draws.integers(len(chain)))]    # the broken edge leaves it
        kept = flats[lefts != removed]
        mat[o[i - 1]:o[j], o[i - 1]:o[j]] = 0
        np.put(mat, kept, draws.integers(0, cfg.fieldsize, size=len(kept)))
        forced[b] = pi, k
    return forced


# ---------------------------------------------------------------------------
# one pass: populations -> one rank table and one flag dict per array -> checks

def _populations(cfg: ExperimentConfig, tab: WindowTables):
    """Yield (matrices, parts) in scan order: one array to rank, and the
    populations it holds, in row order, as (population, first_index, rows,
    forced).

    Every array holds at most _BATCH rows, or fewer where their matrices
    would hold more than _ENTRIES entries (404 rows of the running example's
    36 x 36 matrices), and is ranked whole, so memory grows neither with the
    scan nor with cfg.trials.  Exhaustive mode yields each decode batch
    alone.  The sampled population is the generic rows and then the forced
    rows (cfg.trials each; none are forced when t = 1), and an array may end
    one sample and start the other.  Each sample comes from its own stream in
    the order it has when drawn whole: the generic entries and the forced
    background entries row by row, then the forced per-trial draws.  When
    one array holds every forced row, the forced stream draws its
    background and then its per-trial draws, in that order already.
    Otherwise a second stream of the forced key makes those draws once it
    has skipped every background entry, array by array, so one array or
    many give the same matrices.
    """
    n, trials = cfg.d.n, cfg.trials
    size = max(1, min(_BATCH, _ENTRIES // n ** 2))
    if cfg.mode == "exhaustive":
        total = _exhaustive_total(cfg)
        pos_r, pos_c = tab.positions.T
        for first in range(0, total, size):
            count = min(size, total - first)
            mats = _kernels.decode_matrices(first, count, cfg.fieldsize, pos_r, pos_c, n)
            yield mats, (("exhaustive", first, slice(None), None),)
        return
    total = 2 * trials if tab.pairs else trials     # t = 1: nothing can be forced
    # (start, mid, stop): the rows of one array, the generic ones before mid
    cuts = [(start, min(max(trials, start), start + size, total), min(start + size, total))
            for start in range(0, total, size)]
    generic = seeded_stream(cfg.seed, 0)
    background = draws = seeded_stream(cfg.seed, 1)
    if sum(mid < stop for _, mid, stop in cuts) > 1:     # forced rows in several arrays
        draws = seeded_stream(cfg.seed, 1)
        for _, mid, stop in cuts:     # draws starts past every background entry
            draws.integers(0, cfg.fieldsize, size=(stop - mid, len(tab.positions)))
    for start, mid, stop in cuts:
        mats = np.zeros((stop - start, n, n), dtype=np.int64)
        generic_rows, forced_rows = slice(0, mid - start), slice(mid - start, stop - start)
        parts = []
        if start < mid:
            _uniform(generic, cfg, tab, mats[generic_rows])
            parts.append(("generic", start, generic_rows, None))
        if mid < stop:
            forced = _forced_sample(cfg, tab, mats[forced_rows], background, draws)
            parts.append(("forced", mid - trials, forced_rows, forced))
        yield mats, tuple(parts)


_LEMMAS = ("below_threshold", "above_threshold", "outside_gamma", "absorbed")


def _flags(ranks: np.ndarray, tab: WindowTables, parts) -> dict[str, np.ndarray]:
    """Every per-row flag a check counts, records or fails on, for one ranked
    array and the parts it holds (as yielded by _populations).

    A matrix is defective where a window power's rank falls below the
    dense orbit's, and in excess where one rises above it; it is of generic
    type when its full window (1, t) is not defective, covered when it lies
    in the stratum of a pair of lambda_pairs(d), and unsound when it was
    forced at (pair, k) and is not defective there.  A theorem check fails
    on ``bad``: covered implies defective, and a matrix that is not of
    generic type is defective in the full window, so richardson_in_stratum
    lies inside richardson_defective and every matrix is generic or
    defective.

    The four lemma verdicts are the pointwise containments.  below_threshold
    states that a defect at any exponent below the threshold forces the
    stratum membership itself.  This containment is FALSE in general (a
    defective inner block can lower a window's first-power rank while its
    threshold-power rank stays maximal); the harness evaluates it as stated
    and reports the counterexamples as findings.  above_threshold is
    evaluated existentially over the admissible flanking targets ("there
    exist"); outside_gamma checks the containment the statement actually
    asserts, membership in some stratum indexed inside gamma_pairs(d) (the
    single-flank routing of the proof is provably too strong).

    The reductions read tab.flag_tables and run on one power-major
    (K, P, B) copy of the defect table, batch-last as rank_tables lays its
    table out: those over powers OR K slabs of (P, B), and those over pairs
    OR P rows of B, or, where a row needs a set of pairs (covered, the
    flanking strata, Gamma, absorbed), come from one float32 product of the
    selector with the (P, B) stratum table, whose counts are exact.  A rank
    table holds -1 beyond each pair's span, as the thresholds do, so
    neither comparison marks a cell there.
    """
    thresholds, low, high, at_kappa, kappa_thresholds, selector = tab.flag_tables
    nrows, npairs = len(ranks), len(tab.pairs)
    by_power = ranks.transpose(2, 1, 0)                 # (K, P, B)
    defects = by_power < thresholds
    stratum = by_power.reshape(-1, nrows)[at_kappa] < kappa_thresholds    # (P, B)
    strata = selector @ stratum.astype(np.float32)      # (P + 4, B) stratum counts
    in_flank = strata[:npairs] > 0                      # some flanking stratum, per pair
    covered, outside, inside, absorbed = strata[npairs:] > 0
    by_pair = defects.any(axis=0)                       # (P, B): defective at some power
    full = slice(tab.full_index, tab.full_index + 1)    # empty when t = 1
    richardson = ~by_pair[full].any(axis=0)
    defective = by_pair.any(axis=0)
    uncovered = defective & ~covered
    richardson_defective = richardson & defective
    excess = (by_power > thresholds).reshape(-1, nrows).any(axis=0)
    unsound = np.zeros(nrows, dtype=bool)
    for _, _, rows, forced in parts:
        if forced is not None:
            unsound[rows] = ~defects[forced[:, 1] - 1, forced[:, 0], np.arange(nrows)[rows]]
    return {
        "rows": np.ones(nrows, dtype=bool), "richardson": richardson,
        "defective": defective, "covered": covered, "uncovered": uncovered,
        "excess": excess, "unsound": unsound, "per_stratum": stratum[tab.lam].T,
        "richardson_defective": richardson_defective,
        "richardson_in_stratum": richardson & covered,
        "bad": uncovered | excess | richardson_defective | unsound,
        "below_threshold": ((defects & low).any(axis=0) & ~stratum).any(axis=0),
        "above_threshold": ((defects & high).any(axis=0) & ~in_flank).any(axis=0),
        "outside_gamma": outside & ~inside,
        "absorbed": absorbed & ~covered,
    }


def _record(violations: list, kind: str, mats: np.ndarray, flag: np.ndarray, q: int,
            first: int | None) -> None:
    """Record the matrices that ``flag`` marks, until ``violations`` holds
    _VIOLATION_CAP records; with ``first`` set, a record carries the
    matrix's index in its population."""
    for r in np.nonzero(flag)[0][:_VIOLATION_CAP - len(violations)]:
        # populations are reduced mod q, within the int64 bound ExperimentConfig checks
        record = {"kind": kind, "matrix": {"n": len(mats[r]), "field": f"Fp:{q}",
                                           "entries": mats[r].tolist()}}
        if first is not None:
            record["index"] = int(first + r)
        violations.append(record)


def _symbolic_checks(tab: WindowTables) -> list[CheckResult]:
    """The lemma checks that need no matrices, window rank positivity and the
    box-count identity between kappa and the shared tableau row, as fresh
    results from the violations kept with the table."""
    positivity, identity = tab.symbolic_violations
    windows = len(tab.pairs)
    return [
        CheckResult(
            "empty_stratum_symbolic", not positivity,
            {"windows": windows, "violations": len(positivity)},
            [{"kind": "rank_positivity", "window": v} for v in positivity[:_VIOLATION_CAP]]),
        CheckResult(
            "kappa_tableau_identity", not identity,
            {"pairs": windows, "violations": len(identity)},
            [{"kind": "kappa_tableau", "pair": list(v)} for v in identity[:_VIOLATION_CAP]]),
    ]


# per selectable check, its rows in report order: (name, population or None
# for every population, count key -> flag counted into it, violation kind ->
# flag recorded, failing flag, records indexed)
_ROWS = {
    "theorem": (
        ("theorem_exhaustive", "exhaustive", {
            "total": "rows", "richardson": "richardson", "defective": "defective",
            "covered": "covered", "uncovered": "uncovered", "rank_excess": "excess",
            "richardson_defective": "richardson_defective",
            "richardson_in_stratum": "richardson_in_stratum", "per_stratum": "per_stratum",
        }, {"uncovered_defective": "uncovered", "richardson_defective": "richardson_defective",
            "rank_excess": "excess"}, "bad", True),
        ("generic_sampling", "generic", {
            "trials": "rows", "richardson": "richardson", "defective_uncovered": "uncovered",
        }, {"generic_violation": "bad"}, "bad", True),
        ("forced_defect_coverage", "forced", {
            "trials": "rows", "defective": "defective", "covered": "covered",
            "uncovered": "uncovered", "soundness_failures": "unsound",
        }, {"forced_defect_unsound": "unsound", "uncovered_defective": "uncovered"}, "bad", True),
    ),
    "lemmas": tuple((f"lemma_{name}", None, {"population": "rows", "violations": name},
                     {name: name}, name, False) for name in _LEMMAS),
}
_CHECKS = ("counts", *_ROWS)


def run_checks(cfg: ExperimentConfig, checks=("theorem", "lemmas")) -> VerificationReport:
    """Run the selected checks ("counts", "theorem", "lemmas") in one pass.

    The population follows cfg.mode: all of F_q^free_dim in decode batches
    (exhaustive), or the generic sample and then the forced-defect sample.
    Each array is ranked once into one flag dict, and every check of the
    population counts, records and fails from it.  Results come in the order
    counts, theorem (one check per population), lemmas (the two symbolic
    checks, then the four containments).
    """
    if not checks:
        raise ConfigError("no checks selected")
    unknown = set(checks) - set(_CHECKS)
    if unknown:
        raise ConfigError(f"unknown checks {sorted(unknown)}")
    tab = window_tables(cfg.d)
    populations = ("exhaustive",) if cfg.mode == "exhaustive" else ("generic", "forced")
    results = check_component_count(cfg).checks if "counts" in checks else []
    selected = []
    for group in ("theorem", "lemmas"):
        if group in checks:
            if group == "lemmas":
                results += _symbolic_checks(tab)
            for name, population, counted, *rest in _ROWS[group]:
                if population in (None, *populations):
                    results.append(CheckResult(name, True, dict.fromkeys(counted, 0)))
                    selected.append((results[-1], population, counted, *rest))
    strata = [f"{i},{j}" for (i, j), on in zip(tab.pairs, tab.lam) if on]
    if selected:
        # the flags the selected checks read, stacked one row each (per_stratum
        # one row per stratum), so that one sum counts every flag of a part
        names = dict.fromkeys(flag for *_, counted, recorded, fail, _ in selected
                              for flag in (*counted.values(), *recorded.values(), fail))
        at, rows = {}, 0
        for name in names:
            if name == "per_stratum":
                at[name] = slice(rows, rows + len(strata))
                rows += len(strata)
            else:
                at[name] = rows
                rows += 1
        for mats, parts in _populations(cfg, tab):
            f = _flags(rank_tables(mats, tab, cfg.fieldsize), tab, parts)
            stack = np.vstack([f[name].T for name in names])
            for population, first, part, _ in parts:
                hits = np.count_nonzero(stack[:, part], axis=1)
                for check, wanted, counted, recorded, fail, indexed in selected:
                    if wanted not in (None, population):
                        continue
                    for key, flag in counted.items():
                        check.counts[key] += hits[at[flag]]
                    check.passed = check.passed and not hits[at[fail]]
                    for kind, flag in recorded.items():
                        if hits[at[flag]] and len(check.violations) < _VIOLATION_CAP:
                            _record(check.violations, kind, mats[part], f[flag][part],
                                    cfg.fieldsize, first if indexed else None)
    for check, *_ in selected:
        counts = check.counts
        for key, hits in counts.items():
            counts[key] = (dict(zip(strata, hits.tolist())) if isinstance(hits, np.ndarray)
                           else int(hits))
        if check.name == "generic_sampling":
            counts["richardson_frequency"] = counts["richardson"] / counts["trials"]
    return VerificationReport(cfg.to_json_dict(), results, int(np.count_nonzero(tab.lam)))


def random_composition(rng: np.random.Generator, max_t: int = 6,
                       max_part: int = 4, min_t: int = 2) -> Composition:
    t = int(rng.integers(min_t, max_t + 1))
    return Composition(tuple(int(v) for v in rng.integers(1, max_part + 1, size=t)))


def check_component_count(cfg: ExperimentConfig) -> VerificationReport:
    """Random-composition census of the component count bound: always at most
    t-1; equal for monotone and for all-distinct d.  Additionally asserts the
    pair-exclusion step behind the bound: whenever d_i = d_j (j > i+1) with an
    intermediate l of different size, neither (i, l) nor (l, j) indexes a
    component.

    (The stronger conclusion that such a repeat forces at most t-2 components
    is false, e.g. (4,1,4,2) has 3 = t-1 of them; only the exclusion of the
    two flanking pairs survives.)
    """
    rng = seeded_stream(cfg.seed, 2)
    counts = {
        "trials": cfg.trials, "bound_violations": 0,
        "monotone_equality_failures": 0, "distinct_equality_failures": 0,
        "pair_exclusion_failures": 0,
    }
    violations: list = []

    def excluded_pairs_ok(d: Composition, lam: frozenset) -> bool:
        parts = d.parts
        for i in range(1, d.t + 1):
            for j in range(i + 2, d.t + 1):
                if parts[i - 1] != parts[j - 1]:
                    continue
                for l in range(i + 1, j):
                    if parts[l - 1] != parts[i - 1]:
                        if (i, l) in lam or (l, j) in lam:
                            return False
        return True

    for _ in range(cfg.trials):
        d = random_composition(rng, max_t=7, max_part=5, min_t=1)
        distinct = Composition(tuple(
            int(v) for v in rng.permutation(
                rng.choice(np.arange(1, 25), size=d.t, replace=False))
        ))
        mono = Composition(tuple(sorted(d.parts)))
        lam = lambda_pairs(d)
        # the four rules, in the order a trial records them
        for key, failed, record in (
            ("bound_violations", len(lam) > d.t - 1,
             {"kind": "bound", "d": list(d.parts), "size": len(lam)}),
            ("pair_exclusion_failures", not excluded_pairs_ok(d, lam),
             {"kind": "pair_exclusion", "d": list(d.parts)}),
            ("monotone_equality_failures", len(lambda_pairs(mono)) != mono.t - 1,
             {"kind": "monotone", "d": list(mono.parts)}),
            ("distinct_equality_failures", len(lambda_pairs(distinct)) != distinct.t - 1,
             {"kind": "distinct", "d": list(distinct.parts)}),
        ):
            if failed:
                counts[key] += 1
                if len(violations) < _VIOLATION_CAP:
                    violations.append(record)

    # the first failure is always recorded
    return VerificationReport(cfg.to_json_dict(), [
        CheckResult("component_count", not violations, counts, violations)
    ])


def compositions_of(n: int):
    """All compositions of n, in lexicographic order of their parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


# Component counts of the 13 worked GL_5 cases; the two remaining t >= 2
# compositions of 5, (2,3) and (3,2), are scanned but only bound-checked.
GL5_EXPECTED = {
    (1, 1, 1, 1, 1): 4,
    (1, 1, 1, 2): 3, (2, 1, 1, 1): 3,
    (1, 1, 2, 1): 2, (1, 2, 1, 1): 2,
    (2, 2, 1): 2, (1, 2, 2): 2,
    (2, 1, 2): 1,
    (1, 3, 1): 1,
    (3, 1, 1): 2, (1, 1, 3): 2,
    (4, 1): 1, (1, 4): 1,
}


def gl5_fixture_suite(seed: int = 0, generic_trials: int = 1000) -> VerificationReport:
    """Exhaustive F_2 theorem check for every composition of 5 with t >= 2,
    asserting the worked component counts, plus a generic-frequency sample
    over F_32003 for each."""
    checks = []
    for parts in sorted(compositions_of(5)):
        if len(parts) < 2:
            continue
        d = Composition(parts)
        cfg = ExperimentConfig(d=d, mode="exhaustive", fieldsize=2, seed=seed)
        rep = run_checks(cfg, ("theorem",))
        result = rep.checks[0]
        n_components = len(lambda_pairs(d))
        counts = dict(result.counts)
        counts["components"] = n_components
        passed = result.passed and n_components <= d.t - 1
        if parts in GL5_EXPECTED:
            passed = passed and n_components == GL5_EXPECTED[parts]
        if parts in ((4, 1), (1, 4)):
            passed = passed and counts["defective"] == 1  # only the zero matrix
        scfg = ExperimentConfig(d=d, mode="sample", fieldsize=DEFAULT_PRIME,
                                trials=generic_trials, seed=seed)
        srep = run_checks(scfg, ("theorem",))
        freq = srep.checks[0].counts["richardson_frequency"]
        counts["richardson_frequency"] = freq
        passed = passed and srep.passed and freq >= 0.99
        checks.append(CheckResult(
            f"gl5_{','.join(map(str, parts))}", passed, counts, result.violations))
    return VerificationReport(
        {"suite": "gl5", "seed": seed, "generic_trials": generic_trials}, checks)
