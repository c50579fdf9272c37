"""The four benchmark workloads: CLI argv generated from the run seed, and the
correctness gate applied to every call.

Every workload is an endless sequence of *rounds*.  A round is a small,
balanced batch of CLI calls in shuffled order; the runner always completes
the first round and then stops between calls, so a run's call mix depends
little on where the clock runs out.
Each workload reaches the program only through ``rorc.cli.main`` argv and
names that ``rorc`` re-exports (plus ``rorc.verify.random_composition``,
the acceptance suite's population generator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rorc import Composition, ExactMatrix, in_stratum, lambda_pairs
from rorc.verify import random_composition

RUNNING = (7, 5, 2, 3, 5, 1, 2, 6, 5)
SAMPLE_FIELD = 32003
# Running-example calls take ~1.3 s each on the numpy backend (2 cores), and
# about a quarter of the forced matrices violate the false low-power lemma,
# so 20 trials give a red lemma_below_threshold on every call.
RUNNING_TRIALS = 20
POPULATION_TRIALS = 10
# witness rounds: population compositions drawn per length t = 3..6
WITNESS_DRAWS = 10
MAX_PART = 4          # largest part of a drawn population composition
GOLDENS = Path(__file__).resolve().parent / "data" / "goldens.json"

SAMPLE_CHECKS = {
    "generic_sampling", "forced_defect_coverage",
    "empty_stratum_symbolic", "kappa_tableau_identity",
    "lemma_below_threshold", "lemma_above_threshold",
    "lemma_outside_gamma", "lemma_absorbed",
}
EXHAUSTIVE_CHECKS = (SAMPLE_CHECKS - {"generic_sampling", "forced_defect_coverage"}) \
    | {"theorem_exhaustive"}
# The paper's low-power containment is false; its check is the pinned finding,
# so it is never counted as a pass and never filtered out of a report.
FINDING = "lemma_below_threshold"
GOLDEN_KEYS = ("total", "richardson", "defective", "covered", "per_stratum")


def free_dim(parts) -> int:
    n = sum(parts)
    return (n * n - sum(p * p for p in parts)) // 2


def compositions(n: int):
    """All compositions of n with at least two parts, in lexicographic order."""
    def rec(rest):
        if rest == 0:
            yield ()
        for first in range(1, rest + 1):
            for tail in rec(rest - first):
                yield (first,) + tail
    return [c for c in rec(n) if len(c) >= 2]


# scan-f2: the whole GL5 suite every round, plus (in the first round) one
# seeded composition of 6 whose F_2 nilradical is exactly one 4096-matrix
# decode batch (free dimension 12).  Keeping the rounds otherwise identical
# keeps the latency percentiles inside blocks of like calls.
SCAN_FIXED = compositions(5)
SCAN_POOL = [c for c in compositions(6) if free_dim(c) == 12]


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key))))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``argv`` lacks ``--out``, which the runner adds."""

    argv: tuple[str, ...]
    d: tuple[int, ...]
    pair: tuple[int, int] | None = None
    trials: int = 0
    seed: int = 0
    red_finding: bool = False      # lemma_below_threshold must report violations


def _verify_call(parts, mode: str, field: int, trials: int = 0, seed: int = 0,
                 red_finding: bool = False) -> Call:
    argv = ["verify", "-d", _fmt(parts), "--mode", mode, "--field", str(field), "--json"]
    if mode == "sample":
        argv += ["--trials", str(trials), "--seed", str(seed)]
    return Call(tuple(argv), tuple(parts), None, trials, seed, red_finding)


def _witness_call(parts, pair, seed: int) -> Call:
    argv = ["witness", "-d", _fmt(parts), "--pair", f"{pair[0]},{pair[1]}",
            "--seed", str(seed), "--json"]
    return Call(tuple(argv), tuple(parts), tuple(pair), 0, seed)


def rounds_verify_running(seed: int):
    rng = _rng(seed, 0)
    while True:
        yield [_verify_call(RUNNING, "sample", SAMPLE_FIELD, RUNNING_TRIALS,
                            _cli_seed(rng), red_finding=True)]


def rounds_verify_population(seed: int):
    # one composition of each length t = 2..6 per round, drawn with the
    # acceptance generator; stratifying t keeps the per-seed mix steady
    rng = _rng(seed, 1)
    while True:
        calls = []
        for t in rng.permutation(np.arange(2, 7)):
            d = random_composition(rng, max_t=int(t), max_part=MAX_PART, min_t=int(t))
            calls.append(_verify_call(d.parts, "sample", SAMPLE_FIELD,
                                      POPULATION_TRIALS, _cli_seed(rng)))
        yield calls


def rounds_scan_f2(seed: int):
    rng = _rng(seed, 2)
    parts = SCAN_FIXED + [SCAN_POOL[int(rng.integers(len(SCAN_POOL)))]]
    while True:
        yield [_verify_call(parts[k], "exhaustive", 2) for k in rng.permutation(len(parts))]
        parts = SCAN_FIXED


def rounds_witness(seed: int):
    # the four running-example components, then every component of
    # WITNESS_DRAWS compositions of each length t = 3..6 with >= 2 components
    # (t = 2 has one).  Call time grows with t and with the size n = sum(d),
    # so t is stratified and each draw d comes with its mirror 5 - d (also
    # uniform), which fixes a round's mean size per t at 2.5 t: this keeps
    # the call mix, and with it the latency percentiles, steady from seed to
    # seed.  Shuffled, because the last round of a run is cut short.
    rng = _rng(seed, 3)
    running = sorted(lambda_pairs(Composition(RUNNING)))
    while True:
        calls = [_witness_call(RUNNING, pair, _cli_seed(rng)) for pair in running]
        for t in range(3, 7):
            for _ in range(WITNESS_DRAWS // 2):
                d = random_composition(rng, max_t=t, max_part=MAX_PART, min_t=t)
                for parts in (d.parts, tuple(MAX_PART + 1 - p for p in d.parts)):
                    pairs = sorted(lambda_pairs(Composition(parts)))
                    if len(pairs) >= 2:
                        calls.extend(_witness_call(parts, p, _cli_seed(rng)) for p in pairs)
        yield [calls[k] for k in rng.permutation(len(calls))]


# About 4% of witness searches fall back to the randomized walk and take
# 0.2-5 s, together about half the call time, so a run's total rate depends
# on how many it drew; witness throughput uses the geometric mean call time.
GEOMETRIC_THROUGHPUT = {"witness"}

WORKLOADS = {
    "verify-running": rounds_verify_running,
    "verify-population": rounds_verify_population,
    "scan-f2": rounds_scan_f2,
    "witness": rounds_witness,
}



def load_goldens(path: Path = GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["counts"]


# ---------------------------------------------------------------------------
# correctness gate: returns (work, None) on success or (0, reason)

def check(call: Call, code, payload: dict | None, goldens: dict) -> tuple[int, str | None]:
    if payload is None:
        return 0, f"no output (exit {code})"
    if call.pair is not None:
        return _check_witness(call, code, payload)
    return _check_verify(call, code, payload, goldens)


def _check_verify(call: Call, code, report: dict, goldens: dict):
    checks = {c["name"]: c for c in report.get("checks", [])}
    exhaustive = call.trials == 0
    if set(checks) != (EXHAUSTIVE_CHECKS if exhaustive else SAMPLE_CHECKS):
        return 0, f"unexpected checks {sorted(checks)}"
    cfg = report.get("config", {})
    if tuple(cfg.get("d", ())) != call.d:
        return 0, f"report is for d={cfg.get('d')}"
    passed = all(c["passed"] for c in checks.values())
    if report.get("passed") != passed or code != (0 if passed else 1):
        return 0, f"exit {code} disagrees with the report"
    for name, c in checks.items():
        if name != FINDING and not c["passed"]:
            return 0, f"{name} failed: {c['counts']}"
    finding = checks[FINDING]
    if finding["passed"] != (finding["counts"]["violations"] == 0):
        return 0, f"{FINDING} verdict disagrees with its count"
    if call.red_finding and finding["counts"]["violations"] < 1:
        return 0, f"{FINDING} found no counterexample"
    if exhaustive:
        counts = checks["theorem_exhaustive"]["counts"]
        golden = goldens.get(_fmt(call.d))
        if golden is None:
            return 0, "no golden counts"
        for key in GOLDEN_KEYS:
            if counts.get(key) != golden[key]:
                return 0, f"{key} = {counts.get(key)}, golden {golden[key]}"
        population = counts["total"]
    else:
        if (cfg.get("trials"), cfg.get("seed")) != (call.trials, call.seed):
            return 0, "report config does not echo the call"
        generic = checks["generic_sampling"]["counts"]["trials"]
        forced = checks["forced_defect_coverage"]["counts"]["trials"]
        if generic != call.trials or forced != call.trials:
            return 0, "population size differs from --trials"
        population = generic + forced
    if finding["counts"]["population"] != population:
        return 0, "lemma population differs from the theorem population"
    return population, None


def _check_witness(call: Call, code, payload: dict):
    if code != 0:
        return 0, f"exit {code}"
    if tuple(payload.get("d", ())) != call.d or tuple(payload.get("pair", ())) != call.pair:
        return 0, "payload names another stratum"
    a = ExactMatrix.from_json_dict(payload["matrix"])
    for k, l in lambda_pairs(Composition(call.d)):
        if in_stratum(a, call.d, k, l) != ((k, l) == call.pair):
            return 0, f"matrix does not separate {call.pair} from ({k},{l}) over Q"
    return 1, None
