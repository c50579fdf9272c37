import hashlib
import json

import numpy as np
import pytest

import rorc.matrices
import rorc.strata
import rorc.verify
from rorc import (
    Composition,
    ConfigError,
    ExactMatrix,
    ExperimentConfig,
    InfeasibleError,
    check_component_count,
    gamma_pairs,
    gl5_fixture_suite,
    in_stratum,
    kappa,
    lambda_pairs,
    low_intermediates,
    rank_defect,
    run_checks,
)
from rorc.strata import defect_flags, rank_tables, seeded_stream, stratum_flags, window_tables
from rorc.verify import (
    _BATCH,
    _LEMMAS,
    GL5_EXPECTED,
    _flags,
    _populations,
    _uniform,
    compositions_of,
    random_composition,
)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(d=Composition.of(1, 1), mode="full")
    with pytest.raises(ConfigError):
        ExperimentConfig(d=Composition.of(1, 1), fieldsize=6)
    with pytest.raises(ConfigError):
        ExperimentConfig(d=Composition.of(1, 1), trials=0)
    cfg = ExperimentConfig(d=Composition.of(2, 1, 2))
    assert cfg.free_dim == 8


def test_config_bounds_field_by_int64_products(monkeypatch):
    with pytest.raises(ConfigError, match="2\\^63"):
        ExperimentConfig(d=Composition.of(2, 2, 2, 2), fieldsize=2147483647)
    running = ExperimentConfig(d=Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5),
                               fieldsize=32003)
    assert running.d.n == 36

    # the bound rejects the Mersenne prime 2^89 - 1 before any trial division
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(rorc.matrices, "_is_prime", refuse)
    with pytest.raises(ConfigError, match="2\\^63"):
        ExperimentConfig(d=Composition.of(1, 1), fieldsize=2**89 - 1)


@pytest.mark.parametrize("name", ["trials", "seed", "dim_cap"])
@pytest.mark.parametrize("value", [2.5, True])
def test_config_refuses_a_count_that_is_not_an_integer(name, value):
    # trials=2.5 failed in run_checks with a TypeError; trials=True, seed=True
    # and dim_cap=2.5 ran to a report
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        ExperimentConfig(d=Composition.of(2, 1, 2), **{name: value})


def test_config_refuses_a_field_size_that_is_not_an_integer_of_at_least_two():
    # 2.5 passed the trial division as prime, and the sample then failed in numpy
    for q in (1, 0, -7, 2.5, True):
        with pytest.raises(ConfigError, match="integer of at least 2"):
            ExperimentConfig(d=Composition.of(1, 1), fieldsize=q)


def test_exhaustive_trivial_cases():
    rep = run_checks(
        ExperimentConfig(d=Composition.of(1, 1), mode="exhaustive", fieldsize=2),
        ("theorem",))
    c = rep.checks[0]
    assert c.passed
    assert c.counts["total"] == 2
    assert c.counts["defective"] == 1          # the zero matrix
    assert c.counts["per_stratum"] == {"1,2": 1}

    rep = run_checks(
        ExperimentConfig(d=Composition.of(5), mode="exhaustive", fieldsize=2),
        ("theorem",))
    assert rep.checks[0].counts["total"] == 1


def test_exhaustive_borel_f2():
    cfg = ExperimentConfig(d=Composition.of(1, 1, 1, 1, 1), mode="exhaustive",
                           fieldsize=2)
    c = run_checks(cfg, ("theorem",)).checks[0]
    assert c.passed
    assert c.counts["total"] == 1024
    assert c.counts["uncovered"] == 0
    # each component is a coordinate hyperplane
    assert all(v == 512 for v in c.counts["per_stratum"].values())
    assert c.counts["richardson"] + c.counts["defective"] == 1024


def test_exhaustive_f3():
    cfg = ExperimentConfig(d=Composition.of(1, 1, 1), mode="exhaustive", fieldsize=3)
    c = run_checks(cfg, ("theorem",)).checks[0]
    assert c.passed
    assert c.counts["total"] == 27
    assert c.counts["per_stratum"] == {"1,2": 9, "2,3": 9}


def test_exhaustive_infeasible():
    cfg = ExperimentConfig(d=Composition.of(3, 3, 3), mode="exhaustive",
                           fieldsize=2, dim_cap=20)
    with pytest.raises(InfeasibleError) as err:
        run_checks(cfg, ("theorem",))
    assert "2^27" in str(err.value) or "134217728" in str(err.value)


def test_sampled_check_passes_and_is_deterministic():
    cfg = ExperimentConfig(d=Composition.of(2, 1, 2), mode="sample",
                           fieldsize=32003, trials=300, seed=7)
    rep1 = run_checks(cfg, ("theorem",))
    rep2 = run_checks(cfg, ("theorem",))
    assert rep1.passed
    assert rep1.to_json_dict() == rep2.to_json_dict()
    payload1 = json.dumps(rep1.to_json_dict(), sort_keys=True)
    payload2 = json.dumps(rep2.to_json_dict(), sort_keys=True)
    assert payload1 == payload2
    g = _check(rep1, "generic_sampling")
    assert g.counts["richardson_frequency"] >= 0.99
    f = _check(rep1, "forced_defect_coverage")
    assert f.counts["soundness_failures"] == 0
    assert f.counts["defective"] == f.counts["trials"]
    assert f.counts["uncovered"] == 0


def test_sampled_different_seeds_differ():
    base = dict(d=Composition.of(2, 2, 1), mode="sample", fieldsize=32003, trials=50)
    rep1 = run_checks(ExperimentConfig(seed=1, **base), ("theorem",))
    rep2 = run_checks(ExperimentConfig(seed=2, **base), ("theorem",))
    assert rep1.config != rep2.config


def test_lemma_checks_symbolic_parts():
    cfg = ExperimentConfig(d=Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5),
                           mode="sample", trials=1, fieldsize=2, seed=0)
    rep = run_checks(cfg, ("lemmas",))
    assert _check(rep, "empty_stratum_symbolic").passed
    assert _check(rep, "kappa_tableau_identity").passed


def test_lemma_checks_small_exhaustive():
    cfg = ExperimentConfig(d=Composition.of(1, 1, 2), mode="exhaustive",
                           fieldsize=2, seed=0)
    rep = run_checks(cfg, ("lemmas",))
    for name in ("lemma_above_threshold", "lemma_outside_gamma", "lemma_absorbed"):
        assert _check(rep, name).passed, name


def test_lemma_below_threshold_reports_known_counterexamples():
    # the low-power containment is false in general; the harness must
    # surface the violations rather than pass silently
    cfg = ExperimentConfig(d=Composition.of(1, 3, 2), mode="exhaustive",
                           fieldsize=2, seed=0)
    rep = run_checks(cfg, ("lemmas",))
    low = _check(rep, "lemma_below_threshold")
    assert not low.passed
    assert low.counts["violations"] > 0
    assert low.violations[0]["kind"] == "below_threshold"


def test_theorem_violations_are_recorded_and_recertify(monkeypatch):
    """With lambda_pairs cleared from the verifier's tables, every defective
    matrix is uncovered: the theorem reducer records it, each exhaustive
    index decodes to its matrix, and the exact layer, with the mod-p kernels
    refused, finds every recorded matrix defective."""
    import dataclasses

    from rorc import _kernels, defect_profile

    def no_components(d):
        tab = window_tables(d)
        return dataclasses.replace(tab, lam=np.zeros_like(tab.lam))

    monkeypatch.setattr(rorc.verify, "window_tables", no_components)
    scan = ExperimentConfig(d=Composition.of(1, 1, 1), mode="exhaustive", fieldsize=2)
    exhaustive = _check(run_checks(scan, ("theorem",)), "theorem_exhaustive")
    assert not exhaustive.passed and exhaustive.counts["uncovered"] == 6
    assert [v["index"] for v in exhaustive.violations] == [0, 1, 2, 3, 4]
    pos_r, pos_c = window_tables(scan.d).positions.T
    for v in exhaustive.violations:
        decoded = _kernels.decode_matrices(v["index"], 1, 2, pos_r, pos_c, scan.d.n)
        assert decoded[0].tolist() == v["matrix"]["entries"]
    sample = ExperimentConfig(d=Composition.of(2, 1, 2), fieldsize=2, trials=50, seed=1)
    report = run_checks(sample, ("theorem",))
    generic = _check(report, "generic_sampling")
    forced = _check(report, "forced_defect_coverage")
    assert not generic.passed and not forced.passed
    assert [v["kind"] for v in generic.violations] == ["generic_violation"] * 5
    assert [v["kind"] for v in forced.violations] == ["uncovered_defective"] * 5

    def refuse(*args, **kwargs):
        raise AssertionError("the exact layer ran a mod-p kernel")

    for name in ("_eliminate", "matmul_mod", "window_rank_table", "decode_matrices"):
        monkeypatch.setattr(_kernels, name, refuse)
    for cfg, check in ((scan, exhaustive), (sample, generic), (sample, forced)):
        for v in check.violations:
            assert v["matrix"]["field"] == "Fp:2"
            assert defect_profile(ExactMatrix.from_json_dict(v["matrix"]), cfg.d)


def test_symbolic_violations_are_counted_and_capped(monkeypatch):
    # with every window rank forced to 0 and kappa to 0, every window power
    # k <= j - i breaks rank positivity and every pair breaks the box count;
    # the checks read the ranks and kappas of the window table, and the rank
    # beyond the span from max_window_rank (as strata imports it); the true
    # table is built before the patch, so the cache keeps it
    from dataclasses import replace

    d = Composition.of(1, 1, 1, 1)
    real = window_tables(d)
    zeroed = replace(real, thresholds=np.minimum(real.thresholds, 0),
                     kappas=np.zeros_like(real.kappas))
    monkeypatch.setattr(rorc.verify, "window_tables", lambda d: zeroed)
    monkeypatch.setattr(rorc.strata, "max_window_rank", lambda d, i, j, k: 0)
    cfg = ExperimentConfig(d=d, mode="exhaustive", fieldsize=2)
    rep = run_checks(cfg, ("lemmas",))
    positivity = _check(rep, "empty_stratum_symbolic")
    identity = _check(rep, "kappa_tableau_identity")
    assert not positivity.passed and not identity.passed
    assert positivity.counts == {"windows": 6, "violations": 10}
    assert identity.counts == {"pairs": 6, "violations": 6}
    assert len(positivity.violations) == len(identity.violations) == 5
    assert positivity.violations[0] == {"kind": "rank_positivity", "window": (1, 2, 1, 0)}
    assert identity.violations[0] == {"kind": "kappa_tableau", "pair": [1, 2]}


def test_component_count_violations_are_counted_and_capped(monkeypatch):
    # with every pair taken for a component, the census finds all four rules
    # broken; the records keep the order in which the trials break them
    from itertools import combinations

    monkeypatch.setattr(rorc.verify, "lambda_pairs",
                        lambda d: frozenset(combinations(range(1, d.t + 1), 2)))
    check = check_component_count(ExperimentConfig(d=(2, 1, 2), trials=50, seed=0)).checks[0]
    assert not check.passed
    assert check.counts == {
        "trials": 50, "bound_violations": 36, "monotone_equality_failures": 36,
        "distinct_equality_failures": 36, "pair_exclusion_failures": 23,
    }
    assert [v["kind"] for v in check.violations] == [
        "bound", "pair_exclusion", "monotone", "distinct", "bound"]
    assert check.violations[0] == {"kind": "bound", "d": [1, 2, 3, 2, 4, 5, 1], "size": 21}


def test_component_count_check():
    cfg = ExperimentConfig(d=Composition.of(1, 1), trials=300, seed=3)
    rep = check_component_count(cfg)
    assert rep.passed
    assert rep.checks[0].counts["bound_violations"] == 0


def test_component_count_fixtures():
    assert len(lambda_pairs(Composition.of(7, 5, 2, 3, 5, 1, 2, 6, 5))) == 4
    assert len(lambda_pairs(Composition.of(1, 2, 3, 4))) == 3
    assert len(lambda_pairs(Composition.of(1, 3, 2))) == 2


def test_gl5_expected_counts_match_lambda():
    for parts, expected in GL5_EXPECTED.items():
        assert len(lambda_pairs(Composition(parts))) == expected


def test_gl5_fixture_suite():
    rep = gl5_fixture_suite(seed=0, generic_trials=300)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert len(names) == 15  # all compositions of 5 with t >= 2
    for c in rep.checks:
        assert c.counts["uncovered"] == 0
        assert c.counts["richardson_frequency"] >= 0.99
    g41 = next(c for c in rep.checks if c.name == "gl5_4,1")
    assert g41.counts["defective"] == 1
    assert g41.counts["components"] == 1


def test_report_json_shape():
    cfg = ExperimentConfig(d=Composition.of(1, 1, 1), mode="exhaustive", fieldsize=2)
    rep = run_checks(cfg, ("theorem",))
    data = rep.to_json_dict()
    assert data["schema"] == "rorc.report/1"
    assert data["config"]["d"] == [1, 1, 1]
    assert "timing_s" not in data


def test_random_composition_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = random_composition(rng, max_t=6, max_part=4)
        assert 2 <= d.t <= 6
        assert all(1 <= p <= 4 for p in d.parts)


def test_compositions_of():
    assert sorted(compositions_of(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions_of(5))) == 16


def _generic_rows(cfg: ExperimentConfig) -> np.ndarray:
    return np.concatenate([mats[rows] for mats, parts in _populations(cfg, window_tables(cfg.d))
                           for population, _, rows, _ in parts if population == "generic"])


def test_generic_sample_is_prefix_stable():
    # a generic trial is a pure function of (seed, trial index), drawn in one
    # array or chunk by chunk; the forced sample is not, since its per-trial
    # draws follow all background draws
    d = Composition.of(2, 1, 2, 1, 2)
    short, long, chunked = (_generic_rows(ExperimentConfig(d=d, fieldsize=32003, trials=t, seed=1))
                            for t in (5, 6, 2 * _BATCH + 1))
    assert np.array_equal(short, long[:5])
    assert np.array_equal(long, chunked[:6])


def test_sampled_run_ranks_its_population_in_one_pass(monkeypatch):
    # the generic and forced samples are drawn into one array and ranked by
    # one rank_tables call; an exhaustive scan makes one per decode batch
    import rorc.verify as verify

    real, calls = verify.rank_tables, []

    def counting(mats, tab, p):
        calls.append(mats.shape[0])
        return real(mats, tab, p)

    monkeypatch.setattr(verify, "rank_tables", counting)
    d = Composition.of(2, 1, 2, 1, 2)
    cfg = ExperimentConfig(d=d, fieldsize=32003, trials=30, seed=3)
    run_checks(cfg, ("theorem", "lemmas"))
    assert calls == [60]
    [(mats, parts)] = _populations(cfg, window_tables(d))
    assert len(mats) == 60
    (g_population, _, g_rows, _), (f_population, _, f_rows, forced) = parts
    generic = mats[g_rows]
    assert generic.base is not None and generic.base is mats[f_rows].base
    alone = _uniform(seeded_stream(3, 0), cfg, window_tables(d), np.zeros((30, 8, 8), dtype=int))
    assert np.array_equal(generic, alone)
    assert (g_population, f_population) == ("generic", "forced")
    assert len(mats[f_rows]) == len(forced) == 30
    calls.clear()
    run_checks(ExperimentConfig(d=(3,), fieldsize=5, trials=7), ("theorem",))
    assert calls == [7]     # t = 1: no window, no forced rows
    calls.clear()
    run_checks(ExperimentConfig(d=(2, 2, 1), mode="exhaustive", fieldsize=3), ("theorem",))
    assert calls == [4096, 3 ** 8 - 4096]


def test_sampled_population_is_cut_across_the_two_samples(monkeypatch):
    # the generic rows and then the forced rows are cut into arrays of at
    # most _BATCH rows, so an array can end one sample and start the other;
    # run_checks ranks each array in one rank_tables call
    import rorc.verify as verify

    cfg = ExperimentConfig(d=(2, 1, 2, 1, 2), fieldsize=32003, trials=_BATCH + 7, seed=4)
    seen = [[(population, first, len(mats[rows])) for population, first, rows, _ in parts]
            for mats, parts in _populations(cfg, window_tables(cfg.d))]
    assert seen == [[("generic", 0, _BATCH)],
                    [("generic", _BATCH, 7), ("forced", 0, _BATCH - 7)],
                    [("forced", _BATCH - 7, 14)]]
    real, calls = verify.rank_tables, []

    def counting(mats, tab, p):
        calls.append(mats.shape[0])
        return real(mats, tab, p)

    monkeypatch.setattr(verify, "rank_tables", counting)
    run_checks(cfg, ("theorem", "lemmas"))
    assert calls == [_BATCH, _BATCH, 14]


def test_entry_budget_cuts_every_array_and_no_report(monkeypatch):
    # one budget cuts both modes' arrays: at most _ENTRIES entries and _BATCH
    # rows each, ranked whole; where the cuts fall changes no report byte
    import rorc.verify as verify

    configs = (ExperimentConfig(d=(2, 2, 1), mode="exhaustive", fieldsize=3),
               ExperimentConfig(d=(2, 1, 2, 1, 2), fieldsize=32003, trials=300, seed=2))
    texts = [json.dumps(run_checks(cfg).to_json_dict()) for cfg in configs]
    # 850 entries: 34 matrices of 5 x 5, 13 of 8 x 8, so an array spans both samples
    for entries, sampled_arrays in ((verify._ENTRIES, 1), (850, 47)):
        monkeypatch.setattr(verify, "_ENTRIES", entries)
        for cfg, text in zip(configs, texts):
            shapes = [mats.shape for mats, _ in _populations(cfg, window_tables(cfg.d))]
            assert all(b <= _BATCH and b * n * m <= entries for b, n, m in shapes)
            assert json.dumps(run_checks(cfg).to_json_dict()) == text
        assert len(shapes) == sampled_arrays


def test_config_coerces_plain_tuples():
    cfg = ExperimentConfig(d=(2, 1, 2), mode="exhaustive", fieldsize=2)
    assert cfg.d == Composition.of(2, 1, 2)
    assert run_checks(cfg, ("theorem",)).passed


def _pointwise_lemmas(a: ExactMatrix, d: Composition) -> dict[str, bool]:
    """The four lemma violations of one matrix, pair by pair, from the exact
    predicates of rorc.strata."""
    pairs = [(i, j) for i in range(1, d.t) for j in range(i + 1, d.t + 1)]
    z = {pq: in_stratum(a, d, *pq) for pq in pairs}
    gamma, lam = gamma_pairs(d), lambda_pairs(d)
    return {
        "below_threshold": any(
            rank_defect(a, d, i, j, l) and not z[i, j]
            for i, j in pairs for l in range(1, kappa(d, i, j))),
        "above_threshold": any(
            rank_defect(a, d, i, j, l)
            and not any(z[i, m] or z[m, j] for m in low_intermediates(d, i, j))
            for i, j in pairs if low_intermediates(d, i, j)
            for l in range(kappa(d, i, j) + 1, j - i + 1)),
        "outside_gamma": any(z[pq] for pq in pairs if pq not in gamma)
        and not any(z[pq] for pq in gamma),
        "absorbed": any(z[pq] for pq in gamma - lam) and not any(z[pq] for pq in lam),
    }


def test_lemma_masks_match_pointwise_definitions():
    # the lemma verdicts are masks over one per-batch stratum array; they must
    # agree with the containments evaluated matrix by matrix
    seen = dict.fromkeys(_LEMMAS, False)
    for parts in ((1, 3, 2), (2, 1, 2, 1, 2), (3, 1, 1, 3), (2, 2, 1)):
        d = Composition(parts)
        cfg = ExperimentConfig(d=d, mode="sample", fieldsize=3, trials=25, seed=5)
        tab = window_tables(d)
        for mats, parts in _populations(cfg, tab):
            verdicts = _flags(rank_tables(mats, tab, 3), tab, parts)
            for r, mat in enumerate(mats):
                expected = _pointwise_lemmas(ExactMatrix(mat.tolist(), "Fp:3"), d)
                assert {name: bool(verdicts[name][r]) for name in _LEMMAS} == expected
                for name, bad in expected.items():
                    seen[name] |= bad
    assert seen["below_threshold"]


RUNNING = (7, 5, 2, 3, 5, 1, 2, 6, 5)


def test_covered_implies_defective_and_every_matrix_is_generic_or_defective():
    # the two rules the theorem reducer leaves out of its verdict: a covered
    # matrix is defective at kappa, and one that is not of generic type is
    # defective in the full window
    for cfg in (
        *(ExperimentConfig(d=d, mode="exhaustive", fieldsize=q)
          for d in ((1, 3, 2), (2, 2, 1)) for q in (2, 3)),
        ExperimentConfig(d=RUNNING, fieldsize=32003, trials=20, seed=3),
        ExperimentConfig(d=(4,), fieldsize=32003, trials=20, seed=3),
        ExperimentConfig(d=(3,), mode="exhaustive", fieldsize=3),
    ):
        tab = window_tables(cfg.d)
        arrays = list(_populations(cfg, tab))
        assert arrays
        for mats, parts in arrays:
            f = _flags(rank_tables(mats, tab, cfg.fieldsize), tab, parts)
            assert not (f["covered"] & ~f["defective"]).any()
            assert (f["richardson"] | f["defective"]).all()


def _reference_flags(ranks, tab, parts):
    """_flags as it read the defect table before its reducers took
    tab.flag_tables: the reference for them."""
    low, high, flank = tab.lemma_masks
    defects = defect_flags(ranks, tab)      # (B, P, kmax)
    stratum = stratum_flags(defects, tab)   # (B, P): defective at kappa
    covered = stratum[:, tab.lam].any(axis=1)
    full = slice(tab.full_index, tab.full_index + 1)    # empty when t = 1
    richardson = ~defects[:, full].any(axis=(1, 2))
    defective = defects.any(axis=(1, 2))
    uncovered = defective & ~covered
    richardson_defective = richardson & defective
    excess = ((tab.thresholds >= 0) & (ranks > tab.thresholds)).any(axis=(1, 2))
    unsound = np.zeros(len(ranks), dtype=bool)
    for _, _, rows, forced in parts:
        if forced is not None:
            unsound[rows] = ~defects[rows][np.arange(len(forced)), forced[:, 0], forced[:, 1] - 1]
    in_flank = stratum @ flank.T    # boolean: some flanking stratum, per pair
    return {
        "rows": np.ones(len(ranks), dtype=bool), "richardson": richardson,
        "defective": defective, "covered": covered, "uncovered": uncovered,
        "excess": excess, "unsound": unsound, "per_stratum": stratum[:, tab.lam],
        "richardson_defective": richardson_defective,
        "richardson_in_stratum": richardson & covered,
        "bad": uncovered | excess | richardson_defective | unsound,
        "below_threshold": ((defects & low).any(axis=2) & ~stratum).any(axis=1),
        "above_threshold": ((defects & high).any(axis=2) & ~in_flank).any(axis=1),
        "outside_gamma": stratum[:, ~tab.gamma].any(axis=1)
        & ~stratum[:, tab.gamma].any(axis=1),
        "absorbed": stratum[:, tab.gamma & ~tab.lam].any(axis=1) & ~covered,
    }


def test_flags_match_the_reference_reducers():
    configs = [ExperimentConfig(d=parts, mode="exhaustive", fieldsize=2)
               for n in range(1, 7) for parts in compositions_of(n)]
    configs += [
        ExperimentConfig(d=(2, 2, 1), mode="exhaustive", fieldsize=3),
        *(ExperimentConfig(d=RUNNING, fieldsize=32003, trials=20, seed=s) for s in range(3)),
        ExperimentConfig(d=(3,), mode="exhaustive", fieldsize=3),    # t = 1
        ExperimentConfig(d=(4,), fieldsize=32003, trials=20, seed=1),
    ]
    tables = [(rank_tables(mats, tab, cfg.fieldsize), tab, parts)
              for cfg in configs for tab in (window_tables(cfg.d),)
              for mats, parts in _populations(cfg, tab)]
    # no kernel ranks above a threshold, and lemma_absorbed holds on every
    # population: random tables up to one above each threshold, some rows
    # forced, raise every flag
    rng = np.random.default_rng(7)
    for parts in ((1, 3, 2), (2, 1, 2, 1, 2), (3, 1, 1, 3), (2, 3, 1, 3, 2), RUNNING):
        tab = window_tables(parts)
        thr = tab.thresholds
        near = np.maximum(rng.integers(-2, 2, size=(400, *thr.shape)) + thr, 0)
        ranks = np.where(thr >= 0, near, -1)
        ranks = ranks.transpose(2, 1, 0).copy().transpose(2, 1, 0)    # as rank_tables lays it out
        pi = rng.integers(len(tab.pairs), size=150)
        forced = np.stack([pi, rng.integers(1, tab.spans[pi] + 1)], axis=1)
        tables.append((ranks, tab, (("generic", 0, slice(0, 250), None),
                                    ("forced", 0, slice(250, 400), forced))))
    seen = set()
    for ranks, tab, parts in tables:
        got, want = _flags(ranks, tab, parts), _reference_flags(ranks, tab, parts)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert (got[key].shape, got[key].dtype) == (value.shape, value.dtype), key
            assert np.array_equal(got[key], value), (tab.d, key)
            if value.any() and not value.all():
                seen.add(key)
    assert seen == set(want) - {"rows"}


def test_reducer_and_forced_tables_stay_small():
    # every table kept for the reducers and the forced sample is
    # O(P^2 + P*K) or O(P*n); the dense (P*K) x (4P + 6) selector of a
    # t = 20 composition would hold about 11 MB
    tab = window_tables((1, 2) * 10)
    arrays = [*tab.flag_tables, *(a for *_, lefts, flats in tab.forced_windows
                                  for a in (lefts, flats))]
    assert len(tab.pairs) == 190 and tab.kmax == 19
    assert sum(a.nbytes for a in arrays) < 2**20
    assert not any(a.flags.writeable for a in arrays)


def test_repeated_verify_reads_the_cached_tables_without_changing_them():
    # a second report reads the lemma masks and symbolic violations that the
    # first left with the composition's table, and a cleared cache rebuilds
    # them; editing a report must not reach the next one
    cfg = ExperimentConfig(d=RUNNING, fieldsize=32003, trials=20, seed=5)
    rorc.strata._window_tables.cache_clear()
    first = run_checks(cfg)
    text = json.dumps(first.to_json_dict())
    assert _check(first, "lemma_below_threshold").violations
    for check in first.checks:
        for key in check.counts:
            check.counts[key] = -1
        for record in check.violations:
            for value in record.values():
                if isinstance(value, list):
                    value.append(-1)
        check.violations.append({"kind": "edited"})
    assert json.dumps(run_checks(cfg).to_json_dict()) == text
    rorc.strata._window_tables.cache_clear()
    assert json.dumps(run_checks(cfg).to_json_dict()) == text
    tab = window_tables(RUNNING)
    arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 8 and len(tab.lemma_masks) == 3
    assert not any(a.flags.writeable for a in (*arrays, *tab.lemma_masks))


# SHA-256 of the sampled populations below (matrix bytes, then the forced
# (pair, k) rows), recorded before the forced sample drew its window entries
# as one vector per trial
POPULATION_DIGEST = "bdad0def5486dcea3f14cc5f8abd68df2ba86dc890df077cbf62ad99f5b8a598"


def test_sampled_populations_match_digest():
    # the report goldens record at most five counterexamples per check; this
    # pins every matrix of the generic and forced samples
    configs = [dict(d=RUNNING, fieldsize=32003, trials=20, seed=s) for s in range(3)] + [
        dict(d=(1, 3, 2), fieldsize=3, trials=20, seed=0),
        dict(d=(3, 3, 3), fieldsize=2, trials=20, seed=0),
        dict(d=(2, 1), fieldsize=32003, trials=20, seed=0),
        dict(d=(5,), fieldsize=32003, trials=20, seed=0),
        dict(d=(1, 1, 1, 1, 1, 1), fieldsize=1000003, trials=20, seed=0),
    ]
    digest = hashlib.sha256()
    for kw in configs:
        cfg = ExperimentConfig(**kw)
        for mats, parts in _populations(cfg, window_tables(cfg.d)):
            digest.update(np.ascontiguousarray(mats, dtype="<i8").tobytes())
            for _, _, _, forced in parts:
                if forced is not None:
                    digest.update(np.ascontiguousarray(forced, dtype="<i8").tobytes())
    assert digest.hexdigest() == POPULATION_DIGEST


def test_sampled_memory_does_not_grow_with_trials():
    # more trials than one chunk are drawn, ranked and yielded _BATCH at a
    # time, the generic chunks first: the peak is that of the chunk held by
    # the consumer, the one being drawn and its entry draws (2.85 chunks
    # with numpy 2.4), not of the 8 chunks both samples of 4 * _BATCH trials
    # fill when drawn whole (9.9 with their entry draws)
    import tracemalloc

    d = Composition.of(2, 1, 2, 1, 2)
    cfg = ExperimentConfig(d=d, fieldsize=32003, trials=4 * _BATCH, seed=6)
    tab = window_tables(d)
    chunk = _BATCH * d.n ** 2 * 8
    seen = []
    tracemalloc.start()
    try:
        for mats, parts in _populations(cfg, tab):
            seen += [(population, first, len(mats[rows])) for population, first, rows, _ in parts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [(population, first, _BATCH) for population in ("generic", "forced")
                    for first in range(0, 4 * _BATCH, _BATCH)]
    assert peak < 4 * chunk


# SHA-256 of the JSON reports below, with sorted keys, recorded when both
# samples were still drawn whole into one array
CHUNKED_REPORT_DIGEST = "893371d74a5307c027071dcfbef36b30b480db178ddde6afa347adeaeca9d8f9"


def test_chunked_samples_keep_the_reports():
    # _BATCH + 7 trials cut both samples of (2,1,2,1,2) and (1,3,2) into
    # three arrays, the middle one ending the generic sample and starting
    # the forced one, the generic sample of (5,) (t = 1, nothing forced)
    # into two, and both samples of the running example, whose 36 x 36
    # matrices fill an array in fewer rows, into eleven
    digest = hashlib.sha256()
    for kw in (dict(d=(2, 1, 2, 1, 2), fieldsize=32003, seed=4), dict(d=(1, 3, 2), fieldsize=2, seed=0),
               dict(d=(5,), fieldsize=3, seed=1), dict(d=RUNNING, fieldsize=32003, seed=2)):
        report = run_checks(ExperimentConfig(trials=_BATCH + 7, **kw), ("theorem", "lemmas"))
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CHUNKED_REPORT_DIGEST
