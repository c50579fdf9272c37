import json

import pytest

from rorc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_running_example(capsys):
    code, out, _ = run(capsys, "analyze", "-d", "7,5,2,3,5,1,2,6,5")
    assert code == 0
    assert "lambda(d) = (9, 8, 6, 5, 5, 2, 1)" in out
    assert "(1,8)" in out and "(2,5)" in out and "(3,7)" in out and "(5,9)" in out
    assert "components: 4" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "-d", "2,1,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == [2, 1, 2]
    assert data["lambda"] == [3, 2]
    assert len(data["components"]) == 1
    comp = data["components"][0]
    assert comp["pair"] == [1, 3]
    assert comp["kappa"] == 1 and comp["rank_threshold"] == 3 and comp["codim"] == 1


def test_analyze_single_block(capsys):
    code, out, _ = run(capsys, "analyze", "-d", "5")
    assert code == 0
    assert "components: 0" in out


def test_analyze_malformed_d(capsys):
    code, _, err = run(capsys, "analyze", "-d", "3,x")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "analyze", "-d", "3,0,1")
    assert code == 2


def test_diagram_command(capsys):
    code, out, _ = run(capsys, "diagram", "-d", "3,1,2,4")
    assert code == 0
    assert "o---o---o---o" in out
    assert "chain lengths: (3, 2, 1, 0)" in out


def test_diagram_window(capsys):
    code, out, _ = run(capsys, "diagram", "-d", "7,5,2,3,5,1,2,6,5",
                       "--pair", "4,7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == [3, 5, 1, 2]
    assert sorted(data["chain_lengths"], reverse=True) == [3, 2, 1, 0, 0]


def test_tableau_command(capsys):
    code, out, _ = run(capsys, "tableau", "-d", "1,1")
    assert code == 0
    assert out.strip() == "1 2"


def test_tableau_pair_json(capsys):
    code, out, _ = run(capsys, "tableau", "-d", "7,5,2,3,5,1,2,6,5",
                       "--pair", "2,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [9, 8, 6, 5, 4, 3, 1]
    assert data["rows"][5] == [1, 5, 8]
    assert set(data) == {"shape", "rows"}


def test_tableau_bad_pair(capsys):
    code, _, err = run(capsys, "tableau", "-d", "2,1,2", "--pair", "3,1")
    assert code == 2


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "-d", "2,1,2", "--mode", "exhaustive",
                       "--field", "2")
    assert code == 0
    assert "components = 1" in out
    assert "[pass] theorem_exhaustive" in out


def test_verify_exhaustive_112_1(capsys):
    code, out, _ = run(capsys, "verify", "-d", "1,1,2,1", "--mode", "exhaustive",
                       "--field", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["components"] == 2
    theorem = next(c for c in data["checks"] if c["name"] == "theorem_exhaustive")
    assert theorem["passed"]
    assert set(theorem["counts"]["per_stratum"]) == {"1,2", "2,4"}


def test_verify_sample_determinism(capsys):
    args = ("verify", "-d", "3,3,3", "--mode", "sample", "--trials", "200",
            "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_counts_check(capsys):
    code, out, _ = run(capsys, "verify", "-d", "1,1", "--checks", "counts",
                       "--trials", "100", "--seed", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["name"] == "component_count"


def test_verify_surfaces_false_lemma_findings(capsys):
    # the low-power containment is false; verify must exit 1 and report the
    # counterexamples while the decomposition check itself passes
    code, out, _ = run(capsys, "verify", "-d", "1,3,2", "--mode", "exhaustive",
                       "--field", "2", "--json")
    assert code == 1
    data = json.loads(out)
    low = next(c for c in data["checks"] if c["name"] == "lemma_below_threshold")
    assert not low["passed"]
    assert low["counts"]["violations"] > 0
    assert low["violations"][0]["matrix"]["n"] == 6
    theorem = next(c for c in data["checks"] if c["name"] == "theorem_exhaustive")
    assert theorem["passed"]


def test_verify_invalid_config(capsys):
    code, _, err = run(capsys, "verify", "-d", "2,1,2", "--field", "6")
    assert code == 2
    code, _, err = run(capsys, "verify", "-d", "2,1,2", "--checks", "bogus")
    assert code == 2
    code, _, err = run(capsys, "verify", "-d", "3,3,3", "--mode", "exhaustive",
                       "--field", "2")
    assert code == 2  # infeasible under the default budget


@pytest.mark.parametrize("argv", [
    ("analyze", "-d", "2,1,2"),
    ("verify", "-d", "2,1,2", "--mode", "exhaustive", "--json"),
])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    # a directory, or a file in a missing directory, is a bad --out, not a violation
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and "cannot write --out" in err


def test_witness_command(capsys, tmp_path):
    out_path = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                       "--json", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["pair"] == [1, 2]
    assert data["matrix"]["n"] == 5
    assert [1, 2, 1] in data["defect_profile"]

    # round-trip: the emitted matrix JSON is accepted back for verification
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(data["matrix"]))
    code, out, _ = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                       "--verify-matrix", str(matrix_path))
    assert code == 0
    assert "separates" in out

    code, out, _ = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "2,3",
                       "--verify-matrix", str(matrix_path))
    assert code == 1
    assert "does NOT separate" in out

    # the verdict goes to --out, and --json writes it as a payload
    verdict_path = tmp_path / "vm.out"
    for (i, j), code, verdict in (((1, 2), 0, "separates"), ((2, 3), 1, "does NOT separate")):
        argv = ("witness", "-d", "1,1,1,1,1", "--pair", f"{i},{j}", "--verify-matrix",
                str(matrix_path))
        assert run(capsys, *argv, "--out", str(verdict_path)) == (code, "", "")
        assert verdict_path.read_text() == f"matrix {verdict} stratum ({i},{j})\n"
        assert run(capsys, *argv, "--json") == (code, json.dumps(
            {"d": [1, 1, 1, 1, 1], "pair": [i, j], "separates": code == 0},
            separators=(",", ":")) + "\n", "")


def test_witness_verify_matrix_rejects_malformed_input(capsys, tmp_path):
    cases = {
        "missing_file": None,
        "no_n": {"field": "Q", "entries": [[0]]},
        "not_an_object": [[0, 1], [0, 0]],
        "triple_out_of_range": {"n": 5, "triples": [[5, 4, 1]]},
        "negative_triple_index": {"n": 5, "triples": [[-5, 4, 1]]},
        "n_disagrees_with_entries": {"n": 6, "entries": [[0] * 5 for _ in range(5)]},
        # a payload's own blocks must be the parts of -d, and [] declares none
        "d_disagrees_with_d": {"n": 5, "d": [2, 1, 2], "triples": []},
        "empty_d": {"n": 5, "d": [], "triples": []},
        "non_canonical_field": {"n": 5, "field": "Fp:07", "triples": []},
    }
    for name, data in cases.items():
        path = tmp_path / f"{name}.json"
        if data is not None:
            path.write_text(json.dumps(data))
        code, out, err = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                             "--verify-matrix", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and "Traceback" not in err, name


def test_witness_verify_matrix_refuses_wrong_size_before_building_it(capsys, tmp_path):
    import tracemalloc

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2000, "triples": []}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                             "--verify-matrix", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "n = 2000" in err
    assert peak < 5 * 2**20


def test_witness_pair_outside_lambda(capsys):
    code, _, err = run(capsys, "witness", "-d", "2,1,2", "--pair", "1,2")
    assert code == 2
    assert "Lambda" in err


@pytest.mark.parametrize("command, pair, message", [
    ("diagram", "0,2", "window (0,2) out of range for t=3"),
    ("tableau", "3,1", "pair (3,1) out of range for t=3"),
    ("witness", "0,5", "pair (0,5) is not in Lambda((2,1,2))"),
    ("witness", "1,2", "pair (1,2) is not in Lambda((2,1,2))"),
])
def test_pair_checked_by_the_callee_exits_2_with_one_error_line(capsys, command, pair,
                                                                message):
    code, out, err = run(capsys, command, "-d", "2,1,2", "--pair", pair)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_witness_verify_matrix_checks_the_pair(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 5, "triples": []}))
    code, out, err = run(capsys, "witness", "-d", "2,1,2", "--pair", "1,2",
                         "--verify-matrix", str(path))
    assert (code, out) == (2, "")
    assert err == "error: pair (1,2) is not in Lambda((2,1,2))\n"


def test_witness_verify_matrix_refuses_bool_block_sizes(capsys, tmp_path):
    # "d": [true, 2] once passed as the composition (1,2) and printed as (True,2)
    path = tmp_path / "bool_d.json"
    path.write_text(json.dumps({"n": 3, "d": [True, 2], "triples": []}))
    code, out, err = run(capsys, "witness", "-d", "1,2", "--pair", "1,2",
                         "--verify-matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: parts must be positive integers")


def test_witness_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                         "--budget", "-1")
    assert code == 2 and "--budget" in err and out == ""
    code, _, _ = run(capsys, "witness", "-d", "1,1,1,1,1", "--pair", "1,2",
                     "--budget", "0")
    assert code == 0  # the deterministic phase alone finds this witness
    # here only the walk finds one: an exhausted budget exits 1
    code, out, err = run(capsys, "witness", "-d", "3,1,1,1,3,1", "--pair", "2,3",
                         "--seed", "2", "--budget", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: no separating witness for (2, 3) within 0 trials")


def test_witness_requires_pair(capsys):
    code, _, err = run(capsys, "witness", "-d", "2,1,2")
    assert code == 2


def test_seed_env_fallback(capsys, monkeypatch):
    def report_seed(*extra):
        code, out, _ = run(capsys, "verify", "-d", "1,1", "--trials", "5",
                           "--checks", "counts", "--json", *extra)
        assert code == 0
        return json.loads(out)["config"]["seed"]

    monkeypatch.setenv("RORC_SEED", "99")
    assert report_seed() == 99
    monkeypatch.setenv("RORC_SEED", "")
    assert report_seed() == 0
    monkeypatch.setenv("RORC_SEED", "not-an-int")
    for argv in (["verify", "-d", "1,1", "--trials", "5"],
                 ["witness", "-d", "1,1", "--pair", "1,2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "RORC_SEED" in err and out == ""
    # an explicit --seed wins; commands without a seed never read the variable
    assert report_seed("--seed", "3") == 3
    for argv in (["analyze", "-d", "2,1,2"], ["diagram", "-d", "2,1,2"],
                 ["tableau", "-d", "2,1,2", "--pair", "1,3"]):
        assert run(capsys, *argv)[0] == 0


def test_malformed_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("RORC_SEED", "abc")
    code, _, err = run(capsys, "verify", "-d", "1,1", "--trials", "5")
    assert code == 2 and "RORC_SEED" in err
    code, _, err = run(capsys, "witness", "-d", "1,1", "--pair", "1,2")
    assert code == 2 and "RORC_SEED" in err


@pytest.mark.parametrize("argv", [
    # the diagram phase finds this witness without reading the seed
    ["witness", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "3,7", "--seed", "-1"],
    ["witness", "-d", "3,1,1,1,3,1", "--pair", "2,3", "--seed", "-2"],
    ["verify", "-d", "2,1,2", "--mode", "exhaustive", "--seed", "-1"],
    ["verify", "-d", "2,1,2", "--mode", "sample", "--seed", "-1"],
])
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "seed must be >= 0" in err and out == ""


def test_negative_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("RORC_SEED", "-5")
    for argv in (["verify", "-d", "2,1,2", "--mode", "exhaustive"],
                 ["verify", "-d", "2,1,2", "--mode", "sample", "--trials", "5"],
                 ["witness", "-d", "2,1,2", "--pair", "1,3"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "seed must be >= 0, got -5" in err


def test_verify_rejects_empty_checks(capsys):
    code, out, err = run(capsys, "verify", "-d", "2,1,2", "--checks", ",")
    assert code == 2 and "no checks selected" in err and out == ""


def test_verify_rejects_field_beyond_int64_bound(capsys):
    # 8 * (p - 1)^2 >= 2^63 at p = 2^31 - 1: the int64 kernels would wrap
    code, _, err = run(capsys, "verify", "-d", "2,2,2,2", "--field", "2147483647")
    assert code == 2 and "2^63" in err


def test_verify_rejects_exhaustive_index_beyond_int64(capsys):
    # 2^64 matrices fit the 2^64 budget, but the enumeration index would wrap
    code, _, err = run(capsys, "verify", "-d", "8,8", "--mode", "exhaustive",
                       "--field", "2", "--dim-cap", "64")
    assert code == 2 and "2^63" in err
    code, _, _ = run(capsys, "verify", "-d", "2,2,2", "--mode", "exhaustive",
                     "--field", "2")
    assert code == 0


@pytest.mark.parametrize("cap", ["65", "10000000000"])
def test_verify_rejects_dim_cap_above_64(capsys, cap):
    # the budget 2^dim_cap must be refused before it is ever formed
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "-d", "2,1,2", "--mode", "exhaustive",
                             "--checks", "theorem", "--dim-cap", cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and peak < 5_000_000
    assert err.startswith("error: ") and err.count("\n") == 1 and "dim_cap" in err


@pytest.mark.parametrize("pair", ["1,2,3", "x,1"])
@pytest.mark.parametrize("command", ["diagram", "tableau", "witness"])
def test_malformed_pair_exits_2(capsys, command, pair):
    code, out, err = run(capsys, command, "-d", "2,1,2", "--pair", pair)
    assert code == 2 and out == ""
    assert err == f"error: bad pair '{pair}'; expected 'i,j'\n"


def test_diagram_pair_is_a_window(capsys):
    # a window may be a single column; only tableau and witness need i < j
    assert run(capsys, "diagram", "-d", "2,1,2", "--pair", "2,2")[0] == 0
    assert run(capsys, "diagram", "-d", "2,1,2", "--pair", "3,4")[0] == 2
    assert run(capsys, "tableau", "-d", "2,1,2", "--pair", "2,2")[0] == 2


def test_cached_parser_leaks_no_state_between_calls(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("RORC_SEED", raising=False)
    verify = ("verify", "-d", "2,1,2", "--trials", "3", "--json")
    _, out, _ = run(capsys, *verify, "--seed", "5")
    assert json.loads(out)["config"]["seed"] == 5
    monkeypatch.setenv("RORC_SEED", "7")
    _, out, _ = run(capsys, *verify)
    assert json.loads(out)["config"]["seed"] == 7

    _, out, _ = run(capsys, *verify, "--checks", "counts")
    assert [c["name"] for c in json.loads(out)["checks"]] == ["component_count"]
    _, out, _ = run(capsys, *verify)
    assert "lemma_below_threshold" in [c["name"] for c in json.loads(out)["checks"]]

    witness = ("witness", "-d", "1,1,1,1,1", "--pair", "1,2")
    matrix_path = tmp_path / "m.json"
    assert run(capsys, *witness, "--json", "--out", str(matrix_path))[0] == 0
    matrix_path.write_text(json.dumps(json.loads(matrix_path.read_text())["matrix"]))
    code, out, _ = run(capsys, *witness, "--verify-matrix", str(matrix_path))
    assert (code, out.strip()) == (0, "matrix separates stratum (1,2)")
    code, out, _ = run(capsys, *witness)
    assert code == 0
    assert out.startswith("witness for stratum (1,2)")


@pytest.mark.parametrize("argv", [
    ("analyze", "-d", "7,5,2,3,5,1,2,6,5"),
    ("diagram", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "4,7"),
    ("tableau", "-d", "7,5,2,3,5,1,2,6,5"),
    ("verify", "-d", "7,5,2,3,5,1,2,6,5", "--field", "32003", "--trials", "20"),
    ("witness", "-d", "1,1,1,1,1", "--pair", "1,2"),
    ("witness", "-d", "1,1,1,1,1", "--pair", "1,2", "--verify-matrix", "{matrix}"),
], ids=["analyze", "diagram", "tableau", "verify", "witness", "verify_matrix"])
def test_json_is_one_compact_line(capsys, tmp_path, argv):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps({"n": 5, "triples": [[0, 1, 1]]}))
    argv = [str(matrix_path) if a == "{matrix}" else a for a in argv]
    code, out, _ = run(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    out_path = tmp_path / "out.json"
    assert run(capsys, *argv, "--json", "--out", str(out_path)) == (code, "", "")
    assert out_path.read_bytes() == out.encode()
