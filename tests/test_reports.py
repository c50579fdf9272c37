"""Golden `rorc verify --json` reports and `rorc witness --json` payloads.

Each case runs the CLI with ``--json --out`` and checks the exit code and the
written file: it must be one compact line, ``json.dumps(obj, separators=(",",
":"))``, and its indent-2 re-encoding must equal the golden under
tests/data/reports/ byte for byte.  Together these fix the output bytes.
Reports and witnesses are deterministic functions of the arguments, so any
change in a count, a recorded violation, a witness matrix, a key or the key
order shows up here.

Regenerate the goldens (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_reports.py``.

``WITNESS_DIGEST`` pins every small witness: one SHA-256 over the argv, exit
code and indent-2 re-encoded output of ``rorc witness --json --seed 0`` for
each Lambda pair of every composition of n <= 8 with t >= 3 (636 calls).
Print the current value with ``PYTHONPATH=src python tests/test_reports.py
digest``.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rorc import Composition, lambda_pairs
from rorc.cli import main
from rorc.verify import compositions_of

GOLDEN_DIR = Path(__file__).parent / "data" / "reports"

# name -> (CLI arguments, exit code)
CASES = {
    "running_sample": (
        ["verify", "-d", "7,5,2,3,5,1,2,6,5", "--mode", "sample", "--field", "32003",
         "--trials", "20", "--seed", "1"], 1),
    "d132_exhaustive": (
        ["verify", "-d", "1,3,2", "--mode", "exhaustive", "--field", "2"], 1),
    "d333_sample": (
        ["verify", "-d", "3,3,3", "--mode", "sample", "--trials", "200", "--seed", "7"], 0),
    "d212_exhaustive_all": (
        ["verify", "-d", "2,1,2", "--mode", "exhaustive", "--field", "2",
         "--checks", "counts,theorem,lemmas"], 0),
    "d221_sample_lemmas": (
        ["verify", "-d", "2,2,1", "--mode", "sample", "--field", "32003", "--trials", "50",
         "--seed", "3", "--checks", "lemmas"], 1),
    "d5_exhaustive": (["verify", "-d", "5", "--mode", "exhaustive"], 0),
    "d5_sample": (["verify", "-d", "5", "--mode", "sample"], 0),
    # the running example's four components, found by the diagram candidates
    "witness_running_1_8": (["witness", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "1,8"], 0),
    "witness_running_2_5": (["witness", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "2,5"], 0),
    "witness_running_3_7": (["witness", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "3,7"], 0),
    "witness_running_5_9": (["witness", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "5,9"], 0),
    # found by the seeded random walk
    "witness_walk_311131": (
        ["witness", "-d", "3,1,1,1,3,1", "--pair", "2,3", "--seed", "2"], 0),
    # the running example's decomposition, diagrams and tableaux
    "analyze_running": (["analyze", "-d", "7,5,2,3,5,1,2,6,5"], 0),
    "diagram_running": (["diagram", "-d", "7,5,2,3,5,1,2,6,5"], 0),
    "diagram_running_4_7": (["diagram", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "4,7"], 0),
    "tableau_running": (["tableau", "-d", "7,5,2,3,5,1,2,6,5"], 0),
    "tableau_running_2_5": (["tableau", "-d", "7,5,2,3,5,1,2,6,5", "--pair", "2,5"], 0),
}


def _run(name: str, path: Path) -> int:
    argv, _ = CASES[name]
    return main([*argv, "--json", "--out", str(path)])


def _indented(text: str) -> str:
    """The indent-2 re-encoding of one JSON payload, as the goldens hold it."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("RORC_SEED", raising=False)
    out = tmp_path / f"{name}.json"
    code = _run(name, out)
    assert code == CASES[name][1]
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    assert _indented(text).encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()


WITNESS_DIGEST = "e16bf91f4dd959e69fa2fedba46d76cb673b39adf14c05c90de8f2d1f1e633a2"


def _witness_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    for n in range(3, 9):
        for parts in compositions_of(n):
            if len(parts) < 3:
                continue
            for i, j in sorted(lambda_pairs(Composition(parts))):
                argv = ["witness", "-d", ",".join(map(str, parts)), "--pair", f"{i},{j}",
                        "--seed", "0", "--json"]
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main(argv)
                digest.update(json.dumps([argv, code]).encode() + b"\n"
                              + _indented(out.getvalue()).encode())
                calls += 1
    return calls, digest.hexdigest()


def test_small_witnesses_match_digest():
    assert _witness_digest() == (636, WITNESS_DIGEST)


if __name__ == "__main__":
    if sys.argv[1:] == ["digest"]:
        print(*_witness_digest())
        sys.exit()
    os.environ.pop("RORC_SEED", None)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        path = GOLDEN_DIR / f"{case}.json"
        code = _run(case, path)
        path.write_text(_indented(path.read_text(encoding="utf-8")), encoding="utf-8")
        print(case, code)
