"""Golden `rorc verify --json` reports, compared byte for byte.

Each case runs the CLI with ``--json --out`` and compares the written file
and the exit code with the golden under tests/data/reports/.  Reports are
deterministic functions of the configuration, so any change in a count, a
recorded violation, a key or the key order shows up here.

Regenerate the goldens (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_reports.py``.
"""

import os
from pathlib import Path

import pytest

from rorc.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "reports"

# name -> (verify arguments, exit code)
CASES = {
    "running_sample": (
        ["-d", "7,5,2,3,5,1,2,6,5", "--mode", "sample", "--field", "32003",
         "--trials", "20", "--seed", "1"], 1),
    "d132_exhaustive": (
        ["-d", "1,3,2", "--mode", "exhaustive", "--field", "2"], 1),
    "d333_sample": (
        ["-d", "3,3,3", "--mode", "sample", "--trials", "200", "--seed", "7"], 0),
    "d212_exhaustive_all": (
        ["-d", "2,1,2", "--mode", "exhaustive", "--field", "2",
         "--checks", "counts,theorem,lemmas"], 0),
    "d221_sample_lemmas": (
        ["-d", "2,2,1", "--mode", "sample", "--field", "32003", "--trials", "50",
         "--seed", "3", "--checks", "lemmas"], 1),
    "d5_exhaustive": (["-d", "5", "--mode", "exhaustive"], 0),
    "d5_sample": (["-d", "5", "--mode", "sample"], 0),
}


def _run(name: str, path: Path) -> int:
    argv, _ = CASES[name]
    return main(["verify", *argv, "--json", "--out", str(path)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("RORC_SEED", raising=False)
    out = tmp_path / f"{name}.json"
    code = _run(name, out)
    assert code == CASES[name][1]
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


if __name__ == "__main__":
    os.environ.pop("RORC_SEED", None)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        print(case, _run(case, GOLDEN_DIR / f"{case}.json"))
