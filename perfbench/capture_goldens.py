"""Capture the exact F_2 counts that gate the scan-f2 workload.

Runs ``rorc verify --mode exhaustive --field 2 --checks theorem`` on every
composition the workload can draw and writes the ``theorem_exhaustive``
counts to ``perfbench/data/goldens.json``.  The counts are exact and depend
only on the mathematics, so they are captured once, on a trusted commit:

    python3 perfbench/capture_goldens.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rorc.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for parts in workloads.SCAN_FIXED + workloads.SCAN_POOL:
            key = ",".join(map(str, parts))
            code = rorc.cli.main(["verify", "-d", key, "--mode", "exhaustive", "--field", "2",
                                  "--checks", "theorem", "--json", "--out", str(out)])
            check = json.loads(out.read_text(encoding="utf-8"))["checks"][0]
            if code != 0 or not check["passed"]:
                print(f"error: theorem_exhaustive failed on {key}", file=sys.stderr)
                return 1
            counts[key] = {k: check["counts"][k] for k in workloads.GOLDEN_KEYS}
            print(key, counts[key]["total"], flush=True)
    workloads.GOLDENS.write_text(json.dumps({"field": 2, "counts": counts}, indent=1) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
