"""rorc benchmark: four workloads driven through ``rorc.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-running --seed 1 --seconds 40 --trace 0

The load is a closed loop: one caller in this process makes sequential CLI
calls, the whole first round and then call by call, until ``--seconds``
have passed.  Every call's
output goes through the correctness gate in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import ``rorc.cli`` and rank one tiny batch),
``throughput`` (verified population matrices per second on the verify
workloads, certified witnesses per second on ``witness``), latency
percentiles over the distinct inputs of the run, and peak RSS.  Times are
host-normalized with the reference task of ``hostspeed.py``, which is timed
between calls; a summary line gives the same figures in plain wall-clock
time.  ``--trace 1`` runs every call twice, once plain
and once with the layer tracer of ``tracer.py``, alternating which goes
first, and prints per-layer metrics; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment block and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs in a fresh interpreter: import the CLI and rank one tiny batch, which
# is where import-time work or a JIT compile would land.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import rorc.cli
from rorc import Composition
from rorc.strata import rank_tables, window_tables
d = Composition.of(2, 1, 2)
rank_tables(np.zeros((1, d.n, d.n), dtype=np.int64), window_tables(d), 32003)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-running", "verify-population", "scan-f2", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(reference) -> tuple[float, float]:
    """One fresh interpreter's set-up time, raw and host-normalized."""
    def probe():
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    wall, moment = reference.around(probe)
    return wall, reference.normalize(wall, moment)


# ---------------------------------------------------------------------------
# environment block

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rorc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    import rorc

    kernels = sys.modules.get("rorc._kernels")
    numba = importlib.util.find_spec("numba") is not None
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rorc": getattr(rorc, "__version__", None),
        "backend": getattr(kernels, "BACKEND", None),
        "numba_importable": numba,
        "numba_note": None if numba else
            "numba is not installed; numba-backend speed is not measured",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs rounds of CLI calls and gates each call's output."""

    def __init__(self, cli_main, gate, workdir: Path, tracer=None, reference=None):
        self.cli_main = cli_main
        self.gate = gate                   # gate(call, exit_code, payload) -> (work, reason)
        self.out_path = workdir / "out.json"
        self.tracer = tracer
        self.reference = reference         # hostspeed.Reference, sampled between calls
        self.attempted = 0
        self.failures: list[str] = []
        self.plain: list[tuple[tuple[str, ...], float, float]] = []  # (argv, wall s, midpoint)
        self.work = 0                      # gated work of plain executions
        self.traced_s = 0.0
        self.traced_work = 0

    @property
    def latencies(self) -> list[float]:
        return [wall for _, wall, _ in self.plain]

    def execute(self, call, traced: bool) -> None:
        self.out_path.unlink(missing_ok=True)
        argv = list(call.argv) + ["--out", str(self.out_path)]
        tr = self.tracer if traced else None
        if tr is not None:
            tr.call += 1
            tr.install()
            span = tr.open("cli.main")
        elif self.reference is not None:
            self.reference.maybe_sample()
        code = None
        start = time.perf_counter()
        try:
            code = self.cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            if tr is not None:
                tr.close(span)
                tr.uninstall()
        elapsed = end - start
        self.attempted += 1
        payload = None
        if self.out_path.is_file():
            try:
                payload = json.loads(self.out_path.read_text(encoding="utf-8"))
            except ValueError:
                payload = None
        work, reason = self.gate(call, code, payload)
        if reason is not None:
            self.failures.append(f"{' '.join(call.argv)}: {reason}")
        if traced:
            self.traced_s += elapsed
            self.traced_work += work
        else:
            self.plain.append((call.argv, elapsed, (start + end) / 2))
            self.work += work

    def run(self, rounds, seconds: float) -> None:
        """Whole first round, then single calls until ``seconds`` have passed."""
        start = time.perf_counter()
        if self.reference is not None:
            self.reference.sample()
        for n, calls in enumerate(rounds):
            for call in calls:
                if self.tracer is None:
                    self.execute(call, traced=False)
                else:
                    # alternate the order so warm caches favour neither side
                    first = self.attempted % 4 == 0
                    self.execute(call, traced=first)
                    self.execute(call, traced=not first)
                if n and time.perf_counter() - start >= seconds:
                    break
            if time.perf_counter() - start >= seconds:
                break
        if self.reference is not None:
            self.reference.sample()


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timings(loop: Loop, secs: list[float], geometric: bool) -> tuple[dict, int]:
    """Throughput and latency percentiles from per-execution times ``secs``
    (parallel to ``loop.plain``).  An input's latency is the median over its
    executions; the percentiles are taken over distinct inputs.  Throughput is
    gated work per second of call time, or on a heavy-tailed workload the
    mean work per call over the geometric mean of the call times."""
    by_input: dict[tuple[str, ...], list[float]] = {}
    for (argv, _, _), sec in zip(loop.plain, secs):
        by_input.setdefault(argv, []).append(sec)
    per_input = [statistics.median(v) for v in by_input.values()]
    if geometric:
        throughput = loop.work / len(secs) / statistics.geometric_mean(secs)
    else:
        throughput = loop.work / sum(secs)
    return {"throughput": throughput,
            "call_p50_ms": statistics.median(per_input) * 1e3,
            "call_p90_ms": percentile(per_input, 90) * 1e3}, len(per_input)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rorc" / "__init__.py").is_file():
        print(f"error: no rorc package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one closed-loop caller: keep BLAS to one thread (never more than nproc)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import rorc.cli

    if not Path(rorc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rorc from {rorc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer as tracing
    import workloads

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    reference = hostspeed.Reference()
    setup = [] if args.trace else [measure_setup(reference) for _ in range(SETUP_REPEATS)]

    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        goldens = workloads.load_goldens()
        loop = Loop(rorc.cli.main, partial(workloads.check, goldens=goldens), Path(tmp), tracer,
                    None if tracer else reference)
        loop.run(workloads.WORKLOADS[args.workload](args.seed), args.seconds)

    failed = len(loop.failures)
    if tracer is None:
        geometric = args.workload in workloads.GEOMETRIC_THROUGHPUT
        raw, inputs = timings(loop, loop.latencies, geometric)
        norm, _ = timings(loop, [reference.normalize(wall, moment)
                                 for _, wall, moment in loop.plain], geometric)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "throughput": (norm["throughput"], "1/s"),
            "call_p50_ms": (norm["call_p50_ms"], "ms"),
            "call_p90_ms": (norm["call_p90_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        unit = "witnesses" if args.workload == "witness" else "matrices"
        print(f"{args.workload}: {len(loop.plain)} calls on {inputs} distinct inputs, "
              f"throughput in {unit}/s{' (geometric mean)' if geometric else ''}, "
              f"latency percentiles over the {inputs} inputs' median times, "
              f"setup over {len(setup)} interpreters, {len(reference.secs)} reference samples")
        print("wall-clock (not host-normalized): " + " ".join(
            [f"setup_s={statistics.median(w for w, _ in setup):.6g}"]
            + [f"{k}={v:.6g}" for k, v in raw.items()]))
    else:
        population = loop.traced_work if args.workload != "witness" else 0
        metrics = tracing.layer_metrics(tracer.spans, population, loop.traced_s,
                                        sum(loop.latencies))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed, "environment": env})
        print(f"{args.workload}: {len(loop.latencies)} calls traced, "
              f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print(f"failed_frac = {failed}/{loop.attempted} = {failed / loop.attempted:.6g}")
    for line in loop.failures[:10]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
