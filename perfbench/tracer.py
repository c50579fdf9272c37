"""Span tracing of rorc's layers from outside the package.

``Tracer.install`` wraps each layer entry point at every place a caller looks
it up: the attribute of every loaded ``rorc`` module bound to the function
(callers that import a name keep their own binding), or the class attribute
for methods.  ``uninstall`` restores the originals, so untraced calls run the
unmodified program.  A span is ``[name, start, end, parent, call, count, ops]``
and spans stay in memory until ``dump``.  The span name's first component is
its layer.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes patch the class
TARGETS = [
    ("rorc.verify", "check_theorem_sampled", "verify.check_theorem_sampled"),
    ("rorc.verify", "check_theorem_exhaustive", "verify.check_theorem_exhaustive"),
    ("rorc.verify", "check_lemmas", "verify.check_lemmas"),
    ("rorc.verify", "check_component_count", "verify.check_component_count"),
    ("rorc.strata", "window_tables", "strata.window_tables"),
    ("rorc.strata", "rank_tables", "strata.rank_tables"),
    ("rorc.strata", "defect_flags", "strata.defect_flags"),
    ("rorc.strata", "witness", "strata.witness"),
    ("rorc.strata", "defect_profile", "strata.defect_profile"),
    ("rorc.strata", "in_stratum", "strata.in_stratum"),
    ("rorc._kernels", "window_rank_table", "kernels.window_rank_table"),
    ("rorc._kernels", "decode_matrices", "kernels.decode_matrices"),
    ("rorc.matrices", "ExactMatrix.rank", "matrices.rank"),
    ("rorc.matrices", "ExactMatrix.mul", "matrices.mul"),
    ("rorc.diagrams", "complete_diagram", "diagrams.complete_diagram"),
    ("rorc.diagrams", "tableau_diagram", "diagrams.tableau_diagram"),
    ("rorc.diagrams", "max_window_rank", "diagrams.max_window_rank"),
    ("rorc.diagrams", "subdiagram", "diagrams.subdiagram"),
    ("rorc.diagrams", "richardson_element", "diagrams.richardson_element"),
    ("rorc.diagrams", "LineDiagram.__post_init__", "diagrams.LineDiagram"),
    ("rorc.diagrams", "LineDiagram.to_matrix", "diagrams.to_matrix"),
    ("rorc.diagrams", "LineDiagram.chains", "diagrams.chains"),
    ("rorc.tableaux", "minimal_movement", "tableaux.minimal_movement"),
    ("rorc.compositions", "kappa", "compositions.kappa"),
    ("rorc.compositions", "gamma_pairs", "compositions.gamma_pairs"),
    ("rorc.compositions", "lambda_pairs", "compositions.lambda_pairs"),
    ("rorc.compositions", "low_intermediates", "compositions.low_intermediates"),
    ("rorc.compositions", "high_intermediates", "compositions.high_intermediates"),
    ("rorc.compositions", "richardson_partition", "compositions.richardson_partition"),
    ("rorc.compositions", "conjugate", "compositions.conjugate"),
    ("rorc.compositions", "dominance_leq", "compositions.dominance_leq"),
]


def _batch(mats) -> int:
    shape = getattr(mats, "shape", ())
    return int(shape[0]) if len(shape) == 3 else 1


def _rank_tables_work(args):
    """Matrices ranked, and the nominal elimination work sum(s^3) over
    matrices x windows x powers, computed from the shapes."""
    mats, tab = args[0], args[1]
    nb = _batch(mats)
    sizes = tab.stops - tab.starts
    return nb, nb * int((sizes ** 3 * tab.spans).sum())


COUNTERS = {
    "strata.rank_tables": _rank_tables_work,
    "kernels.window_rank_table": lambda args: (_batch(args[0]), 0),
    "kernels.decode_matrices": lambda args: (int(args[1]), 0),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, count: int = 0, ops: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call, count, ops])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            count, ops = counter(args) if counter else (0, 0)
            idx = self.open(name, count, ops)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "rorc" or key.startswith("rorc.")]
        for modname, attr, name in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "call",
                                          "count", "ops"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans: list[list], population: int, traced_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from finished spans.

    Per-name totals skip spans nested in a span of the same name, and layer
    totals skip spans nested in the same layer, so no interval counts twice.
    Self time is duration minus the durations of direct children.
    """
    child_s = [0.0] * len(spans)
    in_witness = [False] * len(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    count: dict[str, int] = {}
    ops: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    layer_s: dict[str, float] = {}
    screened = 0
    for idx, (name, start, end, parent, _call, n, w) in enumerate(spans):
        dur = end - start
        pname = spans[parent][0] if parent >= 0 else ""
        if parent >= 0:
            child_s[parent] += dur
        in_witness[idx] = name == "strata.witness" or (parent >= 0 and in_witness[parent])
        if name == "strata.rank_tables" and in_witness[idx] and pname != name:
            screened += n
        if pname != name:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur
            count[name] = count.get(name, 0) + n
            ops[name] = ops.get(name, 0) + w
        layer = name.split(".", 1)[0]
        if pname.split(".", 1)[0] != layer:
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_s[layer] = layer_s.get(layer, 0.0) + dur
    for idx, span in enumerate(spans):
        self_s[span[0]] = self_s.get(span[0], 0.0) + (span[2] - span[1]) - child_s[idx]

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    kern = "kernels.window_rank_table"
    rank = "strata.rank_tables"
    witness_calls = calls.get("strata.witness", 0)
    out = {
        f"{kern}.calls": (calls.get(kern, 0), "count"),
        f"{kern}.matrices": (count.get(kern, 0), "count"),
        f"{kern}.s": (secs.get(kern, 0.0), "s"),
        f"{kern}.matrices_per_s": (ratio(count.get(kern, 0), secs.get(kern, 0.0)), "1/s"),
        f"{kern}.nominal_ops": (ops.get(rank, 0), "count"),
        "kernels.decode_matrices.calls": (calls.get("kernels.decode_matrices", 0), "count"),
        "kernels.decode_matrices.matrices": (count.get("kernels.decode_matrices", 0), "count"),
        "kernels.decode_matrices.s": (secs.get("kernels.decode_matrices", 0.0), "s"),
        "verify.check.calls": (total(calls, "verify.check"), "count"),
        "verify.self_s": (total(self_s, "verify.check"), "s"),
        "verify.population_matrices": (population, "count"),
        "verify.rank_passes": (ratio(count.get(rank, 0), population), "ratio"),
        "strata.window_tables.calls": (calls.get("strata.window_tables", 0), "count"),
        "strata.window_tables.s": (secs.get("strata.window_tables", 0.0), "s"),
        f"{rank}.calls": (calls.get(rank, 0), "count"),
        f"{rank}.matrices": (count.get(rank, 0), "count"),
        f"{rank}.s": (secs.get(rank, 0.0), "s"),
        f"{rank}.batch_mean": (ratio(count.get(rank, 0), calls.get(rank, 0)), "count"),
        "strata.defect_flags.s": (secs.get("strata.defect_flags", 0.0), "s"),
        "strata.witness.calls": (witness_calls, "count"),
        "strata.witness.self_s": (self_s.get("strata.witness", 0.0), "s"),
        "strata.witness.candidates_screened": (screened, "count"),
        "strata.witness.candidates_per_witness": (ratio(screened, witness_calls), "ratio"),
        "strata.defect_profile.s": (secs.get("strata.defect_profile", 0.0), "s"),
        "strata.in_stratum.calls": (calls.get("strata.in_stratum", 0), "count"),
        "strata.in_stratum.s": (secs.get("strata.in_stratum", 0.0), "s"),
        "matrices.rank.calls": (calls.get("matrices.rank", 0), "count"),
        "matrices.rank.s": (secs.get("matrices.rank", 0.0), "s"),
        "matrices.mul.calls": (calls.get("matrices.mul", 0), "count"),
        "matrices.mul.s": (secs.get("matrices.mul", 0.0), "s"),
        "diagrams.calls": (layer_calls.get("diagrams", 0), "count"),
        "diagrams.s": (layer_s.get("diagrams", 0.0), "s"),
        "tableaux.minimal_movement.calls": (calls.get("tableaux.minimal_movement", 0), "count"),
        "tableaux.minimal_movement.s": (secs.get("tableaux.minimal_movement", 0.0), "s"),
        "compositions.calls": (layer_calls.get("compositions", 0), "count"),
        "compositions.s": (layer_s.get("compositions", 0.0), "s"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
    }
    return out
