"""Command-line front end: analyze, diagram, tableau, verify, witness.

Exit codes: 0 success / all checks pass, 1 violation found or search budget
exhausted, 2 invalid arguments or configuration.  verify and witness take
the seed from --seed, else the RORC_SEED environment variable, else 0; it
must be >= 0, and no other command reads RORC_SEED.  JSON written with
--json / --out is deterministic for a fixed invocation: it carries no timing.
Every JSON payload is one compact line, ``json.dumps(obj, separators=(",",
":"))`` in ``_emit_json``.

``build_parser`` is cached: ``main`` builds the argparse tree once per
process, on its first call, and reuses it.  Each parse starts from a fresh
namespace, and RORC_SEED is read per call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .compositions import (
    Composition,
    gamma_pairs,
    lambda_pairs,
    richardson_partition,
)
from .diagrams import chain_lengths, complete_diagram, render_ascii, subdiagram
from .matrices import ExactMatrix
from .strata import WitnessSearchError, decompose, defect_profile, separates, witness
from .tableaux import minimal_movement, richardson_tableau
from .verify import ConfigError, ExperimentConfig, run_checks


def _parse_d(text: str) -> Composition:
    try:
        return Composition(tuple(int(x) for x in text.split(",")))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad composition {text!r}: {exc}") from exc


def _parse_pair(text: str) -> tuple[int, int]:
    """Two integers 'i,j'; the caller checks their range against d."""
    try:
        i, j = (int(x) for x in text.split(","))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad pair {text!r}; expected 'i,j'") from exc
    return i, j


def _default_seed() -> int:
    raw = os.environ.get("RORC_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        raise ConfigError(f"RORC_SEED must be an integer, got {raw!r}") from None


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, separators=(",", ":")), out)


def _emit(payload: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
    else:
        print(payload)


def _fmt_pairs(pairs) -> str:
    return " ".join(f"({i},{j})" for i, j in sorted(pairs)) or "-"


def _cmd_analyze(args) -> int:
    d = _parse_d(args.d)
    dec = decompose(d)
    if args.json:
        _emit_json(dec.to_json_dict(), args.out)
        return 0
    lines = [
        f"d = {d}   n = {d.n}   t = {d.t}",
        f"lambda(d) = {richardson_partition(d)}",
        f"Gamma(d)  = {_fmt_pairs(gamma_pairs(d))}",
        f"Lambda(d) = {_fmt_pairs(lambda_pairs(d))}",
        f"components: {len(dec.strata)}",
    ]
    for s in dec.strata:
        lines.append(
            f"  ({s.pair[0]},{s.pair[1]}): kappa={s.kappa} "
            f"rank_threshold={s.rank_threshold} codim={s.codim} mu={s.mu}"
        )
        lines.extend("      " + row for row in s.tableau.render_ascii().splitlines())
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_diagram(args) -> int:
    d = _parse_d(args.d)
    diagram = complete_diagram(d)
    label = f"complete diagram for d = {d}"
    if args.pair:
        i, j = _parse_pair(args.pair)
        diagram = subdiagram(diagram, i, j)
        label = f"subdiagram of columns {i}..{j} for d = {d}"
    if args.json:
        _emit_json({"d": list(diagram.columns.parts),
                    "edges": sorted(list(e) for e in diagram.edges),
                    "chain_lengths": list(chain_lengths(diagram))}, args.out)
        return 0
    text = f"{label}\n{render_ascii(diagram)}\nchain lengths: {chain_lengths(diagram)}"
    _emit(text, args.out)
    return 0


def _cmd_tableau(args) -> int:
    d = _parse_d(args.d)
    if args.pair:
        i, j = _parse_pair(args.pair)
        tab = minimal_movement(d, i, j).tableau
    else:
        tab = richardson_tableau(d)
    if args.json:
        _emit_json(tab.to_json_dict(), args.out)
    else:
        _emit(tab.render_ascii(), args.out)
    return 0


def _cmd_verify(args) -> int:
    d = _parse_d(args.d)
    seed = _default_seed() if args.seed is None else args.seed
    cfg = ExperimentConfig(
        d=d, mode=args.mode, fieldsize=args.field, trials=args.trials,
        seed=seed, dim_cap=args.dim_cap,
    )
    report = run_checks(cfg, [c.strip() for c in args.checks.split(",") if c.strip()])
    if args.json or args.out:
        _emit_json(report.to_json_dict(), args.out)
    if not args.json:
        print(f"d = {d}: components = {report.components}")
        for c in report.checks:
            print(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}  {c.counts}")
    return 0 if report.passed else 1


def _cmd_witness(args) -> int:
    if not args.pair:
        raise ConfigError("witness requires --pair i,j")
    d = _parse_d(args.d)
    i, j = _parse_pair(args.pair)
    if args.budget < 0:
        raise ConfigError(f"--budget must be >= 0, got {args.budget}")
    seed = _default_seed() if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if args.verify_matrix:
        try:
            with open(args.verify_matrix, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read --verify-matrix: {exc}") from exc
        # refuse a size or block mismatch before from_json_dict builds n x n rows
        meta = data if isinstance(data, dict) else {}
        n, blocks = meta.get("n"), meta.get("d")
        if isinstance(n, int) and n != d.n:
            raise ConfigError(f"--verify-matrix has n = {n}, but d = {d} has n = {d.n}")
        if isinstance(blocks, list) and blocks != list(d.parts):
            raise ConfigError(f"--verify-matrix has d = {blocks}, but -d is {d}")
        good = separates(ExactMatrix.from_json_dict(data), d, (i, j))
        if args.json:
            _emit_json({"d": list(d.parts), "pair": [i, j], "separates": good}, args.out)
        else:
            _emit(f"matrix {'separates' if good else 'does NOT separate'} stratum ({i},{j})",
                  args.out)
        return 0 if good else 1
    try:
        a = witness(d, (i, j), seed=seed, budget=args.budget)
    except WitnessSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    profile = defect_profile(a, d)
    if args.json:
        _emit_json({"d": list(d.parts), "pair": [i, j], "matrix": a.to_json_dict(),
                    "defect_profile": [list(v) for v in profile]}, args.out)
    else:
        _emit(
            f"witness for stratum ({i},{j}) of d = {d}\n{a.pretty()}\n"
            f"defect profile: {profile}",
            args.out,
        )
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rorc",
        description="Components of the complement of the dense parabolic orbit: "
                    "parameter sets, tableaux, rank thresholds, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair_help=None):
        p.add_argument("-d", required=True, help="composition, e.g. 7,5,2,3,5,1,2,6,5")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to a file")
        if pair_help:
            p.add_argument("--pair", help=pair_help)

    p = sub.add_parser("analyze", help="lambda(d), Gamma(d), Lambda(d), per-component data")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("diagram", help="render the complete line diagram")
    common(p, pair_help="window i,j: render the subdiagram of columns i..j")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("tableau", help="render the maximal tableau or a component tableau")
    common(p, pair_help="pair i,j: render the moved tableau of the pair")
    p.set_defaults(func=_cmd_tableau)

    p = sub.add_parser("verify", help="run verification checks, write a report")
    common(p)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="sample")
    p.add_argument("--field", type=int, default=2, help="prime field size")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim-cap", type=int, default=20, dest="dim_cap")
    p.add_argument(
        "--checks", default="theorem,lemmas",
        help="comma list from: theorem, lemmas, counts",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="find a separating witness for a component")
    common(p, pair_help="component pair i,j (required)")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--verify-matrix", help="check a matrix JSON file instead of searching")
    p.set_defaults(func=_cmd_witness)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:   # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
