"""Command line entry points.

Exit codes: 0 on success, 1 when a verification finds a counterexample,
2 on usage or parse errors.  Reports are JSON lines so runs can be diffed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import dissections, endo, generators, geometry, quivers, render, signs

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Config:
    n: int
    window: int = 6
    word_cap: int = 8
    enumeration_cap: int = 6
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.n < 1 or self.window < 2 or self.word_cap < 1 or self.enumeration_cap < 1:
            raise ValueError("caps must be positive and the window at least 2")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = Config(n=args.n, window=args.window, enumeration_cap=args.cap, fmt=args.format)
    if cfg.n > cfg.enumeration_cap:
        sys.stderr.write(f"n={cfg.n} exceeds the enumeration cap {cfg.enumeration_cap}\n")
        return EXIT_USAGE
    if args.kind == "generators":
        items = generators.enumerate_limit_generators(cfg.n, up_to_equivalence=args.equiv)
        if args.render == "svg":
            for g in items:
                sys.stdout.write(render.arc_diagram_svg(g))
            return EXIT_OK
        records = [g.to_json() for g in items]
    else:
        items = dissections.enumerate_extended_dissections(cfg.n)
        if args.equiv:
            seen: set[str] = set()
            kept = []
            for d in items:
                key = dissections.canonical_dissection_key(d)
                if key not in seen:
                    seen.add(key)
                    kept.append(d)
            items = kept
        if args.render == "svg":
            for d in items:
                sys.stdout.write(render.dissection_svg(d))
            return EXIT_OK
        records = [d.to_json() for d in items]
    if cfg.fmt == "csv":
        sys.stdout.write("index,record\n")
        for i, r in enumerate(records):
            sys.stdout.write(f"{i},\"{json.dumps(r, sort_keys=True)}\"\n")
    else:
        for r in records:
            _emit(r)
    return EXIT_OK


def cmd_quiver(args: argparse.Namespace) -> int:
    try:
        with open(args.source) as fh:
            d = dissections.DissectionSet.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"cannot read dissection: {exc}\n")
        return EXIT_USAGE
    kb = quivers.keyboard_from_extended(d)
    if args.format == "dot":
        sys.stdout.write(quivers.quiver_to_dot(kb))
    else:
        piano = quivers.piano_from_keyboard(kb)
        _emit(piano.to_json())
    return EXIT_OK


def cmd_homtable(args: argparse.Namespace) -> int:
    from .homs import HomDegreeTable

    try:
        source = geometry.Arc.from_json(json.loads(args.source), args.n)
        target = geometry.Arc.from_json(json.loads(args.target), args.n)
    except (ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"cannot parse arcs: {exc}\n")
        return EXIT_USAGE
    table = HomDegreeTable.build(source, target, args.window)
    if args.format == "csv":
        for row in table.to_csv_rows():
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        _emit(table.to_json())
    return EXIT_OK


def _parse_choice(text: str, size: int) -> tuple[str, int]:
    slot, _, idx = text.partition(":")
    if slot not in ("beta", "delta") or not idx.isdigit():
        raise ValueError(f"choice must look like beta:1 or delta:3, got {text}")
    j = int(idx) - 1
    if not (0 <= j < size):
        raise ValueError(f"choice index out of range: {text}")
    return slot, j


def _verify_bijection(cfg: Config) -> list[dict]:
    out = []
    for n in (cfg.n,):
        gens = generators.enumerate_limit_generators(n)
        dissns = dissections.enumerate_extended_dissections(n)
        round_trips = all(
            sorted(
                dissections.generator_from_dissection(
                    dissections.dissection_from_generator(list(g), n)
                ),
                key=geometry.Arc.sort_key,
            )
            == list(g.arcs)
            for g in gens
        )
        images = {dissections.dissection_from_generator(list(g), n).dumps() for g in gens}
        targets = {d.dumps() for d in dissns}
        out.append(
            {
                "check": "bijection",
                "n": n,
                "generators": len(gens),
                "dissections": len(dissns),
                "passed": round_trips and images == targets,
            }
        )
    return out


def _verify_path_algebra(cfg: Config) -> list[dict]:
    out = []
    for n in (cfg.n,):
        for g in generators.enumerate_limit_generators(n):
            report = endo.verify_path_algebra_iso(list(g), n, window=cfg.window)
            entry = {"check": "path-algebra-iso", "n": n, "passed": report.passed}
            if not report.passed:
                entry["witnesses"] = report.to_json()["mismatches"][:3]
            out.append(entry)
    return out


def _verify_piano_as_paths(cfg: Config) -> list[dict]:
    out = []
    for n in (cfg.n,):
        for g in generators.enumerate_limit_generators(n):
            p = endo.piano_of_generator(list(g), n)
            ok = True
            for i in range(-cfg.window, cfg.window + 1):
                expected = quivers.degree_component_structure(p, i)
                actual = [
                    [quivers.graded_dim(p, a, b, i) for b in range(p.num_vertices)]
                    for a in range(p.num_vertices)
                ]
                if expected != actual:
                    ok = False
                    break
            out.append({"check": "piano-as-paths", "n": n, "passed": ok})
    return out


def _verify_beta_delta(cfg: Config) -> list[dict]:
    out = []
    for n in (cfg.n,):
        for g in generators.enumerate_limit_generators(n):
            arcs = signs.order_for_cone_blocks(list(g))
            for matrix in signs.both_signed_matrices(arcs):
                report = signs.check_beta_delta(matrix, arcs)
                entry = {"check": "beta-delta", "n": n, "passed": report.passed}
                if not report.passed:
                    entry["witnesses"] = report.to_json()["failures"][:3]
                out.append(entry)
    return out


def _verify_derived_equiv(cfg: Config) -> list[dict]:
    out = []
    window = min(cfg.window, 4)
    for n in (cfg.n,):
        for g in generators.enumerate_limit_generators(n):
            arcs = signs.order_for_cone_blocks(list(g))
            for matrix in signs.both_signed_matrices(arcs):
                report = signs.verify_phi_homomorphism(arcs, matrix, window=window)
                entry = {"check": "derived-equiv", "n": n, "passed": report.passed}
                if not report.passed:
                    entry["witnesses"] = report.to_json()["failures"][:3]
                out.append(entry)
    return out


def _verify_confluence(cfg: Config) -> list[dict]:
    from .confluence import confluence_report

    out = []
    for n in (min(cfg.n, 3),):  # word growth makes larger sizes impractical here
        for g in generators.enumerate_limit_generators(n):
            p = endo.piano_of_generator(list(g), n)
            ok, witness = confluence_report(p, max_length=min(cfg.word_cap, 8))
            entry = {"check": "confluence", "n": n, "passed": ok}
            if witness is not None:
                entry["witness"] = repr(witness)
            out.append(entry)
    return out


VERIFIERS = {
    "bijection": _verify_bijection,
    "path-algebra-iso": _verify_path_algebra,
    "piano-as-paths": _verify_piano_as_paths,
    "beta-delta": _verify_beta_delta,
    "derived-equiv": _verify_derived_equiv,
    "confluence": _verify_confluence,
}


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = Config(n=args.n, window=args.window, word_cap=args.word_cap)
    which = args.which
    names = list(VERIFIERS) if which == "all" else [which]
    all_passed = True
    for name in names:
        if args.choice is not None and name in ("beta-delta", "derived-equiv"):
            # A specific initial choice: run only the requested matrices.
            try:
                choice = _parse_choice(args.choice, 2 * cfg.n - 1)
            except ValueError as exc:
                sys.stderr.write(str(exc) + "\n")
                return EXIT_USAGE
            for n in (cfg.n,):
                for g in generators.enumerate_limit_generators(n):
                    arcs = signs.order_for_cone_blocks(list(g))
                    matrix = signs.signed_matrix(arcs, choice)
                    if name == "beta-delta":
                        report = signs.check_beta_delta(matrix, arcs)
                    else:
                        report = signs.verify_phi_homomorphism(
                            arcs, matrix, window=min(cfg.window, 4)
                        )
                    record = {"check": name, "n": n, "passed": report.passed}
                    if not report.passed:
                        record["witnesses"] = report.to_json()["failures"][:3]
                        all_passed = False
                    _emit(record)
            continue
        for record in VERIFIERS[name](cfg):
            if not record["passed"]:
                all_passed = False
            _emit(record)
    return EXIT_OK if all_passed else EXIT_FAILED


def cmd_render(args: argparse.Namespace) -> int:
    try:
        with open(args.source) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_USAGE
    kind, fmt = args.kind, args.format
    try:
        if kind == "arc-diagram":
            arcset = geometry.ArcSet.from_json(payload)
            if fmt != "svg":
                raise ValueError("arc diagrams render to svg only")
            sys.stdout.write(render.arc_diagram_svg(arcset))
        elif kind == "dissection":
            d = dissections.DissectionSet.from_json(payload)
            sys.stdout.write(
                render.dissection_svg(d) if fmt == "svg" else render.dissection_tikz(d)
            )
        elif kind == "quiver":
            d = dissections.DissectionSet.from_json(payload)
            kb = quivers.keyboard_from_extended(d)
            if fmt != "dot":
                raise ValueError("quivers render to dot")
            sys.stdout.write(render.keyboard_dot(kb))
        else:
            raise ValueError(f"unknown figure kind {kind}")
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    return EXIT_OK


def _window_from_env() -> int:
    """The default degree window: ``PIANO_CAT_WINDOW`` if set, else 6."""
    raw = os.environ.get("PIANO_CAT_WINDOW", "6")
    try:
        window = int(raw)
    except ValueError:
        window = 0
    if window < 2:
        raise ValueError(f"PIANO_CAT_WINDOW must be an integer of at least 2, got {raw!r}")
    return window


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="piano-cat")
    default_window = _window_from_env()
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list limit generators or dissections")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--equiv", action="store_true")
    p_enum.add_argument("--kind", choices=["generators", "dissections"], default="generators")
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.add_argument("--render", choices=["svg"], default=None)
    p_enum.add_argument("--cap", type=int, default=6)
    p_enum.add_argument("--window", type=int, default=default_window)
    p_enum.set_defaults(func=cmd_enumerate)

    p_quiver = sub.add_parser("quiver", help="quiver of a dissection file")
    p_quiver.add_argument("--from", dest="source", required=True)
    p_quiver.add_argument("--format", choices=["dot", "json"], default="json")
    p_quiver.set_defaults(func=cmd_quiver)

    p_hom = sub.add_parser("homtable", help="degreewise hom dimensions between two arcs")
    p_hom.add_argument("--n", type=int, required=True)
    p_hom.add_argument("--source", required=True, help="arc as JSON")
    p_hom.add_argument("--target", required=True, help="arc as JSON")
    p_hom.add_argument("--window", type=int, default=default_window)
    p_hom.add_argument("--format", choices=["json", "csv"], default="json")
    p_hom.set_defaults(func=cmd_homtable)

    p_verify = sub.add_parser("verify", help="run structural verifications")
    p_verify.add_argument(
        "which",
        choices=sorted(VERIFIERS) + ["all"],
    )
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--window", type=int, default=default_window)
    p_verify.add_argument("--word-cap", type=int, default=8)
    p_verify.add_argument("--choice", default=None, help="initial sign choice, e.g. beta:5")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="draw a figure")
    p_render.add_argument("--input", dest="source", required=True)
    p_render.add_argument(
        "--kind", choices=["arc-diagram", "dissection", "quiver"], required=True
    )
    p_render.add_argument("--format", choices=["svg", "tikz", "dot"], default="svg")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
