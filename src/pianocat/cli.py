"""Command line entry points.

Exit codes: 0 on success, 1 when a verification finds a counterexample,
2 on usage or parse errors, 3 when a check raises instead of reporting (an
internal error; its traceback goes to stderr).  Reports are JSON lines so
runs can be diffed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

from . import confluence, dissections, endo, generators, geometry, quivers, render, signs

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# The shell's status for a writer killed by SIGPIPE (128 + 13).
EXIT_PIPE = 141


@dataclass(frozen=True)
class Config:
    n: int
    window: int = 6
    word_cap: int | None = None  # bounds nothing; kept so existing command lines parse

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("window", 2), ("word_cap", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def _enumerable(cfg: Config) -> Config:
    """The config of a command that enumerates, refused above the enumeration cap."""
    if cfg.n > generators.ENUMERATION_CAP:
        raise ValueError(f"n={cfg.n} exceeds the enumeration cap {generators.ENUMERATION_CAP}")
    return cfg


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = _enumerable(Config(n=args.n))
    if args.kind == "generators":
        items = generators.enumerate_limit_generators(cfg.n, up_to_equivalence=args.equiv)
        draw = render.arc_diagram_svg
    else:
        items = dissections.enumerate_extended_dissections(cfg.n)
        if args.equiv:
            # Each class's least dumps(), in that order, whatever the enumeration order.
            items = sorted(items, key=dissections.DissectionSet.dumps)
            items = dissections.rotation_class_representatives(items, items)
        draw = render.dissection_svg
    if args.render == "svg":
        for item in items:
            sys.stdout.write(draw(item))
        return EXIT_OK
    # Each record is written as it is made, so no list of records is held.
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("index", "record"))
        writer.writerows((i, item.dumps()) for i, item in enumerate(items))
    else:
        for item in items:
            sys.stdout.write(item.dumps() + "\n")
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
        sys.stdout.write(piano.dumps() + "\n")
    return EXIT_OK


def cmd_homtable(args: argparse.Namespace) -> int:
    from .homs import HomDegreeTable

    cfg = Config(n=args.n, window=args.window)
    try:
        source = geometry.Arc.from_json(json.loads(args.source), cfg.n)
        target = geometry.Arc.from_json(json.loads(args.target), cfg.n)
    except (ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"cannot parse arcs: {exc}\n")
        return EXIT_USAGE
    table = HomDegreeTable.build(source, target, cfg.window)
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


@dataclass(frozen=True)
class GeneratorContext:
    """One limit generator and the objects the checks read, each built at most once.

    Every object indexes the summands in one order, the cone-block order of
    ``arcs``.  ``choice`` is the initial sign choice of ``--choice``; without
    one, both essentially different signed matrices are checked.
    """

    generator: geometry.ArcSet
    choice: tuple[str, int] | None = None

    @property
    def n(self) -> int:
        return self.generator.n

    @cached_property
    def arcs(self) -> list[geometry.Arc]:
        """The summands in cone-block order, as the signed matrices index them."""
        return signs.order_for_cone_blocks(list(self.generator))

    @cached_property
    def piano(self) -> quivers.PianoQuiver:
        return endo.piano_of_generator(self.arcs, self.n)

    @cached_property
    def algebra(self) -> endo.EndoAlgebra:
        return endo.EndoAlgebra.from_arcs(self.arcs, self.n)

    @cached_property
    def matrices(self) -> list[signs.SignedMatrix]:
        graph = signs.sign_graph(self.algebra, self.piano)
        choices = signs.DEFAULT_CHOICES if self.choice is None else (self.choice,)
        return [signs.propagate_choice(graph, choice) for choice in choices]


def _check_record(check: str, n: int, report, failures: str) -> dict:
    """The JSON line of one check, with up to three witnesses when it failed."""
    record = {"check": check, "n": n, "passed": report.passed}
    if not report.passed:
        record["witnesses"] = report.to_json()[failures][:3]
    return record


def _verify_bijection(gens: list[geometry.ArcSet], cfg: Config) -> list[dict]:
    """The one check over the whole sweep: generators and dissections correspond."""
    round_trips, images = True, set()
    for g in gens:
        d = dissections.dissection_from_generator(g)
        back = sorted(dissections.generator_from_dissection(d), key=geometry.ARC_KEY)
        round_trips = round_trips and back == list(g.arcs)
        images.add(d.dumps())
    dissns = [d.dumps() for d in dissections.enumerate_extended_dissections(cfg.n)]
    counts = {"generators": len(gens), "dissections": len(dissns)}
    passed = round_trips and images == set(dissns)
    return [{"check": "bijection", "n": cfg.n, **counts, "passed": passed}]


def _verify_path_algebra(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    report = endo.verify_path_algebra_iso(
        ctx.arcs, ctx.n, window=cfg.window, piano=ctx.piano, algebra=ctx.algebra
    )
    return [_check_record("path-algebra-iso", ctx.n, report, "mismatches")]


def _piano_as_paths(p: quivers.PianoQuiver, window: int) -> bool:
    """Whether the degree components of the piano algebra have the predicted
    dimensions, read off one dimension row per vertex pair."""
    vertices, degrees = range(p.num_vertices), range(-window, window + 1)
    rows = [[quivers.graded_row(p, a, b, degrees) for b in vertices] for a in vertices]
    return all(
        quivers.degree_component_structure(p, i) == [[row[k] for row in by_b] for by_b in rows]
        for k, i in enumerate(degrees)
    )


def _verify_piano_as_paths(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    record = {"check": "piano-as-paths", "n": ctx.n, "passed": True}
    try:
        record["passed"] = _piano_as_paths(ctx.piano, cfg.window)
    except quivers.QuiverError as exc:
        # A piano whose degree components have no predicted structure fails.
        record.update(passed=False, witness=str(exc))
    return [record]


def _verify_beta_delta(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    return [
        _check_record("beta-delta", ctx.n, signs.check_beta_delta(m, ctx.arcs), "failures")
        for m in ctx.matrices
    ]


def _verify_derived_equiv(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    return [
        _check_record(
            "derived-equiv",
            ctx.n,
            signs.verify_phi_homomorphism(ctx.arcs, m, window=cfg.window),
            "failures",
        )
        for m in ctx.matrices
    ]


def _verify_confluence(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    ok, witness = confluence.critical_pair_report(ctx.piano)
    record = {"check": "confluence", "n": ctx.n, "passed": ok}
    if witness is not None:
        record["witness"] = repr(witness)  # an unjoined pair, or a rule instance
    return [record]


# ``bijection`` reads the enumerated generators; every other check reads one
# generator's context.
VERIFIERS: dict[str, Callable[..., list[dict]]] = {
    "bijection": _verify_bijection,
    "path-algebra-iso": _verify_path_algebra,
    "piano-as-paths": _verify_piano_as_paths,
    "beta-delta": _verify_beta_delta,
    "derived-equiv": _verify_derived_equiv,
    "confluence": _verify_confluence,
}


def run_verifiers(
    names: list[str], cfg: Config, choice: tuple[str, int] | None = None
) -> Iterator[dict]:
    """The records of the named checks, in check order.

    The generators are enumerated once and walked once: each generator's
    context is built, read by every requested check, and dropped, so at most
    one context is alive.  ``bijection`` runs on the enumeration before the
    walk, and its records are yielded then if it comes first.  The first
    walked check's records are yielded as they are made; the others' are
    held until the walk ends.
    """
    gens = generators.enumerate_limit_generators(cfg.n)
    held: dict[str, list[dict]] = {name: [] for name in names}
    if "bijection" in held:
        held["bijection"] = VERIFIERS["bijection"](gens, cfg)
    walked = [name for name in names if name != "bijection"]
    # Only bijection, whose records are ready, can come before the first walked check.
    first = names.index(walked[0]) if walked else len(names)
    for name in names[:first]:
        yield from held[name]
    for g in gens:
        ctx = GeneratorContext(g, choice)
        for name in walked:
            records = VERIFIERS[name](ctx, cfg)
            if name == walked[0]:
                yield from records
            else:
                held[name].extend(records)
    for name in names[first + 1 :]:
        yield from held[name]


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _enumerable(Config(n=args.n, window=args.window, word_cap=args.word_cap))
    choice = None if args.choice is None else _parse_choice(args.choice, 2 * cfg.n - 1)
    names = list(VERIFIERS) if args.which == "all" else [args.which]
    if cfg.word_cap is not None:
        sys.stderr.write(
            "--word-cap bounds nothing: confluence is checked on words of every length\n"
        )
    all_passed = True
    try:
        for record in run_verifiers(names, cfg, choice):
            if not record["passed"]:
                all_passed = False
            _emit(record)
    except BrokenPipeError:
        raise  # the reader left; ``main`` handles it
    except Exception:
        # Bad input was refused above, so a check that raises is a defect.
        traceback.print_exc()
        return EXIT_INTERNAL
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
            figure = geometry.ArcSet.from_json(payload)
        elif kind in ("dissection", "quiver"):
            figure = dissections.DissectionSet.from_json(payload)
        else:
            raise ValueError(f"unknown figure kind {kind}")
        if figure.n > render.RENDER_CAP:
            raise ValueError(f"n={figure.n} exceeds the render cap {render.RENDER_CAP}")
        if kind == "arc-diagram":
            if fmt != "svg":
                raise ValueError("arc diagrams render to svg only")
            sys.stdout.write(render.arc_diagram_svg(figure))
        elif kind == "dissection":
            if fmt == "dot":
                raise ValueError("dissections render to svg or tikz")
            sys.stdout.write(
                render.dissection_svg(figure) if fmt == "svg" else render.dissection_tikz(figure)
            )
        else:
            kb = quivers.keyboard_from_extended(figure)
            if fmt != "dot":
                raise ValueError("quivers render to dot")
            sys.stdout.write(quivers.quiver_to_dot(kb))
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
    p_verify.add_argument("--word-cap", type=int, default=None)
    p_verify.add_argument(
        "--choice",
        default=None,
        help="initial sign choice of beta-delta and derived-equiv, e.g. beta:5",
    )
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
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  That is no
        # counterexample, so not exit 1; what is still buffered, and the
        # flush at exit, go to the null device instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
