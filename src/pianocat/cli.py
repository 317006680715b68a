"""Command line entry points.

Every command exits 0 on success; 1 when a verification finds a
counterexample (``verify`` only); 2 when outside input is refused, as an
``InputError`` or an argparse error, with one stderr line and no stdout;
141 when the reader closed stdout early; 3 on any other exception, an
internal error, with its traceback on stderr.  Only ``main`` maps
exceptions to exit codes.  Reports are JSON lines so runs can be diffed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

from . import confluence, dissections, endo, generators, geometry, quivers, render, signs

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# The shell's status for a writer killed by SIGPIPE (128 + 13).
EXIT_PIPE = 141


class InputError(Exception):
    """Outside input the CLI refuses; ``main`` writes its one line and exits 2."""


@contextmanager
def _input(name: str) -> Iterator[None]:
    """A parse of the outside input ``name``; what fails in it (a domain
    ``ValueError``, a missing key, a wrong shape) is the input's fault."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{name}: missing key {exc}") from None
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"{name}: {exc}") from None


# The widest window a command takes: its work grows with the window, and
# ``verify all --n 3`` at 64 runs in about a second.
MAX_WINDOW = 64


@dataclass(frozen=True)
class Config:
    n: int
    window: int = 6
    word_cap: int | None = None  # bounds nothing; kept so existing command lines parse

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("window", 2), ("word_cap", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise InputError(f"{name} must be at least {least}, got {value}")
        if self.window > MAX_WINDOW:
            raise InputError(f"window must be at most {MAX_WINDOW}, got {self.window}")


# The one syntax of an integer in outside text: ASCII digits after an
# optional minus.  ``int`` alone also takes other scripts' digits, blanks
# and underscores.
_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """``text`` as an integer, refused (``ValueError``) unless it is ``-?[0-9]+``;
    the argparse type of every integer flag."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _enumerable(cfg: Config) -> Config:
    """The config of a command that enumerates, refused above the enumeration cap."""
    if cfg.n > generators.ENUMERATION_CAP:
        raise InputError(f"n={cfg.n} exceeds the enumeration cap {generators.ENUMERATION_CAP}")
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
    with _input(f"--from {args.source!r}"), open(args.source) as fh:
        d = dissections.DissectionSet.from_json(json.load(fh))
        dissections.check_induces_admissible(d)
    kb = quivers.keyboard_from_extended(d)
    if args.format == "dot":
        sys.stdout.write(quivers.quiver_to_dot(kb))
    else:
        piano = quivers.piano_from_keyboard(kb)
        sys.stdout.write(piano.dumps() + "\n")
    return EXIT_OK


def cmd_homtable(args: argparse.Namespace) -> int:
    from .homs import HomDegreeTable

    cfg = Config(n=args.n, window=_window(args))
    with _input("--source"):
        source = geometry.Arc.from_json(json.loads(args.source), cfg.n)
    with _input("--target"):
        target = geometry.Arc.from_json(json.loads(args.target), cfg.n)
    table = HomDegreeTable.build(source, target, cfg.window)
    if args.format == "csv":
        for row in table.to_csv_rows():
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        _emit(table.to_json())
    return EXIT_OK


def _parse_choice(text: str, size: int) -> tuple[str, int]:
    slot, _, idx = text.partition(":")
    try:
        j = integer(idx) - 1
    except ValueError:  # not ``-?[0-9]+``, or more digits than ``int`` reads
        j = None
    if slot not in ("beta", "delta") or j is None:
        raise InputError(f"choice must look like beta:1 or delta:3, got {text!r}")
    if not (0 <= j < size):
        raise InputError(f"choice index out of range: {text!r}")
    return slot, j


def _window(args: argparse.Namespace) -> int:
    """``--window``; when it is not given, ``PIANO_CAT_WINDOW`` if set, else 6."""
    if args.window is not None:
        return args.window
    raw = os.environ.get("PIANO_CAT_WINDOW", "6")
    try:
        window = integer(raw)
    except ValueError:  # not ``-?[0-9]+``, or more digits than ``int`` reads
        window = 0
    if window < 2:
        raise InputError(f"PIANO_CAT_WINDOW must be an integer of at least 2, got {raw!r}")
    return window


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


def _check_record(check: str, n: int, report: endo.CheckReport) -> dict:
    """The JSON line of one check, with up to three witnesses when it failed."""
    record = {"check": check, "n": n, "passed": report.passed}
    if not report.passed:
        record["witnesses"] = report.to_json()["witnesses"][:3]
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
    return [_check_record("path-algebra-iso", ctx.n, report)]


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
        _check_record("beta-delta", ctx.n, signs.check_beta_delta(m, ctx.arcs))
        for m in ctx.matrices
    ]


def _verify_derived_equiv(ctx: GeneratorContext, cfg: Config) -> list[dict]:
    return [
        _check_record(
            "derived-equiv", ctx.n, signs.verify_phi_homomorphism(ctx.arcs, m, window=cfg.window)
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
    cfg = _enumerable(Config(n=args.n, window=_window(args), word_cap=args.word_cap))
    choice = None if args.choice is None else _parse_choice(args.choice, 2 * cfg.n - 1)
    names = list(VERIFIERS) if args.which == "all" else [args.which]
    if cfg.word_cap is not None:
        sys.stderr.write(
            "--word-cap bounds nothing: confluence is checked on words of every length\n"
        )
    all_passed = True
    for record in run_verifiers(names, cfg, choice):
        all_passed = all_passed and record["passed"]
        _emit(record)
    return EXIT_OK if all_passed else EXIT_FAILED


# The formats each figure kind renders to, and the refusal of any other.
_RENDER_FORMATS = {
    "arc-diagram": (("svg",), "arc diagrams render to svg only"),
    "dissection": (("svg", "tikz"), "dissections render to svg or tikz"),
    "quiver": (("dot",), "quivers render to dot"),
}


def cmd_render(args: argparse.Namespace) -> int:
    kind, fmt = args.kind, args.format
    formats, refusal = _RENDER_FORMATS[kind]
    if fmt not in formats:
        raise InputError(refusal)
    figure_type = geometry.ArcSet if kind == "arc-diagram" else dissections.DissectionSet
    with _input(f"--input {args.source!r}"), open(args.source) as fh:
        figure = figure_type.from_json(json.load(fh))
        if figure.n > render.RENDER_CAP:
            raise InputError(f"n={figure.n} exceeds the render cap {render.RENDER_CAP}")
        if kind == "quiver":
            dissections.check_induces_admissible(figure)
    if kind == "arc-diagram":
        sys.stdout.write(render.arc_diagram_svg(figure))
    elif kind == "quiver":
        sys.stdout.write(quivers.quiver_to_dot(quivers.keyboard_from_extended(figure)))
    elif fmt == "svg":
        sys.stdout.write(render.dissection_svg(figure))
    else:
        sys.stdout.write(render.dissection_tikz(figure))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``InputError``s of one line."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="piano-cat")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list limit generators or dissections")
    p_enum.add_argument("--n", type=integer, required=True)
    p_enum.add_argument("--equiv", action="store_true")
    p_enum.add_argument("--kind", choices=["generators", "dissections"], default="generators")
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.add_argument("--render", choices=["svg"])
    p_enum.set_defaults(func=cmd_enumerate)

    p_quiver = sub.add_parser("quiver", help="quiver of a dissection file")
    p_quiver.add_argument("--from", dest="source", required=True)
    p_quiver.add_argument("--format", choices=["dot", "json"], default="json")
    p_quiver.set_defaults(func=cmd_quiver)

    p_hom = sub.add_parser("homtable", help="degreewise hom dimensions between two arcs")
    p_hom.add_argument("--n", type=integer, required=True)
    p_hom.add_argument("--source", required=True, help="arc as JSON")
    p_hom.add_argument("--target", required=True, help="arc as JSON")
    p_hom.add_argument("--window", type=integer)
    p_hom.add_argument("--format", choices=["json", "csv"], default="json")
    p_hom.set_defaults(func=cmd_homtable)

    p_verify = sub.add_parser("verify", help="run structural verifications")
    p_verify.add_argument(
        "which",
        choices=sorted(VERIFIERS) + ["all"],
    )
    p_verify.add_argument("--n", type=integer, required=True)
    p_verify.add_argument("--window", type=integer)
    p_verify.add_argument("--word-cap", type=integer)
    p_verify.add_argument(
        "--choice", help="initial sign choice of beta-delta and derived-equiv, e.g. beta:5"
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
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # ``--help``; argparse's errors are ``InputError``s
        return EXIT_OK
    except InputError as exc:  # one line, even when it quotes an argument with a newline
        sys.stderr.write(" ".join(str(exc).splitlines()) + "\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  That is no
        # counterexample, so not exit 1; what is still buffered, and the
        # flush at exit, go to the null device instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
