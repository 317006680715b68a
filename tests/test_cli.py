import csv
import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pianocat import cli, dissections, generators, render
from pianocat.cli import main
from pianocat.dissections import (
    DissectionSet,
    canonical_dissection_key,
    dissection_from_generator,
)
from pianocat.generators import enumerate_limit_generators, fan_generator, fan_summands
from pianocat.geometry import ArcSet
from pianocat.render import arc_diagram_svg, dissection_svg, dissection_tikz


@pytest.fixture()
def fan3_files(tmp_path):
    d = dissection_from_generator(fan_summands(3), 3)
    diss = tmp_path / "diss.json"
    diss.write_text(json.dumps(d.to_json()))
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps(fan_generator(3).to_json()))
    return str(diss), str(arcs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_counts(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--equiv")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    # Emitted JSON parses back to equal in-memory values.
    for r in records:
        assert ArcSet.from_json(r).to_json() == r


def test_enumerate_single_and_cap(capsys):
    code, out = run(capsys, "enumerate", "--n", "1")
    assert code == 0 and len(out.splitlines()) == 1
    code, _ = run(capsys, "enumerate", "--n", "9")
    assert code == 2
    # Dissections share the generators' cap instead of running unbounded.
    code, out = run(capsys, "enumerate", "--kind", "dissections", "--n", "7")
    assert code == 2 and out == ""


def test_enumerate_has_no_window_flag(capsys):
    assert main(["enumerate", "--n", "1", "--window", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_enumerate_dissections_matches_generators(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--kind", "dissections")
    assert code == 0
    records = [DissectionSet.from_json(json.loads(line)) for line in out.splitlines()]
    assert len(records) == 4


def test_dissection_classes_print_their_least_member(capsys, monkeypatch):
    code, out = run(capsys, "enumerate", "--n", "4", "--kind", "dissections", "--equiv")
    assert code == 0
    reps = [DissectionSet.from_json(json.loads(line)) for line in out.splitlines()]
    assert len(reps) == 110
    keys = [d.dumps() for d in reps]
    assert keys == sorted(keys) == [canonical_dissection_key(d) for d in reps]
    # The output depends on the classes alone, not on the enumeration order.
    enumerate_all = dissections.enumerate_extended_dissections
    for seed in range(3):

        def shuffled(n, seed=seed):
            items = enumerate_all(n)
            random.Random(seed).shuffle(items)
            return items

        monkeypatch.setattr(dissections, "enumerate_extended_dissections", shuffled)
        assert run(capsys, "enumerate", "--n", "4", "--kind", "dissections", "--equiv") == (0, out)


def test_enumerate_csv_and_svg(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,record"
    assert len(out.splitlines()) == 5
    # Each row reads back as its index and the item's JSON.
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    items = enumerate_limit_generators(2)
    assert [int(i) for i, _ in rows[1:]] == list(range(len(items)))
    assert [json.loads(record) for _, record in rows[1:]] == [g.to_json() for g in items]
    code, out = run(capsys, "enumerate", "--n", "2", "--kind", "dissections", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    assert [json.loads(record) for _, record in rows[1:]] == [
        d.to_json() for d in dissections.enumerate_extended_dissections(2)
    ]
    code, out = run(capsys, "enumerate", "--n", "1", "--render", "svg")
    assert code == 0 and out.count("<svg") == 1


@pytest.mark.parametrize("kind", ["generators", "dissections"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_writes_each_record_as_it_is_made(monkeypatch, kind, fmt):
    # Each record line is written before the next record is serialised
    # (by ``dumps``, in both formats), so the command never holds every
    # record at once.
    made, written = [0], []
    for cls in (ArcSet, DissectionSet):
        dumps = cls.dumps

        def counted(self, dumps=dumps):
            made[0] += 1
            return dumps(self)

        monkeypatch.setattr(cls, "dumps", counted)

    class Out:
        def write(self, text):
            written.extend(made[0] for _ in range(text.count("\n")))

    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["enumerate", "--n", "3", "--kind", kind, "--format", fmt]) == 0
    records = written[1:] if fmt == "csv" else written
    # The enumeration may serialise items itself; the command serialises
    # exactly one more record between two lines.
    assert len(records) == 36
    assert [b - a for a, b in zip(records, records[1:])] == [1] * 35


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import pianocat.cli as cli

    monkeypatch.setitem(
        cli.VERIFIERS,
        "bijection",
        lambda gens, cfg: [{"check": "bijection", "passed": False}],
    )
    code, out = run(capsys, "verify", "bijection", "--n", "2")
    assert code == 1
    assert json.loads(out.splitlines()[0])["passed"] is False


def test_verify_keeps_at_most_one_context_alive(monkeypatch):
    # The generators are walked once; each context is dropped before the
    # next is built, so no check ever sees two alive.
    refs = []

    class Tracked(cli.GeneratorContext):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    alive = []

    def watched(check):
        def run_check(arg, cfg):
            alive.append(sum(ref() is not None for ref in refs))
            return check(arg, cfg)

        return run_check

    monkeypatch.setattr(cli, "GeneratorContext", Tracked)
    for name, check in list(cli.VERIFIERS.items()):
        monkeypatch.setitem(cli.VERIFIERS, name, watched(check))
    records = list(cli.run_verifiers(list(cli.VERIFIERS), cli.Config(n=3)))
    assert len(refs) == 36 and len(records) == 1 + 36 * 7
    # One call of bijection before the walk, then five checks per generator.
    assert len(alive) == 1 + 5 * 36
    assert alive[0] == 0 and max(alive) == 1


def test_a_single_check_streams_its_records(monkeypatch):
    built = []

    class Counted(cli.GeneratorContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.generator)

    monkeypatch.setattr(cli, "GeneratorContext", Counted)
    records = cli.run_verifiers(["path-algebra-iso"], cli.Config(n=2, window=4))
    first = next(records)
    assert first["check"] == "path-algebra-iso" and first["passed"]
    assert len(built) == 1
    assert len(list(records)) == 3 and len(built) == 4


def test_verify_all_streams_the_first_walked_check(monkeypatch):
    # bijection is written before the walk, so under ``all`` the first
    # walked check streams: its first record comes before a second context.
    built = []

    class Counted(cli.GeneratorContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.generator)

    monkeypatch.setattr(cli, "GeneratorContext", Counted)
    records = cli.run_verifiers(list(cli.VERIFIERS), cli.Config(n=3))
    assert next(records)["check"] == "bijection" and built == []
    first = next(records)
    assert first["check"] == "path-algebra-iso" and first["passed"]
    assert len(built) == 1


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "all", "--n", "2", "--window", "4")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["passed"] is True and r["n"] == 2 for r in records)
    # One bijection record, one per generator of the per-generator checks,
    # and one per generator and sign choice of the two sign checks.
    expected = (
        ["bijection"]
        + ["path-algebra-iso"] * 4
        + ["piano-as-paths"] * 4
        + ["beta-delta"] * 8
        + ["derived-equiv"] * 8
        + ["confluence"] * 4
    )
    assert [r["check"] for r in records] == expected


@pytest.mark.parametrize("choice", [[], ["--choice", "delta:2"]])
def test_verify_all_builds_each_object_once(capsys, monkeypatch, choice):
    from pianocat import endo, quivers, signs

    calls = Counter()

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    piano_spy = spy("piano", endo.piano_of_generator)
    for module in (endo, signs):  # signs imports piano_of_generator by name
        monkeypatch.setattr(module, "piano_of_generator", piano_spy)
    algebra_spy = staticmethod(spy("algebra", endo.EndoAlgebra.from_arcs))
    monkeypatch.setattr(endo.EndoAlgebra, "from_arcs", algebra_spy)
    monkeypatch.setattr(
        quivers, "keyboard_from_extended", spy("keyboard", quivers.keyboard_from_extended)
    )
    code, _ = run(capsys, "verify", "all", "--n", "2", "--window", "4", *choice)
    size = len(enumerate_limit_generators(2))
    assert code == 0 and size == 4
    assert calls == {"piano": size, "algebra": size, "keyboard": size}


def test_in_range_verify_writes_no_stderr(capsys):
    code = main(["verify", "all", "--n", "2", "--window", "4"])
    captured = capsys.readouterr()
    assert code == 0 and len(captured.out.splitlines()) == 29
    assert captured.err == ""


def test_confluence_runs_at_the_requested_n(capsys, monkeypatch):
    code = main(["verify", "confluence", "--n", "4"])
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 0 and captured.err == ""
    assert len(records) == 416
    assert all(r == {"check": "confluence", "n": 4, "passed": True} for r in records)
    # The word cap still parses, and bounds nothing.
    code = main(["verify", "confluence", "--n", "1", "--word-cap", "2"])
    captured = capsys.readouterr()
    assert code == 0 and len(captured.out.splitlines()) == 1
    assert captured.err.splitlines() == [
        "--word-cap bounds nothing: confluence is checked on words of every length"
    ]
    # A piano without its commutation runs fails, with an unjoined pair.
    from pianocat import endo

    real = endo.piano_of_generator
    monkeypatch.setattr(
        endo, "piano_of_generator", lambda *a: dataclasses.replace(real(*a), beta_runs=())
    )
    code, out = run(capsys, "verify", "confluence", "--n", "3")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(records) == 36
    assert all(not r["passed"] and r["witness"].startswith("((") for r in records)


def test_piano_as_paths_reports_a_piano_it_cannot_read(capsys, monkeypatch):
    # With the complementary sharp set, as the path-iso negative control
    # has it, the degree components of some pianos have no predicted
    # structure: each such piano is a failing record with the reason, and
    # the run exits 1, not 3.
    from pianocat import endo, quivers

    real = endo.piano_of_generator

    def complemented(*args):
        honest = real(*args)
        sharp = frozenset(range(honest.num_vertices)) - honest.sharp
        return quivers.piano_from_keyboard(quivers.KeyboardQuiver(honest.keyboard.gentle, sharp))

    monkeypatch.setattr(endo, "piano_of_generator", complemented)
    failed = 0
    for n, count in ((2, 4), (3, 36)):
        code, out = run(capsys, "verify", "piano-as-paths", "--n", str(n))
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1 and len(records) == count
        for r in records:
            assert r["check"] == "piano-as-paths" and r["n"] == n
            if not r["passed"]:
                assert r["witness"] == "sharp vertex with unexpected incoming arrows"
                failed += 1
    assert failed == 31


def test_derived_equiv_runs_at_the_requested_window(capsys, monkeypatch):
    import pianocat.cli as cli

    windows = []
    real_check = cli.signs.verify_phi_homomorphism

    def spy(arcs, m, window, **kwargs):
        windows.append(window)
        return real_check(arcs, m, window=window, **kwargs)

    monkeypatch.setattr(cli.signs, "verify_phi_homomorphism", spy)
    code = main(["verify", "derived-equiv", "--n", "1", "--window", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert [json.loads(line)["check"] for line in captured.out.splitlines()] == [
        "derived-equiv"
    ] * 2
    assert windows == [6, 6]
    assert captured.err == ""


def test_check_that_raises_exits_3_with_traceback(capsys, monkeypatch):
    import pianocat.cli as cli
    from pianocat.endo import EndoError

    def broken(gens, cfg):
        raise EndoError("internal defect")

    monkeypatch.setitem(cli.VERIFIERS, "bijection", broken)
    code = main(["verify", "bijection", "--n", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "EndoError: internal defect" in captured.err
    # Bad input is still refused before any check runs, with exit 2.
    code = main(["verify", "bijection", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err


ARC = '[{"acc":0},{"pt":[0,3]}]'


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["enumerate", "--n", "2"], "generators", "enumerate_limit_generators"),
        (["quiver", "--from", "DISS"], "quivers", "piano_from_keyboard"),
        (["homtable", "--n", "2", "--source", ARC, "--target", ARC], "homs", "hom_dim"),
        (["render", "--kind", "dissection", "--input", "DISS"], "render", "dissection_svg"),
    ],
    ids=["enumerate", "quiver", "homtable", "render"],
)
def test_internal_defect_exits_3_in_every_command(
    capsys, monkeypatch, fan3_files, argv, module, name
):
    # A domain ``ValueError`` raised past the input boundary is a defect,
    # not a usage error: exit 3 with its traceback, whatever the command.
    target = importlib.import_module(f"pianocat.{module}")

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(target, name, broken)
    code = main([fan3_files[0] if arg == "DISS" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL and captured.out == ""
    assert "Traceback" in captured.err and "ValueError: internal defect" in captured.err


def test_import_does_not_load_numpy():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    result = subprocess.run(
        [sys.executable, "-c", "import pianocat, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_verify_with_choice(capsys):
    code, out = run(capsys, "verify", "derived-equiv", "--n", "2", "--choice", "delta:1")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out = run(capsys, "verify", "beta-delta", "--n", "2", "--choice", "delta:1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["check"] for r in records] == ["beta-delta"] * 4
    assert all(r["passed"] for r in records)


@pytest.mark.parametrize(
    "which",
    [
        "all",
        "bijection",
        "path-algebra-iso",
        "piano-as-paths",
        "beta-delta",
        "derived-equiv",
        "confluence",
    ],
)
# ``beta:²`` passes ``str.isdigit`` but not ``int``; ``delta:٣`` is read by ``int`` as 3.
@pytest.mark.parametrize("choice", ["gamma:1", "delta:4", "beta:\u00b2", "delta:\u0663"])
def test_bad_choice_rejected_before_any_check(capsys, which, choice):
    code = main(["verify", which, "--n", "2", "--choice", choice])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "choice" in captured.err


@pytest.mark.parametrize(
    "command, payload",
    [
        (["render", "--kind", "dissection"], [1, 2]),
        (["render", "--kind", "arc-diagram"], [1, 2]),
        (["render", "--kind", "quiver", "--format", "dot"], {"n": 2, "red": [[0, 2, 4]]}),
        (["quiver"], {"n": 2, "red": [[0, 2, 4]]}),
        (["quiver"], {"n": 2, "red": 5}),
        (["render", "--kind", "arc-diagram"], {"n": 2, "arcs": [[{"pt": None}, {"acc": 1}]]}),
        (["homtable", "--n", "2", "--source", "5"], None),
        (["homtable", "--n", "2", "--source", "[5, 6]"], None),
        (["homtable", "--n", "2", "--source", '[{"acc":0},{"acc":1}]', "--window", "-2"], None),
        (["homtable", "--n", "0", "--source", '[{"acc":0},{"acc":1}]'], None),
        (["render", "--kind", "arc-diagram"], {"n": 0, "arcs": []}),
        (["render", "--kind", "arc-diagram"], {"n": -1, "arcs": []}),
        (["render", "--kind", "dissection"], {"n": 0, "red": []}),
    ],
    ids=[
        "render-dissection-list",
        "render-arcs-list",
        "render-quiver-three-entry-chord",
        "quiver-three-entry-chord",
        "quiver-chords-not-a-list",
        "render-arcs-null-point",
        "homtable-arc-not-a-list",
        "homtable-point-not-an-object",
        "homtable-negative-window",
        "homtable-n-zero",
        "render-arcs-n-zero",
        "render-arcs-n-negative",
        "render-dissection-n-zero",
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, command, payload):
    argv = list(command)
    if command[0] == "homtable":
        argv += ["--target", '[{"acc":0},{"pt":[0,3]}]']
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv += ["--from" if command[0] == "quiver" else "--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


POINT_SHAPE = 'a boundary point is {"acc": i} or {"pt": [i, p]}, got '
RENDER_ARCS = ["render", "--kind", "arc-diagram", "--input"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*RENDER_ARCS, '{"n": 2}'], "missing key 'arcs'"),
        (["quiver", "--from", '{"red": []}'], "missing key 'n'"),
        (
            [*RENDER_ARCS, '{"n": 2, "arcs": [[{"zz": [1, 0]}, {"acc": 1}]]}'],
            POINT_SHAPE + "{'zz': [1, 0]}",
        ),
        (
            [*RENDER_ARCS, '{"n": 2, "arcs": [[{"pt": [1]}, {"acc": 1}]]}'],
            POINT_SHAPE + "{'pt': [1]}",
        ),
        (
            ["homtable", "--n", "2", "--source", ARC, "--target", '[{"acc":0},{"pt":[0]}]'],
            POINT_SHAPE + "{'pt': [0]}",
        ),
    ],
    ids=["arcs-key", "n-key", "point-key", "point-pair", "homtable-target"],
)
def test_refusals_name_the_input_and_what_is_missing(capsys, tmp_path, argv, message):
    # A file's refusal names its flag and path, a flag's its flag; a missing
    # key is named as such, and a point of the wrong shape shows the shape.
    argv, flag = list(argv), argv[-2]
    if flag != "--target":
        path = tmp_path / "input.json"
        path.write_text(argv[-1])
        argv[-1] = str(path)
        flag = f"{flag} {str(path)!r}"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"{flag}: {message}\n"


@pytest.mark.parametrize(
    "number", ["1e400", "0.9", "3.7", "true", '"1"'], ids=["1e400", "0.9", "3.7", "true", "string"]
)
@pytest.mark.parametrize(
    "command, template",
    [
        (["homtable", "--n", "2", "--source"], '[{"acc":0},{"pt":[0,NUMBER]}]'),
        (["homtable", "--n", "2", "--source"], '[{"acc":NUMBER},{"pt":[0,3]}]'),
        (["quiver", "--from"], '{"n": NUMBER, "red": [], "binding": []}'),
        (["quiver", "--from"], '{"n": 2, "red": [], "binding": [[0, NUMBER]]}'),
        (["render", "--kind", "dissection", "--input"], '{"n": NUMBER, "red": []}'),
        (["render", "--kind", "arc-diagram", "--input"], '{"n": NUMBER, "arcs": []}'),
    ],
    ids=[
        "homtable-position",
        "homtable-segment",
        "quiver-n",
        "quiver-chord",
        "render-dissection-n",
        "render-arcs-n",
    ],
)
def test_json_numbers_must_be_integers(capsys, tmp_path, command, template, number):
    # Neither truncated (3.7 -> 3), coerced (true -> 1) nor overflowing (1e400).
    text = template.replace("NUMBER", number)
    if command[0] == "homtable":
        argv = command + [text, "--target", '[{"acc":0},{"pt":[0,3]}]']
    else:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = command + [str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "expected an integer" in captured.err


def test_run_verification_script():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification.py"), "--max-n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["n", "generators", *cli.VERIFIERS, "seconds"]
    cells = [row.split() for row in rows]
    assert [(c[0], c[1]) for c in cells] == [("1", "1"), ("2", "4")]
    assert all(c[2:-1] == ["True"] * len(cli.VERIFIERS) for c in cells)


def _verification_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verification_script_exits_1_on_a_failing_record(monkeypatch, capsys):
    def failing(ctx, cfg):
        return [{"check": "confluence", "n": ctx.n, "passed": False}]

    monkeypatch.setitem(cli.VERIFIERS, "confluence", failing)
    assert _verification_script().main(["--max-n", "1"]) == 1
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(), row.split()))["confluence"] == "False"


@pytest.mark.parametrize(
    "argv",
    [["--max-n", "\u0663"], ["--window", "\uff14"], ["--max-n", "abc"], ["--window", "x"]],
)
def test_run_verification_script_reads_ascii_integers_only(capsys, argv):
    # Refused by the parser as ``piano-cat`` refuses a flag: exit 2 and one
    # stderr line, without the usage text.
    assert _verification_script().main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "invalid integer value" in captured.err


@pytest.mark.parametrize("argv", [["--max-n", "0"], ["--window", "1"]])
def test_run_verification_script_refuses_bad_sizes(capsys, argv):
    assert _verification_script().main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "at least" in captured.err


def test_run_verification_script_refuses_sizes_above_the_enumeration_cap(capsys, monkeypatch):
    # The cap is lowered so that a run that is not refused fails fast.
    from pianocat import generators

    monkeypatch.setattr(generators, "ENUMERATION_CAP", 2)
    assert _verification_script().main(["--max-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "n=3 exceeds the enumeration cap 2\n"


def test_quiver_dot(capsys, fan3_files):
    diss, _ = fan3_files
    code, out = run(capsys, "quiver", "--from", diss, "--format", "dot")
    assert code == 0
    assert out.count("style=solid") == 4
    assert out.count("fillcolor=black") == 3


def test_quiver_of_a_large_fan(capsys, tmp_path):
    # Faces are found without recursion, so the depth of the chord nesting
    # does not limit the input.
    n = 1024
    source = tmp_path / "fan.json"
    source.write_text(json.dumps(dissection_from_generator(fan_summands(n), n).to_json()))
    code, out = run(capsys, "quiver", "--from", str(source))
    assert code == 0
    piano = json.loads(out)
    # The bytes ``json.dumps(..., sort_keys=True)`` writes, as ``PianoQuiver.dumps`` promises.
    assert out == json.dumps(piano, sort_keys=True) + "\n"
    assert piano["vertices"] == list(range(2 * n - 1))
    assert len(piano["sharp"]) == n


def test_quiver_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "quiver", "--from", str(bad))
    assert code == 2


def test_homtable(capsys):
    code, out = run(
        capsys,
        "homtable",
        "--n",
        "2",
        "--source",
        '[{"acc":0},{"pt":[0,3]}]',
        "--target",
        '[{"acc":0},{"pt":[0,3]}]',
        "--window",
        "2",
    )
    assert code == 0
    table = json.loads(out)
    assert table["dims"] == {"-2": 1, "-1": 1, "0": 1, "1": 0, "2": 0}


def test_render_svg_structure(capsys, fan3_files):
    _, arcs = fan3_files
    code, out = run(capsys, "render", "--input", arcs, "--kind", "arc-diagram")
    assert code == 0
    assert out.count("<line") == 5
    assert out.count('stroke="red"') == 3


def test_render_dissection_refuses_dot(capsys, fan3_files):
    diss, _ = fan3_files
    code = main(["render", "--input", diss, "--kind", "dissection", "--format", "dot"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "dissections render to svg or tikz\n"


def test_render_refuses_the_format_before_reading_the_input(
    capsys, monkeypatch, tmp_path, fan3_files
):
    # ``--kind quiver`` with the default svg format: refused without opening
    # the input or building the keyboard quiver.
    def unreachable(*args):
        raise AssertionError("the keyboard quiver was built")

    monkeypatch.setattr(cli.quivers, "keyboard_from_extended", unreachable)
    for source in (fan3_files[0], str(tmp_path / "missing.json")):
        code = main(["render", "--input", source, "--kind", "quiver"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "quivers render to dot\n"


@pytest.mark.parametrize(
    "kind, fmt, key",
    [("arc-diagram", "svg", "arcs"), ("dissection", "svg", "red"), ("quiver", "dot", "red")],
)
def test_render_refuses_n_above_the_cap(capsys, tmp_path, kind, fmt, key):
    # Every kind draws the fan at the cap, and refuses one point more, or
    # a hundred million, at once with one stderr line naming the cap.
    cap = render.RENDER_CAP
    if kind == "arc-diagram":
        fan = fan_generator(cap).to_json()
    else:
        fan = dissection_from_generator(fan_summands(cap), cap).to_json()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(fan))
    code, out = run(capsys, "render", "--input", str(path), "--kind", kind, "--format", fmt)
    assert code == 0 and out
    for n in (cap + 1, 10**8):
        path.write_text(json.dumps({"n": n, key: []}))
        code = main(["render", "--input", str(path), "--kind", kind, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"n={n} exceeds the render cap {cap}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--n", "0"], "n must be at least 1, got 0"),
        (["verify", "all", "--n", "2", "--word-cap", "0"], "word_cap must be at least 1, got 0"),
        (["verify", "bijection", "--n", "1", "--window", "1"], "window must be at least 2, got 1"),
        (["verify", "bijection", "--n", "-3"], "n must be at least 1, got -3"),
        (["verify", "bijection", "--n", "1", "--window", "65"], "window must be at most 64, got 65"),
    ],
)
def test_config_errors_name_the_field(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "command", [["enumerate"]] + [["verify", which] for which in [*sorted(cli.VERIFIERS), "all"]]
)
def test_commands_that_enumerate_refuse_n_above_the_cap(capsys, command):
    # enumerate and every verify target share one check: an n above the
    # enumeration cap exits 2 with one stderr line and no traceback.
    cap = generators.ENUMERATION_CAP
    for n in (cap + 1, 9):
        code = main([*command, "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"n={n} exceeds the enumeration cap {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [[], ["enumerate", "--n", "abc"], ["render", "--kind", "nonsense", "--input", "x"],
     ["enumerate", "--n", "1", "a\nb"],
     # ``int`` reads each of these as 3 or 4: other scripts' digits, and blanks.
     ["enumerate", "--n", "\u0663"], ["enumerate", "--n", " 3"],
     ["verify", "bijection", "--n", "1", "--window", "\uff14"]],
    ids=["no-command", "n-not-int", "unknown-kind", "stray-argument-with-newline",
         "n-arabic-indic-digit", "n-with-a-blank", "window-fullwidth-digit"],
)
def test_argparse_errors_are_one_line(capsys, argv):
    # Without the usage text argparse prints above its error.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error:" in captured.err


def test_render_unknown_kind(capsys, fan3_files):
    _, arcs = fan3_files
    code = main(["render", "--input", arcs, "--kind", "nonsense"])
    assert code == 2


def test_render_deterministic():
    arcs = fan_generator(3)
    assert arc_diagram_svg(arcs) == arc_diagram_svg(fan_generator(3))
    d = dissection_from_generator(fan_summands(3), 3)
    assert dissection_svg(d) == dissection_svg(d)
    assert dissection_tikz(d).startswith("\\begin{tikzpicture}")


def test_render_empty_dissection():
    d = DissectionSet(1, (), ())
    svg = dissection_svg(d)
    assert "<circle" in svg and "<line" not in svg


@pytest.mark.parametrize("value", ["abc", "", "1", "-4"])
def test_window_env_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("PIANO_CAT_WINDOW", value)
    code = main(["verify", "bijection", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "PIANO_CAT_WINDOW" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("via", ["homtable", "verify", "env", "script"])
def test_window_is_bounded_by_max_window(capsys, monkeypatch, via):
    # Every way a window reaches a check passes through ``Config``, which
    # takes 64 and refuses 65 in one line.
    assert cli.MAX_WINDOW == 64
    source = '[{"acc":0},{"pt":[0,3]}]'
    for window, accepted in ((64, True), (65, False)):
        if via == "homtable":
            code = main(["homtable", "--n", "2", "--source", source, "--target", source,
                         "--window", str(window)])
        elif via == "verify":
            code = main(["verify", "all", "--n", "1", "--window", str(window)])
        elif via == "env":
            monkeypatch.setenv("PIANO_CAT_WINDOW", str(window))
            code = main(["verify", "all", "--n", "1"])
        else:
            code = _verification_script().main(["--max-n", "1", "--window", str(window)])
        captured = capsys.readouterr()
        if accepted:
            assert code == 0 and captured.out and captured.err == ""
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == "window must be at most 64, got 65\n"


def test_window_env_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("PIANO_CAT_WINDOW", "3")
    source = '[{"acc":0},{"pt":[0,3]}]'
    code, out = run(capsys, "homtable", "--n", "2", "--source", source, "--target", source)
    assert code == 0
    assert sorted(json.loads(out)["dims"], key=int) == [str(i) for i in range(-3, 4)]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "1"],
        ["quiver", "--from", "DISS"],
        ["render", "--kind", "dissection", "--input", "DISS"],
        ["--help"],
        ["verify", "bijection", "--n", "1", "--window", "4"],
    ],
    ids=["enumerate", "quiver", "render", "help", "verify-with-window"],
)
def test_window_env_is_read_only_as_the_default_window(capsys, monkeypatch, fan3_files, argv):
    # A command without a window, or given ``--window``, never reads it.
    monkeypatch.setenv("PIANO_CAT_WINDOW", "abc")
    code = main([fan3_files[0] if arg == "DISS" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 0 and captured.out and captured.err == ""


def test_reader_closing_stdout_early_exits_141_quietly():
    # ``piano-cat enumerate --n 4 | head -1``: the output (about 90 kB) is
    # larger than a pipe holds, so the writer meets the closed pipe.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from pianocat import cli; sys.exit(cli.main())",
         "enumerate", "--n", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert "arcs" in json.loads(first)


# Text that ``int`` reads as a small integer, and that is refused.
_NOT_ASCII_INTEGERS = st.sampled_from(["\u0663", " 3", "3\n", "\uff14", "1_0", "+2"])


def _is_integer_text(text: str) -> bool:
    return text.isascii() and text.removeprefix("-").isdigit()


def _int_text(low: int, high: int) -> st.SearchStrategy[str]:
    """Integers as argument text, and text that is mostly not an integer.

    Text that reads as an integer outside ``low..high`` is left out: a
    valid size or window beyond it only makes a run slower, and sizes above
    the enumeration cap have their own tests.
    """

    def small_or_not_int(text: str) -> bool:
        try:
            return low <= int(text) <= high
        except ValueError:
            return True

    return (
        st.integers(low, high).map(str)
        | _NOT_ASCII_INTEGERS
        | st.text(max_size=4).filter(small_or_not_int)
    )


_KEYS = st.sampled_from(["n", "arcs", "red", "binding", "acc", "pt"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=10,
)
# Valid inputs, which the fuzz also breaks one entry of.
_VALID = [d.to_json() for n in (1, 2, 3) for d in dissections.enumerate_extended_dissections(n)]
_VALID += [g.to_json() for n in (1, 2, 3) for g in enumerate_limit_generators(n)]
_VALID_ARCS = [json.dumps(x.to_json()) for g in enumerate_limit_generators(2) for x in g]


@st.composite
def _near_valid(draw) -> object:
    obj = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    key = draw(st.sampled_from(sorted(obj)))
    if isinstance(obj[key], list) and obj[key] and draw(st.booleans()):
        obj[key].pop(draw(st.integers(0, len(obj[key]) - 1)))
    elif draw(st.booleans()):
        obj[key] = draw(_JSON)
    return obj


_SIZE = st.integers(-1, 4)
_POINT = (
    st.builds(lambda i: {"acc": i}, _SIZE)
    | st.builds(lambda i, p: {"pt": [i, p]}, _SIZE, st.integers(-2, 4))
    | _JSON
)
_ARC = st.lists(_POINT, max_size=3)
_CHORDS = st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=4)
# File contents: valid and near-valid inputs, arc sets and dissections of
# random points and chords, any JSON, and bytes that are not JSON or not UTF-8.
_FILE = (
    st.sampled_from(_VALID)
    | _near_valid()
    | st.builds(lambda n, arcs: {"n": n, "arcs": arcs}, _SIZE, st.lists(_ARC, max_size=3))
    | st.builds(lambda n, r, b: {"n": n, "red": r, "binding": b}, _SIZE, _CHORDS, _CHORDS)
    | _JSON
).map(lambda obj: json.dumps(obj).encode()) | st.binary(max_size=8)
_FLAG_JSON = st.sampled_from(_VALID_ARCS) | _ARC.map(json.dumps) | st.text(max_size=6)
_SLOT = st.sampled_from(["beta", "delta", "gamma", ""])
_CHOICE = st.builds("{}:{}".format, _SLOT, _int_text(-1, 5)) | st.text(max_size=6)
_ENV = st.none() | st.sampled_from(["abc", "", "1", "-4", "3"]) | st.text(max_size=3)


@st.composite
def _command(draw) -> tuple[list[str], bytes | None, str | None]:
    """An argv (``FILE`` for the input file), the file's bytes and ``PIANO_CAT_WINDOW``."""
    command = draw(st.sampled_from(["enumerate", "verify", "homtable", "quiver", "render"]))
    window = ["--window", draw(_int_text(-2, 4))] if draw(st.booleans()) else []
    if command == "enumerate":
        kind = draw(st.sampled_from(["generators", "dissections"]))
        argv = ["enumerate", "--n", draw(_int_text(-1, 3)), "--kind", kind]
    elif command == "verify":
        which = draw(st.sampled_from([*cli.VERIFIERS, "all"]))
        argv = ["verify", which, "--n", draw(_int_text(-1, 2)), *window]
        if draw(st.booleans()):
            argv += ["--choice", draw(_CHOICE)]
    elif command == "homtable":
        argv = ["homtable", "--n", draw(st.just("2") | _int_text(-1, 4)), *window]
        argv += ["--source", draw(_FLAG_JSON), "--target", draw(_FLAG_JSON)]
    elif command == "quiver":
        argv = ["quiver", "--from", "FILE", "--format", draw(st.sampled_from(["dot", "json"]))]
    else:
        kind = draw(st.sampled_from(["arc-diagram", "dissection", "quiver"]))
        fmt = draw(st.sampled_from(["svg", "tikz", "dot"]))
        argv = ["render", "--kind", kind, "--format", fmt, "--input", "FILE"]
    env = draw(_ENV.filter(lambda text: text is None or "\0" not in text))
    return argv, (draw(_FILE) if "FILE" in argv else None), env


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_command())
@example(case=(["enumerate", "--n", "\u0663", "--kind", "generators"], None, None))
@example(case=(["enumerate", "--n", " 3", "--kind", "dissections"], None, None))
@example(case=(["verify", "bijection", "--n", "1", "--window", "\uff14"], None, None))
def test_fuzzed_input_is_refused_in_one_line(tmp_path, case):
    # Malformed files, flag JSON, sizes, windows, choices and
    # ``PIANO_CAT_WINDOW``: no traceback, no exit 1 outside ``verify``,
    # every exit 2 with nothing on stdout and one line on stderr, and exit 2
    # whenever ``--n`` or ``--window`` is not ASCII integer text.
    argv, data, env = case
    sizes = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in ("--n", "--window")]
    path = tmp_path / "input.json"
    if data is not None:
        path.write_bytes(data)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("PIANO_CAT_WINDOW", None)
        if env is not None:
            os.environ["PIANO_CAT_WINDOW"] = env
        code = main(argv)
    assert "Traceback" not in err.getvalue(), err.getvalue()
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    if not all(_is_integer_text(text) for text in sizes):
        assert code == 2, argv


FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed == 99:
    sys.exit(2)
print(json.dumps({"env": {"src_sha256": %r, "seconds": args["--seconds"]}}))
wall = seed * %d
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
"""


def test_bench_record_alternates_checkouts_and_summarises(tmp_path):
    root = Path(__file__).resolve().parent.parent
    for name, scale in (("old", 10), ("new", 1)):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(FAKE_RUN % (name, scale))
        (tmp_path / name / "BENCHMARK.json").write_text('{"run_seconds": 7}')
    script = root / "scripts" / "bench_record.py"
    out = tmp_path / "BENCH_t.json"
    argv = [sys.executable, str(script), "--label", "t", "--workload", "w",
            "--checkout", f"old={tmp_path / 'old'}", "--checkout", f"new={tmp_path / 'new'}"]
    result = subprocess.run(
        argv + ["--seeds", "1-3"], capture_output=True, text=True, timeout=120, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    out.unlink()
    # Each checkout runs for the run length its BENCHMARK.json sets.
    assert record["checkouts"]["old"] == {
        "env": {"src_sha256": "old", "seconds": "7"}, "run_seconds": 7
    }
    runs = record["workloads"]["w"]["runs"]
    # Which checkout runs first alternates from seed to seed.
    assert [(r["seed"], r["checkout"]) for r in runs if r["order"] == 0] == [
        (1, "old"), (2, "new"), (3, "old")
    ]
    summary = record["workloads"]["w"]["summary"]
    assert summary["old"]["wall_s"] == {"median": 20, "q1": 15, "q3": 25}
    assert summary["new"]["wall_s"]["median"] == 2
    failed = subprocess.run(
        argv + ["--seeds", "99"], capture_output=True, text=True, timeout=120, cwd=tmp_path
    )
    assert failed.returncode == 2 and not out.exists()


def test_bench_record_keeps_one_traced_run_per_checkout(tmp_path):
    # The fake reports a per-layer metric only when traced, and its value
    # names the checkout, so the traced record shows who ran it and how.
    fake = FAKE_RUN.replace(
        '"metrics": {"wall_s": {"value": wall, "unit": "s"}}',
        '"metrics": {"wall_s": {"value": wall, "unit": "s"}} if args["--trace"] == "0" '
        'else {"x.calls": {"value": %d, "unit": "count"}}',
    )
    for name, scale in (("old", 10), ("new", 1)):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(fake % (name, scale, scale))
        (tmp_path / name / "BENCHMARK.json").write_text('{"run_seconds": 7}')
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
    argv = [sys.executable, str(script), "--label", "t", "--workload", "w", "--seeds", "2-3",
            "--checkout", f"old={tmp_path / 'old'}", "--checkout", f"new={tmp_path / 'new'}"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    assert record["traced"] == {
        "old": {"seed": 2, "correct": True, "layers": {"x.calls": 10}},
        "new": {"seed": 2, "correct": True, "layers": {"x.calls": 1}},
    }
    assert all("x.calls" not in r["metrics"] for r in record["runs"])
