import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pianocat import render
from pianocat.cli import main
from pianocat.dissections import DissectionSet, dissection_from_generator
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


def test_enumerate_csv_and_svg(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,record"
    assert len(out.splitlines()) == 5
    code, out = run(capsys, "enumerate", "--n", "1", "--render", "svg")
    assert code == 0 and out.count("<svg") == 1


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import pianocat.cli as cli

    monkeypatch.setitem(
        cli.VERIFIERS,
        "bijection",
        lambda contexts, cfg: [{"check": "bijection", "passed": False}],
    )
    code, out = run(capsys, "verify", "bijection", "--n", "2")
    assert code == 1
    assert json.loads(out.splitlines()[0])["passed"] is False


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

    def broken(contexts, cfg):
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
@pytest.mark.parametrize("choice", ["gamma:1", "delta:4"])
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
    assert header.split() == [
        "n", "generators", "bijection", "path-iso", "beta-delta", "phi", "confluence", "seconds"
    ]
    cells = [row.split() for row in rows]
    assert [(c[0], c[1]) for c in cells] == [("1", "1"), ("2", "4")]
    assert all(c[2:7] == ["True"] * 5 for c in cells)


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
    ],
)
def test_config_errors_name_the_field(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message + "\n"


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


def test_window_env_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("PIANO_CAT_WINDOW", "3")
    source = '[{"acc":0},{"pt":[0,3]}]'
    code, out = run(capsys, "homtable", "--n", "2", "--source", source, "--target", source)
    assert code == 0
    assert sorted(json.loads(out)["dims"], key=int) == [str(i) for i in range(-3, 4)]


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
