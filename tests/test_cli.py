import json

import pytest

from pianocat.cli import main
from pianocat.dissections import DissectionSet, dissection_from_generator
from pianocat.generators import fan_generator, fan_summands
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
        cli.VERIFIERS, "bijection", lambda cfg: [{"check": "bijection", "passed": False}]
    )
    code, out = run(capsys, "verify", "bijection", "--n", "2")
    assert code == 1
    assert json.loads(out.splitlines()[0])["passed"] is False


def test_render_spec_validation():
    from pianocat.render import RenderSpec

    assert RenderSpec("quiver", "dot").kind == "quiver"
    with pytest.raises(ValueError):
        RenderSpec("portrait")
    with pytest.raises(ValueError):
        RenderSpec("quiver", "png")


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "all", "--n", "2", "--window", "4")
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["passed"] is True


def test_verify_with_choice(capsys):
    code, out = run(capsys, "verify", "derived-equiv", "--n", "2", "--choice", "delta:1")
    assert code == 0
    code, _ = run(capsys, "verify", "derived-equiv", "--n", "2", "--choice", "gamma:1")
    assert code == 2


def test_quiver_dot(capsys, fan3_files):
    diss, _ = fan3_files
    code, out = run(capsys, "quiver", "--from", diss, "--format", "dot")
    assert code == 0
    assert out.count("style=solid") == 4
    assert out.count("fillcolor=black") == 3


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
