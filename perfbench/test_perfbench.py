"""Negative controls for the benchmark's correctness gate, and tracer checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gate import Gate, expected_verify_records, gate_count, gate_piano_digest, gate_verify_run  # noqa: E402
from calibrate import REFERENCE_SLICE_S, Calibration  # noqa: E402
from run import (  # noqa: E402
    END_TO_END_UNITS,
    chunked_total,
    end_to_end,
    per_layer_names,
    tail_percentile,
)
from tracer import SPAN_NAMES, Tracer, layer_metric_names  # noqa: E402
from workloads import RUNS, one_per_class, rotation_classes  # noqa: E402

from pianocat import endo, generators, geometry, quivers  # noqa: E402


def verify_stdout(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def gate_failures(check, *args) -> int:
    gate = Gate()
    check(gate, *args)
    assert gate.attempted > 0
    return gate.failed


# --- correctness gate -----------------------------------------------------


def test_gate_accepts_the_recorded_verify_output():
    assert gate_failures(gate_verify_run, verify_stdout(expected_verify_records()), 0) == 0


def test_gate_ignores_record_fields_added_later():
    records = [dict(r, elapsed_s=0.5, params={"n": 3}) for r in expected_verify_records()]
    assert gate_failures(gate_verify_run, verify_stdout(records), 0) == 0


def test_gate_rejects_a_flipped_passed():
    records = expected_verify_records()
    records[40] = dict(records[40], passed=False)
    assert gate_failures(gate_verify_run, verify_stdout(records), 0) > 0


def test_gate_rejects_a_dropped_record_and_a_failing_exit_code():
    records = expected_verify_records()
    assert gate_failures(gate_verify_run, verify_stdout(records[:-1]), 0) > 0
    assert gate_failures(gate_verify_run, verify_stdout(records), 1) > 0


def test_gate_rejects_a_dropped_generator():
    gens = generators.enumerate_limit_generators(4)
    assert gate_failures(gate_count, "generators", 4, len(gens)) == 0
    assert gate_failures(gate_count, "generators", 4, len(gens[1:])) == 1


@pytest.fixture(scope="module")
def n5_pairs() -> list[tuple[str, str]]:
    return [
        (g.dumps(), endo.piano_of_generator(list(g), 5).dumps())
        for g in generators.enumerate_limit_generators(5)
    ]


def test_gate_accepts_the_recorded_piano_digest(n5_pairs):
    assert gate_failures(gate_piano_digest, 5, n5_pairs) == 0


def test_gate_rejects_a_changed_piano_digest(n5_pairs):
    changed = list(n5_pairs)
    generator, piano = changed[123]
    changed[123] = (generator, piano.replace('"sharp": [', '"sharp": [99, ', 1))
    assert changed[123] != n5_pairs[123]
    assert gate_failures(gate_piano_digest, 5, changed) == 1
    assert gate_failures(gate_piano_digest, 5, n5_pairs[:-1]) == 1


# --- tracer ---------------------------------------------------------------


def test_traced_wrapper_returns_exactly_what_the_function_returns():
    sentinel = object()

    def fn(*args, **kwargs):
        return sentinel, args, kwargs

    tracer = Tracer()
    wrapped = tracer._wrap(fn, 0)
    result = wrapped(1, 2, key="x")
    assert result[0] is sentinel and result[1:] == ((1, 2), {"key": "x"})
    assert wrapped.__name__ == "fn" and tracer.span_count == 1

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer._wrap(boom, 1)()
    assert tracer.span_count == 2 and tracer.ends[1] >= tracer.starts[1]
    assert tracer._stack == [-1]


def test_installed_tracer_leaves_results_unchanged():
    g = list(generators.enumerate_limit_generators(3)[5])
    algebra = endo.EndoAlgebra.from_arcs(g, 3)
    p = endo.piano_of_generator(g, 3)
    word = quivers.canonical_word(p, 0, 0, -2) + quivers.canonical_word(p, 0, 0, -1)

    def compute():
        return (
            endo.verify_path_algebra_iso(g, 3, window=3),
            endo.EndoAlgebra.from_arcs(g, 3),
            endo.chi_multiply(algebra, (0, 0, 0), (0, 0, -1)),
            endo.normal_form(p, word, base=0),
            geometry.suspend(g[0], 3),
            generators.enumerate_limit_generators(3),
        )

    plain = compute()
    with Tracer() as tracer:
        traced = compute()
    assert traced == plain
    assert tracer.span_count > 0


def test_install_patches_by_name_imports_and_uninstall_restores_them():
    import pianocat
    from pianocat import homs, signs

    before = {m: dict(vars(m)) for m in (pianocat, endo, signs, homs, quivers, geometry)}
    static = vars(endo.EndoAlgebra)["from_arcs"]
    with Tracer():
        assert endo.normal_form is quivers.normal_form
        assert endo.normal_form is not before[endo]["normal_form"]
        assert signs.chi_multiply is endo.chi_multiply is not before[signs]["chi_multiply"]
        assert homs.suspend is geometry.suspend is pianocat.suspend is not before[homs]["suspend"]
        assert vars(endo.EndoAlgebra)["from_arcs"] is not static
    for m, attrs in before.items():
        assert all(vars(m)[k] is v for k, v in attrs.items())
    assert vars(endo.EndoAlgebra)["from_arcs"] is static


def test_spans_nest_under_their_callers():
    g = list(generators.enumerate_limit_generators(3)[5])
    algebra = endo.EndoAlgebra.from_arcs(g, 3)
    with Tracer() as tracer:
        endo.chi_multiply(algebra, (0, 0, 0), (0, 0, -1))
    names = [SPAN_NAMES[i] for i in tracer.names]
    assert names[0] == "endo.chi_multiply"
    assert "geometry.suspend" in names and "homs.hom_dim" in names
    assert tracer.parents[0] == -1 and all(p >= 0 for p in tracer.parents[1:])


def synthetic(spans: list[tuple[str, int, int, int]]) -> Tracer:
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.names.append(SPAN_NAMES.index(name))
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    return tracer


def test_layer_metrics_self_time_total_time_and_ratios():
    ns = 1_000_000_000
    tracer = synthetic(
        [
            ("quivers.normal_form", 0, 100 * ns, -1),
            ("quivers.one_step_rewrites", 10 * ns, 30 * ns, 0),
            ("quivers.one_step_rewrites", 40 * ns, 50 * ns, 0),
            ("confluence.all_terminals", 200 * ns, 300 * ns, -1),
            ("confluence.all_terminals", 210 * ns, 250 * ns, 3),
            ("quivers.one_step_rewrites", 260 * ns, 270 * ns, 3),
        ]
    )
    m = tracer.layer_metrics()
    assert list(m) == layer_metric_names()
    assert m["quivers.normal_form.calls"] == 1
    assert m["quivers.normal_form.self_s"] == pytest.approx(70)
    assert m["quivers.normal_form.total_s"] == pytest.approx(100)
    assert m["quivers.one_step_rewrites.calls"] == 3
    assert m["quivers.one_step_rewrites.per_normal_form"] == pytest.approx(2)
    assert m["confluence.all_terminals.calls"] == 2
    assert m["confluence.all_terminals.self_s"] == pytest.approx(90)
    assert m["confluence.all_terminals.total_s"] == pytest.approx(100)
    assert m["confluence.all_terminals.memo_hit_ratio"] == pytest.approx(0.5)
    assert m["endo.chi_multiply.calls"] == 0 and m["endo.chi_multiply.self_s"] == 0


# --- sampling and statistics ----------------------------------------------


def test_one_per_class_is_seeded_and_covers_every_class():
    gens = generators.enumerate_limit_generators(4)
    classes = rotation_classes(gens, 4)
    assert sorted(i for c in classes for i in c) == list(range(len(gens)))
    a, b = one_per_class(classes, 1), one_per_class(classes, 2)
    assert a == one_per_class(classes, 1) and a != b
    assert all(i in c for i, c in zip(a, classes))


def test_chunked_total_ignores_one_slow_part():
    times = [1.0] * 100
    assert chunked_total(times, 5) == pytest.approx(100)
    times[:20] = [3.0] * 20
    assert chunked_total(times, 5) == pytest.approx(100)


def test_calibration_slices_run_with_the_collector_off_and_are_subtracted():
    import gc

    calibration = Calibration()
    calibration.burst()
    start = time.perf_counter()
    calibration.tick()
    calibration.record(start, time.perf_counter())
    assert gc.isenabled() and len(calibration.slice_starts) == 6
    assert calibration.items_s()[0] == pytest.approx(0, abs=1e-3)
    assert calibration.item_factors()[0] > 0


def test_calibration_timer_interrupts_the_work_and_stops():
    import signal

    calibration = Calibration()
    calibration.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.35:
        pass
    calibration.stop()
    assert len(calibration.slice_starts) >= 2
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_item_factors_follow_the_slices_during_or_nearest_the_item():
    calibration = Calibration()
    calibration.slice_starts = [float(k) for k in range(20)]
    calibration.slice_ends = [k + REFERENCE_SLICE_S * (1 if k < 10 else 3) for k in range(20)]
    calibration.record(0.0, 9.5)
    calibration.record(10.0, 20.0)
    calibration.record(4.5, 4.6)
    assert calibration.item_factors() == pytest.approx([1.0, 3.0, 1.0])
    assert calibration.items_s()[0] == pytest.approx(9.5 - 10 * REFERENCE_SLICE_S)
    assert calibration.items_s()[2] == pytest.approx(0.1)


def work(items: list[float], factor: float) -> dict:
    return {
        "items_s": items,
        "item_factors": [factor] * len(items),
        "generators_per_item": 1,
        "setup_s": 0.2 * factor,
        "setup_factor": factor,
        "peak_rss_mb": 40.0,
    }


def test_end_to_end_divides_each_time_by_its_speed_factor():
    # The same two items, timed by a normal and a twice-as-slow worker.
    works = [work([1.0, 3.0], 1.0), work([2.0, 6.0], 2.0), work([1.0, 3.0], 1.0)]
    calibrated = end_to_end(works, works, calibrated=True)
    assert calibrated["wall_s"] == pytest.approx(4.0)
    assert calibrated["setup_s"] == pytest.approx(0.2)
    assert calibrated["gen_ms_p50"] == pytest.approx(2000.0)
    raw = end_to_end(works, works, calibrated=False)
    assert raw["wall_s"] == pytest.approx(4.0) and raw["setup_s"] == pytest.approx(0.2)
    assert raw["gen_ms_p50"] == pytest.approx(2500.0)


def test_single_pass_wall_is_the_chunked_total():
    once = work([1.0] * 90, 2.0)
    assert end_to_end([once], [once], calibrated=False)["wall_s"] == pytest.approx(90.0)
    assert end_to_end([once], [once], calibrated=True)["wall_s"] == pytest.approx(45.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(5440) == 99
    assert tail_percentile(111) == 90
    assert tail_percentile(4) is None


# --- command --------------------------------------------------------------


def test_run_refuses_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(RUNS)
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()


def test_predictions_cover_every_traced_function_and_workload():
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert list(predictions["workloads"]) == list(RUNS)
    named = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert set(named) <= set(per_layer_names())
    assert {m.rsplit(".", 1)[0] for m in named} >= set(SPAN_NAMES)
    for layer in predictions["layers"]:
        assert set(layer["moves"]) <= set(END_TO_END_UNITS)
        assert set(layer["workloads"]) <= set(RUNS)
