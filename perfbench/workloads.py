"""The three benchmark workloads, one unit of fixed work per worker process.

Each workload has a set-up step (enumerating its generators, timed with the
package import by the worker) and a measured step.  A measured step records
the times of its timed items in the worker's ``Calibration`` and returns how
many generators one item covers.  Library functions are
always reached through their module, so that a tracer installed after the
import sees the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

from calibrate import Calibration
from gate import Gate, gate_count, gate_piano_digest, gate_verify_run

VERIFY_ARGV = ["verify", "all", "--n", "3", "--window", "4", "--word-cap", "8"]
ISO_WINDOW = 6
# path-iso-n4 checks every ISO_CLASS_STRIDE-th rotation class at n = 4.
ISO_CLASS_STRIDE = 5

SIZE = {"verify-n3": 3, "path-iso-n4": 4, "build-n5": 5}


def setup(workload: str) -> dict:
    """Enumerate the workload's inputs (its generators; at n = 5 also the dissections)."""
    from pianocat import dissections, generators

    n = SIZE[workload]
    state = {"n": n, "generators": generators.enumerate_limit_generators(n)}
    if workload == "build-n5":
        state["dissections"] = dissections.enumerate_extended_dissections(n)
    return state


def rotation_classes(gens: list, n: int) -> list[list[int]]:
    """Indices of the generators grouped by rotation class, in first-seen order."""
    from pianocat import geometry

    classes: dict[str, list[int]] = {}
    for i, g in enumerate(gens):
        key = min(
            geometry.arc_set(n, [geometry.rotate_arc(x, r) for x in g]).dumps() for r in range(n)
        )
        classes.setdefault(key, []).append(i)
    return list(classes.values())


def one_per_class(classes: list[list[int]], seed: int) -> list[int]:
    """One member drawn by ``seed`` from each class.

    Rotated generators have the same structure, so every seed checks the
    same amount of work on different inputs.
    """
    rng = random.Random(seed)
    return [rng.choice(members) for members in classes]


def run_verify_n3(state: dict, gate: Gate, seed: int, calibration: Calibration) -> dict:
    """One in-process ``verify all --n 3`` call with its stdout captured."""
    from pianocat import cli

    gate_count(gate, "generators", 3, len(state["generators"]))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(VERIFY_ARGV))
    calibration.record(start, time.perf_counter())
    gate_verify_run(gate, out.getvalue(), rc)
    return {"generators_per_item": len(state["generators"])}


def run_path_iso_n4(state: dict, gate: Gate, seed: int, calibration: Calibration) -> dict:
    """``verify_path_algebra_iso`` on a seeded member of every fifth rotation class at n = 4."""
    from pianocat import endo

    gens = state["generators"]
    gate_count(gate, "generators", 4, len(gens))
    classes = rotation_classes(gens, 4)
    gate_count(gate, "rotation classes", 4, len(classes))
    sample = one_per_class(classes[::ISO_CLASS_STRIDE], seed)
    for i in sample:
        t0 = time.perf_counter()
        try:
            passed = endo.verify_path_algebra_iso(list(gens[i]), 4, window=ISO_WINDOW).passed
        except Exception as exc:  # a raising check is a failed check
            gate.check(f"path-algebra-iso generator {i} raised {exc!r}", False)
        else:
            gate.check(f"path-algebra-iso generator {i}", passed)
        calibration.record(t0, time.perf_counter())
    return {"generators_per_item": 1}


def _build_one(g, n: int) -> tuple[bool, str, bool, bool, str]:
    from pianocat import dissections, endo, geometry, signs

    arcs = list(g)
    d = dissections.dissection_from_generator(arcs, n)
    back = sorted(dissections.generator_from_dissection(d), key=geometry.Arc.sort_key)
    piano = endo.piano_of_generator(arcs, n)
    algebra = endo.EndoAlgebra.from_arcs(arcs, n)
    ordered = signs.order_for_cone_blocks(arcs)
    beta_choice, delta_choice = (
        signs.check_beta_delta(m, ordered).passed for m in signs.both_signed_matrices(ordered)
    )
    return (
        back == list(g.arcs),
        d.dumps(),
        algebra.size == len(arcs),
        beta_choice and delta_choice,
        piano.dumps(),
    )


def run_build_n5(state: dict, gate: Gate, seed: int, calibration: Calibration) -> dict:
    """Construction of every n = 5 object, in an order drawn by ``seed``."""
    n = state["n"]
    gens, targets = state["generators"], state["dissections"]
    gate_count(gate, "generators", n, len(gens))
    gate_count(gate, "dissections", n, len(targets))
    order = list(range(len(gens)))
    random.Random(seed).shuffle(order)
    pianos: dict[int, str] = {}
    images: set[str] = set()
    for i in order:
        t0 = time.perf_counter()
        try:
            round_trip, image, sized, signed, pianos[i] = _build_one(gens[i], n)
        except Exception as exc:  # a raising check is a failed check
            gate.check(f"build generator {i} raised {exc!r}", False)
        else:
            images.add(image)
            gate.check(f"bijection round trip of generator {i}", round_trip)
            gate.check(f"endomorphism algebra size of generator {i}", sized)
            gate.check(f"beta-delta of both sign choices of generator {i}", signed)
        calibration.record(t0, time.perf_counter())
    gate.check("generator images are exactly the dissections", images == {d.dumps() for d in targets})
    gate_piano_digest(gate, n, ((g.dumps(), pianos.get(i, "")) for i, g in enumerate(gens)))
    return {"generators_per_item": 1}


RUNS = {
    "verify-n3": run_verify_n3,
    "path-iso-n4": run_path_iso_n4,
    "build-n5": run_build_n5,
}
# Workloads whose unit of work is short enough to repeat in fresh workers
# until the run's seconds are used up.
REPEATED = ("verify-n3", "path-iso-n4")
