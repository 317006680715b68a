"""Span tracing from outside the library, for the benchmark's traced runs.

``Tracer.install`` replaces every module-level binding of each traced
function across the ``pianocat`` package, not only the binding in the
defining module: ``endo`` and ``signs`` import ``normal_form``,
``chi_multiply``, ``hom_dim`` and ``suspend`` by name, so patching the
defining module alone would miss their calls.  Each call records a span
(name, start, end, parent) in compact in-memory arrays; ``layer_metrics``
turns the spans into per-function call counts and self times, and ``write``
saves the raw spans when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "pianocat"
# (module, attribute path) of every traced function; render is deliberately
# absent because it lies on no verification path.
TRACED: tuple[tuple[str, str], ...] = (
    ("geometry", "suspend"),
    ("homs", "hom_dim"),
    ("homs", "factors_through"),
    ("homs", "morphism_direction"),
    ("generators", "enumerate_limit_generators"),
    ("generators", "is_limit_generator"),
    ("dissections", "dissection_from_generator"),
    ("dissections", "enumerate_extended_dissections"),
    ("quivers", "keyboard_from_extended"),
    ("quivers", "normal_form"),
    ("quivers", "one_step_rewrites"),
    ("quivers", "graded_dim"),
    ("quivers", "canonical_word"),
    ("endo", "chi_multiply"),
    ("endo", "EndoAlgebra.from_arcs"),
    ("endo", "piano_of_generator"),
    ("endo", "verify_path_algebra_iso"),
    ("signs", "signed_matrix"),
    ("signs", "cone_data"),
    ("signs", "check_beta_delta"),
    ("signs", "verify_phi_homomorphism"),
    ("confluence", "all_terminals"),
    ("cli", "main"),
)

SPAN_NAMES: tuple[str, ...] = tuple(f"{mod}.{attr}" for mod, attr in TRACED)


def layer_metric_names() -> list[str]:
    """Names of the metrics ``layer_metrics`` reports, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.total_s"]
    return names + [
        "quivers.one_step_rewrites.per_normal_form",
        "confluence.all_terminals.memo_hit_ratio",
    ]


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.names = array("B")  # index into SPAN_NAMES
        self.parents = array("q")  # index of the enclosing span, -1 at the root
        self.starts = array("q")  # perf_counter_ns at entry
        self.ends = array("q")  # perf_counter_ns at exit
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _modules(self) -> list:
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        # Some modules (confluence) are imported lazily by their callers.
        for mod_name, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = self._modules()
        for name_id, (mod_name, attr) in enumerate(TRACED):
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                # A static method is patched once on its class; callers
                # reach it through the class, never by a module binding.
                raw = vars(owner)[fn_name]
                if not isinstance(raw, staticmethod):
                    raise TypeError(f"{mod_name}.{attr} is not a static method")
                self._undo.append((owner, fn_name, raw))
                setattr(owner, fn_name, staticmethod(self._wrap(raw.__func__, name_id)))
                continue
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, name_id)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, binding, original = self._undo.pop()
            setattr(owner, binding, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def span_count(self) -> int:
        return len(self.names)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self and total time per traced function, plus two waste ratios.

        Self time is a span's duration minus the durations of its child
        spans.  Total time sums the durations of the outermost spans of a
        name, so a recursive function is not counted once per level.
        ``per_normal_form`` counts the ``one_step_rewrites`` spans
        whose parent is a ``normal_form`` span, per ``normal_form`` call;
        ``memo_hit_ratio`` is the share of ``all_terminals`` calls that made
        no ``one_step_rewrites`` call of their own.
        """
        import numpy as np

        names = np.frombuffer(self.names, dtype=np.uint8).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = (
            np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        ).astype(np.float64) * 1e-9
        count = len(names)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested], minlength=count)
        self_time = duration - child_time
        slots = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=slots)
        self_by_name = np.bincount(names, weights=self_time, minlength=slots)
        outermost = np.ones(count, dtype=bool)
        ancestor = parents.copy()
        pending = np.nonzero(ancestor >= 0)[0]
        while len(pending):
            up = ancestor[pending]
            same = names[up] == names[pending]
            outermost[pending[same]] = False
            ancestor[pending] = parents[up]
            pending = pending[~same & (parents[up] >= 0)]
        total_by_name = np.bincount(names[outermost], weights=duration[outermost], minlength=slots)

        metrics: dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            metrics[f"{span}.calls"] = int(calls[i])
            metrics[f"{span}.self_s"] = float(self_by_name[i])
            metrics[f"{span}.total_s"] = float(total_by_name[i])

        nf = SPAN_NAMES.index("quivers.normal_form")
        osr = SPAN_NAMES.index("quivers.one_step_rewrites")
        at = SPAN_NAMES.index("confluence.all_terminals")
        parent_name = np.full(count, -1, dtype=np.intp)
        parent_name[nested] = names[parents[nested]]
        under_nf = int(np.count_nonzero((names == osr) & (parent_name == nf)))
        metrics["quivers.one_step_rewrites.per_normal_form"] = (
            under_nf / calls[nf] if calls[nf] else 0.0
        )
        rewrote = np.zeros(count, dtype=bool)
        rewrote[parents[(names == osr) & nested]] = True
        memo_hits = int(np.count_nonzero((names == at) & ~rewrote))
        metrics["confluence.all_terminals.memo_hit_ratio"] = (
            memo_hits / calls[at] if calls[at] else 0.0
        )
        return metrics

    def write(self, path: Path) -> None:
        """Save the raw spans as a NumPy archive with the span name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.uint8),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )
