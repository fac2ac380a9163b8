"""Spans around the public functions of each ``heyde`` module.

The traced run rebinds each listed function, in every ``heyde.*`` module
namespace that holds it, to a wrapper that records a span (id, parent id,
name, start, end) in memory, and restores the originals afterwards.  Self
time is a span's duration minus the durations of its child spans.  No
program source is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

from heyde.symmetry import SGrid

# The CLI's private parse and emit helpers are grouped into one span name
# each, so their self time reads as one stage.
CLI_PARSE = "cli.parse"
CLI_EMIT = "cli.emit"


def _verdicts(counts, args, kwargs, out, exc) -> None:
    if out is not None:
        counts[f"measures.is_distribution.verdict_{out.kind}"] += 1


def _draws(counts, args, kwargs, out, exc) -> None:
    count = args[2] if len(args) > 2 else kwargs["count"]
    counts["measures.sample_arrays.draws"] += count


def _dual_points(counts, args, kwargs, out, exc) -> None:
    """2 * |G|^2 * P^2 dual points per call, P the number of s-grid points."""
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    points = (grid or SGrid()).points
    order = args[0].group.G.order
    counts["symmetry.equation_residual_report.dual_points"] += 2 * order**2 * points**2


def _probe_evals(counts, args, kwargs, out, exc) -> None:
    if out is not None:
        counts["symmetry.mc_symmetry_test.probe_evals"] += out.probe_count * out.n_samples


def _accepts(counts, args, kwargs, out, exc) -> None:
    if exc is None:
        counts["structure.decompose.accepted"] += 1


# (module, attribute, span name, counter); "Class.method" names a classmethod
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("finite_abelian", "char_table", "finite_abelian.char_table", None),
    ("finite_abelian", "kernel_of_I_plus", "finite_abelian.kernel_of_I_plus", None),
    ("measures", "AtomicSignedMeasure.from_terms", "measures.from_terms", None),
    ("measures", "convolve", "measures.convolve", None),
    ("measures", "char_fn", "measures.char_fn", None),
    ("measures", "is_distribution", "measures.is_distribution", _verdicts),
    ("measures", "sample_arrays", "measures.sample_arrays", _draws),
    ("theta", "theta_to_measure", "theta.theta_to_measure", None),
    ("theta", "measure_to_theta", "theta.measure_to_theta", None),
    ("symmetry", "equation_residual_report", "symmetry.equation_residual_report", _dual_points),
    ("symmetry", "mc_symmetry_test", "symmetry.mc_symmetry_test", _probe_evals),
    ("symmetry", "delta_relation", "symmetry.delta_relation", None),
    ("symmetry", "char_sup_distance", "symmetry.char_sup_distance", None),
    ("structure", "decompose", "structure.decompose", _accepts),
    ("structure", "generate_instance", "structure.generate_instance", None),
    ("structure", "rigidity_decision", "structure.rigidity_decision", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_load_case", CLI_PARSE, None),
    ("cli", "_parse_group", CLI_PARSE, None),
    ("cli", "_parse_alpha", CLI_PARSE, None),
    ("cli", "_parse_measure", CLI_PARSE, None),
    ("cli", "_emit", CLI_EMIT, None),
    ("cli", "_emit_csv", CLI_EMIT, None),
)


class Tracer:
    """Records spans while ``enabled``; wrappers stay installed between
    ``install`` and ``uninstall`` but pass straight through when disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.case = ""
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            out, exc = None, None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, tracer.case))
                if counter is not None:
                    counter(tracer.counts, args, kwargs, out, exc)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "heyde" or k.startswith("heyde.")]
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[f"heyde.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self._wrap(name, original.__func__, counter)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        child: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, _, name, start, end, _ in self.spans:
            self_s[name] += end - start - child[span_id]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, case in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "case": case}
                    )
                    + "\n"
                )
