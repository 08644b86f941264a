"""Span tracing of gptkit from outside the program, and the per-layer metrics
made from the spans.

``Tracer.install`` replaces every public function of each gptkit module with
a wrapper that records a span, at every module that binds the function:
harness, cli and dynamics import names with ``from .x import y``, so patching
only the defining module would miss their calls. ``uninstall`` puts the
originals back. A layer is the module that defines the function. Spans stay
in memory and are written out once, at the end of a run.

Everything runs on one thread, synchronously, so no span ever waits: time
waiting is zero by construction and is not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from gptkit.errors import GptError

LAYERS = ("cli", "harness", "dynamics", "states", "frames", "composite", "axioms",
          "serialize", "bloch")

# Work measure recorded with a span, from the call's bound arguments.
INFO: dict[str, Callable[[dict[str, Any]], Any]] = {
    "harness.simulate": lambda a: a["exp"].shots,
    "dynamics.continuity_probe": lambda a: a["steps"],
    "states.quantum_theory": lambda a: a["n"],
    "states.classical_theory": lambda a: a["n"],
    "serialize.read_json": lambda a: os.path.getsize(a["path"]),
    "serialize.write_json": lambda a: os.path.getsize(a["path"]),
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an outermost one
    op: int
    info: Any = None
    error: bool = False  # a GptError left this span

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: dict[Callable, Callable] = {}
        self._patched: list[tuple[Any, str, Callable]] = []

    def wrap(self, func: Callable, name: str) -> Callable:
        """``func`` with a span recorded around each call; results and
        exceptions pass through unchanged."""
        info = INFO.get(name)
        signature = inspect.signature(func) if info else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except GptError:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments)
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"gptkit.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("gptkit."):
                    continue
                if value not in self._wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    self._wrappers[value] = self.wrap(value, name)
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def _within(spans: list[Span], index: int, test: Callable[[str], bool]) -> bool:
    """True if the span at ``index`` or one of its ancestors passes ``test``."""
    while index >= 0:
        if test(spans[index].name):
            return True
        index = spans[index].parent
    return False


SIMULATE = {"harness.simulate"}
PROBE = {"dynamics.continuity_probe"}
CONVERT = {"states.p_from_density", "states.r_from_p", "states.p_from_r",
           "states.density_from_r"}
THEORY = {"states.quantum_theory", "states.classical_theory"}
FRAMES = {"frames.build_canonical_frame", "frames.gram_matrix"}
Z = {"dynamics.z_from_kraus", "dynamics.z_from_unitary"}
CP = {"dynamics.kraus_to_superoperator", "dynamics.is_completely_positive"}
REVERSIBLE = {"dynamics.is_reversible"}
DOF = {"composite.dof_count_check"}
LINEARITY = {"axioms.check_linearity"}


def _is_read(name: str) -> bool:
    return name == "serialize.read_json" or (
        name.startswith("serialize.") and "_from_" in name)


def _is_write(name: str) -> bool:
    return name == "serialize.write_json" or (
        name.startswith("serialize.") and "_to_" in name)


def layer_metrics(spans: list[Span], ops: int, out_bytes: int) -> dict[str, float]:
    """Per-op means of the per-layer metrics over ``ops`` traced ops.

    ``calls`` counts every call of a group's functions; ``busy_s`` is the
    time inside the group's outermost calls, so a group function calling
    another is not counted twice; ``self_s`` is span time minus child spans.
    ``out_bytes`` is what the CLI printed or wrote through ``--out``.
    """
    selfs = self_times(spans)

    def pick(test: Callable[[str], bool]) -> list[int]:
        return [i for i, s in enumerate(spans) if test(s.name)]

    def calls(names: set[str]) -> float:
        return len(pick(names.__contains__)) / ops

    def busy(test: Callable[[str], bool]) -> float:
        outermost = [i for i in pick(test) if not _within(spans, spans[i].parent, test)]
        return sum(spans[i].end - spans[i].start for i in outermost) / ops

    def self_sum(indices: list[int]) -> float:
        return sum(selfs[i] for i in indices) / ops

    def info_sum(names: set[str]) -> float:
        return sum(spans[i].info or 0 for i in pick(names.__contains__)) / ops

    distinct_theories = {(s.op, s.name, s.info) for s in spans if s.name in THEORY}
    metrics = {
        "harness.simulate.calls": calls(SIMULATE),
        "harness.simulate.shots": info_sum(SIMULATE),
        "harness.simulate.busy_s": busy(SIMULATE.__contains__),
        "harness.self_s": self_sum([
            i for i, s in enumerate(spans)
            if s.layer == "harness" and not _within(spans, i, SIMULATE.__contains__)]),
        "dynamics.probe.calls": calls(PROBE),
        "dynamics.probe.steps": info_sum(PROBE),
        "dynamics.probe.self_s": self_sum(pick(PROBE.__contains__)),
        "states.convert.calls": calls(CONVERT),
        "states.convert.busy_s": busy(CONVERT.__contains__),
        "states.theory.calls": calls(THEORY),
        "states.theory.distinct": len(distinct_theories) / ops,
        "states.theory.busy_s": busy(THEORY.__contains__),
        "frames.build.calls": calls(FRAMES),
        "frames.build.busy_s": busy(FRAMES.__contains__),
        "dynamics.z.calls": calls(Z),
        "dynamics.z.busy_s": busy(Z.__contains__),
        "dynamics.cp.busy_s": busy(CP.__contains__),
        "dynamics.reversible.busy_s": busy(REVERSIBLE.__contains__),
        "composite.dof.busy_s": busy(DOF.__contains__),
        "axioms.linearity.busy_s": busy(LINEARITY.__contains__),
        "axioms.other.busy_s": busy(
            lambda n: n.startswith("axioms.") and n not in LINEARITY),
        "serialize.read.busy_s": busy(_is_read),
        "serialize.read.bytes": info_sum({"serialize.read_json"}),
        "serialize.write.busy_s": busy(_is_write),
        "serialize.write.bytes": info_sum({"serialize.write_json"}),
        "cli.self_s": self_sum([i for i, s in enumerate(spans) if s.layer == "cli"]),
        "cli.out_bytes": out_bytes / ops,
    }
    for layer in LAYERS:
        crossings = [s for s in spans if s.error and s.layer == layer and (
            s.parent < 0 or spans[s.parent].layer != layer)]
        metrics[f"{layer}.errors"] = len(crossings) / ops
    return metrics


def top_self_times(spans: list[Span], ops: int, count: int = 6) -> list[tuple[str, float]]:
    """Function names with the largest per-op self time."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own / ops
    return sorted(totals.items(), key=lambda item: -item[1])[:count]

