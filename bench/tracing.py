"""Spans and counters around the public functions of egc, from outside.

`Tracer.install` replaces each traced function, method or constructor by a
wrapper, in its defining module or class and in every egc module that
bound the same object with `from .x import y`.  A timed wrapper records a
span (name, start, end, parent span) in memory; a counted wrapper only
counts calls.  Generators are timed per resumption, so a consumer's time
between two items is not charged to the generator.  `uninstall` puts the
originals back.

Self time is computed as spans close: a span's duration minus the
durations of its direct child spans.  `.s` metrics are inclusive times of
the outermost span of each name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

SUITES = ("theorem", "omega", "gvex", "pi", "ring", "decompose")

# (metric prefix, module, attribute path, mode)
#   mode "time": span per call; "count": calls only;
#   "gen": generator, span per resumption; "gen-count": yields only
TARGETS = (
    ("cli.main", "egc.cli", "main", "time"),
    ("shapes.Partition.part", "egc.shapes", "Partition.part", "count"),
    ("shapes.SkewShape.row_cols", "egc.shapes", "SkewShape.row_cols",
     "count"),
    ("shapes.skew_props", "egc.shapes", "skew_props", "count"),
    ("shapes.subpartitions", "egc.shapes", "subpartitions", "gen-count"),
    ("perms.Permutation.is_vexillary", "egc.perms",
     "Permutation.is_vexillary", "time"),
    ("perms.Permutation.reduced_word", "egc.perms",
     "Permutation.reduced_word", "time"),
    ("tableaux.enumerate_tableaux", "egc.tableaux", "enumerate_tableaux",
     "gen"),
    ("tableaux.SetValuedTableau.new", "egc.tableaux",
     "SetValuedTableau.__init__", "time"),
    ("tableaux.split", "egc.tableaux", "split", "time"),
    ("tableaux.merge", "egc.tableaux", "merge", "time"),
    ("tableaux.omega1", "egc.tableaux", "omega1_tableau", "time"),
    ("tableaux.omega1", "egc.tableaux", "omega1_inverse", "time"),
    ("tableaux.weight_eval", "egc.tableaux", "weight_eval", "time"),
    ("ring.is_prime", "egc.ring", "is_prime", "time"),
    ("ring.field_inv", "egc.ring", "field_inv", "time"),
    ("ring.ominus", "egc.ring", "ominus", "count"),
    ("ring.EvaluationPoint.new", "egc.ring", "EvaluationPoint.__init__",
     "time"),
    ("ring.sample_point", "egc.ring", "sample_point", "time"),
    ("ring.eval_graham", "egc.ring", "eval_graham", "time"),
    ("ring.GrahamMonomial.new", "egc.ring", "GrahamMonomial.__init__",
     "time"),
    ("ring.GrahamSum.mul", "egc.ring", "GrahamSum.__mul__", "time"),
    ("ring.GrahamSum.to_json", "egc.ring", "GrahamSum.to_json", "time"),
    ("grothendieck.g_eval", "egc.grothendieck", "g_eval", "time"),
    ("grothendieck.OrbitTable.build", "egc.grothendieck",
     "OrbitTable.__init__", "time"),
    ("grothendieck.OrbitTable.value", "egc.grothendieck",
     "OrbitTable.value", "time"),
    ("grothendieck.backstable_approx", "egc.grothendieck",
     "backstable_approx", "time"),
    ("grothendieck.grothendieck_poly", "egc.grothendieck",
     "grothendieck_poly", "time"),
    ("pipeline.j_coefficient", "egc.pipeline", "j_coefficient", "time"),
    ("pipeline.j_plus", "egc.pipeline", "j_plus", "time"),
    ("pipeline.j_minus", "egc.pipeline", "j_minus", "time"),
    ("pipeline.j_numeric", "egc.pipeline", "j_numeric", "time"),
    ("pipeline.build_context", "egc.pipeline", "build_context", "time"),
) + tuple((f"verify.{s}", "egc.verify", f"suite_{s}", "time")
          for s in SUITES)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # spans: name id, parent span index (-1 at top), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._open: dict[str, int] = defaultdict(int)  # nesting per name
        self.calls: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int, name: str) -> float:
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_name) - 1, 0.0])
        self._open[name] += 1
        start = time.perf_counter()
        self.span_start[-1] = start
        return start

    def _exit(self, name: str, start: float):
        end = time.perf_counter()
        index, child = self._stack.pop()
        self.span_end[index] = end
        dur = end - start
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def active(self, name: str) -> bool:
        return self._open[name] > 0

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                hook(self, "call", args)
            start = self._enter(nid, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if hook is not None:
                hook(self, "return", result)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _generator(self, name, fn, timed: bool):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                if timed:
                    start = self._enter(nid, name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if timed:
                        self._exit(name, start)
                self.yielded[name] += 1
                yield item
        return wrapper

    def _wrap(self, name, fn, mode):
        if mode == "time":
            return self._timed(name, fn)
        if mode == "count":
            return self._counted(name, fn)
        return self._generator(name, fn, timed=(mode == "gen"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "egc" or n.startswith("egc.")]
        for name, module_name, path, mode in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if mode.startswith("gen") and \
                    not inspect.isgeneratorfunction(original):
                raise TypeError(f"{module_name}.{path} is not a generator")
            wrapper = self._wrap(name, original, mode)
            self._patch(owner, attr, wrapper)
            if cls_path:
                continue  # a class attribute is shared by every importer
            for module in modules:
                if module is not owner and \
                        module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """Spans as JSON lines: a header with the names, then
        [name, parent span index, start s, end s] per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names,
                                  "spans": len(self.span_name)}) + "\n")
            for k in range(len(self.span_name)):
                out.write("[%d,%d,%.9f,%.9f]\n" % (
                    self.span_name[k], self.span_parent[k],
                    self.span_start[k], self.span_end[k]))


def _count_monomials(tracer, event, value):
    if event == "return":
        tracer.extra["pipeline.j_coefficient.monomials"] += len(value.terms)


def _count_checks(suite):
    def hook(tracer, event, value):
        if event == "return":
            tracer.extra[f"verify.{suite}.checks"] += value["checks"]
    return hook


def _point_built(tracer, event, value):
    if event == "call" and tracer.active("ring.sample_point"):
        tracer.extra["ring.sample_point.built"] += 1


HOOKS = {
    "pipeline.j_coefficient": _count_monomials,
    "ring.EvaluationPoint.new": _point_built,
    **{f"verify.{s}": _count_checks(s) for s in SUITES},
}


# (metric, what is read, traced name); "s" is inclusive time, "self_s"
# self time, "extra" a count kept by a hook, "ratio" one count per another
LAYER_METRICS = (
    ("cli.main.calls", "calls", "cli.main"),
    ("cli.main.self_s", "self_s", "cli.main"),
    ("shapes.Partition.part.calls", "calls", "shapes.Partition.part"),
    ("shapes.SkewShape.row_cols.calls", "calls", "shapes.SkewShape.row_cols"),
    ("shapes.skew_props.calls", "calls", "shapes.skew_props"),
    ("shapes.subpartitions.yielded", "yielded", "shapes.subpartitions"),
    ("perms.Permutation.is_vexillary.calls", "calls",
     "perms.Permutation.is_vexillary"),
    ("perms.Permutation.is_vexillary.s", "s",
     "perms.Permutation.is_vexillary"),
    ("perms.Permutation.reduced_word.calls", "calls",
     "perms.Permutation.reduced_word"),
    ("perms.Permutation.reduced_word.s", "s",
     "perms.Permutation.reduced_word"),
    ("tableaux.enumerate_tableaux.calls", "calls",
     "tableaux.enumerate_tableaux"),
    ("tableaux.enumerate_tableaux.yielded", "yielded",
     "tableaux.enumerate_tableaux"),
    ("tableaux.enumerate_tableaux.s", "s", "tableaux.enumerate_tableaux"),
    ("tableaux.SetValuedTableau.new.calls", "calls",
     "tableaux.SetValuedTableau.new"),
    ("tableaux.SetValuedTableau.new.s", "s", "tableaux.SetValuedTableau.new"),
    ("tableaux.split.s", "s", "tableaux.split"),
    ("tableaux.merge.s", "s", "tableaux.merge"),
    ("tableaux.omega1.s", "s", "tableaux.omega1"),
    ("tableaux.weight_eval.calls", "calls", "tableaux.weight_eval"),
    ("tableaux.weight_eval.s", "s", "tableaux.weight_eval"),
    ("ring.is_prime.calls", "calls", "ring.is_prime"),
    ("ring.is_prime.s", "s", "ring.is_prime"),
    ("ring.field_inv.calls", "calls", "ring.field_inv"),
    ("ring.field_inv.s", "s", "ring.field_inv"),
    ("ring.ominus.calls", "calls", "ring.ominus"),
    ("ring.EvaluationPoint.new.calls", "calls", "ring.EvaluationPoint.new"),
    ("ring.EvaluationPoint.new.s", "s", "ring.EvaluationPoint.new"),
    ("ring.sample_point.calls", "calls", "ring.sample_point"),
    ("ring.sample_point.yield", "ratio",
     ("ring.sample_point", "ring.sample_point.built")),
    ("ring.eval_graham.s", "s", "ring.eval_graham"),
    ("ring.GrahamMonomial.new.calls", "calls", "ring.GrahamMonomial.new"),
    ("ring.GrahamMonomial.new.s", "s", "ring.GrahamMonomial.new"),
    ("ring.GrahamSum.mul.s", "s", "ring.GrahamSum.mul"),
    ("ring.GrahamSum.to_json.s", "s", "ring.GrahamSum.to_json"),
    ("grothendieck.g_eval.calls", "calls", "grothendieck.g_eval"),
    ("grothendieck.g_eval.s", "s", "grothendieck.g_eval"),
    ("grothendieck.OrbitTable.builds", "calls",
     "grothendieck.OrbitTable.build"),
    ("grothendieck.OrbitTable.build_s", "s", "grothendieck.OrbitTable.build"),
    ("grothendieck.OrbitTable.value.calls", "calls",
     "grothendieck.OrbitTable.value"),
    ("grothendieck.OrbitTable.value.s", "s", "grothendieck.OrbitTable.value"),
    ("grothendieck.backstable_approx.calls", "calls",
     "grothendieck.backstable_approx"),
    ("grothendieck.OrbitTable.reuse", "ratio",
     ("grothendieck.backstable_approx", "grothendieck.OrbitTable.build")),
    ("grothendieck.grothendieck_poly.s", "s",
     "grothendieck.grothendieck_poly"),
    ("pipeline.j_coefficient.calls", "calls", "pipeline.j_coefficient"),
    ("pipeline.j_coefficient.s", "s", "pipeline.j_coefficient"),
    ("pipeline.j_coefficient.monomials", "extra",
     "pipeline.j_coefficient.monomials"),
    ("pipeline.j_plus.s", "s", "pipeline.j_plus"),
    ("pipeline.j_minus.s", "s", "pipeline.j_minus"),
    ("pipeline.build_context.s", "s", "pipeline.build_context"),
    ("pipeline.j_numeric.calls", "calls", "pipeline.j_numeric"),
    ("pipeline.j_numeric.s", "s", "pipeline.j_numeric"),
) + tuple(metric for suite in SUITES for metric in (
    (f"verify.{suite}.s", "s", f"verify.{suite}"),
    (f"verify.{suite}.checks", "extra", f"verify.{suite}.checks")))


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit), in layer order."""
    counts = {**tracer.calls, **tracer.extra}
    read = {"calls": (tracer.calls, "count"),
            "yielded": (tracer.yielded, "count"),
            "extra": (tracer.extra, "count"),
            "s": (tracer.inclusive, "s"),
            "self_s": (tracer.self_time, "s")}
    out = {"import.egc.s": (import_s, "s")}
    for metric, kind, source in LAYER_METRICS:
        if kind == "ratio":
            num, den = (counts.get(name, 0) for name in source)
            out[metric] = (num / den if den else 0.0, "ratio")
        else:
            table, unit = read[kind]
            out[metric] = (table.get(source, 0), unit)
    return out
