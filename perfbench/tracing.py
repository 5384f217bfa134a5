"""Spans and counters for the traced benchmark pass.

The tracer wraps public functions of the ``torusdual`` modules in place
(every module namespace that holds the function, so ``from .x import f``
bindings are covered) and records one span per call: name, start, end
and the index of the enclosing span.  Spans stay in memory and are
written once, when the pass ends.  Nothing under ``src/`` is edited.

Per-layer metrics are read off the span tree: a layer's time is the
total duration of its outermost spans, and a self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# per-layer time -> the span name whose outermost occurrences it sums
LAYER_TIMES = {
    "rootdata.build_s": "rootdata.build",
    "weyl.generate_s": "weyl.generate",
    "weyl.classes_s": "weyl.classes",
    "weyl.centralizer_s": "weyl.centralizer",
    "fixedpoints.fixed_set_s": "fixedpoints.fixed_set",
    "intlinalg.snf_s": "intlinalg.snf",
    "intlinalg.in_image_s": "intlinalg.in_image",
    "intlinalg.restrict_s": "intlinalg.restrict",
    "intlinalg.solve_mod_s": "intlinalg.solve_mod",
    "ktheory.class_sum_s": "ktheory.class_sum",
    "ktheory.pairs_s": "ktheory.pairs",
    "oscillator.build_s": "oscillator.build",
    "oscillator.solve_1d_s": "oscillator.solve_1d",
    "oscillator.solve_2d_s": "oscillator.solve_2d",
    "clifford.check_s": "clifford.check",
    "poincare.check_s": "poincare.check",
}
# per-layer self time -> the span name whose direct children it subtracts
LAYER_SELF_TIMES = {"ktheory.class_sum_self_s": "ktheory.class_sum"}

# counters: summed with add(), except the ones kept as a maximum
COUNTS = (
    "rootdata.calls",
    "weyl.order",
    "weyl.class_count",
    "weyl.centralizer_elements",
    "fixedpoints.fixed_set_calls",
    "fixedpoints.components",
    "intlinalg.snf_calls",
    "intlinalg.in_image_calls",
    "intlinalg.restrict_calls",
    "ktheory.pairs_terms",
    "ktheory.class_rows",
    "oscillator.matrix_dim",
    "clifford.identities",
    "poincare.samples",
)
MAXIMA = ("oscillator.residual_ratio_max", "poincare.max_deviation")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()

    def add(self, counter, value=1):
        pass

    def peak(self, counter, value):
        pass


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = dict.fromkeys(COUNTS, 0)
        self.counters.update(dict.fromkeys(MAXIMA, 0.0))
        self._seen = set()

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter() - self.t0, None,
               self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter() - self.t0

    def add(self, counter, value=1):
        self.counters[counter] += value

    def peak(self, counter, value):
        self.counters[counter] = max(self.counters[counter], value)

    def first_time(self, key) -> bool:
        """True the first time `key` is seen, for counts over distinct objects."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def traced(self, func, span, after=None):
        """`func` inside a span.

        `span` is a name or a function of the call arguments returning one;
        `after(result, *args)` records counters once the call returns.
        """

        @functools.wraps(func)
        def call(*args, **kwargs):
            with self.span(span(*args) if callable(span) else span):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return call

    def wrap(self, owner, attr, span, after=None):
        """Replace `owner.attr` by its traced version wherever it is bound.

        A module function is replaced in every torusdual module that holds
        it.  Returns the original.
        """
        orig = getattr(owner, attr)
        traced = self.traced(orig, span, after)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
        else:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("torusdual") and \
                        getattr(mod, attr, None) is orig:
                    setattr(mod, attr, traced)
        return orig

    def install(self):
        """Wrap the public entry points of every torusdual layer."""
        from torusdual import fixedpoints, intlinalg, ktheory, oscillator, rootdata, weyl

        def count(name):
            return lambda result, *args: self.add(name)

        self.wrap(rootdata, "build_simple", "rootdata.build", count("rootdata.calls"))
        self.wrap(rootdata, "dualize", "rootdata.build", count("rootdata.calls"))

        def generated(group, *args):
            if self.first_time(("group", id(group))):
                self.add("weyl.order", len(group))

        def classified(classes, group):
            if self.first_time(("classes", id(group))):
                self.add("weyl.class_count", len(classes))

        def centralized(cent, group, i):
            if self.first_time(("cent", id(group), i)):
                self.add("weyl.centralizer_elements", len(cent))

        self.wrap(weyl, "generate", "weyl.generate", generated)
        weyl.WeylGroup.classes = property(
            self.traced(weyl.WeylGroup.classes.fget, "weyl.classes", classified))
        centralizer = self.wrap(weyl.WeylGroup, "centralizer_indices", "weyl.centralizer",
                                centralized)

        def fixed(report, *args):
            self.add("fixedpoints.fixed_set_calls")
            self.add("fixedpoints.components", report.component_count())

        self.wrap(fixedpoints, "fixed_set", "fixedpoints.fixed_set", fixed)

        self.wrap(intlinalg, "smith_normal_form", "intlinalg.snf", count("intlinalg.snf_calls"))
        self.wrap(intlinalg, "in_image_lattice", "intlinalg.in_image",
                  count("intlinalg.in_image_calls"))
        self.wrap(intlinalg, "restrict_to_sublattice", "intlinalg.restrict",
                  count("intlinalg.restrict_calls"))
        self.wrap(intlinalg, "solve_mod_lattice", "intlinalg.solve_mod")

        self.wrap(ktheory, "graded_rank_with_classes", "ktheory.class_sum",
                  lambda out, group: self.add("ktheory.class_rows", len(out[1])))
        # the oracle evaluates one term per commuting pair (w, z)
        self.wrap(ktheory, "commuting_pairs_rank", "ktheory.pairs",
                  lambda out, group: self.add(
                      "ktheory.pairs_terms",
                      sum(len(centralizer(group, i)) for i in range(len(group)))))

        def built(disc, *args):
            self.add("oscillator.matrix_dim", disc.size)

        def solved(report, *args):
            self.peak("oscillator.residual_ratio_max",
                      report.residual_max / (1e-8 * report.operator_norm_estimate))

        self.wrap(oscillator, "build_q0", "oscillator.build", built)
        self.wrap(oscillator, "spectral_check",
                  lambda disc, *a: f"oscillator.solve_{disc.dimension}d", solved)

    def layer_metrics(self) -> dict:
        """Per-layer times, self times and counters of this pass."""
        spans = self.spans

        def outermost(name):
            """Indices of the spans called `name` with no ancestor of that name."""
            found = []
            for i, s in enumerate(spans):
                if s[0] != name:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    found.append(i)
            return found

        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = {}
        for metric, name in LAYER_TIMES.items():
            out[metric] = sum(spans[i][2] - spans[i][1] for i in outermost(name))
        for metric, name in LAYER_SELF_TIMES.items():
            out[metric] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in outermost(name))
        out.update(self.counters)
        return out

    def write(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
