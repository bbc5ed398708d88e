"""Spans around apnlab's layer functions, recorded from outside the program.

`Tracer.install` replaces each traced function on the name its callers
look it up by (a name imported into apnlab.cli, a VBF method, a module
attribute) with a wrapper that records a span: name, start, end, parent
span and job.  `uninstall` puts the originals back, so untraced jobs run
the unmodified program.  SplitMix64 draws are too many to keep one span
each; their time is summed into the `leaf` time of the enclosing span
instead, so each draw still pays a wrapper call.
"""
from __future__ import annotations

import functools
from time import perf_counter

import apnlab.cli as cli
import apnlab.constructions as constructions
import apnlab.field as field
import apnlab.invariants as invariants
import apnlab.search as search
from apnlab.vbf import VBF

# (owner, attribute, span name); a span name's prefix is its layer.
TRACED = [
    (cli, "main", "cli.main"),
    (cli, "field_for", "field.field_for"),
    (field, "field_for", "field.field_for"),
    (field.FieldSpec.__dict__["_tables"], "func", "field.tables"),
    (cli, "read_vbf1", "io.read_vbf1"),
    (cli, "read_lin1", "io.read_lin1"),
    (cli, "_emit", "io.write"),
    (VBF, "is_apn", "vbf.is_apn"),
    (VBF, "ddt", "vbf.ddt"),
    (VBF, "uniformity", "vbf.ddt"),
    (VBF, "walsh_spectrum", "vbf.walsh"),
    (VBF, "anf", "vbf.anf"),
    (VBF, "algebraic_degree", "vbf.anf"),
    (VBF, "is_quadratic", "vbf.anf"),
    (VBF, "dstar_set", "vbf.dstar"),
    (cli, "power_function", "vbf.build"),
    (cli, "hyperplane_modify", "constructions.build"),
    (cli, "coset_modify", "constructions.build"),
    (cli, "concatenate", "constructions.build"),
    (cli, "coset_criterion", "constructions.build"),
    (cli.CosetDecomposition, "from_subfield_trace", "constructions.build"),
    (cli, "th31_criterion", "constructions.th31"),
    (search, "th31_criterion", "constructions.th31"),
    (constructions, "admissible_sums", "constructions.admissible"),
    (cli, "concat_is_apn", "constructions.concat"),
    (cli, "switch", "constructions.switch"),
    (cli, "search_tr_l", "search.search_tr_l.{mode}"),
    (search, "linear_map_from_index", "search.decode"),
    (search, "hyperplane_modify", "constructions.hmod"),
    (cli, "gamma_rank", "invariants.gamma_rank"),
    (invariants, "gamma_rank", "invariants.gamma_rank"),
    (cli, "invariant_bundle", "invariants.bundle"),
    (cli, "distinguish", "invariants.distinguish"),
]
# Leaf calls: only ever made inside a traced span.
LEAVES = [(search.SplitMix64, "below", "search.rng")]


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "child", "leaf")

    def __init__(self, id_, name, parent, job):
        self.id, self.name, self.parent, self.job = id_, name, parent, job
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans
        self.leaf = 0.0   # time in summed leaf calls directly inside

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child - self.leaf

    def to_list(self) -> list:
        return [self.id, self.name, self.parent, self.job, self.start, self.end]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = -1
        self._saved = []

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name.format(mode=kwargs.get("mode", "exhaustive")),
                        stack[-1].id if stack else None, self.job)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
        return traced

    def _leaf_wrapper(self, fn, name):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args):
            t0 = perf_counter()
            out = fn(*args)
            if stack:
                stack[-1].leaf += perf_counter() - t0
            return out
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for group, make in ((TRACED, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for owner, attr, name in group:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, make(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
