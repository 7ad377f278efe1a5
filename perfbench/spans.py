"""Span recording around the public functions of the grigorchuk modules.

The library is not edited: each listed function is replaced, on its own
module and on every other grigorchuk module that imported it by name
(``wreath.min_conjugate``, ``growth.level_action``, ``cosets.perm_closure``
and so on), by a wrapper that records one span per call.  Spans stay in
memory as parallel arrays (name id, parent span, start, end) and are
written out once the traced call has returned.

Self time of a span is its duration minus the durations of its direct
child spans; recursive calls (``certify_exponent``, ``is_trivial``) nest
like any other call.  A generator function gets one span per resumption,
so its self time is the time spent producing items, not the lifetime of
the generator object.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# (span name, module, attribute path); a name may cover several targets
TRACED = [
    ("words.reduce_word", "words", "reduce_word"),
    ("words.min_conjugate", "words", "min_conjugate"),
    ("words.multiply", "words", "multiply"),
    ("words.iter_ball_free", "words", "iter_ball_free"),
    ("cubic.length_triple", "cubic", "length_triple"),
    ("cubic.triple_compare_power", "cubic", "triple_compare_power"),
    ("cubic.lambda_length", "cubic", "lambda_length"),
    ("cubic.CubicNumber.compare", "cubic", "CubicNumber.compare"),
    ("cubic.radius_index", "cubic", "radius_index"),
    ("cubic.log_lambda_enclosure", "cubic", "log_lambda_enclosure"),
    ("wreath.split", "wreath", "split"),
    ("wreath.certify_exponent", "wreath", "certify_exponent"),
    ("wreath.is_trivial", "wreath", "is_trivial"),
    ("wreath.order", "wreath", "order"),
    ("wreath.level_action", "wreath", "level_action"),
    ("wreath.lemma_split_contraction_check", "wreath", "lemma_split_contraction_check"),
    ("growth.ball_grigorchuk", "growth", "ball_grigorchuk"),
    ("growth.probe", "growth", "_SignatureEquality.probe"),
    ("growth.probe", "growth", "_PureEquality.probe"),
    ("cosets.todd_coxeter", "cosets", "todd_coxeter"),
    ("cosets.reidemeister_schreier", "cosets", "reidemeister_schreier"),
    ("cosets.abelian_invariants", "cosets", "abelian_invariants"),
    ("snf.smith_normal_form", "snf", "smith_normal_form"),
    ("permgrp.closure", "permgrp", "closure"),
    ("permgrp.enumerate_subgroups", "permgrp", "enumerate_subgroups"),
    ("permgrp.small_isomorphic", "permgrp", "small_isomorphic"),
]

# spans whose truthy results are counted (growth.probe returns True for a
# new element), for the useful-work ratio
COUNT_TRUE = {"growth.probe"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.truthy: list[int] = []
        self.missing: set[str] = set()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.truthy.append(0)
        return self.names.index(name)

    def _wrap(self, nid: int, fn, count_true: bool):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, truthy = self._stack, self.calls, self.truthy
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            # open_span() inlined: this wrapper runs millions of times
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_true and result:
                truthy[nid] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in TRACED that exists; a name none of whose
        targets exists is noted as missing."""
        modules = [m for k, m in list(sys.modules.items()) if k == "grigorchuk" or k.startswith("grigorchuk.")]
        found = set()
        for name, mod_name, path in TRACED:
            nid = self._name_id(name)
            owner = sys.modules.get(f"grigorchuk.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            found.add(name)
            wrapped = self._wrap(nid, fn, name in COUNT_TRUE)
            setattr(owner, attr, wrapped)
            if outer:
                continue  # a method: every caller looks it up on the class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        self.missing = set(self.names) - found

    def summary(self) -> dict:
        """Per name: calls, self seconds, truthy results; plus parent-name
        counts of direct children, for ratios measured at the boundary."""
        n_names = len(self.names)
        self_s = [0.0] * n_names
        child_of = {}  # (child name id, parent name id) -> spans
        names, parents = self.span_name, self.span_parent
        for nid, p, start, end in zip(names, parents, self.span_start, self.span_end):
            dur = end - start
            self_s[nid] += dur
            if p >= 0:
                self_s[names[p]] -= dur
                key = (nid, names[p])
                child_of[key] = child_of.get(key, 0) + 1
        return {
            "spans": len(names),
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self_s)),
            "truthy": dict(zip(self.names, self.truthy)),
            "children": {f"{self.names[c]}<{self.names[p]}": k for (c, p), k in child_of.items()},
            "missing": sorted(self.missing),
        }

    def write(self, stem) -> None:
        """Write the spans as ``<stem>.json`` (names, record layout) and
        ``<stem>.bin`` (the four arrays, one after another)."""
        with open(f"{stem}.json", "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "count": len(self.span_start),
                    "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                    "byteorder": sys.byteorder,
                },
                fh,
            )
        with open(f"{stem}.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
