"""Span tracing from outside the library.

`Tracer.install` wraps the public functions of the ten pgcone modules and
puts each wrapper into every pgcone namespace that holds the original,
so calls through names bound by `from ... import` (for example
`pgcone.rays.integer_rank`) are caught too. Spans are recorded only while
an op runs; they stay in memory until the run writes them out.

A span is `[name, start, end, parent, op, attrs]`; `parent` is the index
of the enclosing span or None for an op's root span, whose layer is the
benchmark harness ("bench").
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("fields", "plane", "cone", "weights", "simplex", "rays",
          "decode", "effect", "construct", "cli")
HARNESS = "bench"

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _lp_attrs(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": len(lp.constraints), "vars": len(lp.objective),
            "status": result.status}


def _dd_attrs(args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    return {"n": H.n_cols, "returned": len(result)}


# Facts a few functions report about one call, taken from its arguments
# and result after the span has ended.
OBSERVERS = {
    "simplex.lp_solve": _lp_attrs,
    "rays.enumerate_rays": _dd_attrs,
    "cone.is_member": lambda args, kwargs, result: {"member": result[0]},
    "cone.is_minimal": lambda args, kwargs, result: {"minimal": result},
    "cone.integer_rank": lambda args, kwargs, result: {"rank": result},
}


def public_functions(module):
    """Functions a module defines under a public name. In `cli` only
    `dispatch` is wrapped, so the subcommand handlers count as its self
    time (argument parsing, JSON and file writing)."""
    short = module.__name__.rsplit(".", 1)[-1]
    if short == "cli":
        return {"dispatch": module.dispatch}
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pgcone.{layer}")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [m for key, m in sys.modules.items()
                      if key == "pgcone" or key.startswith("pgcone.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def begin_op(self, op_id, kind, start):
        self._op = op_id
        self.spans.append([f"{HARNESS}.{kind}", start, None, None, op_id, None])
        self._stack = [len(self.spans) - 1]

    def end_op(self, end):
        self.spans[self._stack[0]][END] = end
        self._stack = []
        self._op = None

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, None, None, self._stack[-1], self._op, None]
            spans.append(span)
            self._stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if observe is not None:
                span[ATTRS] = observe(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, bytes_written):
    """The per-layer metrics of one traced pass, by name."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for sid, span in enumerate(spans):
        by_name[span[NAME]].append(sid)

    def has_ancestor_in(sid, group):
        parent = spans[sid][PARENT]
        while parent is not None:
            if group(spans[parent][NAME]):
                return True
            parent = spans[parent][PARENT]
        return False

    def busy(sids, group):
        """Wall time inside the outermost of the given spans of a group."""
        return sum(spans[sid][END] - spans[sid][START] for sid in sids
                   if not has_ancestor_in(sid, group))

    def calls(name):
        return len(by_name[name])

    def fn_busy(name):
        return busy(by_name[name], lambda other: other == name)

    def fn_self(name):
        return sum(selfs[sid] for sid in by_name[name])

    def attr_count(name, key, value):
        return sum(1 for sid in by_name[name] if spans[sid][ATTRS]
                   and spans[sid][ATTRS][key] == value)

    m = {}
    lp = [spans[sid][ATTRS] for sid in by_name["simplex.lp_solve"]
          if spans[sid][ATTRS]]
    m["simplex.lp_solve.calls"] = calls("simplex.lp_solve")
    m["simplex.lp_solve.busy_s"] = fn_busy("simplex.lp_solve")
    m["simplex.lp_solve.rows_in"] = sum(a["rows"] for a in lp)
    m["simplex.lp_solve.vars_in"] = sum(a["vars"] for a in lp)
    m["simplex.lp_solve.nonoptimal"] = sum(1 for a in lp
                                           if a["status"] != "Optimal")
    for fn in ("integer_rank", "is_member", "active_rank", "cone_constraints"):
        m[f"cone.{fn}.calls"] = calls(f"cone.{fn}")
        m[f"cone.{fn}.busy_s"] = fn_busy(f"cone.{fn}")
    m["cone.is_member.reject_frac"] = _frac(
        attr_count("cone.is_member", "member", False), calls("cone.is_member"))
    m["cone.is_minimal.calls"] = calls("cone.is_minimal")
    m["cone.is_minimal.accept_frac"] = _frac(
        attr_count("cone.is_minimal", "minimal", True), calls("cone.is_minimal"))

    dd = by_name["rays.enumerate_rays"]
    dd_n = {sid: spans[sid][ATTRS]["n"] for sid in dd if spans[sid][ATTRS]}
    rank_tests = [sid for sid in by_name["cone.integer_rank"]
                  if spans[sid][PARENT] in dd_n]
    adjacent = sum(1 for sid in rank_tests if spans[sid][ATTRS]["rank"]
                   == dd_n[spans[sid][PARENT]] - 2)
    certifications = sum(1 for sid in by_name["cone.is_member"]
                         if spans[sid][PARENT] in dd_n)
    returned = sum(spans[sid][ATTRS]["returned"] for sid in dd_n)
    m["rays.enumerate_rays.calls"] = len(dd)
    m["rays.enumerate_rays.busy_s"] = fn_busy("rays.enumerate_rays")
    m["rays.enumerate_rays.self_s"] = fn_self("rays.enumerate_rays")
    m["rays.rank_tests"] = len(rank_tests)
    m["rays.adjacent_frac"] = _frac(adjacent, len(rank_tests))
    m["rays.certified_frac"] = _frac(returned, certifications)
    m["rays.rays_returned"] = returned

    for fn in ("decode.zero_optimal", "decode.feldman_lp_decode",
               "effect.awgnc_first_kind"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = fn_self(fn)
    m["effect.bsc_effectiveness.calls"] = calls("effect.bsc_effectiveness")
    m["effect.bsc_effectiveness.busy_s"] = fn_busy("effect.bsc_effectiveness")
    for fn in ("ex3_minimal_pcw", "ex5_procedure", "conjectured_family_search"):
        m[f"construct.{fn}.busy_s"] = fn_busy(f"construct.{fn}")

    def in_weights(name):
        return layer_of(name) == "weights"
    weights = [sid for sid, span in enumerate(spans) if in_weights(span[NAME])]
    m["weights.calls"] = len(weights)
    m["weights.busy_s"] = busy(weights, in_weights)
    for fn in ("plane.build_plane", "plane.verify_axioms",
               "plane.min_weight_codewords", "fields.field_new"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.busy_s"] = fn_busy(fn)
    m["cli.dispatch.calls"] = calls("cli.dispatch")
    m["cli.dispatch.bytes_written"] = bytes_written

    layer_self = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
    for sid, span in enumerate(spans):
        layer_self[layer_of(span[NAME])] += selfs[sid]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    return m
