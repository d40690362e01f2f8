"""Span tracing of kleinian's layer boundaries, installed from outside the package.

A :class:`Tracer` replaces chosen functions and methods of the kleinian
modules with wrappers that record one span per call: name, start, end,
parent span and an optional tag.  Spans are kept in memory and written
out once, when the traced process ends; :func:`summarize` turns them into
inclusive times per name and self times per module.  A handful of
counters is taken from the wrapped calls' arguments and results, so the
program itself is not touched.
"""

from __future__ import annotations

import functools
import sys
import time

#: Layer boundaries, per module: module-level functions and public methods.
#: Fine-grained accessors (symbol factories, table lookups, ``TauModel.q``,
#: ``AbelianContext.diff`` and ``ladder``) are left out: they run far more
#: often than these boundaries, and their time counts toward the traced
#: function that calls them.
TARGETS = {
    "curves": ["parse_spec", "local_expansion", "newton_puiseux_at_infinity",
               "differentials", "winding_vectors", "kleinian_polar", "omega_alg"],
    "taucalc": ["ladder_reduce", "TauModel.build", "TauModel.tau_t_derivative",
                "TauModel.tau_t_derivative_abelian", "TauModel.apply_time_poly",
                "TauModel.hook", "TauModel.a_hook", "TauModel.schur_apply"],
    "engine": ["reduce_with_rules", "reduce_mod_db", "plucker_relation",
               "giambelli_rank3_relation", "linear_solve", "classify",
               "derive_at_weight", "derive_range", "cross_differentiate",
               "kummer_quartic", "RelationDB.add_layer", "RelationDB.closure"],
    "klein": ["klein_expand", "jacobi_inversion_extract"],
    "document": ["poly_json", "poly_from_json", "relation_json", "relation_from_json",
                 "export_document", "RelationDocument.to_json",
                 "RelationDocument.from_json", "RelationDocument.to_db"],
    "cli": ["main", "run_derive", "cached_tau_model", "verify_document"],
}

MODULES = tuple(TARGETS)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._multisets: set[tuple[int, ...]] = set()

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, tag=None, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(args, kwargs, out, rec)
            return out

        return traced

    # -- counters taken at the boundaries -----------------------------------

    def _hooks(self):
        def tau_key(args, kwargs, out, rec):
            # a request is a call of the abelian entry point, or a direct call
            # of tau_t_derivative from anywhere else
            parent = rec[3]
            if rec[0].endswith("_abelian") or parent < 0 or \
                    self.spans[parent][0] != "taucalc.TauModel.tau_t_derivative_abelian":
                self.count("taucalc.tau_derivative_calls")
            self._multisets.add(tuple(sorted(_arg(args, kwargs, 1, "times"))))
            self.counters["taucalc.time_multisets"] = len(self._multisets)

        def reduced(args, kwargs, out, rec):
            self.count("engine.reduce_calls")
            parent = rec[3]
            if parent >= 0 and self.spans[parent][0] == "engine.derive_at_weight":
                self.count("engine.rows")
                self.count("engine.rows_surviving", 0 if out.is_zero() else 1)

        def closure(args, kwargs, out, rec):
            rules, rows = out
            self.count("engine.closure_rules", len(rules))
            self.count("engine.collision_rows", len(rows))

        def solved(args, kwargs, out, rec):
            solved_rows, residual = out
            self.count("engine.solve_pivots", len(solved_rows))
            self.count("engine.residual_rows", len(residual))

        def order(args, kwargs, out, rec):
            got = _arg(args, kwargs, 1, "order")
            self.counters["curves.expansion_order"] = max(
                self.counters.get("curves.expansion_order", 0), got)

        return {
            "curves.newton_puiseux_at_infinity": (lambda a, k: _arg(a, k, 1, "order"), order),
            "taucalc.TauModel.tau_t_derivative": (None, tau_key),
            "taucalc.TauModel.tau_t_derivative_abelian": (None, tau_key),
            "engine.reduce_with_rules": (None, reduced),
            "engine.plucker_relation": (
                None, lambda a, k, out, rec: self.count("engine.row_terms", len(out.terms))),
            "engine.RelationDB.closure": (None, closure),
            "engine.linear_solve": (None, solved),
            "engine.derive_at_weight": (lambda a, k: _arg(a, k, 0, "weight"), None),
            "klein.jacobi_inversion_extract": (
                None, lambda a, k, out, rec: self.count("klein.relations", len(out[2]))),
            "document.RelationDocument.to_json": (
                None, lambda a, k, out, rec: self.count("document.bytes", len(out.encode()))),
        }

    def install(self):
        """Wrap every target, in its module and wherever it was imported by name."""
        hooks = self._hooks()
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "kleinian" or n.startswith("kleinian."))]
        for mod_name, targets in TARGETS.items():
            mod = sys.modules.get("kleinian." + mod_name)
            for target in targets:
                name = "%s.%s" % (mod_name, target)
                tag, after = hooks.get(name, (None, None))
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, tag, after)))
                    continue
                wrapped = self.wrap(name, raw, tag, after)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            setattr(m, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "missing": self.missing}


def summarize(spans: list[list], window: tuple[float, float] | None = None) -> dict:
    """Inclusive and self time per span name, self time per module.

    Only spans that start inside ``window`` (a half-open (start, end) pair;
    every span when None) count.  Inclusive time sums the spans of a name
    that have no ancestor of the same name, so recursion is not counted
    twice; ``tagged`` splits it by span tag.  Self time is a span's
    duration minus the durations of its direct children.  The self time of
    a root span (the ``cli.main`` entry point) lies outside every layer
    boundary, so it is ``root_self`` and not part of ``module_self``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = {}
    self_times: dict[str, float] = {}
    tagged: dict[tuple[str, object], float] = {}
    module_self = {m: 0.0 for m in MODULES}
    root_self = 0.0
    count = 0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if window is not None and not window[0] <= start < window[1]:
            continue
        count += 1
        dur = end - start
        own = dur - child_time[i]
        self_times[name] = self_times.get(name, 0.0) + own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + dur
            if tag is not None:
                tagged[(name, tag)] = tagged.get((name, tag), 0.0) + dur
        if parent < 0:
            root_self += own
        else:
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + own
    return {"inclusive": inclusive, "self": self_times, "tagged": tagged,
            "module_self": module_self, "root_self": root_self, "spans": count}
