"""Spans around calls into the library, for the traced run only.

``Tracer.install`` rebinds the public functions and methods listed in
``TARGETS`` to timing wrappers, in every ``gentorsion`` module namespace
that holds them, and ``uninstall`` puts the originals back.  Nothing under
``src`` changes.  Spans stay in memory as (name, start, end, parent index,
request id, note) and are written out when the run ends; per-layer
metrics, self times included, are computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict

LAYERS = ("intlin", "words", "extgroup", "metab", "catalog", "gentor", "cli")

TARGETS = {
    "intlin": ("smith_normal_form", "hermite_normal_form", "solve_integer_linear",
               "cokernel_structure", "unimodular_inverse", "element_order_in_cokernel",
               "IntMatrix.transpose", "IntMatrix.__matmul__", "IntMatrix.mat_vec",
               "IntMatrix.__add__", "IntMatrix.__sub__", "IntMatrix.__neg__",
               "IntMatrix.vstack", "IntMatrix.submatrix", "IntMatrix.det",
               "IntMatrix.is_unimodular", "AbelianStructure.canonical",
               "AbelianStructure.order_of", "AbelianStructure.lift"),
    "words": ("parse_word", "eval_word"),
    "extgroup": ("validate_extension", "spec_from_dict", "direct_product",
                 "ExtensionGroup.mul", "ExtensionGroup.inv", "ExtensionGroup.conj",
                 "ExtensionGroup.pow", "ExtensionGroup.abelianization",
                 "ExtensionGroup.verify_positive_identity_all"),
    "metab": ("MetabGroup.__init__", "MetabGroup.mul", "MetabGroup.inv", "MetabGroup.conj",
              "MetabGroup.pow", "MetabGroup.abelianization", "MetabGroup.is_torsion_free",
              "MetabGroup.has_trivial_center"),
    "catalog": ("build_dihedral_infinite", "build_klein_bottle", "build_promislow",
                "build_K_group", "build_wreath", "build_free_abelianized_extension",
                "build_casolo_gamma", "CasoloGroup.mul", "CasoloGroup.inv",
                "CasoloGroup.conj", "CasoloGroup.pow", "CasoloGroup.identity_conjugators"),
    "gentor": ("is_generalized_torsion", "gen_exponent_bounds", "witness_construct",
               "positive_identity_witnesses", "verify_identity_universal",
               "verify_identity_sampled", "gen_order_search"),
    "cli": ("run", "resolve_group"),
}

SNF = "intlin.smith_normal_form"
SOLVE = "intlin.solve_integer_linear"
SEARCH = "gentor.gen_order_search"
MULS = ("extgroup.ExtensionGroup.mul", "metab.MetabGroup.mul", "catalog.CasoloGroup.mul")

# what a span records besides its times: matrix cells, or whether a
# solve or search found something
NOTES = {
    SNF: lambda args, result: args[0].rows * args[0].cols,
    SOLVE: lambda args, result: result is not None,
    SEARCH: lambda args, result: result is not None,
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("intlin.snf_calls", "count", "lower"),
    ("intlin.snf_s", "s", "lower"),
    ("intlin.snf_max_cells", "count", "lower"),
    ("intlin.solve_calls", "count", "lower"),
    ("intlin.solve_hit_ratio", "ratio", "higher"),
    ("intlin.self_s", "s", "lower"),
    ("words.parse_s", "s", "lower"),
    ("words.eval_s", "s", "lower"),
    ("words.self_s", "s", "lower"),
    ("extgroup.mul_calls", "count", "lower"),
    ("extgroup.mul_us", "us", "lower"),
    ("extgroup.validate_s", "s", "lower"),
    ("extgroup.identity_universal_s", "s", "lower"),
    ("extgroup.self_s", "s", "lower"),
    ("metab.build_s", "s", "lower"),
    ("metab.torsion_s", "s", "lower"),
    ("metab.center_s", "s", "lower"),
    ("metab.mul_calls", "count", "lower"),
    ("metab.mul_us", "us", "lower"),
    ("metab.self_s", "s", "lower"),
    ("catalog.build_s", "s", "lower"),
    ("catalog.gamma_mul_calls", "count", "lower"),
    ("catalog.gamma_mul_us", "us", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("gentor.witness_s", "s", "lower"),
    ("gentor.identity_sampled_s", "s", "lower"),
    ("gentor.search_s", "s", "lower"),
    ("gentor.search_mul_calls", "count", "lower"),
    ("gentor.search_found_ratio", "ratio", "higher"),
    ("gentor.self_s", "s", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.untraced_rps", "1/s", "higher"),
    ("trace.traced_rps", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """Span recorder; times come from a ``SpeedClock`` and are scaled to the
    reference speed when the metrics are computed."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.request = "setup"
        self.active = True
        self._stack = []
        self._undo = []

    def set_request(self, request) -> None:
        self.request = request.rid

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the oracle's) record no spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "gentorsion" or n.startswith("gentorsion.")}
        namespaces = [m.__dict__ for m in modules.values()]
        for layer, names in TARGETS.items():
            module = modules.get(f"gentorsion.{layer}")
            if module is None:  # e.g. the CLI module outside the cli workload
                continue
            for dotted in names:
                wrapper_name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(wrapper_name, original))
                    self._undo.append((cls, attr, original))
                    continue
                original = module.__dict__[dotted]
                wrapped = self._wrap(wrapper_name, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapped
                            self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock, tracer = self.spans, self._stack, self.clock.stamp, self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request, None)
            if note is not None:
                spans[index] = (name, start, end, parent, tracer.request, note(args, result))
            return result

        return traced

    def write(self, path, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent",
                                                      "request", "note"]}) + "\n")
            for name, start, end, parent, rid, note in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                     parent, rid, note]) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (the clock must be synced).

        A span's self time is its duration minus its children's; a layer's
        self time sums that over the layer's spans.  Calls of the same
        function nested in each other count once each.
        """
        spans = self.spans
        scaled = self.clock.scaled
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(spans)
        in_search = [False] * len(spans)
        in_build = [False] * len(spans)
        self_time = defaultdict(float)
        snf_cells = solve_hits = search_found = search_muls = 0
        catalog_build = 0.0
        durations = [scaled(start, end) for _, start, end, *_rest in spans]
        for i, (name, _, _, parent, _, note) in enumerate(spans):
            duration = durations[i]
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                child[parent] += duration
                pname = spans[parent][0]
                in_search[i] = in_search[parent] or pname == SEARCH
                in_build[i] = in_build[parent] or pname.startswith("catalog.build_")
            if name == SNF:
                snf_cells = max(snf_cells, note)
            elif name == SOLVE:
                solve_hits += note
            elif name == SEARCH:
                search_found += note
            elif name in MULS and in_search[i]:
                search_muls += 1
            if name.startswith("catalog.build_") and not in_build[i]:
                catalog_build += duration
        for i, span in enumerate(spans):
            self_time[span[0].split(".")[0]] += durations[i] - child[i]

        def mean_us(name):
            return total[name] / calls[name] * 1e6 if calls[name] else 0.0

        out = {
            "intlin.snf_calls": calls[SNF],
            "intlin.snf_s": total[SNF],
            "intlin.snf_max_cells": snf_cells,
            "intlin.solve_calls": calls[SOLVE],
            "intlin.solve_hit_ratio": solve_hits / calls[SOLVE] if calls[SOLVE] else 0.0,
            "words.parse_s": total["words.parse_word"],
            "words.eval_s": total["words.eval_word"],
            "extgroup.mul_calls": calls[MULS[0]],
            "extgroup.mul_us": mean_us(MULS[0]),
            "extgroup.validate_s": total["extgroup.validate_extension"],
            "extgroup.identity_universal_s":
                total["extgroup.ExtensionGroup.verify_positive_identity_all"],
            "metab.build_s": total["metab.MetabGroup.__init__"],
            "metab.torsion_s": total["metab.MetabGroup.is_torsion_free"],
            "metab.center_s": total["metab.MetabGroup.has_trivial_center"],
            "metab.mul_calls": calls[MULS[1]],
            "metab.mul_us": mean_us(MULS[1]),
            "catalog.build_s": catalog_build,
            "catalog.gamma_mul_calls": calls[MULS[2]],
            "catalog.gamma_mul_us": mean_us(MULS[2]),
            "gentor.witness_s": total["gentor.witness_construct"],
            "gentor.identity_sampled_s": total["gentor.verify_identity_sampled"],
            "gentor.search_s": total[SEARCH],
            "gentor.search_mul_calls": search_muls,
            "gentor.search_found_ratio": search_found / calls[SEARCH] if calls[SEARCH] else 0.0,
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out
