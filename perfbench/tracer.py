"""Spans around the package's public functions, recorded from outside.

The tracer replaces each traced function in every projdyn module
namespace that holds it (so `mapiter.poly_gcd_many` and the
`greenpot.green_eval` that `grid_sample` calls are both seen) and wraps
`HomPoly.compose`, `__mul__`, `__rmul__` and `__pow__` on the class.
Spans (name, start, end, parent, job) stay in memory until the run
ends; `rollup` turns them into the per-layer metrics.
"""

import gzip
import json
import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

# span name -> (module holding the function, attribute name)
TRACED = {
    "polycore.exact_div": ("polycore", "exact_div"),
    "polycore.int_primitive": ("polycore", "int_primitive"),
    "polycore.poly_gcd": ("polycore", "poly_gcd"),
    "polycore.poly_gcd_many": ("polycore", "poly_gcd_many"),
    "polycore.coprime_certificate": ("polycore", "coprime_certificate"),
    "polycore.coprime_certificate_many": ("polycore", "coprime_certificate_many"),
    "polycore.same_up_to_scalar": ("polycore", "same_up_to_scalar"),
    "polycore.parse_poly": ("polycore", "parse_poly"),
    "polycore.poly_to_text": ("polycore", "poly_to_text"),
    "polycore.random_hompoly": ("polycore", "random_hompoly"),
    "mapiter.make_map": ("mapiter", "make_map"),
    "mapiter.compose_extract": ("mapiter", "compose_extract"),
    "mapiter.iterate_degrees": ("mapiter", "iterate_degrees"),
    "mapiter.infer_qas": ("mapiter", "infer_qas"),
    "mapiter.verify_lifting_recurrence": ("mapiter", "verify_lifting_recurrence"),
    "mapiter.certificate_digest": ("mapiter", "certificate_digest"),
    "mapiter.load_map": ("mapiter", "load_map"),
    "mapiter.save_map": ("mapiter", "save_map"),
    "mapiter.map_to_text": ("mapiter", "map_to_text"),
    "specdeg.char_poly_roots": ("specdeg", "char_poly_roots"),
    "specdeg.extend_degrees": ("specdeg", "extend_degrees"),
    "specdeg.check_asymptotics": ("specdeg", "check_asymptotics"),
    "specdeg.check_growth_bounds": ("specdeg", "check_growth_bounds"),
    "specdeg.check_sn_identity": ("specdeg", "check_sn_identity"),
    "family2.build_family_map": ("family2", "build_family_map"),
    "family2.random_family": ("family2", "random_family"),
    "family2.check_coprimality": ("family2", "check_coprimality"),
    "family2.check_intersection_conditions": ("family2", "check_intersection_conditions"),
    "family2.check_rank_and_pencil": ("family2", "check_rank_and_pencil"),
    "family2.load_family": ("family2", "load_family"),
    "family2.save_family": ("family2", "save_family"),
    "family2.parse_family_text": ("family2", "parse_family_text"),
    "family2.family_to_text": ("family2", "family_to_text"),
    "greenpot.green_eval": ("greenpot", "green_eval"),
    "greenpot.functional_eq_residual": ("greenpot", "functional_eq_residual"),
    "greenpot.telescope_residual": ("greenpot", "telescope_residual"),
    "greenpot.grid_sample": ("greenpot", "grid_sample"),
    "greenpot.export_grid_csv": ("greenpot", "export_grid_csv"),
    "greenpot.export_grid_pgm": ("greenpot", "export_grid_pgm"),
    "cli.main": ("cli", "main"),
}
METHODS = {"compose": "polycore.compose", "__mul__": "polycore.mul",
           "__rmul__": "polycore.mul", "__pow__": "polycore.mul"}

# metric groups whose self time is summed over several span names
GROUPS = {
    "polycore.text": ("polycore.parse_poly", "polycore.poly_to_text"),
    "polycore.coprime_certificate": ("polycore.coprime_certificate",
                                     "polycore.coprime_certificate_many"),
    "specdeg.checks": ("specdeg.check_asymptotics", "specdeg.check_growth_bounds",
                       "specdeg.check_sn_identity"),
    "family2.io": ("family2.load_family", "family2.save_family",
                   "family2.parse_family_text", "family2.family_to_text"),
    "greenpot.export": ("greenpot.export_grid_csv", "greenpot.export_grid_pgm"),
    "greenpot.residuals": ("greenpot.functional_eq_residual", "greenpot.telescope_residual"),
}
LAYERS = ("polycore", "mapiter", "specdeg", "family2", "greenpot", "cli")

# (metric name, unit, better); every name is printed by a traced run
PER_LAYER = [
    ("polycore.self_s", "s", "lower"),
    ("polycore.compose.calls", "count", "lower"),
    ("polycore.compose.self_s", "s", "lower"),
    ("polycore.compose.terms_out", "count", "lower"),
    ("polycore.mul.calls", "count", "lower"),
    ("polycore.mul.self_s", "s", "lower"),
    ("polycore.mul.terms_out", "count", "lower"),
    ("polycore.exact_div.calls", "count", "lower"),
    ("polycore.exact_div.self_s", "s", "lower"),
    ("polycore.exact_div.not_divisible", "count", "lower"),
    ("polycore.int_primitive.calls", "count", "lower"),
    ("polycore.int_primitive.self_s", "s", "lower"),
    ("polycore.poly_gcd.calls", "count", "lower"),
    ("polycore.poly_gcd.self_s", "s", "lower"),
    ("polycore.poly_gcd.nontrivial", "count", "lower"),
    ("polycore.poly_gcd_many.calls", "count", "lower"),
    ("polycore.poly_gcd_many.self_s", "s", "lower"),
    ("polycore.coprime_certificate.calls", "count", "lower"),
    ("polycore.coprime_certificate.self_s", "s", "lower"),
    ("polycore.coprime_certificate.certified", "count", "higher"),
    ("polycore.text.self_s", "s", "lower"),
    ("polycore.resource_limit", "count", "lower"),
    ("mapiter.self_s", "s", "lower"),
    ("mapiter.compose_extract.calls", "count", "lower"),
    ("mapiter.compose_extract.total_s", "s", "lower"),
    ("mapiter.compose_extract.extracted_deg", "count", "lower"),
    ("mapiter.iterate_degrees.total_s", "s", "lower"),
    ("mapiter.verify_lifting_recurrence.calls", "count", "lower"),
    ("mapiter.verify_lifting_recurrence.total_s", "s", "lower"),
    ("mapiter.infer_qas.total_s", "s", "lower"),
    ("mapiter.certificate_digest.total_s", "s", "lower"),
    ("mapiter.load_map.total_s", "s", "lower"),
    ("specdeg.self_s", "s", "lower"),
    ("specdeg.char_poly_roots.calls", "count", "lower"),
    ("specdeg.char_poly_roots.self_s", "s", "lower"),
    ("specdeg.extend_degrees.self_s", "s", "lower"),
    ("specdeg.checks.self_s", "s", "lower"),
    ("family2.self_s", "s", "lower"),
    ("family2.random_family.calls", "count", "lower"),
    ("family2.random_family.self_s", "s", "lower"),
    ("family2.check_coprimality.self_s", "s", "lower"),
    ("family2.check_intersection_conditions.calls", "count", "lower"),
    ("family2.check_intersection_conditions.self_s", "s", "lower"),
    ("family2.check_intersection_conditions.unknown", "count", "lower"),
    ("family2.check_intersection_conditions.unresolved", "count", "lower"),
    ("family2.check_intersection_conditions.boxed_points", "count", "lower"),
    ("family2.check_rank_and_pencil.self_s", "s", "lower"),
    ("family2.io.self_s", "s", "lower"),
    ("greenpot.self_s", "s", "lower"),
    ("greenpot.grid_sample.calls", "count", "lower"),
    ("greenpot.grid_sample.self_s", "s", "lower"),
    ("greenpot.grid_sample.nodes", "count", "higher"),
    ("greenpot.grid_sample.nodes_ok", "count", "higher"),
    ("greenpot.export.self_s", "s", "lower"),
    ("greenpot.export.bytes", "bytes", "lower"),
    ("greenpot.green_eval.calls", "count", "lower"),
    ("greenpot.green_eval.self_s", "s", "lower"),
    ("greenpot.green_eval.orbit_steps", "count", "lower"),
    ("greenpot.green_eval.errors", "count", "lower"),
    ("greenpot.residuals.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.nonzero_exit", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.layers_self_s", "s", "lower"),
    ("trace.bench_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.jobs", "count", "higher"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        # off while the benchmark checks outputs, so package calls made by
        # a check count as benchmark time, not layer time
        self.active = True
        self.counts = defaultdict(int)
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self
        on_result = RESULT_HOOKS.get(name)
        on_error = ERROR_HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, tracer.job]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if on_error:
                    on_error(counts, exc, spans[parent][0] if parent >= 0 else "", args, kwargs)
                raise
            span[2] = perf_counter()
            stack.pop()
            if on_result:
                on_result(counts, out, spans[parent][0] if parent >= 0 else "", args, kwargs)
            return out

        return traced

    def install(self):
        modules = [getattr(self.mods, m) for m in LAYERS] + [self.mods.package]
        for name, (home, attr) in TRACED.items():
            orig = getattr(getattr(self.mods, home), attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        cls = self.mods.polycore.HomPoly
        for attr, name in METHODS.items():
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path, rollup):
        """JSON lines: the rollup first, then [name, start, end, parent, job] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"rollup": rollup}) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    def rollup(self, wall_s, bench_s, jobs, jobs_per_s):
        durations = defaultdict(float)
        selfs = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[idx]
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
            calls[name] += 1
            selfs[name] += dur - child_time[idx]
            # outermost span of a name only, so recursion is not counted twice
            if parent < 0 or not self._inside(parent, name):
                durations[name] += dur
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
        names = set(TRACED) | set(METHODS.values())
        for name in names:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = selfs[name]
            m[f"{name}.total_s"] = durations[name]
        for group, members in GROUPS.items():
            m[f"{group}.calls"] = sum(calls[k] for k in members)
            m[f"{group}.self_s"] = sum(selfs[k] for k in members)
        m.update(self.counts)
        layers_self = sum(selfs.values())
        m["trace.wall_s"] = wall_s
        m["trace.layers_self_s"] = layers_self
        m["trace.bench_s"] = bench_s
        m["trace.remainder_s"] = wall_s - layers_self - bench_s
        m["trace.jobs"] = jobs
        m["trace.jobs_per_s"] = jobs_per_s
        m["trace.spans"] = len(self.spans)
        return {name: {"value": m.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}

    def _inside(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


# -- counters taken from results and exceptions ---------------------------------


def _terms(key):
    # a power multiplies through nested mul spans; count its output once
    def hook(counts, out, parent, args, kwargs):
        if parent != key.rsplit(".", 1)[0]:
            counts[key] += len(getattr(out, "terms", ()))
    return hook


def _gcd(counts, out, parent, args, kwargs):
    counts["polycore.poly_gcd.nontrivial"] += out.degree > 0


def _certified(counts, out, parent, args, kwargs):
    counts["polycore.coprime_certificate.certified"] += bool(out)


def _extracted(counts, out, parent, args, kwargs):
    counts["mapiter.compose_extract.extracted_deg"] += out[0].primitive.degree


def _intersection(counts, out, parent, args, kwargs):
    counts["family2.check_intersection_conditions.unknown"] += out.verdict == "UNKNOWN"
    counts["family2.check_intersection_conditions.unresolved"] += out.unresolved
    counts["family2.check_intersection_conditions.boxed_points"] += out.boxed_points


def _grid(counts, out, parent, args, kwargs):
    flat = [s for row in out.status for s in row]
    counts["greenpot.grid_sample.nodes"] += len(flat)
    counts["greenpot.grid_sample.nodes_ok"] += flat.count("OK")


def _export_bytes(suffixes):
    def hook(counts, out, parent, args, kwargs):
        path = str(args[1] if len(args) > 1 else kwargs["path"])
        counts["greenpot.export.bytes"] += sum(os.path.getsize(path + s) for s in suffixes)
    return hook


def _green_steps(counts, out, parent, args, kwargs):
    counts["greenpot.green_eval.orbit_steps"] += len(out[1])


def _green_error(counts, exc, parent, args, kwargs):
    counts["greenpot.green_eval.errors"] += 1
    step = getattr(exc, "step", None)
    if step:
        counts["greenpot.green_eval.orbit_steps"] += step


def _not_divisible(counts, exc, parent, args, kwargs):
    if type(exc).__name__ == "NotDivisible":
        counts["polycore.exact_div.not_divisible"] += 1


def _resource_limit(counts, exc, parent, args, kwargs):
    # counted once, where the exception leaves the polynomial layer
    if type(exc).__name__ == "ResourceLimit" and not parent.startswith("polycore."):
        counts["polycore.resource_limit"] += 1


def _exit(counts, out, parent, args, kwargs):
    counts["cli.nonzero_exit"] += out != 0


RESULT_HOOKS = {
    "polycore.mul": _terms("polycore.mul.terms_out"),
    "polycore.compose": _terms("polycore.compose.terms_out"),
    "polycore.poly_gcd": _gcd,
    "polycore.coprime_certificate": _certified,
    "polycore.coprime_certificate_many": _certified,
    "mapiter.compose_extract": _extracted,
    "family2.check_intersection_conditions": _intersection,
    "greenpot.grid_sample": _grid,
    "greenpot.export_grid_csv": _export_bytes(("",)),
    "greenpot.export_grid_pgm": _export_bytes(("", ".json")),
    "greenpot.green_eval": _green_steps,
    "cli.main": _exit,
}
ERROR_HOOKS = {name: _resource_limit for name in list(TRACED) + list(METHODS.values())
               if name.startswith("polycore.")}
ERROR_HOOKS["polycore.exact_div"] = lambda c, e, p, a, k: (
    _not_divisible(c, e, p, a, k), _resource_limit(c, e, p, a, k))
ERROR_HOOKS["greenpot.green_eval"] = _green_error
