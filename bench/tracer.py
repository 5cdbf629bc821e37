"""Span tracer that wraps qsid's public functions from outside the package.

``Tracer.install`` replaces each traced function wherever a ``qsid.*``
module namespace (or class) holds it, including names one module imports
from another, and ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.

Every call becomes a span: name, start, end, parent span and op id.  Spans
are kept in flat arrays while the run lasts and written out when it ends.
Self time is a span's duration minus its child spans and minus the
tracer's counting hooks run after them; a "_ms" figure sums only the
outermost span of its name, so nested calls (gamma inside gamma_inverse)
are not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  The layer is the span name's prefix.
TARGETS = (
    ("qsid.series", "TruncatedSeries.__mul__", "series.mul"),
    ("qsid.series", "TruncatedSeries.__add__", "series.add"),
    ("qsid.series", "invert_one_minus", "series.invert"),
    ("qsid.series", "pochhammer_finite", "series.poch"),
    ("qsid.series", "pochhammer_infinite", "series.poch"),
    ("qsid.series", "compare_series", "series.compare"),
    ("qsid.series", "substitute_q_power", "series.transform"),
    ("qsid.series", "shift_a_by_q", "series.transform"),
    ("qsid.series", "swap_b_t", "series.transform"),
    ("qsid.rational", "product_series", "rational.product"),
    ("qsid.rational", "sum_with_geometric_tail", "rational.tail"),
    ("qsid.identities", "run_case", "identities.case"),
    ("qsid.identities", "build_thm11_side", "identities.build"),
    ("qsid.identities", "build_eq31_side", "identities.build"),
    ("qsid.identities", "build_thm31_side", "identities.build"),
    ("qsid.identities", "build_f_series", "identities.build"),
    ("qsid.identities", "eq31_substitution_path", "identities.build"),
    ("qsid.partitions", "enumerate_partitions", "partitions.enum"),
    ("qsid.partitions", "GeneratingPolynomial.from_partitions", "partitions.genpoly"),
    ("qsid.bijections", "audit_bijection", "bijections.audit"),
    ("qsid.bijections", "gamma", "bijections.map"),
    ("qsid.bijections", "gamma_inverse", "bijections.map"),
    ("qsid.bijections", "two_modular_conjugate", "bijections.map"),
    ("qsid.cli", "verification_report_to_dict", "cli.serialize"),
    ("qsid.cli", "audit_report_to_dict", "cli.serialize"),
)

# Per-layer metrics: name -> (unit, better).  Every name is reported by a
# traced run on every workload; a layer the workload does not reach reads 0.
LAYER_METRICS = {
    "series.mul_calls": ("count", "lower"),
    "series.mul_ms": ("ms", "lower"),
    "series.mul_pairs": ("count", "lower"),
    "series.mul_yield": ("ratio", "higher"),
    "series.add_calls": ("count", "lower"),
    "series.add_ms": ("ms", "lower"),
    "series.invert_calls": ("count", "lower"),
    "series.invert_ms": ("ms", "lower"),
    "series.poch_calls": ("count", "lower"),
    "series.poch_ms": ("ms", "lower"),
    "series.compare_ms": ("ms", "lower"),
    "series.compared_coeffs": ("count", "higher"),
    "series.transform_ms": ("ms", "lower"),
    "series.peak_terms": ("count", "lower"),
    "rational.product_calls": ("count", "lower"),
    "rational.product_factors": ("count", "lower"),
    "rational.product_ms": ("ms", "lower"),
    "rational.product_self_ms": ("ms", "lower"),
    "rational.tail_calls": ("count", "lower"),
    "rational.tail_ms": ("ms", "lower"),
    "rational.poch_cache_hits": ("count", "higher"),
    "rational.poch_cache_misses": ("count", "lower"),
    "rational.poch_cache_hit_ratio": ("ratio", "higher"),
    "identities.case_ms": ("ms", "lower"),
    "identities.self_ms": ("ms", "lower"),
    "identities.build_ms": ("ms", "lower"),
    "identities.mismatch_rows": ("count", "lower"),
    "partitions.enum_calls": ("count", "lower"),
    "partitions.enumerated": ("count", "lower"),
    "partitions.enum_ms": ("ms", "lower"),
    "partitions.genpoly_ms": ("ms", "lower"),
    "partitions.enum_useful_ratio": ("ratio", "higher"),
    "bijections.audit_ms": ("ms", "lower"),
    "bijections.audit_self_ms": ("ms", "lower"),
    "bijections.map_calls": ("count", "lower"),
    "bijections.map_ms": ("ms", "lower"),
    "bijections.guard_ms": ("ms", "lower"),
    "bijections.enumerated_before_refusal": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.serialize_ms": ("ms", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def _ratio(num, den):
    return num / den if den else 0.0


class _JsonProxy:
    """Stands in for the ``json`` module inside qsid.cli, tracing ``dumps``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.span_names = []
        self.name_ids = {}
        self.depth = []  # open spans per name
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # 1 when no enclosing span has the same name
        self.hooks = array("d")  # seconds of counting hooks run by a span's children
        self.stack = [-1]
        self.current_op = [-1]
        self.counts = defaultdict(int)
        self.audits = {}  # open audit span -> [partitions listed, distinct parts]
        self._restore = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.depth.append(0)
        return self.name_ids[name]

    def wrap(self, fn, span_name, after=None):
        """``fn`` recording one span per call; ``after(args, result, error, idx)``."""
        nid = self._name_id(span_name)
        names, parents, ops, starts, ends, outer, hooks = (
            self.name, self.parent, self.op, self.start, self.end, self.outermost, self.hooks)
        stack, current_op, depth = self.stack, self.current_op, self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            hooks.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            result = error = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1
                if after is not None:
                    after(args, result, error, idx)
                    if stack[-1] >= 0:  # keep the hook out of the parent's self time
                        hooks[stack[-1]] += clock() - ends[idx]

        return traced

    # ------------------------------------------------------- per-call counts

    def _series_terms(self, result):
        if hasattr(result, "terms"):
            n = len(result.terms)
            if n > self.counts["peak_terms"]:
                self.counts["peak_terms"] = n
            return n
        return 0

    def _after_mul(self, args, result, error, idx):
        if error is None and hasattr(result, "terms"):
            x, y = args
            self.counts["mul_pairs"] += len(x.terms) * (len(y.terms) if hasattr(y, "terms") else 1)
            self.counts["mul_result_terms"] += self._series_terms(result)

    def _after_series(self, args, result, error, idx):
        self._series_terms(result)

    def _after_compare(self, args, result, error, idx):
        x, y = args
        v = min(x.valid_to_q, y.valid_to_q)
        keys = {m for m in x.terms if m[3] <= v} | {m for m in y.terms if m[3] <= v}
        self.counts["compared_coeffs"] += len(keys)

    def _after_case(self, args, result, error, idx):
        if result is not None:
            self.counts["mismatch_rows"] += len(result.mismatches)

    def _after_enum(self, args, result, error, idx):
        if result is None:
            return
        self.counts["enumerated"] += len(result)
        for open_span in reversed(self.stack):
            if open_span in self.audits:
                listed = self.audits[open_span]
                listed[0] += len(result)
                listed[1].update(p.parts for p in result)
                break

    def _after_audit(self, args, result, error, idx):
        listed, distinct = self.audits.pop(idx)
        self.counts["audit_listed"] += listed
        self.counts["audit_distinct"] += len(distinct)
        if isinstance(error, self._refusal):
            self.counts["enumerated_before_refusal"] += listed
            self.counts["guard_us"] += round((self.end[idx] - self.start[idx]) * 1e6)

    def _audit_wrap(self, fn):
        traced = self.wrap(fn, "bijections.audit", self._after_audit)

        def open_audit(*args, **kwargs):
            self.audits[len(self.start)] = [0, set()]
            return traced(*args, **kwargs)

        return open_audit

    def _product_wrap(self, fn):
        traced = self.wrap(fn, "rational.product", self._after_series)

        def count_factors(factors, *args, **kwargs):
            factors = list(factors)
            self.counts["product_factors"] += len(factors)
            return traced(factors, *args, **kwargs)

        return count_factors

    # ------------------------------------------------------------- install

    def install(self):
        """Wrap every target wherever a qsid module or class holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qsid" or name.startswith("qsid."))]
        self._refusal = sys.modules["qsid.series"].SeriesError
        afters = {"series.mul": self._after_mul, "series.compare": self._after_compare,
                  "identities.case": self._after_case, "partitions.enum": self._after_enum}
        special = {"bijections.audit": self._audit_wrap, "rational.product": self._product_wrap}
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            if span in special:
                wrapper = special[span](original)
            else:
                after = afters.get(span)
                if after is None and span.startswith("series."):
                    after = self._after_series
                wrapper = self.wrap(original, span, after)
            replacement = classmethod(wrapper) if is_classmethod else wrapper
            for holder in ([owner] if path else []) + modules:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._swap(holder, key, replacement)
        cli = sys.modules["qsid.cli"]
        self._swap(cli, "json", _JsonProxy(self.wrap(json.dumps, "cli.serialize")))

    def _swap(self, holder, key, value):
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # -------------------------------------------------------------- output

    def metrics(self, cache_delta, report_bytes, overhead_ratio):
        """Per-layer metrics (``LAYER_METRICS`` order) from the recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = list(self.hooks)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        top_ms = defaultdict(float)
        self_ms = defaultdict(float)
        for i in range(n):
            name = self.span_names[self.name[i]]
            calls[name] += 1
            self_ms[name] += (dur[i] - child[i]) * 1e3
            if self.outermost[i]:
                top_ms[name] += dur[i] * 1e3
        c = self.counts
        hits, misses = cache_delta
        values = {
            "series.mul_calls": calls["series.mul"],
            "series.mul_ms": top_ms["series.mul"],
            "series.mul_pairs": c["mul_pairs"],
            "series.mul_yield": _ratio(c["mul_result_terms"], c["mul_pairs"]),
            "series.add_calls": calls["series.add"],
            "series.add_ms": top_ms["series.add"],
            "series.invert_calls": calls["series.invert"],
            "series.invert_ms": top_ms["series.invert"],
            "series.poch_calls": calls["series.poch"],
            "series.poch_ms": top_ms["series.poch"],
            "series.compare_ms": top_ms["series.compare"],
            "series.compared_coeffs": c["compared_coeffs"],
            "series.transform_ms": top_ms["series.transform"],
            "series.peak_terms": c["peak_terms"],
            "rational.product_calls": calls["rational.product"],
            "rational.product_factors": c["product_factors"],
            "rational.product_ms": top_ms["rational.product"],
            "rational.product_self_ms": self_ms["rational.product"],
            "rational.tail_calls": calls["rational.tail"],
            "rational.tail_ms": top_ms["rational.tail"],
            "rational.poch_cache_hits": hits,
            "rational.poch_cache_misses": misses,
            "rational.poch_cache_hit_ratio": _ratio(hits, hits + misses),
            "identities.case_ms": top_ms["identities.case"],
            "identities.self_ms": self_ms["identities.case"] + self_ms["identities.build"],
            "identities.build_ms": top_ms["identities.build"],
            "identities.mismatch_rows": c["mismatch_rows"],
            "partitions.enum_calls": calls["partitions.enum"],
            "partitions.enumerated": c["enumerated"],
            "partitions.enum_ms": top_ms["partitions.enum"],
            "partitions.genpoly_ms": top_ms["partitions.genpoly"],
            "partitions.enum_useful_ratio": _ratio(c["audit_distinct"], c["audit_listed"]),
            "bijections.audit_ms": top_ms["bijections.audit"],
            "bijections.audit_self_ms": self_ms["bijections.audit"],
            "bijections.map_calls": calls["bijections.map"],
            "bijections.map_ms": top_ms["bijections.map"],
            "bijections.guard_ms": c["guard_us"] / 1e3,
            "bijections.enumerated_before_refusal": c["enumerated_before_refusal"],
            "cli.self_ms": self_ms["cli.main"] + self_ms["cli.serialize"],
            "cli.serialize_ms": top_ms["cli.serialize"],
            "cli.report_bytes": report_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: (values[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}

    def write(self, path):
        """Spans as a JSON header line followed by the raw column arrays."""
        header = {"names": self.span_names, "spans": len(self.start),
                  "columns": [["name", "H"], ["parent", "i"], ["op", "i"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.op, self.start, self.end):
                column.tofile(fh)
