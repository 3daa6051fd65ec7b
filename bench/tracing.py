"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``wreathcalc`` module.
A module-level function is rebound under every name any ``wreathcalc``
module holds it by (``theorems`` binds ``compose`` at import, for instance);
a method is replaced on its class.  Each wrapper records a span on a stack,
so a span's self time is its duration minus the time of the spans it
called.  Spans are aggregated in memory per wrapped function and handed
back at the end; nothing is written while the workload runs.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _terms(series) -> int:
    return len(series.terms)


def _chains(by_size) -> int:
    return sum(len(chains) for chains in by_size.values())


# (module, function or Class.method, self-time metric, call-count metric,
#  size metric, size of one result)
SPANS = (
    ("series", "GradedSeries.mul", "series.mul_s", "series.mul_calls",
     "series.result_terms", _terms),
    ("series", "GradedSeries.invert", "series.invert_s", None,
     "series.result_terms", _terms),
    ("series", "exp_of", "series.exp_log_pow_s", None,
     "series.result_terms", _terms),
    ("series", "log1p_of", "series.exp_log_pow_s", None,
     "series.result_terms", _terms),
    ("series", "pow1p_of", "series.exp_log_pow_s", None,
     "series.result_terms", _terms),
    ("series", "UniSeries.mul", "series.uni_s", None, None, None),
    ("series", "UniSeries.invert", "series.uni_s", None, None, None),
    ("series", "UniSeries.compose", "series.uni_s", None, None, None),
    ("series", "uni_analytic", "series.uni_s", None, None, None),
    ("series", "uni_reversion", "series.uni_s", None, None, None),
    ("series", "uni_pow1p_of", "series.uni_s", None, None, None),
    ("series", "natural_spec", "series.uni_s", None, None, None),
    ("plethysm", "compose", "plethysm.compose_s", "plethysm.compose_calls",
     "plethysm.compose_result_terms", _terms),
    ("plethysm", "plethystic_inverse", "plethysm.inverse_s", None, None, None),
    ("plethysm", "product_form_inverse", "plethysm.product_form_s", None,
     None, None),
    ("wreath", "enumerate_class_types", "wreath.types_s", None,
     "wreath.class_types", len),
    ("wreath", "type_representative", "wreath.types_s", None, None, None),
    ("wreath", "centralizer_order", "wreath.types_s", None, None, None),
    ("wreath", "frobenius_ch", "wreath.frobenius_s", None, None, None),
    ("dowling", "build_family", "dowling.build_s", "dowling.builds",
     "dowling.elements", lambda fp: fp.poset.n),
    ("dowling", "FamilyPoset.action_of", "dowling.action_s",
     "dowling.action_calls", None, None),
    ("posets", "Poset.chains", "posets.chains_s", None, "posets.chains",
     _chains),
    ("posets", "mobius_via_chains", "posets.chains_s", None, None, None),
    ("posets", "order_complex_homology", "posets.homology_s", None, None,
     None),
    ("posets", "fixed_subposet", "posets.fixed_s", None,
     "posets.fixed_elements", lambda sub_orig: sub_orig[0].n),
    ("posets", "Poset.mobius_from", "posets.mobius_s", None, None, None),
    ("posets", "equivariant_char_poly", "posets.charpoly_s", None, None,
     None),
    ("theorems", "closed_form", "theorems.closed_form_s", None, None, None),
    ("theorems", "brute_force_side", "theorems.brute_force_s", None, None,
     None),
    ("theorems", "natural_form", "theorems.natural_s", None, None, None),
    ("cli", "main", "cli.main_s", None, None, None),
)


def metric_names() -> list[str]:
    """Every per-layer metric, in a fixed order."""
    names: list[str] = []
    for _mod, _name, *metrics, _size in SPANS:
        for metric in metrics:
            if metric and metric not in names:
                names.append(metric)
    return names


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []   # child time of each open span
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.unbound: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, size):
        stack = self.stack
        self_s, total_s, calls, sizes = (self.self_s, self.total_s,
                                         self.calls, self.sizes)
        for table in (self_s, total_s, calls, sizes):
            table[span] = 0

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[0]
                total_s[span] += dt
                calls[span] += 1
                if stack:
                    stack[-1][0] += dt
            if size is not None:
                sizes[span] += size(result)
            return result

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wreathcalc"
                                         or name.startswith("wreathcalc."))]
        for mod_name, qual, *_metrics, size in SPANS:
            span = "%s.%s" % (mod_name, qual)
            mod = sys.modules.get("wreathcalc." + mod_name)
            cls_name, _, meth = qual.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    self.unbound.append(span)
                    continue
                self._rebind(cls, meth, self._wrap(span, fn, size))
                continue
            fn = getattr(mod, qual, None)
            if fn is None:
                self.unbound.append(span)
                continue
            wrapper = self._wrap(span, fn, size)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, attr, wrapper)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def metrics(self) -> dict[str, float]:
        """Self time per layer metric, plus the call and size counts."""
        out = {name: 0.0 if name.endswith("_s") else 0
               for name in metric_names()}
        for mod_name, qual, time_m, calls_m, size_m, _size in SPANS:
            span = "%s.%s" % (mod_name, qual)
            if span not in self.calls:
                continue
            out[time_m] += self.self_s[span]
            if calls_m:
                out[calls_m] += self.calls[span]
            if size_m:
                out[size_m] += self.sizes[span]
        return out

    def spans(self) -> dict[str, dict]:
        return {span: {"calls": self.calls[span],
                       "self_s": self.self_s[span],
                       "total_s": self.total_s[span],
                       "size": self.sizes[span]}
                for span in self.calls}
