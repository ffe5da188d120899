"""Per-layer spans for qform, recorded from outside the package.

install() rebinds each traced public function, in every `qform.*` module of
sys.modules that holds it (its own module and every module that imported it
by name), to a wrapper that records a span: name, start, end and parent.
fold() is called between operations: it turns the operation's spans into
self times (a span's duration minus its child spans' durations) and clears
them, so memory stays bounded by the largest single operation.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED = {
    "cli": ("main",),
    "decide": ("decide", "decide_binary_tree", "decide_binary_squareclass"),
    "forms": ("is_isotropic_mod_p", "factor_discriminant", "parse_form",
              "odd_singular_reduction", "two_singular_reduction"),
    "padic": ("legendre", "is_square_in_qp", "valuation", "mod_inverse"),
    "oracle": ("coverage", "cross_check", "excluded_classes"),
    "witness": ("approximate_quotient", "lift_representation",
                "lift_representation_two", "exclusion_certificate"),
}
STRATEGIES = ("lift", "reduce-lift", "enumeration")


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound_args(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_coverage(fn, args, kwargs, report):
    a = _bound_args(fn, args, kwargs)
    points = (2 * a["bound"] + 1) ** a["f"].rank
    return points, bool(report.missing), report.quotients_sampled


def _note_witness(fn, args, kwargs, witness):
    f = _bound_args(fn, args, kwargs)["f"]
    return witness.strategy, f.rank == 2


def _note_certificate(fn, args, kwargs, cert):
    return (2 * _bound_args(fn, args, kwargs)["verify_bound"] + 1) ** 2


NOTES = {"oracle.coverage": _note_coverage,
         "witness.approximate_quotient": _note_witness,
         "witness.exclusion_certificate": _note_certificate}


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, funcs in TRACED.items() for f in funcs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.full_box_points = 0
        self.full_box_s = 0.0
        self.early_stop_self_s = 0.0
        self.quotients_sampled = 0
        self.strategy_calls = dict.fromkeys(STRATEGIES, 0)
        self.binary_fallbacks = 0
        self.verify_points = 0
        self.verify_s = 0.0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qform" or name.startswith("qform.")]
        for fid, name in enumerate(self.names):
            module, func = name.split(".")
            original = getattr(sys.modules[f"qform.{module}"], func)
            wrapper = self._wrap(fid, original, NOTES.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fid, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(fn, args, kwargs, result)
            return result
        return traced

    def fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, _, note) in enumerate(spans):
            own = end - start - child[i]
            self.calls[fid] += 1
            self.self_s[fid] += own
            if note is not None:
                self._derive(self.names[fid], note, end - start, own)
        spans.clear()

    def _derive(self, name, note, duration, own) -> None:
        if name == "oracle.coverage":
            points, missing, sampled = note
            self.quotients_sampled += sampled
            if missing:
                self.full_box_points += points
                self.full_box_s += duration
            else:
                self.early_stop_self_s += own
        elif name == "witness.approximate_quotient":
            strategy, binary = note
            self.strategy_calls[strategy] = self.strategy_calls.get(strategy, 0) + 1
            if binary and strategy == "enumeration":
                self.binary_fallbacks += 1
        else:
            # self time leaves out the decide_binary_tree child span, so what
            # remains is the exhaustive box check
            self.verify_points += note
            self.verify_s += own

    def summary(self, operations: int) -> dict[str, tuple[float, str]]:
        """Every per-layer figure, name -> (value, unit)."""
        out = {}
        for name, calls, own in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (own, "s")
        rate = lambda n, s: n / s if s > 0 else 0.0
        out["oracle.coverage.full_box_points_per_s"] = (
            rate(self.full_box_points, self.full_box_s), "1/s")
        out["oracle.coverage.early_stop.self_s"] = (self.early_stop_self_s, "s")
        out["oracle.coverage.quotients_sampled"] = (self.quotients_sampled, "count")
        for strategy, calls in self.strategy_calls.items():
            out[f"witness.approximate_quotient.{strategy}.calls"] = (calls, "count")
        out["witness.binary_fallbacks"] = (self.binary_fallbacks, "count")
        out["witness.exclusion_certificate.verify_points_per_s"] = (
            rate(self.verify_points, self.verify_s), "1/s")
        iso = self.calls[self.names.index("forms.is_isotropic_mod_p")]
        out["forms.is_isotropic_mod_p.calls_per_request"] = (
            iso / operations if operations else 0.0, "1/request")
        return out
