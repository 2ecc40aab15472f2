"""Per-layer spans around pqpoly's public callables, installed from outside.

``Tracer.install`` replaces every binding of each traced callable, in every
pqpoly module and on the classes, with a wrapper that keeps a span stack.
A span's self time is its duration minus the time of the spans it called,
so a layer is charged only for its own work.  Counting done by a wrapper
(operand sizes, say) falls outside every span's time.

Cache hit and miss counts come from each ``lru_cache``'s own
``cache_info()``, read from the original functions found before patching.
"""

from __future__ import annotations

import time
from fractions import Fraction

_clock = time.perf_counter

MODULES = ("exact", "pqcalc", "egf", "sequences", "families", "identities", "cli")

# (span name, module, class or None, attribute)
SPANS = (
    ("exact.mul", "exact", "XPoly", "__mul__"),
    ("exact.add", "exact", "XPoly", "__add__"),
    ("exact.add", "exact", "XPoly", "__sub__"),
    ("exact.add", "exact", "XPoly", "__rsub__"),
    ("exact.add", "exact", "XPoly", "__neg__"),
    ("exact.new", "exact", "XPoly", "__init__"),
    ("exact.eval", "exact", "XPoly", "__call__"),
    ("pqcalc.pq_integer", "pqcalc", None, "pq_integer"),
    ("egf.mul", "egf", "EgfSeries", "mul"),
    ("egf.pow", "egf", "EgfSeries", "pow"),
    ("egf.reciprocal", "egf", "EgfSeries", "reciprocal"),
    ("egf.compose", "egf", None, "compose"),
    ("sequences.stirling", "sequences", None, "stirling2"),
    ("sequences.stirling", "sequences", None, "stirling1_unsigned"),
    ("sequences.weighted_stirling", "sequences", None, "weighted_stirling1"),
    ("sequences.weighted_stirling", "sequences", None, "weighted_stirling2"),
    ("sequences.classical", "sequences", None, "euler_poly"),
    ("sequences.classical", "sequences", None, "bernoulli_order"),
    ("sequences.classical", "sequences", None, "frobenius_euler"),
    ("families.euler_gf", "families", None, "poly_euler"),
    ("families.euler_gf", "families", None, "euler_base_series"),
    ("families.bernoulli_gf", "families", None, "bernoulli_via_gf"),
    ("families.bernoulli_gf", "families", None, "bernoulli_base_series"),
    ("families.bernoulli_stirling", "families", None, "bernoulli_via_weighted_stirling"),
    ("families.cauchy1_gf", "families", None, "cauchy1_via_gf"),
    ("families.cauchy1_stirling", "families", None, "cauchy1_via_weighted_stirling"),
    ("families.cauchy1_integral", "families", None, "cauchy1_via_integral_expansion"),
    ("families.cauchy2_gf", "families", None, "cauchy2_via_gf"),
    ("families.cauchy2_stirling", "families", None, "cauchy2_via_weighted_stirling"),
    ("families.cauchy2_integral", "families", None, "cauchy2_via_integral_expansion"),
    ("cli.gen", "cli", None, "cmd_gen"),
)

# per-layer metric name -> (kind, source); kinds are read by Tracer.metrics
LAYER_METRICS = {
    "exact.mul.calls": ("calls", "exact.mul"),
    "exact.mul.self_s": ("self_s", "exact.mul"),
    "exact.mul.term_products": ("counter", "exact.mul"),
    "exact.mul.operand_bits": ("counter", "exact.mul"),
    "exact.add.calls": ("calls", "exact.add"),
    "exact.add.self_s": ("self_s", "exact.add"),
    "exact.new.calls": ("calls", "exact.new"),
    "exact.new.self_s": ("self_s", "exact.new"),
    "exact.eval.calls": ("calls", "exact.eval"),
    "exact.eval.self_s": ("self_s", "exact.eval"),
    "pqcalc.pq_integer.calls": ("calls", "pqcalc.pq_integer"),
    "pqcalc.pq_integer.hit_ratio": ("hit_ratio", ("pqcalc", ("pq_integer",))),
    "egf.mul.calls": ("calls", "egf.mul"),
    "egf.mul.self_s": ("self_s", "egf.mul"),
    "egf.mul.ring_products": ("counter", "egf.mul"),
    "egf.pow.calls": ("calls", "egf.pow"),
    "egf.pow.self_s": ("self_s", "egf.pow"),
    "egf.reciprocal.self_s": ("self_s", "egf.reciprocal"),
    "egf.compose.calls": ("calls", "egf.compose"),
    "egf.compose.self_s": ("self_s", "egf.compose"),
    "sequences.stirling.self_s": ("self_s", "sequences.stirling"),
    "sequences.stirling.misses": ("misses", ("sequences", ("stirling2", "stirling1_unsigned"))),
    "sequences.weighted_stirling.self_s": ("self_s", "sequences.weighted_stirling"),
    "sequences.weighted_stirling.misses": (
        "misses", ("sequences", ("weighted_stirling1", "weighted_stirling2"))
    ),
    "sequences.classical.self_s": ("self_s", "sequences.classical"),
    "sequences.hit_ratio": ("hit_ratio", ("sequences", None)),
    **{
        f"families.{route}.self_s": ("self_s", f"families.{route}")
        for route in (
            "euler_gf", "bernoulli_gf", "bernoulli_stirling",
            "cauchy1_gf", "cauchy1_stirling", "cauchy1_integral",
            "cauchy2_gf", "cauchy2_stirling", "cauchy2_integral",
        )
    },
    "families.hit_ratio": ("hit_ratio", ("families", None)),
    # time cmd_gen spends in traced pqpoly calls, and the rest of it:
    # argument handling, rational_to_str, JSON encoding and the write
    "cli.compute_s": ("child_s", "cli.gen"),
    "cli.serialize_s": ("self_s", "cli.gen"),
}

# exact counts, identical on every traced run of one commit and seed
COUNT_SUFFIXES = (".calls", ".misses", ".term_products", ".ring_products", ".hit_ratio", ".operand_bits")


class _Span:
    __slots__ = ("calls", "self_s", "child_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.child_s = 0.0
        self.counters: dict[str, int] = {}


def _bits(c) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _count_xpoly_mul(span: _Span, args) -> None:
    a, b = args[0], args[1]
    cb = b.coeffs if isinstance(b, type(a)) else ((b,) if isinstance(b, (int, Fraction)) and b else ())
    ca = a.coeffs
    c = span.counters
    c["term_products"] = c.get("term_products", 0) + len(ca) * len(cb)
    c["operand_bits"] = c.get("operand_bits", 0) + sum(map(_bits, ca)) + sum(map(_bits, cb))


def _count_egf_mul(span: _Span, args) -> None:
    n = len(args[0].coeffs)
    span.counters["ring_products"] = span.counters.get("ring_products", 0) + n * (n + 1) // 2


_COUNTERS = {("exact", "__mul__"): _count_xpoly_mul, ("egf", "mul"): _count_egf_mul}


class Tracer:
    """Span stack over the callables in SPANS, for one pqpoly import."""

    def __init__(self, pq):
        self.modules = {name: getattr(pq, name) for name in MODULES}
        self.namespaces = [vars(pq)] + [vars(m) for m in self.modules.values()]
        self.spans: dict[str, _Span] = {}
        self.stack: list[list[float]] = []
        self.absent: list[str] = []
        # lru_cache objects, found before patching hides them
        self.caches = {
            name: {
                attr: obj
                for attr, obj in vars(mod).items()
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
            }
            for name, mod in self.modules.items()
        }

    def _wrap(self, span: _Span, fn, count=None):
        stack = self.stack

        def traced(*args, **kwargs):
            t_in = _clock()
            if count is not None:
                count(span, args)
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                span.calls += 1
                span.self_s += t1 - t0 - frame[0]
                span.child_s += frame[0]
                if stack:
                    stack[-1][0] += _clock() - t_in

        return traced

    def install(self) -> None:
        for name, module, cls, attr in SPANS:
            owner = self.modules[module]
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{name}: {module}.{cls + '.' if cls else ''}{attr} not found")
                continue
            span = self.spans.setdefault(name, _Span())
            wrapper = self._wrap(span, fn, _COUNTERS.get((module, attr)))
            # every binding: aliases such as __radd__ = __add__ on the class,
            # and names imported into other modules such as families.compose
            targets = [vars(owner)] if cls is not None else self.namespaces
            for ns in targets:
                for key, value in list(ns.items()):
                    if value is fn:
                        if cls is not None:
                            setattr(owner, key, wrapper)
                        else:
                            ns[key] = wrapper

    def _cache_totals(self, module: str, names) -> tuple[int, int]:
        caches = self.caches[module]
        infos = [caches[n].cache_info() for n in (names or caches) if n in caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def metrics(self) -> dict:
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind in ("hit_ratio", "misses"):
                hits, misses = self._cache_totals(*source)
                if kind == "misses":
                    out[metric] = misses
                else:
                    out[metric] = hits / (hits + misses) if hits + misses else 0.0
                continue
            span = self.spans.get(source)
            if span is None:
                out[metric] = 0
            elif kind == "counter":
                out[metric] = span.counters.get(metric.rsplit(".", 1)[1], 0)
            else:
                out[metric] = getattr(span, kind)
        return out
