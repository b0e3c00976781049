"""Spans around the public names of nilcone, recorded from the benchmark
process without changing the package.

install() replaces every public function of every nilcone module, in its
home module and in each module that imported it (nilcone.kostka's
``ssyt_enumerate`` as well as nilcone.tableaux's), and the public methods,
properties and arithmetic operators of the package's classes, with a
wrapper that records a span.  Private helpers are left alone, so their
time counts as self time of the public caller.

A span is (name, start, end, parent index, operation id, work); ``work``
is a name-specific count such as tableaux returned or term products.
Spans stay in memory and are written out once the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType

LAYERS = ("partitions", "tableaux", "kostka", "laurent", "springer", "weyl", "verify", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__")


def _poly_size(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _series_pairs(args, result) -> int:
    """Coefficient pairs (i, j), i + j <= t, with a_i != 0 that
    TruncatedSeries.__mul__ visits."""
    a, b = args[0], args[1]
    if isinstance(b, int):
        return len(a.coefficients)
    t = result.order
    return sum(t + 1 - i for i, c in enumerate(a.coefficients[: t + 1]) if c)


def _work_functions() -> dict:
    seen_groups: set = set()

    def enumerated(args, result) -> int:
        key = (args[0].family, args[0].rank)
        if key in seen_groups:
            return 0
        seen_groups.add(key)
        return result[0]

    mul = lambda args, result: _poly_size(args[0]) * _poly_size(args[1])  # noqa: E731
    return {
        "tableaux.ssyt_enumerate": lambda args, result: len(result),
        "laurent.LaurentPoly.__mul__": mul,
        "laurent.BiLaurentPoly.__mul__": mul,
        "laurent.TruncatedSeries.__mul__": _series_pairs,
        "weyl.conjugacy_data": lambda args, result: len(result),
        "weyl.enumeration_counts": enumerated,
        "cli.cache_load_store": lambda args, result: int(result[1]),
    }


class Tracer:
    """The spans of one worker process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self._wrapped: dict = {}
        self._work = _work_functions()

    def _wrap(self, fn, name: str):
        if fn in self._wrapped:
            return self._wrapped[fn]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = self._work.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op_id, 0)
            if work is not None:
                spans[index] = (name, start, end, parent, tracer.op_id, work(args, result))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        self._wrapped[fn] = traced
        return traced

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self._wrap(value.__func__, name)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(self._wrap(value.fget, name), value.fset, value.fdel, value.__doc__))
            elif callable(value) and not isinstance(value, type):
                # __rmul__ = __mul__ shares one function, hence one span name
                fname = getattr(value, "__name__", attr)
                setattr(cls, attr, self._wrap(value, f"{layer}.{cls.__qualname__}.{fname}"))

    def install(self, modules: list[ModuleType]) -> None:
        """Wrap the public names of the given nilcone modules (the package
        itself included, for its re-exports)."""
        homes = {m.__name__ for m in modules if "." in m.__name__}
        classes = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None)
                if attr.startswith("_") or home not in homes:
                    continue
                layer = home.rsplit(".", 1)[1]
                if isinstance(value, type):
                    if value not in classes and not issubclass(value, BaseException):
                        classes.append(value)
                elif callable(value):
                    setattr(module, attr, self._wrap(value, f"{layer}.{value.__qualname__}"))
        for cls in classes:
            self._wrap_class(cls, cls.__module__.rsplit(".", 1)[1])

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass.  A span's self
    time is its duration minus the durations of its direct children, which
    nest inside it because the benchmark runs one thread."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    kf_misses = 0
    enum_groups = 0
    cache = {"hits": 0, "misses": 0, "load_s": 0.0, "store_s": 0.0}
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        own = end - start - child[i]
        calls[name] += 1
        self_s[name] += own
        work[name] += count
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "tableaux.ssyt_enumerate" and parent_name == "kostka.kostka_foulkes":
            kf_misses += 1
        if name == "weyl.enumeration_counts" and count:
            enum_groups += 1
        if name == "cli.cache_load_store":
            if count:
                cache["hits"] += 1
                cache["load_s"] += end - start
            else:
                cache["misses"] += 1
                cache["store_s"] += end - start
        if name == "kostka.compute_kostka_table" and parent_name == "cli.cache_load_store":
            cache["store_s"] -= end - start

    def total(kind: dict, *names: str):
        return sum(kind[n] for n in names)

    lp, bp, ts = "laurent.LaurentPoly.", "laurent.BiLaurentPoly.", "laurent.TruncatedSeries."
    adds = [p + op for p in (lp, bp, ts) for op in ("__add__", "__sub__", "__rsub__")]
    kf_calls = calls["kostka.kostka_foulkes"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "partitions.calls": layer_calls["partitions"],
        "tableaux.ssyt_calls": calls["tableaux.ssyt_enumerate"],
        "tableaux.tableaux_emitted": work["tableaux.ssyt_enumerate"],
        "kostka.charge_calls": calls["kostka.charge"],
        "kostka.charge_self_s": self_s["kostka.charge"],
        "kostka.kf_calls": kf_calls,
        "kostka.kf_hit_ratio": 1 - kf_misses / kf_calls if kf_calls else 0.0,
        "kostka.qhook_calls": calls["kostka.fake_degree_qhook"],
        "kostka.qhook_self_s": self_s["kostka.fake_degree_qhook"],
        "laurent.mul_calls": calls[lp + "__mul__"],
        "laurent.mul_term_products": work[lp + "__mul__"],
        "laurent.mul_self_s": self_s[lp + "__mul__"],
        "laurent.bimul_calls": calls[bp + "__mul__"],
        "laurent.bimul_term_products": work[bp + "__mul__"],
        "laurent.bimul_self_s": self_s[bp + "__mul__"],
        "laurent.add_self_s": total(self_s, *adds),
        "laurent.div_exact_calls": calls[lp + "div_exact"],
        "laurent.div_exact_self_s": self_s[lp + "div_exact"],
        "laurent.series_mul_calls": calls[ts + "__mul__"],
        "laurent.series_coeff_products": work[ts + "__mul__"],
        "laurent.series_mul_self_s": self_s[ts + "__mul__"],
        "springer.calls": layer_calls["springer"],
        "weyl.type_lookups": calls["weyl.weyl_type"],
        "weyl.enum_groups": enum_groups,
        "weyl.enum_elements": work["weyl.enumeration_counts"],
        "weyl.enum_self_s": self_s["weyl.enumeration_counts"],
        "weyl.classes": work["weyl.conjugacy_data"],
        "weyl.molien_char_calls": calls["weyl.molien_graded_character"],
        "weyl.molien_char_self_s": self_s["weyl.molien_graded_character"],
        "weyl.mn_calls": calls["weyl.mn_character"],
        "weyl.mn_self_s": self_s["weyl.mn_character"],
        "cli.cache_hits": cache["hits"],
        "cli.cache_misses": cache["misses"],
        "cli.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cli.cache_load_s": cache["load_s"],
        "cli.cache_store_s": cache["store_s"],
    })
    return metrics

