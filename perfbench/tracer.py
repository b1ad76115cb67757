"""Span tracer installed from outside the library, for the traced benchmark runs.

``install`` wraps the public functions of every ``ellsuper`` layer module
(the names in its ``__all__``) and a few hot methods, and rebinds each
wrapper in every ``ellsuper.*`` namespace that holds the original, because
``from .linf import compose`` copies the binding.  Nothing in the library is
edited; untraced runs never import this module.

Each call is a span.  A generator function's span covers its iterations, not
its creation: every resumption is timed as a slice of the same span.  Spans
are aggregated in memory per function and per (function, parent) edge, so
memory stays bounded however hot a leaf is; only the spans of the two
outermost levels are also kept one by one (up to ``MAX_SPANS``), and
everything is written out by ``dump`` at the end of the run.

Cache sizes are read, never written, after the run.  A cache that a later
version of the library no longer has reads as absent (``None``).
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import time

LAYERS = ("exact", "orbits", "linf", "sft", "superpotential", "jumps", "rounding", "cli")
# also wrapped, so that check-only code is not counted as its caller's self time
CHECK_ONLY = ("oracle", "report")

# (layer, class, method, memo attribute probed for hits, count truthy results)
METHODS = (
    ("linf", "Combination", "__add__", None, False),
    ("linf", "LinfStructure", "level", "_memo", True),
    ("linf", "LinfMorphism", "level", "_level_memo", False),
    ("linf", "LinfMorphism", "extend", "_extend_memo", False),
)

# module-level memo dicts: metric-facing name -> (layer, attribute)
CACHES = {
    "wt_T": ("superpotential", "_WT_CACHE"),
    "walks": ("orbits", "_WALKS"),
    "jump_general": ("jumps", "_GENERAL_CACHE"),
    "epsilon": ("sft", "_EPSILON_CACHE"),
    "eta": ("sft", "_ETA_CACHE"),
    "xi": ("sft", "_XI_CACHE"),
}

MAX_SPANS = 20_000

_CALLS, _SELF, _TOTAL, _PROBES, _HITS, _NONZERO = range(6)

_clock = time.perf_counter


class Tracer:
    """Stack of open spans plus per-function and per-edge aggregates."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = _clock()
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.active: dict[str, int] = {}
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])

    def enter(self, name: str) -> None:
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append([name, _clock(), 0.0])

    def leave(self) -> None:
        end = _clock()
        stack = self.stack
        name, start, covered = stack.pop()
        duration = end - start
        depth = self.active[name] - 1
        self.active[name] = depth
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][2] += duration
        own = duration - covered
        stat = self.stats[name]
        stat[_SELF] += own
        if depth == 0:
            stat[_TOTAL] += duration
        edge = self.edges.get((name, parent))
        if edge is None:
            edge = self.edges[(name, parent)] = [0, 0.0]
        edge[0] += 1
        edge[1] += own
        if len(stack) <= 1:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start - self.origin, end - self.origin, parent, self.run_id))
            else:
                self.dropped_spans += 1

    def dump(self, path: str) -> None:
        """Write kept spans, then the edge aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, run_id in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "run": run_id}) + "\n")
            for (name, parent), (calls, own) in sorted(self.edges.items(), key=str):
                out.write(json.dumps({"edge": name, "parent": parent, "calls": calls,
                                      "self_s": own, "run": self.run_id}) + "\n")
            out.write(json.dumps({"dropped_spans": self.dropped_spans, "run": self.run_id}) + "\n")


def _traced_iter(tracer: Tracer, name: str, gen):
    while True:
        tracer.enter(name)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.leave()
        yield item


def _wrap(tracer: Tracer, name: str, fn, memo_attr: str | None = None, count_nonzero: bool = False):
    stat = tracer.stat(name)
    enter, leave = tracer.enter, tracer.leave
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            stat[_CALLS] += 1
            return _traced_iter(tracer, name, fn(*args, **kwargs))
    elif memo_attr is not None or count_nonzero:
        def wrapper(*args, **kwargs):
            stat[_CALLS] += 1
            if memo_attr is not None:
                memo = getattr(args[0], memo_attr, None)
                if isinstance(memo, dict):
                    stat[_PROBES] += 1
                    stat[_HITS] += args[-1] in memo
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if count_nonzero and result:
                stat[_NONZERO] += 1
            return result
    else:
        def wrapper(*args, **kwargs):
            stat[_CALLS] += 1
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ellsuper" or name.startswith("ellsuper."))}


def install(tracer: Tracer) -> None:
    """Wrap every loaded layer's public functions and the hot methods."""
    for name in CHECK_ONLY:  # the CLI check suites import these lazily
        try:
            importlib.import_module(f"ellsuper.{name}")
        except ImportError:
            pass
    modules = _modules()
    replacements = {}
    for layer in LAYERS + CHECK_ONLY:
        mod = modules.get(f"ellsuper.{layer}")
        if mod is None:
            continue
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                replacements[fn] = _wrap(tracer, f"{layer}.{attr}", fn)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
    for layer, cls_name, method, memo_attr, count_nonzero in METHODS:
        cls = getattr(modules.get(f"ellsuper.{layer}"), cls_name, None)
        fn = vars(cls).get(method) if isinstance(cls, type) else None
        if inspect.isfunction(fn):
            setattr(cls, method, _wrap(tracer, f"{layer}.{cls_name}.{method}", fn, memo_attr, count_nonzero))


def cache_sizes() -> dict:
    """Entries of each module-level memo dict; None when the dict is gone."""
    modules = _modules()
    out = {}
    for name, (layer, attr) in CACHES.items():
        cache = getattr(modules.get(f"ellsuper.{layer}"), attr, None)
        out[name] = len(cache) if isinstance(cache, dict) else None
    return out


def structure_memo_entries() -> int | None:
    """Memo entries over all live ``LinfStructure`` objects; None if the class or its memo is gone."""
    cls = getattr(_modules().get("ellsuper.linf"), "LinfStructure", None)
    if not isinstance(cls, type):
        return None
    total = 0
    for obj in gc.get_objects():
        if isinstance(obj, cls):
            memo = getattr(obj, "_memo", None)
            if not isinstance(memo, dict):
                return None
            total += len(memo)
    return total


def signatures() -> list[int] | None:
    """[distinct Γ-signatures (Γ_{3e-1})_{e<=d}, wt_T cache entries], read from the caches.

    Entries whose lattice path was never walked far enough are skipped; None
    when either cache is gone or keyed differently.
    """
    modules = _modules()
    wt_cache = getattr(modules.get("ellsuper.superpotential"), "_WT_CACHE", None)
    walks = getattr(modules.get("ellsuper.orbits"), "_WALKS", None)
    if not isinstance(wt_cache, dict) or not isinstance(walks, dict):
        return None
    distinct = set()
    counted = 0
    for key in list(wt_cache):
        if not (isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], int)):
            return None
        _, degree, params = key
        points = getattr(walks.get(params), "points", None)
        if points is None or len(points) < 3 * degree:
            continue
        distinct.add(tuple(points[3 * e - 1] for e in range(1, degree + 1)))
        counted += 1
    return [len(distinct), counted]


def counters(tracer: Tracer, caches_before: dict) -> dict:
    """Raw per-process counters, summable across processes (cli-mix)."""
    after = cache_sizes()
    growth = {name: (None if after[name] is None or caches_before.get(name) is None
                     else after[name] - caches_before[name]) for name in after}
    return {
        "stats": tracer.stats,
        "caches": after,
        "growth": growth,
        "structure_memo": structure_memo_entries(),
        "signatures": signatures(),
    }


def merge(parts: list[dict]) -> dict:
    """Sum counters from several processes; a value absent everywhere stays None."""
    def add(a, b):
        if a is None:
            return b
        if b is None:
            return a
        if isinstance(a, list):
            return [add(x, y) for x, y in zip(a, b)]
        return a + b

    out = {"stats": {}, "caches": {}, "growth": {}, "structure_memo": None, "signatures": None}
    for part in parts:
        for name, stat in part["stats"].items():
            out["stats"][name] = add(out["stats"].get(name), list(stat))
        for key in ("caches", "growth"):
            for name, value in part[key].items():
                out[key][name] = add(out[key].get(name), value)
        out["structure_memo"] = add(out["structure_memo"], part["structure_memo"])
        out["signatures"] = add(out["signatures"], part["signatures"])
    return out


# per-layer metrics: name -> unit; the order is the report order
PER_LAYER = {
    "exact.koszul_sign.calls": "count",
    "exact.koszul_sign.self_s": "s",
    "exact.partitions.calls": "count",
    "exact.partitions.self_s": "s",
    "exact.ordered_shuffles.calls": "count",
    "exact.ordered_shuffles.self_s": "s",
    "exact.vec_factorial.calls": "count",
    "orbits.gamma.calls": "count",
    "orbits.gamma.self_s": "s",
    "orbits.walks.entries": "count",
    "linf.extend_coderivation.calls": "count",
    "linf.extend_coderivation.self_s": "s",
    "linf.canonical_word.calls": "count",
    "linf.canonical_word.self_s": "s",
    "linf.Combination.__add__.calls": "count",
    "linf.Combination.__add__.self_s": "s",
    "linf.LinfStructure.level.calls": "count",
    "linf.LinfStructure.level.self_s": "s",
    "linf.LinfStructure.level.nonzero_ratio": "1",
    "linf.LinfStructure.level.memo_entries": "count",
    "linf.LinfMorphism.extend.calls": "count",
    "linf.LinfMorphism.extend.self_s": "s",
    "linf.LinfMorphism.extend.hit_ratio": "1",
    "linf.LinfMorphism.level.calls": "count",
    "linf.LinfMorphism.level.self_s": "s",
    "linf.compose.calls": "count",
    "linf.invert.calls": "count",
    "sft.inverse_check.total_s": "s",
    "sft.epsilon.calls": "count",
    "sft.eta.calls": "count",
    "sft.xi.calls": "count",
    "sft.cache_entries": "count",
    "superpotential.wt_T.calls": "count",
    "superpotential.wt_T.self_s": "s",
    "superpotential.wt_T.hit_ratio": "1",
    "superpotential.wt_T.cache_entries": "count",
    "superpotential.signature_ratio": "1",
    "superpotential.piecewise_table.total_s": "s",
    "superpotential.normalized_table.total_s": "s",
    "jumps.jump_general.calls": "count",
    "jumps.jump_general.self_s": "s",
    "jumps.jump_general.hit_ratio": "1",
    "jumps.support_scan.total_s": "s",
    "jumps.jump_via_xi.total_s": "s",
    "rounding.verify_aug.total_s": "s",
    "rounding.psi_factorization.total_s": "s",
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.startup_frac": "1",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    **{f"layer.{layer}.share": "1" for layer in LAYERS},
    "trace.covered_frac": "1",
    "trace.overhead_frac": "1",
}

_FIELDS = {"calls": _CALLS, "self_s": _SELF, "total_s": _TOTAL}


def layer_metrics(merged: dict, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition (cli.* and trace.overhead_frac are set by the caller)."""
    stats = merged["stats"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in _FIELDS and head in stats:
            out[name] = stats[head][_FIELDS[field]]

    def ratio(num, den):
        return num / den if num is not None and den else 0.0

    def hit_ratio(fn: str, cache: str) -> float:
        calls = stats.get(fn, [0])[_CALLS]
        misses = merged["growth"].get(cache)
        return 0.0 if misses is None or not calls else 1 - misses / calls

    level = stats.get("linf.LinfStructure.level")
    if level:
        out["linf.LinfStructure.level.nonzero_ratio"] = ratio(level[_NONZERO], level[_CALLS])
    extend = stats.get("linf.LinfMorphism.extend")
    if extend:
        out["linf.LinfMorphism.extend.hit_ratio"] = ratio(extend[_HITS], extend[_PROBES])
    out["linf.LinfStructure.level.memo_entries"] = merged["structure_memo"] or 0
    caches = merged["caches"]
    out["orbits.walks.entries"] = caches.get("walks") or 0
    out["sft.cache_entries"] = sum(caches.get(name) or 0 for name in ("epsilon", "eta", "xi"))
    out["superpotential.wt_T.cache_entries"] = caches.get("wt_T") or 0
    out["superpotential.wt_T.hit_ratio"] = hit_ratio("superpotential.wt_T", "wt_T")
    out["jumps.jump_general.hit_ratio"] = hit_ratio("jumps.jump_general", "jump_general")
    sig = merged["signatures"]
    out["superpotential.signature_ratio"] = ratio(sig[0], sig[1]) if sig else 0.0
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, stat in stats.items():
        layer = name.split(".", 1)[0]
        if layer in per_layer:
            per_layer[layer] += stat[_SELF]
    covered = sum(per_layer.values())
    for layer, own in per_layer.items():
        out[f"layer.{layer}.self_s"] = own
        out[f"layer.{layer}.share"] = ratio(own, covered)
    out["trace.covered_frac"] = ratio(covered, traced_wall_s)
    return {name: out.get(name, 0) for name in PER_LAYER}


def absent(merged: dict) -> list[str]:
    """Names of the caches and memos that read as absent."""
    names = [name for name, size in merged["caches"].items() if size is None]
    if merged["structure_memo"] is None:
        names.append("LinfStructure._memo")
    if merged["signatures"] is None:
        names.append("signatures")
    return names
