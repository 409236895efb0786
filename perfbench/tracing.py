"""Outside-in tracing: spans around calls into resspec's public functions.

A traced worker wraps the public functions of each layer (module) with a
span recorder. Nothing under src/ changes; the wrappers are installed by
rebinding module attributes in the worker process only. Spans carry name,
start, end, parent and run id, stay in memory, and are written once at
exit. Work done inside multiprocessing pool workers is not seen: it shows
up as the duration of the parent-process call that started the pool.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from statistics import mean

# (module, function) pairs wrapped in a traced worker. A function is also
# rebound in every other resspec module that imported it by name.
TRACED_FUNCTIONS = {
    "graphs": ("parse_graph6", "to_graph6"),
    "enumeration": (
        "enumerate_connected", "connected_graphs", "canonical_form",
        "canonical_graph", "load_connected_cache", "save_connected_cache",
    ),
    "resistance": ("resistance", "resistance_matrix", "resistance_spectrum"),
    "drs": ("index_spectra", "verify_drs", "check_theorems", "find_collisions"),
    "lemmas": (
        "run_all_checks", "check_triangle", "check_foster", "check_local_sum",
        "check_lower_bound", "check_rayleigh", "check_cycle_bound",
        "check_cut_additivity",
    ),
    "reduction": (
        "parse_network", "weighted_resistance_matrix", "series_reduce",
        "parallel_reduce", "substitute",
    ),
    "cli": ("main",),
}

# lemma id (lemmas.LEMMA_IDS) -> public check function
LEMMA_CHECKS = {
    "triangle": "check_triangle",
    "foster": "check_foster",
    "local_sum": "check_local_sum",
    "degree_bound": "check_lower_bound",
    "rayleigh": "check_rayleigh",
    "cycle_bound": "check_cycle_bound",
    "cut_additivity": "check_cut_additivity",
}

# Per-layer metrics: (name, unit, which end-to-end metric it should move).
LAYER_METRICS = (
    ("enumeration.level_s.7", "s", "wall_s, items_per_s on enumerate; wall_s on drs-build; not spectra"),
    ("enumeration.level_s.8", "s", "wall_s, items_per_s on enumerate; wall_s on drs-build; not spectra"),
    ("enumeration.us_per_class", "us", "wall_s, items_per_s on enumerate; wall_s on drs-build; not spectra"),
    *((f"enumeration.classes.{k}", "count", "count of classes built at order k") for k in range(1, 9)),
    ("enumeration.canonical_graph_us", "us", "item_p50_ms on drs-query"),
    ("enumeration.cache_write_s", "s", "wall_s on drs-build"),
    ("enumeration.cache_read_s", "s", "wall_s on drs-build"),
    ("enumeration.cache_bytes", "bytes", "wall_s on drs-build"),
    ("resistance.matrix_us", "us", "spectra, drs-build and lemmas-reduce"),
    ("resistance.spectrum_key_us", "us", "items_per_s on spectra; wall_s on drs-build; not lemmas-reduce"),
    ("resistance.pairs", "count", "work done by the resistance layer"),
    ("resistance.distinct_ratio", "ratio", "distinct spectrum values over pairs"),
    ("graphs.parse_graph6_us", "us", "drs-build; setup_s on drs-query"),
    ("graphs.to_graph6_us", "us", "drs-build; setup_s on drs-query"),
    ("graphs.graph6_bytes", "bytes", "drs-build; setup_s on drs-query"),
    ("drs.index_build_s", "s", "wall_s on drs-build"),
    ("drs.index_load_ms", "ms", "item_p50_ms on drs-query"),
    ("drs.index_bytes_read", "bytes", "item_p50_ms on drs-query"),
    ("drs.verify_us", "us", "item_p50_ms on drs-query"),
    ("drs.find_collisions_s", "s", "wall_s on drs-build"),
    ("drs.groups", "count", "distinct spectra over the orders indexed"),
    ("drs.collision_groups", "count", "groups with two or more classes"),
    ("drs.reverified_pairs", "count", "collision pairs re-verified"),
    ("lemmas.run_all_checks_s", "s", "wall_s on lemmas-reduce"),
    *((f"lemmas.{lemma}_us", "us", "wall_s on lemmas-reduce") for lemma in LEMMA_CHECKS),
    ("lemmas.graphs_checked", "count", "graphs swept by run_all_checks"),
    ("reduction.weighted_matrix_ms", "ms", "item_p50_ms on lemmas-reduce; not spectra"),
    ("reduction.series_us", "us", "item_p50_ms on lemmas-reduce; not spectra"),
    ("reduction.parallel_us", "us", "item_p50_ms on lemmas-reduce; not spectra"),
    ("reduction.substitute_ms", "ms", "item_p50_ms on lemmas-reduce; not spectra"),
    ("reduction.applied_ratio", "ratio", "reduction trials applied over attempted"),
    ("cli.startup_s", "s", "setup_s and wall_s on enumerate and drs-build"),
    ("trace.spans", "count", "spans recorded in one traced iteration"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced median wall_s"),
)


class Tracer:
    """In-memory span recorder for one process.

    A span is [id, parent id, name, start, end, attrs]; the parent is the
    innermost span open when it began.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[list] = []
        self._seen: set = set()

    def first(self, key) -> bool:
        """True the first time `key` is passed, so costly counts are taken once."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._open[-1][0] if self._open else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None, attrs or {}]
        self.spans.append(rec)
        self._open.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        if self._open.pop() is not rec:
            raise RuntimeError(f"span {rec[2]} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self.begin(name, attrs)
        try:
            yield rec[5]
        finally:
            self.end(rec)

    def records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": name, "start": s, "end": e,
             "run": self.run_id, **attrs}
            for i, p, name, s, e, attrs in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may nest or overlap one another; the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s["id"]] = (end - start) - covered
    return out


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return table


# ---------------------------------------------------------------------------
# installing the wrappers

def _order_of(args, kwargs):
    return kwargs.get("n", args[0] if args else None)


def _index_pre(args, kwargs):
    from resspec import drs
    n, cache_dir = _order_of(args, kwargs), kwargs.get("cache_dir")
    path = drs.spectra_cache_path(cache_dir, n) if cache_dir else None
    loaded = bool(path) and os.path.exists(path)
    return {"n": n, "loaded": loaded, "bytes": os.path.getsize(path) if loaded else 0}


def _index_post(result, attrs, tracer):
    if tracer.first(("index", result.order)):
        attrs["groups"] = len(result.groups)
        attrs["collision_groups"] = len(result.collision_groups())


_HOOKS = {
    # name: (pre(args, kwargs) -> attrs, post(result, attrs, tracer), materialise generator)
    "graphs.parse_graph6": (lambda a, k: {"bytes": len(a[0])}, None, False),
    "graphs.to_graph6": (None, lambda r, at, _: at.update(bytes=len(r)), False),
    "enumeration.enumerate_connected": (
        lambda a, k: {"n": _order_of(a, k)}, lambda r, at, _: at.update(count=len(r)), True),
    "enumeration.connected_graphs": (lambda a, k: {"n": _order_of(a, k)}, None, False),
    "enumeration.save_connected_cache": (
        None, lambda r, at, _: at.update(bytes=os.path.getsize(r)), False),
    "resistance.resistance_matrix": (lambda a, k: {"n": a[0].order}, None, False),
    "resistance.ResistanceSpectrum.from_values": (
        None, lambda r, at, _: at.update(distinct=len(r.entries), total=r.total_multiplicity), False),
    "drs.index_spectra": (_index_pre, _index_post, False),
    "drs.find_collisions": (None, lambda r, at, _: at.update(pairs=len(r.pairs)), False),
    "lemmas.run_all_checks": (None, lambda r, at, _: at.update(graphs=r["graphs_checked"]), False),
    "cli.main": (lambda a, k: {"command": (a[0] if a else k.get("argv"))[0]}, None, False),
}


def _wrap(tracer: Tracer, name: str, fn):
    pre, post, materialise = _HOOKS.get(name, (None, None, False))

    def traced(*args, **kwargs):
        rec = tracer.begin(name, pre(args, kwargs) if pre else None)
        try:
            result = fn(*args, **kwargs)
            if materialise:
                result = list(result)
        finally:
            tracer.end(rec)
        if post:
            post(result, rec[5], tracer)
        return iter(result) if materialise else result

    return traced


def instrument(tracer: Tracer):
    """Wrap TRACED_FUNCTIONS and the spectrum key methods; returns an undo callable."""
    modules = {m: importlib.import_module(f"resspec.{m}") for m in TRACED_FUNCTIONS}
    namespaces = [importlib.import_module("resspec"), *modules.values()]
    undo = []
    for mod_name, names in TRACED_FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[mod_name], fname)
            wrapper = _wrap(tracer, f"{mod_name}.{fname}", original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
    spectrum_cls = modules["resistance"].ResistanceSpectrum
    from_values = vars(spectrum_cls)["from_values"]
    to_json = vars(spectrum_cls)["to_json"]
    undo += [(spectrum_cls, "from_values", from_values), (spectrum_cls, "to_json", to_json)]
    spectrum_cls.from_values = classmethod(
        _wrap(tracer, "resistance.ResistanceSpectrum.from_values", from_values.__func__))
    spectrum_cls.to_json = _wrap(tracer, "resistance.ResistanceSpectrum.to_json", to_json)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration's spans

def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Every LAYER_METRICS value measurable from spans; a layer not exercised reads 0.

    Per-call times are inclusive means, except lemmas.<id>_us, which is the
    mean self time of the public check (its resistance_matrix call is a
    child span, reported under resistance.matrix_us).
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = self_times(spans)

    def of(name):
        return by_name.get(name, [])

    def dur(s):
        return s["end"] - s["start"]

    def mean_dur(name, scale, pick=None):
        xs = [dur(s) for s in of(name) if pick is None or pick(s)]
        return mean(xs) * scale if xs else 0.0

    def total_dur(name, pick=None):
        return sum(dur(s) for s in of(name) if pick is None or pick(s))

    out: dict[str, float] = {}
    first_level: dict[int, dict] = {}
    for s in of("enumeration.enumerate_connected"):
        first_level.setdefault(s["n"], s)
    for k in (7, 8):
        out[f"enumeration.level_s.{k}"] = dur(first_level[k]) if k in first_level else 0.0
    built = sum(s["count"] for s in first_level.values())
    out["enumeration.us_per_class"] = (
        sum(dur(s) for s in first_level.values()) / built * 1e6 if built else 0.0)
    for k in range(1, 9):
        out[f"enumeration.classes.{k}"] = first_level[k]["count"] if k in first_level else 0
    out["enumeration.canonical_graph_us"] = mean_dur("enumeration.canonical_graph", 1e6)
    out["enumeration.cache_write_s"] = total_dur("enumeration.save_connected_cache")
    out["enumeration.cache_read_s"] = total_dur("enumeration.load_connected_cache")
    out["enumeration.cache_bytes"] = sum(s["bytes"] for s in of("enumeration.save_connected_cache"))

    matrices = of("resistance.resistance_matrix")
    keys = of("resistance.ResistanceSpectrum.from_values")
    out["resistance.matrix_us"] = mean_dur("resistance.resistance_matrix", 1e6)
    out["resistance.spectrum_key_us"] = (
        (total_dur("resistance.ResistanceSpectrum.from_values")
         + total_dur("resistance.ResistanceSpectrum.to_json")) / len(keys) * 1e6
        if keys else 0.0)
    out["resistance.pairs"] = sum(s["n"] * (s["n"] - 1) // 2 for s in matrices)
    values = sum(s["total"] for s in keys)
    out["resistance.distinct_ratio"] = (
        sum(s["distinct"] for s in keys) / values if values else 0.0)

    out["graphs.parse_graph6_us"] = mean_dur("graphs.parse_graph6", 1e6)
    out["graphs.to_graph6_us"] = mean_dur("graphs.to_graph6", 1e6)
    out["graphs.graph6_bytes"] = sum(
        s["bytes"] for s in of("graphs.parse_graph6") + of("graphs.to_graph6"))

    indexes = of("drs.index_spectra")
    loads = [s for s in indexes if s["loaded"]]
    out["drs.index_build_s"] = total_dur("drs.index_spectra", lambda s: not s["loaded"])
    out["drs.index_load_ms"] = mean_dur("drs.index_spectra", 1e3, lambda s: s["loaded"])
    out["drs.index_bytes_read"] = mean(s["bytes"] for s in loads) if loads else 0.0
    out["drs.verify_us"] = mean_dur("drs.verify_drs", 1e6)
    out["drs.find_collisions_s"] = total_dur("drs.find_collisions")
    out["drs.groups"] = sum(s.get("groups", 0) for s in indexes)
    out["drs.collision_groups"] = sum(s.get("collision_groups", 0) for s in indexes)
    out["drs.reverified_pairs"] = sum(s["pairs"] for s in of("drs.find_collisions"))

    out["lemmas.run_all_checks_s"] = total_dur("lemmas.run_all_checks")
    for lemma, fn in LEMMA_CHECKS.items():
        xs = [selfs[s["id"]] for s in of(f"lemmas.{fn}")]
        out[f"lemmas.{lemma}_us"] = mean(xs) * 1e6 if xs else 0.0
    out["lemmas.graphs_checked"] = sum(s["graphs"] for s in of("lemmas.run_all_checks"))

    out["reduction.weighted_matrix_ms"] = mean_dur("reduction.weighted_resistance_matrix", 1e3)
    out["reduction.series_us"] = mean_dur("reduction.series_reduce", 1e6)
    out["reduction.parallel_us"] = mean_dur("reduction.parallel_reduce", 1e6)
    out["reduction.substitute_ms"] = mean_dur("reduction.substitute", 1e3)
    attempted = counters.get("trials_attempted", 0)
    out["reduction.applied_ratio"] = (
        counters.get("trials_applied", 0) / attempted if attempted else 0.0)
    out["trace.spans"] = len(spans)
    return out
