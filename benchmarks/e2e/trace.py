"""Span tracing for the traced run of ``bench_e2e.py``.

A :class:`Tracer` wraps public functions of each ``repro`` layer from the
outside (nothing under ``src/`` is edited). Inside a timed op every wrapped
call records a span — site, start, end, parent span, op id — with the op
itself as the root span; outside an op the wrappers call straight through.
Spans live in flat in-memory columns and are written as JSONL at the end.
A span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so children never overlap and a layer's
self time is the sum of its spans' self times. The root span's self time
is the ``experiments`` layer: experiment glue, merge, format and the
``analysis`` quantiles.

Count sites record counters at the same boundaries without opening a span.
Each wrapper returns exactly what it wraps.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT_LAYER = "experiments"
"""The op root span's layer (everything no wrapped layer claims)."""

LAYERS: tuple[str, ...] = (
    "measurements",
    "network",
    "cdn",
    "orbits",
    "topology",
    "spacecdn",
    "faults",
    "overload",
    "workloads",
    "obs",
)

COUNTERS: tuple[str, ...] = (
    "measurements.rtt_samples",
    "cdn.cache_lookups",
    "cdn.cache_hits",
    "cdn.cache_evictions",
    "orbits.visibility_points",
    "topology.fastcore_sources",
    "spacecdn.requests",
    "spacecdn.served",
    "spacecdn.retries",
    "spacecdn.ground_fetches",
    "overload.admissions",
    "overload.refusals",
    "workloads.requests_generated",
    "obs.flush_bytes",
)

PAPER = ("paper-measure",)
SIMS = ("spacecdn-sim", "chaos-serve", "overload-obs")
SERVE = ("chaos-serve", "overload-obs")


# -- count hooks: (counts, fn, args, kwargs) -> fn(*args, **kwargs) ---------


def _count_rtt_sample(counts, fn, args, kwargs):
    counts["measurements.rtt_samples"] += 1
    return fn(*args, **kwargs)


def _count_lookup(counts, fn, args, kwargs):
    obj = fn(*args, **kwargs)
    counts["cdn.cache_lookups"] += 1
    if obj is not None:
        counts["cdn.cache_hits"] += 1
    return obj


def _count_evictions(counts, fn, args, kwargs):
    evicted = fn(*args, **kwargs)
    counts["cdn.cache_evictions"] += len(evicted)
    return evicted


def _count_points(counts, fn, args, kwargs):
    # (constellation, points | point, t_s, ...)
    points = args[1] if len(args) > 1 else kwargs.get("points", kwargs.get("point"))
    counts["orbits.visibility_points"] += (
        1 if hasattr(points, "lat_deg") else len(points)
    )
    return fn(*args, **kwargs)


def _count_sources(counts, fn, args, kwargs):
    # (core, sources, ...): one kernel row per source
    sources = args[1] if len(args) > 1 else kwargs["sources"]
    counts["topology.fastcore_sources"] += int(np.size(sources))
    return fn(*args, **kwargs)


def _count_serve_stats(counts, fn, args, kwargs):
    stats = args[0].stats
    before = (stats.requests, stats.served, stats.retries, stats.ground_fetches)
    result = fn(*args, **kwargs)
    after = (stats.requests, stats.served, stats.retries, stats.ground_fetches)
    for key, b, a in zip(
        ("spacecdn.requests", "spacecdn.served", "spacecdn.retries",
         "spacecdn.ground_fetches"),
        before,
        after,
    ):
        counts[key] += a - b
    return result


def _count_admission(counts, fn, args, kwargs):
    admitted = fn(*args, **kwargs)
    counts["overload.admissions"] += 1
    if not admitted:
        counts["overload.refusals"] += 1
    return admitted


def _count_generated(counts, fn, args, kwargs):
    requests = fn(*args, **kwargs)
    counts["workloads.requests_generated"] += len(requests)
    return requests


def _count_flush_bytes(counts, fn, args, kwargs):
    # (recorder, metrics_path, trace_path, timeseries_path)
    result = fn(*args, **kwargs)
    paths = list(args[1:]) + [
        kwargs.get(k) for k in ("metrics_path", "trace_path", "timeseries_path")
    ]
    counts["obs.flush_bytes"] += sum(Path(p).stat().st_size for p in paths if p)
    return result


@dataclass(frozen=True)
class Site:
    """One wrapped public function.

    ``target`` is ``module:function`` or ``module:Class.method``;
    ``workloads`` names the workloads whose timed ops must reach it.
    """

    target: str
    layer: str
    workloads: tuple[str, ...]
    span: bool = True
    hook: Callable[..., Any] | None = None


SITES: tuple[Site, ...] = (
    # measurements: AIM / NetMet dataset synthesis
    Site("repro.measurements.aim:AimGenerator.generate", "measurements", PAPER),
    Site("repro.measurements.aim:AimGenerator.optimal_site", "measurements", PAPER),
    Site("repro.measurements.netmet:NetMetProbe.fetch_page", "measurements", PAPER),
    Site("repro.measurements.aim:AimGenerator.sample_rtt_ms", "measurements",
         PAPER, span=False, hook=_count_rtt_sample),
    Site("repro.measurements.aim:AimGenerator.sample_loaded_rtt_ms", "measurements",
         PAPER, span=False, hook=_count_rtt_sample),
    # network: bent-pipe and terrestrial path models
    Site("repro.network.bentpipe:StarlinkPathModel.idle_rtt_ms", "network", PAPER),
    Site("repro.network.bentpipe:StarlinkPathModel.loaded_rtt_ms", "network", PAPER),
    Site("repro.network.terrestrial:TerrestrialPathModel.idle_rtt_ms", "network",
         PAPER),
    # cdn: anycast site choice and the on-board caches
    Site("repro.cdn.anycast:best_site_by_latency", "cdn", PAPER),
    Site("repro.cdn.cache:Cache.get", "cdn", SERVE, span=False, hook=_count_lookup),
    Site("repro.cdn.cache:Cache.put", "cdn", SERVE, span=False,
         hook=_count_evictions),
    # orbits: propagation and visibility
    Site("repro.orbits.walker:Constellation.positions_ecef", "orbits", SIMS),
    Site("repro.orbits.visibility:nearest_visible_satellites", "orbits",
         ("spacecdn-sim",), hook=_count_points),
    Site("repro.orbits.visibility:visible_satellites_batch", "orbits", SERVE,
         hook=_count_points),
    Site("repro.orbits.visibility:nearest_visible_satellite", "orbits",
         ("chaos-serve",), hook=_count_points),
    # topology: snapshot build and the CSR routing kernels
    Site("repro.topology.graph:build_snapshot", "topology", SIMS),
    Site("repro.topology.fastcore:degrade_core", "topology", ()),
    Site("repro.topology.fastcore:single_source", "topology",
         ("spacecdn-sim", "chaos-serve")),
    Site("repro.topology.fastcore:single_source_batch", "topology", SERVE),
    Site("repro.topology.fastcore:hop_ladder_batch", "topology", ("spacecdn-sim",)),
    Site("repro.topology.fastcore:latency_batch", "topology", SIMS,
         hook=_count_sources),
    Site("repro.topology.fastcore:hop_distances_batch", "topology", SIMS,
         hook=_count_sources),
    Site("repro.topology.fastcore:nearest_hops", "topology", ()),
    # spacecdn: the serve ladder, duty cycling and cache lookup
    Site("repro.spacecdn.system:SpaceCdnSystem.run", "spacecdn", SERVE,
         hook=_count_serve_stats),
    Site("repro.spacecdn.system:SpaceCdnSystem.serve_batch", "spacecdn", SERVE),
    Site("repro.spacecdn.system:SpaceCdnSystem.serve", "spacecdn", ()),
    Site("repro.spacecdn.dutycycle:DutyCycleLatencyModel.one_way_ms_batch",
         "spacecdn", ("spacecdn-sim",)),
    Site("repro.spacecdn.dutycycle:DutyCycleLatencyModel.one_way_ms", "spacecdn",
         ("chaos-serve",)),
    Site("repro.spacecdn.lookup:nearest_cached_satellite", "spacecdn",
         ("spacecdn-sim", "chaos-serve")),
    Site("repro.spacecdn.lookup:ranked_cached_from_rows", "spacecdn", SERVE),
    Site("repro.spacecdn.lookup:nearest_cached_batch", "spacecdn", ()),
    # faults: per-slot fault compilation
    Site("repro.faults.schedule:FaultSchedule.compile_at", "faults",
         ("chaos-serve",)),
    # (flash-crowd load only; `repro run overload` has no flash crowd by default)
    Site("repro.faults.schedule:FaultSchedule.compile_load_at", "faults", ()),
    # overload: admission, queueing and breakers
    Site("repro.overload.model:OverloadModel.begin_slot", "overload",
         ("overload-obs",)),
    Site("repro.overload.model:OverloadModel.admit", "overload", ("overload-obs",),
         hook=_count_admission),
    Site("repro.overload.model:OverloadModel.priority_of", "overload",
         ("overload-obs",)),
    Site("repro.overload.model:OverloadModel.queue_delay_ms", "overload",
         ("overload-obs",)),
    Site("repro.overload.model:CircuitBreaker.allow", "overload", ("overload-obs",)),
    # workloads: request stream generation
    Site("repro.workloads.requests:RequestGenerator.generate_list", "workloads",
         SERVE, hook=_count_generated),
    # obs: the live recorder (the no-op recorder is a different class)
    Site("repro.obs.recorder:ObsRecorder.inc", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.observe", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.set_gauge", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.window_inc", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.window_observe", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.timer", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.open_span", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.record_span", "obs", ("overload-obs",)),
    Site("repro.obs.recorder:ObsRecorder.flush", "obs", ("overload-obs",),
         hook=_count_flush_bytes),
)

FLUSH_SITE = "repro.obs.recorder:ObsRecorder.flush"
_ROOT_SITE = -1
_NO_OP = -1


class Tracer:
    """Installs the :data:`SITES` wrappers and records spans and counts.

    Use :meth:`installed` around the whole run and :meth:`op` around each
    timed op; only calls made inside an op are recorded.
    """

    def __init__(self) -> None:
        self.sites = SITES
        self.site_calls = [0] * len(SITES)
        self.counts: dict[str, float] = {name: 0 for name in COUNTERS}
        self._layer_of_site = np.array(
            [LAYERS.index(s.layer) for s in SITES], dtype=np.int64
        )
        # Flat span columns; a span's id is its row.
        self._site = array("i")
        self._parent = array("q")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._op_id = _NO_OP
        self._undo: list[tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every site, rebinding ``from … import`` copies in ``repro.*``."""
        for index, site in enumerate(self.sites):
            module_name, _, attr = site.target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._rebind(owner, method, self._wrap(index, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(index, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) and (
                    mod.__dict__.get(attr) is original
                ):
                    self._rebind(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Context manager: :meth:`install`, then :meth:`uninstall` on exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        site = self.sites[index]
        hook = site.hook
        calls = self.site_calls
        counts = self.counts

        if not site.span:

            def counted(*args, **kwargs):
                if self._op_id == _NO_OP:
                    return fn(*args, **kwargs)
                calls[index] += 1
                return hook(counts, fn, args, kwargs)

            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            if self._op_id == _NO_OP:
                return fn(*args, **kwargs)
            calls[index] += 1
            self._open(index)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(counts, fn, args, kwargs)
            finally:
                self._close()

        spanned.__wrapped__ = fn
        return spanned

    # -- spans ----------------------------------------------------------------

    def _open(self, site: int) -> None:
        self._stack.append(len(self._start))
        self._site.append(site)
        self._parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self._op.append(self._op_id)
        self._end.append(0.0)
        self._start.append(time.perf_counter())

    def _close(self) -> None:
        self._end[self._stack.pop()] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Context manager: the root span of one timed op."""
        self._op_id = op_id
        self._open(_ROOT_SITE)
        try:
            yield
        finally:
            self._close()
            self._op_id = _NO_OP

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-layer self time and span counts, counters and site calls."""
        site = np.frombuffer(self._site, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        is_root = site == _ROOT_SITE
        layer = np.where(is_root, len(LAYERS), self._layer_of_site[site])
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS) + 1)
        spans = np.bincount(layer, minlength=len(LAYERS) + 1)
        flush = next(i for i, s in enumerate(self.sites) if s.target == FLUSH_SITE)
        return {
            "op_wall_s": float(duration[is_root].sum()),
            "ops": int(is_root.sum()),
            "spans": len(duration),
            "self_s": {
                name: float(self_s[i])
                for i, name in enumerate(LAYERS + (ROOT_LAYER,))
            },
            "calls": {name: int(spans[i]) for i, name in enumerate(LAYERS)},
            "counts": dict(self.counts),
            "site_calls": {
                s.target: self.site_calls[i] for i, s in enumerate(self.sites)
            },
            "flush_s": float(duration[site == flush].sum()),
        }

    def write_jsonl(self, path: Path) -> int:
        """Write every span as one JSON object per line; returns the count.

        ``start``/``end`` are microseconds since the first span began.
        """
        names = [s.target for s in self.sites]
        base = self._start[0] if self._start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (s, p, o, t0, t1) in enumerate(
                zip(self._site, self._parent, self._op, self._start, self._end)
            ):
                name = "op" if s == _ROOT_SITE else names[s]
                out.write(
                    f'{{"id":{i},"parent":{p if p >= 0 else "null"},"op":{o},'
                    f'"name":"{name}","start":{(t0 - base) * 1e6:.1f},'
                    f'"end":{(t1 - base) * 1e6:.1f}}}\n'
                )
        return len(self._start)


def layer_metrics(summary: dict[str, Any], imports: dict[str, float]) -> dict[str, dict]:
    """Per-layer metrics from :meth:`Tracer.summary` and :func:`parse_importtime`.

    Counts are per op, so runs that fit different numbers of ops into the
    same time compare; shares are of the traced op wall time.
    """
    ops = max(summary["ops"], 1)
    wall = summary["op_wall_s"]
    counts = summary["counts"]
    sites = summary["site_calls"]

    def metric(value: float, unit: str) -> dict[str, Any]:
        return {"value": value, "unit": unit}

    def per_op(value: float, unit: str) -> dict[str, Any]:
        return metric(value / ops, unit)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, dict] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_op(summary["calls"][layer], "calls/op")
    for layer in LAYERS + (ROOT_LAYER,):
        self_s = summary["self_s"][layer]
        out[f"{layer}.self_s"] = metric(self_s, "s")
        out[f"{layer}.self_share"] = metric(ratio(self_s, wall), "fraction")
    requests = counts["spacecdn.requests"]
    served = counts["spacecdn.served"]
    out.update(
        {
            "measurements.rtt_samples": per_op(
                counts["measurements.rtt_samples"], "samples/op"
            ),
            "measurements.page_fetches": per_op(
                sites["repro.measurements.netmet:NetMetProbe.fetch_page"], "fetches/op"
            ),
            "cdn.cache_lookups": per_op(counts["cdn.cache_lookups"], "lookups/op"),
            "cdn.cache_hit_ratio": metric(
                ratio(counts["cdn.cache_hits"], counts["cdn.cache_lookups"]), "fraction"
            ),
            "cdn.cache_evictions": per_op(counts["cdn.cache_evictions"], "evictions/op"),
            "orbits.visibility_points": per_op(
                counts["orbits.visibility_points"], "points/op"
            ),
            "topology.snapshot_builds": per_op(
                sites["repro.topology.graph:build_snapshot"], "builds/op"
            ),
            "topology.fastcore_sources": per_op(
                counts["topology.fastcore_sources"], "rows/op"
            ),
            "spacecdn.requests": per_op(requests, "requests/op"),
            "spacecdn.served_ratio": metric(ratio(served, requests), "fraction"),
            "spacecdn.retries_per_request": metric(
                ratio(counts["spacecdn.retries"], requests), "retries/request"
            ),
            "spacecdn.space_hit_ratio": metric(
                ratio(served - counts["spacecdn.ground_fetches"], served), "fraction"
            ),
            "overload.refused_ratio": metric(
                ratio(counts["overload.refusals"], counts["overload.admissions"]),
                "fraction",
            ),
            "workloads.requests_generated": per_op(
                counts["workloads.requests_generated"], "requests/op"
            ),
            "obs.flush_s": metric(summary["flush_s"], "s"),
            "obs.flush_bytes": per_op(counts["obs.flush_bytes"], "bytes/op"),
            "import.repro_s": metric(imports["repro_s"], "s"),
            "import.scipy_s": metric(imports["scipy_s"], "s"),
            "import.networkx_s": metric(imports["networkx_s"], "s"),
            "import.scipy_share": metric(
                ratio(imports["scipy_s"], imports["repro_s"]), "fraction"
            ),
            "import.networkx_share": metric(
                ratio(imports["networkx_s"], imports["repro_s"]), "fraction"
            ),
        }
    )
    return out


# -- import time -----------------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds from ``python -X importtime`` output.

    ``repro_s`` sums the cumulative time of the top-level ``repro*``
    imports (everything ``repro`` pulls in); ``scipy_s``/``networkx_s`` sum
    the self time of every module of that package, wherever it was nested.
    """
    totals = {"repro_s": 0.0, "scipy_s": 0.0, "networkx_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, field = line.split(":", 1)[1].split("|")
        # " " + two spaces per nesting level + the module name
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        top = field.strip().split(".", 1)[0]
        if depth == 0 and top == "repro":
            totals["repro_s"] += int(cumulative_us) / 1e6
        if top in ("scipy", "networkx"):
            totals[f"{top}_s"] += int(self_us) / 1e6
    return totals
