"""Property tests pinning the vectorised CSR routing core to networkx.

The fastcore kernels are only trustworthy if they agree with the per-query
``networkx`` traversals of ``topology_reference.py`` on *every* input — random shells, random
epochs, random sources and random failure sets — so the equivalence is
asserted property-style with hypothesis rather than on a few hand-picked
cases. Hop counts must match exactly; latencies to 1e-9 ms (networkx and
scipy may sum path weights in different orders).
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.geo.coordinates import GeoPoint
from repro.experiments.shells import small_constellation
from repro.orbits.elements import ShellConfig, all_shell_presets, starlink_shell1
from repro.orbits.visibility import (
    nearest_visible_satellite,
    nearest_visible_satellites,
)
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.lookup import nearest_cached_satellite
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from topology_reference import (
    full_rows,
    hop_distances_reference,
    latency_by_hop_count_reference,
    networkx_view,
    satellite_latencies_reference,
)

LATENCY_ATOL = 1e-9


def _shell(num_planes: int, sats_per_plane: int, phase_offset: int) -> ShellConfig:
    return ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=num_planes,
        sats_per_plane=sats_per_plane,
        phase_offset=phase_offset % (num_planes * sats_per_plane),
        name=f"prop-{num_planes}x{sats_per_plane}-{phase_offset}",
    )


@st.composite
def snapshot_cases(draw):
    """A random (snapshot, source, failed-set) routing scenario, with a
    random set of cut ISLs on top."""
    num_planes = draw(st.integers(3, 7))
    sats_per_plane = draw(st.integers(3, 8))
    phase_offset = draw(st.integers(0, 10))
    t_s = draw(st.floats(0.0, 5700.0, allow_nan=False, allow_infinity=False))
    n = num_planes * sats_per_plane
    source = draw(st.integers(0, n - 1))
    failed = draw(
        st.sets(st.integers(0, n - 1), max_size=max(0, n // 4)).filter(
            lambda s: source not in s
        )
    )
    cut = draw(st.sets(st.integers(0, 2 * n - 1), max_size=max(0, n // 4)))
    config = _shell(num_planes, sats_per_plane, phase_offset)
    snapshot = build_snapshot(build_walker_delta(config), t_s)
    if failed or cut:
        from repro.spacecdn.resilience import fail_satellites

        snapshot = replace(
            fail_satellites(snapshot, frozenset(failed)),
            core=fastcore.degrade_core(snapshot.core, cut_links=cut),
        )
    return snapshot, source, failed


def _single_source(snapshot, source):
    return full_rows(snapshot.core, source, snapshot.active_mask)


class TestEquivalenceWithNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_hop_distances_exact(self, case):
        snapshot, source, _ = case
        hops, _ = _single_source(snapshot, source)
        fast = {
            node: int(h)
            for node, h in enumerate(hops)
            if h != fastcore.HOP_UNREACHABLE
        }
        assert fast == hop_distances_reference(networkx_view(snapshot), source)

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_satellite_latencies_close(self, case):
        snapshot, source, _ = case
        _, latencies = _single_source(snapshot, source)
        fast = {
            node: float(latency)
            for node, latency in enumerate(latencies)
            if np.isfinite(latency)
        }
        ref = satellite_latencies_reference(networkx_view(snapshot), source)
        assert fast.keys() == ref.keys()
        for node, latency in ref.items():
            assert fast[node] == pytest.approx(latency, abs=LATENCY_ATOL)

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.integers(0, 12))
    def test_hop_ladder_close(self, case, max_hops):
        snapshot, source, _ = case
        ladder = fastcore.hop_ladder_batch(
            snapshot.core, [source], max_hops, snapshot.active_mask
        )[0]
        fast = {h: float(v) for h, v in enumerate(ladder) if not np.isnan(v)}
        ref = latency_by_hop_count_reference(
            networkx_view(snapshot), source, max_hops
        )
        assert fast.keys() == ref.keys()
        for h, latency in ref.items():
            assert fast[h] == pytest.approx(latency, abs=LATENCY_ATOL)

    @settings(max_examples=15, deadline=None)
    @given(snapshot_cases(), st.data())
    def test_nearest_hops_matches_multi_source_bfs(self, case, data):
        snapshot, source, failed = case
        alive = sorted(snapshot.satellite_nodes())
        targets = data.draw(
            st.sets(st.sampled_from(alive), min_size=1, max_size=5)
        )
        got = fastcore.nearest_hops(
            snapshot.core, targets, snapshot.active_mask
        )
        # Reference: min over per-target BFS dicts.
        graph = networkx_view(snapshot)
        per_target = [hop_distances_reference(graph, t) for t in targets]
        for node in range(snapshot.core.num_nodes):
            best = min(
                (d[node] for d in per_target if node in d), default=None
            )
            if best is None:
                assert got[node] == fastcore.HOP_UNREACHABLE
            else:
                assert got[node] == best


class TestTranslatedHopRows:
    """Undegraded hop rows are satellite 0's row translated by (plane, slot).

    Any ``active`` mask, even an all-True one, forces a BFS, so an
    all-True mask gives the rows to compare against.
    """

    SOURCE_STRIDE = 13
    """Coprime to every preset's plane and slot counts, so a strided subset
    still starts from every plane and every slot residue it can."""

    @pytest.mark.parametrize(
        "config",
        all_shell_presets() + (small_constellation().config,),
        ids=lambda config: config.name,
    )
    def test_equal_to_bfs_on_every_preset(self, config):
        core = build_snapshot(build_walker_delta(config), 311.0).core
        n = core.num_nodes
        sources = np.arange(n)
        if n > 48 and config != starlink_shell1():
            sources = sources[:: self.SOURCE_STRIDE]
        translated = fastcore.hop_distances_batch(core, sources)
        bfs = fastcore.hop_distances_batch(core, sources, np.ones(n, dtype=bool))
        assert translated.dtype == bfs.dtype == np.int32
        np.testing.assert_array_equal(translated, bfs)

    def test_undegraded_queries_run_no_bfs(self, small_snapshot, monkeypatch):
        calls: list[int] = []
        dijkstra = fastcore._scipy_dijkstra

        def counted(*args, **kwargs):
            calls.extend([1] if kwargs["unweighted"] else [])
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(fastcore, "_scipy_dijkstra", counted)
        core = small_snapshot.core
        fastcore.hop_distances_batch(core, [0, 7])
        fastcore.single_source(core, [9], 4, np.arange(core.num_nodes) % 7 == 0)
        fastcore.hop_ladder_batch(core, [3], 4)
        assert calls == []
        mask = np.ones(core.num_nodes, dtype=bool)
        fastcore.hop_distances_batch(core, [0, 7], mask)
        assert calls == [1]
        cut = fastcore.degrade_core(core, cut_links=[0])
        fastcore.hop_distances_batch(cut, [0, 7])
        assert calls == [1, 1]


def _full_ladder(hops, lats, max_hops):
    """The unbounded ladder: cheapest full-row latency at each hop count."""
    ladder = np.full(max_hops + 1, np.nan)
    for h in range(max_hops + 1):
        at_h = lats[(hops == h) & np.isfinite(lats)]
        if at_h.size:
            ladder[h] = at_h.min()
    return ladder


class TestHopRadius:
    """Bounded searches return the full-row floats wherever a caller reads.

    Rows within the radius equal unlimited rows (:func:`full_rows`) bit
    for bit; outside it they read unreachable/``inf``. Random masks and
    random cut sets.
    """

    @staticmethod
    def _sources(snapshot, source):
        """The drawn source plus the highest live satellite: a batch whose
        rows need different limits."""
        return [source, max(snapshot.satellite_nodes())]

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.integers(0, 12))
    def test_bounded_rows_equal_full_rows_within_radius(self, case, max_hops):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        sources = self._sources(snapshot, source)
        hops, lats = fastcore.single_source_batch(core, sources, max_hops, mask)
        clipped = fastcore.hop_distances_batch(
            core, sources, mask, max_hops=max_hops
        )
        full = [full_rows(core, s, mask) for s in sources]
        for i, (full_hops, full_lats) in enumerate(full):
            inside = (full_hops != fastcore.HOP_UNREACHABLE) & (
                full_hops <= max_hops
            )
            np.testing.assert_array_equal(hops[i][inside], full_hops[inside])
            np.testing.assert_array_equal(lats[i][inside], full_lats[inside])
            assert np.all(hops[i][~inside] == fastcore.HOP_UNREACHABLE)
            assert np.all(np.isinf(lats[i][~inside]))
            np.testing.assert_array_equal(
                clipped[i], np.where(inside, full_hops, fastcore.HOP_UNREACHABLE)
            )

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.integers(0, 12))
    def test_bounded_ladder_equals_unbounded(self, case, max_hops):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        sources = self._sources(snapshot, source)
        ladder = fastcore.hop_ladder_batch(core, sources, max_hops, mask)
        full = [full_rows(core, s, mask) for s in sources]
        for i, (full_hops, full_lats) in enumerate(full):
            np.testing.assert_array_equal(
                ladder[i], _full_ladder(full_hops, full_lats, max_hops)
            )

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_path_bound_never_below_dijkstra(self, case):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        hops, lats = full_rows(core, source, mask)
        bound = fastcore.hop_path_bound(core, hops)
        finite = np.isfinite(bound)
        np.testing.assert_array_equal(finite, hops != fastcore.HOP_UNREACHABLE)
        assert np.all(bound[finite] >= lats[finite])

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.data())
    def test_limit_equal_to_a_distance_keeps_it(self, case, data):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        full = fastcore.latency_batch(core, [source], mask)[0]
        target = data.draw(st.sampled_from(np.flatnonzero(np.isfinite(full))))
        limit = float(full[target])
        limited = fastcore.latency_batch(core, [source], mask, limit=limit)[0]
        assert limited[target] == full[target]
        within = full <= limit
        np.testing.assert_array_equal(limited[within], full[within])
        assert np.all(np.isinf(limited[~within]))

    @pytest.mark.parametrize(
        "max_hops", [2.5, 2.0, True, "3", None, -1], ids=repr
    )
    def test_radius_must_be_a_non_negative_int(self, small_snapshot, max_hops):
        core = small_snapshot.core
        with pytest.raises(RoutingError, match="max_hops"):
            fastcore.hop_ladder_batch(core, [0], max_hops)
        with pytest.raises(RoutingError, match="max_hops"):
            fastcore.single_source_batch(core, [0], max_hops)
        targets = np.ones(core.num_nodes, dtype=bool)
        with pytest.raises(RoutingError, match="max_hops"):
            fastcore.single_source(core, [0], max_hops, targets)

    def test_numpy_integer_radius_accepted(self, small_snapshot):
        core = small_snapshot.core
        radius = np.int64(3)
        np.testing.assert_array_equal(
            fastcore.hop_ladder_batch(core, [0], radius),
            fastcore.hop_ladder_batch(core, [0], 3),
        )
        assert fastcore.single_source_batch(core, [0], radius)[0].max() == 3


def _coarse(core):
    """``core`` with every link latency rounded up to a whole 5 ms: paths
    of equal latency abound, so nearest-target searches meet exact ties."""
    return fastcore.CsrSnapshot(
        topology=core.topology,
        link_distance_km=core.link_distance_km,
        link_latency_ms=np.ceil(core.link_latency_ms / 5.0) * 5.0,
        link_active=core.link_active,
    )


def _nearest_in_full_row(hops, lats, targets, max_hops):
    """Brute force: the cheapest target within ``max_hops`` of a full row,
    lowest index on ties, as ``(satellite, hops, latency)``."""
    best = None
    for v in np.flatnonzero(targets):
        if 0 <= hops[v] <= max_hops and np.isfinite(lats[v]):
            if best is None or lats[v] < lats[best]:
                best = v
    return None if best is None else (int(best), int(hops[best]), float(lats[best]))


class TestNearestTarget:
    """:func:`fastcore.single_source` searches each row only as far as its
    cheapest in-range target, yet picks the target a full row picks.

    Random masks, cut sets, radii from 0 and target sets
    (empty, every satellite, holding the sources, only beyond one source's
    radius, random); optionally whole-5-ms link latencies for exact ties.
    """

    @staticmethod
    @st.composite
    def cases(draw):
        snapshot, source, _ = draw(snapshot_cases())
        if draw(st.booleans()):
            snapshot = replace(snapshot, core=_coarse(snapshot.core))
        n = snapshot.core.num_nodes
        live = sorted(snapshot.satellite_nodes())
        sources = sorted({source, max(live), draw(st.sampled_from(live))})
        max_hops = draw(st.integers(0, 12))
        kind = draw(st.sampled_from(["empty", "all", "sources", "beyond", "random"]))
        if kind == "empty":
            targets = set()
        elif kind == "all":
            targets = set(range(n))
        elif kind == "sources":
            targets = set(sources) | draw(st.sets(st.integers(0, n - 1)))
        elif kind == "beyond":
            hops, _ = full_rows(snapshot.core, source, snapshot.active_mask)
            targets = set(np.flatnonzero(hops > max_hops).tolist())
        else:
            targets = draw(st.sets(st.integers(0, n - 1), max_size=n))
        return snapshot, sources, max_hops, frozenset(targets)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_cheapest_target_equals_full_row_argmin(self, case):
        snapshot, sources, max_hops, caches = case
        core, mask = snapshot.core, snapshot.active_mask
        targets = np.zeros(core.num_nodes, dtype=bool)
        targets[list(caches)] = True
        hops, lats = fastcore.single_source(
            core, sources, max_hops, targets, mask
        )
        nearest = nearest_cached_satellite(
            snapshot, sources, caches, max_hops
        )
        full = [full_rows(core, s, mask) for s in sources]
        for i, (full_hops, full_lats) in enumerate(full):
            want = _nearest_in_full_row(full_hops, full_lats, targets, max_hops)
            assert nearest[i] == want
            inside = (full_hops != fastcore.HOP_UNREACHABLE) & (
                full_hops <= max_hops
            )
            np.testing.assert_array_equal(
                hops[i], np.where(inside, full_hops, fastcore.HOP_UNREACHABLE)
            )
            finite = np.isfinite(lats[i])
            assert not np.any(finite & ~inside)
            np.testing.assert_array_equal(lats[i][finite], full_lats[finite])
            if want is not None:
                assert lats[i][want[0]] == want[2]

    def test_targets_mask_shape_checked(self, small_snapshot):
        with pytest.raises(RoutingError, match="targets"):
            fastcore.single_source(
                small_snapshot.core, [0], 3, np.ones(3, dtype=bool)
            )


class TestBatchedVisibility:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-55.0, 55.0, allow_nan=False),
                st.floats(-180.0, 179.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(0.0, 5700.0, allow_nan=False),
    )
    def test_matches_per_point_lookup(self, shell1_constellation, coords, t_s):
        points = [GeoPoint(lat, lon) for lat, lon in coords]
        indices, ranges = nearest_visible_satellites(
            shell1_constellation, points, t_s
        )
        for point, idx, rng_km in zip(points, indices, ranges):
            single = nearest_visible_satellite(shell1_constellation, point, t_s)
            assert int(idx) == single.index
            assert rng_km == single.slant_range_km


class TestValidationAndEdgeCases:
    def test_unknown_source_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [9999])

    def test_negative_source_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.hop_distances_batch(small_snapshot.core, [-1])

    def test_failed_source_raises(self, small_snapshot):
        mask = np.ones(small_snapshot.core.num_nodes, dtype=bool)
        mask[3] = False
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [3], active=mask)

    @pytest.mark.parametrize(
        "sources", [[1.5], [1.0], [True], ["3"], np.array([2.0])], ids=repr
    )
    def test_non_integer_sources_raise(self, small_snapshot, sources):
        """A float, bool or string source is an error, never truncated."""
        core = small_snapshot.core
        for kernel in (
            fastcore.latency_batch,
            fastcore.hop_distances_batch,
            functools.partial(fastcore.single_source_batch, max_hops=5),
            functools.partial(
                fastcore.single_source,
                max_hops=5,
                targets=np.ones(core.num_nodes, dtype=bool),
            ),
        ):
            with pytest.raises(RoutingError, match="integers"):
                kernel(core, sources)

    def test_any_integer_dtype_is_a_source(self, small_snapshot):
        core = small_snapshot.core
        expected = fastcore.hop_distances_batch(core, [4, 11])
        for dtype in (np.int32, np.uint16, np.int64):
            sources = np.array([4, 11], dtype=dtype)
            np.testing.assert_array_equal(
                fastcore.hop_distances_batch(core, sources), expected
            )

    def test_empty_sources_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [])

    def test_bad_mask_shape_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(
                small_snapshot.core, [0], active=np.ones(3, dtype=bool)
            )

    def test_negative_ladder_hops_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.hop_ladder_batch(small_snapshot.core, [0], -1)

    @pytest.mark.parametrize(
        "cut", [[1.7], [1.0], [True], [np.float64(2.0)], ["3"]], ids=repr
    )
    def test_non_integer_cut_links_raise(self, small_snapshot, cut):
        """A float, bool or string link id is an error, never truncated."""
        with pytest.raises(RoutingError, match="integers"):
            fastcore.degrade_core(small_snapshot.core, cut_links=cut)

    def test_numpy_integer_cut_links_accepted(self, small_snapshot):
        core = small_snapshot.core
        cut = fastcore.degrade_core(core, cut_links=np.array([1, 4], dtype=np.int16))
        assert np.flatnonzero(~cut.link_active).tolist() == [1, 4]

    def test_isl_incapable_shell_has_no_routes(self):
        """OneWeb-style shells carry no ISLs: everything is unreachable."""
        config = ShellConfig(
            altitude_km=1200.0,
            inclination_deg=87.9,
            num_planes=4,
            sats_per_plane=5,
            phase_offset=0,
            name="bent-pipe-only",
            isl_capable=False,
        )
        core = build_snapshot(build_walker_delta(config), 0.0).core
        assert core.topology.num_links == 0
        hops = fastcore.hop_distances_batch(core, [0])[0]
        assert hops[0] == 0
        assert np.all(hops[1:] == fastcore.HOP_UNREACHABLE)

    def test_failed_columns_are_masked(self, small_snapshot):
        mask = np.ones(small_snapshot.core.num_nodes, dtype=bool)
        mask[7] = False
        lats = fastcore.latency_batch(small_snapshot.core, [0], active=mask)[0]
        hops = fastcore.hop_distances_batch(small_snapshot.core, [0], active=mask)[0]
        assert np.isinf(lats[7])
        assert hops[7] == fastcore.HOP_UNREACHABLE

