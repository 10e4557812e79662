"""Property tests pinning the vectorised CSR routing core to networkx.

The fastcore kernels are only trustworthy if they agree with the per-query
``networkx`` traversals of ``topology_reference.py`` on *every* input — random shells, random
epochs, random sources and random failure sets — so the equivalence is
asserted property-style with hypothesis rather than on a few hand-picked
cases. Hop counts must match exactly; latencies to 1e-9 ms (the backends
may sum path weights in different orders).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.visibility import (
    nearest_visible_satellite,
    nearest_visible_satellites,
)
from repro.orbits.walker import build_walker_delta
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from repro.topology.routing import (
    hop_distances,
    latency_by_hop_count,
    satellite_latencies,
)
from topology_reference import (
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

        snapshot = fail_satellites(snapshot, frozenset(failed)).with_core(
            fastcore.degrade_core(snapshot.core, cut_links=cut)
        )
    return snapshot, source, failed


class TestEquivalenceWithNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_hop_distances_exact(self, case):
        snapshot, source, _ = case
        assert hop_distances(snapshot, source) == hop_distances_reference(
            networkx_view(snapshot), source
        )

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_satellite_latencies_close(self, case):
        snapshot, source, _ = case
        fast = satellite_latencies(snapshot, source)
        ref = satellite_latencies_reference(networkx_view(snapshot), source)
        assert fast.keys() == ref.keys()
        for node, latency in ref.items():
            assert fast[node] == pytest.approx(latency, abs=LATENCY_ATOL)

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.integers(0, 12))
    def test_hop_ladder_close(self, case, max_hops):
        snapshot, source, _ = case
        fast = latency_by_hop_count(snapshot, source, max_hops)
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


class TestBackendAgreement:
    @pytest.mark.skipif(not fastcore.HAVE_SCIPY, reason="scipy not importable")
    @settings(max_examples=20, deadline=None)
    @given(snapshot_cases())
    def test_numpy_and_scipy_agree(self, case):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        sources = [source, 0] if snapshot.has_satellite(0) else [source]
        np.testing.assert_array_equal(
            fastcore.hop_distances_batch(core, sources, mask, method="numpy"),
            fastcore.hop_distances_batch(core, sources, mask, method="scipy"),
        )
        np.testing.assert_allclose(
            fastcore.latency_batch(core, sources, mask, method="numpy"),
            fastcore.latency_batch(core, sources, mask, method="scipy"),
            atol=LATENCY_ATOL,
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
            assert rng_km == pytest.approx(single.slant_range_km, abs=1e-9)


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

    def test_empty_sources_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [])

    def test_bad_mask_shape_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(
                small_snapshot.core, [0], active=np.ones(3, dtype=bool)
            )

    def test_unknown_backend_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [0], method="cuda")

    def test_negative_ladder_hops_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.hop_ladder_batch(small_snapshot.core, [0], -1)

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
        core = fastcore.build_core(build_walker_delta(config), 0.0)
        assert core.topology.num_links == 0
        hops = fastcore.hop_distances_batch(core, [0], method="numpy")[0]
        assert hops[0] == 0
        assert np.all(hops[1:] == fastcore.HOP_UNREACHABLE)

    def test_failed_columns_are_masked(self, small_snapshot):
        mask = np.ones(small_snapshot.core.num_nodes, dtype=bool)
        mask[7] = False
        lats = fastcore.latency_batch(small_snapshot.core, [0], active=mask)[0]
        hops = fastcore.hop_distances_batch(small_snapshot.core, [0], active=mask)[0]
        assert np.isinf(lats[7])
        assert hops[7] == fastcore.HOP_UNREACHABLE

    def test_single_source_memoised(self, small_constellation):
        core = fastcore.build_core(small_constellation, 0.0)
        first = fastcore.single_source(core, 5)
        again = fastcore.single_source(core, 5)
        assert first[0] is again[0] and first[1] is again[1]
