"""Tests for replica placement — including the paper's 4-copies/5-hops claim."""

import pytest

from repro.errors import PlacementError
from repro.spacecdn.placement import KPerPlanePlacement, spaced_slots
from repro.topology import fastcore


class TestSpacedSlots:
    def test_count(self):
        assert len(spaced_slots(22, 4)) == 4

    def test_all_distinct(self):
        slots = spaced_slots(22, 4)
        assert len(set(slots)) == 4

    def test_roughly_even_spacing(self):
        slots = sorted(spaced_slots(22, 4))
        gaps = [
            (b - a) % 22 for a, b in zip(slots, slots[1:] + [slots[0] + 22])
        ]
        assert max(gaps) - min(gaps) <= 2

    def test_offset_rotates(self):
        base = spaced_slots(22, 4, offset=0)
        rotated = spaced_slots(22, 4, offset=3)
        assert set(rotated) == {(s + 3) % 22 for s in base}

    def test_full_plane(self):
        assert set(spaced_slots(8, 8)) == set(range(8))

    def test_invalid_copies_rejected(self):
        with pytest.raises(PlacementError):
            spaced_slots(22, 0)
        with pytest.raises(PlacementError):
            spaced_slots(22, 23)


class TestKPerPlanePlacement:
    def test_replica_count(self, shell1):
        placement = KPerPlanePlacement(copies_per_plane=4)
        holders = placement.place_object("video-1", shell1)
        assert len(holders) == 4 * shell1.num_planes

    def test_every_plane_covered(self, shell1):
        holders = KPerPlanePlacement(copies_per_plane=2).place_object("x", shell1)
        planes = {h // shell1.sats_per_plane for h in holders}
        assert planes == set(range(shell1.num_planes))

    def test_different_objects_different_satellites(self, shell1):
        placement = KPerPlanePlacement(copies_per_plane=4)
        a = placement.place_object("object-a", shell1)
        b = placement.place_object("object-b", shell1)
        assert a != b

    def test_deterministic(self, shell1):
        placement = KPerPlanePlacement(copies_per_plane=4)
        assert placement.place_object("x", shell1) == placement.place_object("x", shell1)

    def test_worst_case_hops_never_rise_with_copies(self, shell1_snapshot, shell1):
        # 1 -> 2 -> 4 -> 8 copies per plane: 7, 4, 2 and 1 hops on Shell 1.
        worst = [
            int(
                fastcore.nearest_hops(
                    shell1_snapshot.core,
                    KPerPlanePlacement(copies_per_plane=copies).place_object(
                        "ablation-object", shell1
                    ),
                ).max()
            )
            for copies in (1, 2, 4, 8)
        ]
        assert worst == sorted(worst, reverse=True)


class TestReplicaHopProfile:
    """Hops from every satellite to its nearest replica holder
    (:func:`fastcore.nearest_hops`)."""

    def test_holders_at_zero(self, small_snapshot):
        hops = fastcore.nearest_hops(small_snapshot.core, frozenset({0, 10}))
        assert hops[0] == 0
        assert hops[10] == 0

    def test_all_satellites_profiled(self, small_snapshot, small_shell):
        hops = fastcore.nearest_hops(small_snapshot.core, frozenset({0}))
        assert hops.shape == (small_shell.total_satellites,)
        assert (hops >= 0).all()

    def test_more_replicas_never_increase_distance(self, small_snapshot):
        few = fastcore.nearest_hops(small_snapshot.core, frozenset({0}))
        many = fastcore.nearest_hops(small_snapshot.core, frozenset({0, 20, 40}))
        assert (many <= few).all()

    def test_paper_claim_4_copies_per_plane_within_5_hops(self, shell1_snapshot, shell1):
        # Paper §4: "with around 4 copies distributed within each plane, an
        # object can be reachable within 5 hops, even within a single orbital
        # plane; fewer copies would be needed if east-west ISLs ... are used."
        holders = KPerPlanePlacement(copies_per_plane=4).place_object(
            "popular-video", shell1
        )
        assert fastcore.nearest_hops(shell1_snapshot.core, holders).max() <= 5

    def test_intra_plane_only_bound(self, shell1):
        # Even ignoring cross-plane links, 4 evenly spaced copies in a
        # 22-satellite ring leave at most ceil((22/4)/2) = 3 hops.
        slots = spaced_slots(22, 4)
        worst = max(
            min(min((s - slot) % 22, (slot - s) % 22) for s in slots)
            for slot in range(22)
        )
        assert worst <= 3
