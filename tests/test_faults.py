"""Tests for the fault-injection layer: processes, schedules, masks."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    FaultConfigError,
    RoutingError,
)
from repro.faults.processes import FlashCrowdProcess, OutageWindow, TransientAttemptLoss
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule, FaultView, apply_fault_view
from repro.topology import fastcore


class TestOutageWindow:
    def test_active_only_inside_window(self):
        window = OutageWindow(
            satellites=frozenset({1, 2}), start_s=10.0, end_s=20.0
        )
        assert window.failed_satellites(9.9) == frozenset()
        assert window.failed_satellites(10.0) == frozenset({1, 2})
        assert window.failed_satellites(20.0) == frozenset()

    def test_empty_set_allowed(self):
        # The fraction-0.0 sweep point of the chaos experiment.
        assert OutageWindow(satellites=frozenset()).failed_satellites(0.0) == frozenset()

    def test_bad_window_rejected(self):
        with pytest.raises(FaultConfigError):
            OutageWindow(satellites=frozenset({1}), start_s=5.0, end_s=5.0)


class TestTransientAttemptLoss:
    def test_extremes(self):
        assert not TransientAttemptLoss(probability=0.0).lost(0, 1)
        assert TransientAttemptLoss(probability=1.0).lost(5, 3)

    def test_deterministic(self):
        a = TransientAttemptLoss(probability=0.5, seed=2)
        b = TransientAttemptLoss(probability=0.5, seed=2)
        assert [a.lost(i, 1) for i in range(20)] == [
            b.lost(i, 1) for i in range(20)
        ]

    def test_invalid_probability_rejected(self):
        with pytest.raises(FaultConfigError):
            TransientAttemptLoss(probability=1.5)


class TestFaultSchedule:
    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.is_empty
        view = schedule.compile_at(0.0)
        assert view.failed_satellites == frozenset()

    def test_add_dispatches_by_role(self):
        schedule = (
            FaultSchedule()
            .add(OutageWindow(satellites=frozenset({1})))
            .add(FlashCrowdProcess(extra_requests_per_slot=2.0))
            .add(TransientAttemptLoss(probability=0.5))
        )
        assert not schedule.is_empty
        assert len(schedule.satellite_processes) == 1
        assert len(schedule.load_processes) == 1
        assert schedule.attempt_loss is not None

    def test_duplicate_attempt_loss_rejected(self):
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=0.1))
        with pytest.raises(FaultConfigError):
            schedule.add(TransientAttemptLoss(probability=0.2))

    def test_unknown_process_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule().add(object())

    def test_compile_unions_processes(self):
        schedule = (
            FaultSchedule()
            .add(OutageWindow(satellites=frozenset({1})))
            .add(OutageWindow(satellites=frozenset({2}), start_s=5.0))
            .add(OutageWindow(satellites=frozenset({3}), end_s=5.0))
        )
        view = schedule.compile_at(5.0)
        assert view.failed_satellites == frozenset({1, 2})

    def test_negative_time_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule().compile_at(-1.0)


class TestApplyFaultView:
    def test_failed_satellites_masked(self, small_snapshot):
        view = FaultView(t_s=0.0, failed_satellites=frozenset({0, 1}))
        degraded = apply_fault_view(small_snapshot, view)
        assert not degraded.has_satellite(0)
        assert small_snapshot.has_satellite(0)  # original untouched

    def test_out_of_range_satellites_ignored(self, small_snapshot):
        view = FaultView(t_s=0.0, failed_satellites=frozenset({10_000}))
        degraded = apply_fault_view(small_snapshot, view)
        assert len(degraded.satellite_nodes()) == len(
            small_snapshot.satellite_nodes()
        )

class TestDegradeCoreBackends:
    def test_original_core_untouched(self, small_snapshot):
        core = small_snapshot.core
        before = core.link_latency_ms.copy()
        fastcore.degrade_core(core, (0, 1))
        np.testing.assert_array_equal(core.link_latency_ms, before)
        assert core.link_active is None

    def test_bad_link_id_rejected(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.degrade_core(small_snapshot.core, (10**6,))


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_ms=10.0, backoff_cap_ms=35.0)
        assert policy.backoff_ms(1) == pytest.approx(10.0)
        assert policy.backoff_ms(2) == pytest.approx(20.0)
        assert policy.backoff_ms(3) == pytest.approx(35.0)  # capped

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_ms": -1.0},
            {"backoff_cap_ms": -1.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(FaultConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("field", ["backoff_base_ms", "backoff_cap_ms"])
    def test_nan_backoff_rejected(self, field):
        # A NaN cap would make every retried RTT NaN; a NaN base would
        # silently yield the cap.
        with pytest.raises(FaultConfigError):
            RetryPolicy(**{field: float("nan")})


class TestErrorHierarchy:
    def test_fault_config_is_configuration_error(self):
        assert issubclass(FaultConfigError, ConfigurationError)
