"""Overload protection: capacity, admission, breakers, deadlines, sweep.

Unit coverage for :mod:`repro.overload` (the admission/queueing model and
the circuit-breaker state machine), the overloaded serve path through
:class:`~repro.spacecdn.system.SpaceCdnSystem` (shed accounting, priority
validation, the no-model byte-identical guarantee), the ``overload``
experiment (graceful degradation, registry round-trip, merge equivalence),
its CLI surface (eager exit-4 validation, the ``overloaded`` exit code),
and the obs integration (summarize section, serial-vs-parallel counter
reconciliation).
"""

import json
import re

import numpy as np
import pytest

from repro.cdn.content import build_catalog
from repro.cli import EXIT_ERROR, EXIT_FAULT_CONFIG, EXIT_OVERLOADED, main
from repro.errors import (
    ConfigurationError,
    FaultConfigError,
    OverloadedError,
    UnavailableError,
)
from repro.experiments import overload as overload_experiment
from repro.faults.processes import FlashCrowdProcess
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.walker import build_walker_delta
from repro.overload.model import (
    BREAKER_COOLDOWN_JITTER_S,
    BREAKER_COOLDOWN_S,
    GROUND_TARGET,
    MAX_UTILISATION,
    QUEUE_SERVICE_MS,
    CircuitBreaker,
    OverloadModel,
)
from repro.runner.registry import plan_from_config
from repro.spacecdn.system import SpaceCdnSystem

CONSTELLATION = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="overload-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(0), 30, regions=("africa",), kind_weights={"web": 1.0}
)
OBJECTS = sorted(o.object_id for o in CATALOG)
USERS = [
    GeoPoint(0.0, 0.0, 0.0),
    GeoPoint(-25.9, 32.6, 0.0),  # Maputo
    GeoPoint(-1.3, 36.8, 0.0),  # Nairobi
]


def make_system(model=None, schedule=None):
    system = SpaceCdnSystem(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=schedule,
        overload=model,
    )
    system.preload(
        {
            oid: frozenset(
                {(i * 7) % len(CONSTELLATION), (i * 13 + 5) % len(CONSTELLATION)}
            )
            for i, oid in enumerate(OBJECTS[:12])
        }
    )
    return system


# By this instant a breaker tripped at t = 2 s has ended its longest cooldown.
REOPENED = 2.0 + BREAKER_COOLDOWN_S + BREAKER_COOLDOWN_JITTER_S


class TestCircuitBreaker:
    @staticmethod
    def breaker(**kwargs):
        return CircuitBreaker(seed=7, target=4, **kwargs)

    def test_trips_after_threshold_consecutive_failures(self):
        b = self.breaker()
        for _ in range(2):
            b.record_failure(0.0)
        assert b.state == "closed" and b.allow(1.0)
        b.record_failure(2.0)
        assert b.state == "open"
        assert not b.allow(3.0)

    def test_success_resets_the_consecutive_count(self):
        b = self.breaker()
        b.record_failure(0.0)
        b.record_failure(1.0)
        b.record_success(2.0)
        b.record_failure(3.0)
        b.record_failure(4.0)
        assert b.state == "closed"

    def test_half_opens_after_cooldown_and_probe_closes_it(self):
        b = self.breaker()
        for t in range(3):
            b.record_failure(float(t))
        assert not b.allow(2.0 + BREAKER_COOLDOWN_S - 1.0)  # still cooling down
        assert b.allow(REOPENED)  # cooldown elapsed: the probe slot
        assert b.state == "half-open"
        b.record_success(REOPENED + 1.0)
        assert b.state == "closed"

    def test_half_open_exhausts_its_probe_budget(self):
        b = self.breaker()
        for t in range(3):
            b.record_failure(float(t))
        assert b.allow(REOPENED)
        assert not b.allow(REOPENED)  # second concurrent probe refused

    def test_failed_probe_reopens_with_a_fresh_cooldown(self):
        b = self.breaker()
        for t in range(3):
            b.record_failure(float(t))
        first_reopen = b._reopen_at
        assert b.allow(first_reopen)
        b.record_failure(first_reopen)
        assert b.state == "open"
        assert (
            first_reopen + BREAKER_COOLDOWN_S
            <= b._reopen_at
            <= first_reopen + BREAKER_COOLDOWN_S + BREAKER_COOLDOWN_JITTER_S
        )

    def test_failure_while_open_is_a_noop(self):
        b = self.breaker()
        for t in range(3):
            b.record_failure(float(t))
        reopen = b._reopen_at
        b.record_failure(5.0)
        assert b.state == "open" and b._reopen_at == reopen

    def test_cooldown_jitter_is_seeded_and_bounded(self):
        def tripped():
            b = self.breaker()
            for t in range(3):
                b.record_failure(float(t))
            return b

        a, b = tripped(), tripped()
        assert a._reopen_at == b._reopen_at  # same (seed, target, open) stream
        assert 2.0 + BREAKER_COOLDOWN_S <= a._reopen_at <= REOPENED

    def test_transition_hook_sees_every_edge(self):
        edges = []
        b = self.breaker(
            on_transition=lambda target, old, new, t: edges.append((old, new))
        )
        for t in range(3):
            b.record_failure(float(t))
        b.allow(REOPENED)
        b.record_success(REOPENED + 1.0)
        assert edges == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "closed"),
        ]


class TestOverloadModel:
    def test_rejects_inconsistent_config(self):
        with pytest.raises(ConfigurationError):
            OverloadModel(capacity_per_slot=0.0)
        with pytest.raises(ConfigurationError):
            OverloadModel(ground_capacity_per_slot=float("nan"))
        with pytest.raises(ConfigurationError):
            OverloadModel(deadline_ms=0.0)
        with pytest.raises(ConfigurationError):
            OverloadModel(seed=-1)

    @staticmethod
    def model(**kwargs):
        kwargs.setdefault("capacity_per_slot", 10.0)
        model = OverloadModel(**kwargs)
        model.begin_slot(0, 0.0, 8, kwargs.get("schedule"))
        return model

    def test_admission_thresholds_are_per_class(self):
        model = self.model()
        for _ in range(6):
            model.note_served(3)
        assert model.admit(3, 2)  # 6+1 <= 7.5
        model.note_served(3)
        assert model.admit(3, 1)  # 7+1 <= 9
        assert not model.admit(3, 2)  # class 2 sheds above 75% utilisation
        for _ in range(2):
            model.note_served(3)
        assert not model.admit(3, 1)  # class 1 sheds above 90% utilisation
        assert model.admit(3, 0)  # the tenth request exactly fills the slot
        model.note_served(3)
        assert not model.admit(3, 0)  # hard capacity

    def test_ground_budget_is_separate(self):
        model = self.model(ground_capacity_per_slot=2.0)
        model.note_served(None)
        assert model.admit(None, 0)
        model.note_served(None)
        assert not model.admit(None, 0)
        assert model.admit(0, 0)  # satellites untouched

    def test_queue_delay_rises_smoothly_and_caps(self):
        model = self.model()
        assert model.queue_delay_ms(2) == 0.0
        model.note_served(2)
        low = model.queue_delay_ms(2)
        for _ in range(7):
            model.note_served(2)
        high = model.queue_delay_ms(2)
        assert 0.0 < low < high
        for _ in range(20):
            model.note_served(2)
        clamped = QUEUE_SERVICE_MS * MAX_UTILISATION / (1.0 - MAX_UTILISATION)
        assert model.queue_delay_ms(2) == clamped

    def test_flash_crowd_background_consumes_budget(self):
        schedule = FaultSchedule().add(
            FlashCrowdProcess(extra_requests_per_slot=9.0, start_s=0.0)
        )
        model = OverloadModel(capacity_per_slot=10.0)
        model.begin_slot(0, 0.0, 8, schedule)
        assert model.admit(5, 0)  # 9+1 <= 10
        model.note_served(5)
        assert not model.admit(5, 0)
        assert model.utilisation(5) == pytest.approx(1.0)

    def test_begin_slot_resets_load_and_is_idempotent(self):
        model = self.model()
        model.note_served(1)
        model.begin_slot(0, 0.0, 8, None)  # same slot: keeps the load
        assert model.utilisation(1) > 0.0
        model.begin_slot(1, 600.0, 8, None)  # new slot: fresh budget
        assert model.utilisation(1) == 0.0

    def test_priority_draws_are_seeded_and_in_range(self):
        model = self.model()
        draws = [model.priority_of(i) for i in range(64)]
        assert draws == [model.priority_of(i) for i in range(64)]
        assert set(draws) <= {0, 1, 2}
        assert draws.count(0) > draws.count(1) + draws.count(2)  # weight 0.7

    def test_breakers_are_lazy_and_per_target(self):
        model = self.model()
        assert model.breaker_for(3) is model.breaker_for(3)
        assert model.breaker_for(3) is not model.breaker_for(GROUND_TARGET)


class TestFlashCrowdSchedule:
    def test_inert_outside_the_window(self):
        crowd = FlashCrowdProcess(
            extra_requests_per_slot=4.0, start_s=100.0, end_s=200.0
        )
        assert crowd.background_load(99.0, 8) is None
        assert crowd.background_load(200.0, 8) is None
        load = crowd.background_load(150.0, 8)
        assert load is not None and np.all(load == 4.0)

    def test_schedule_compiles_and_sums_load(self):
        schedule = (
            FaultSchedule()
            .add(FlashCrowdProcess(extra_requests_per_slot=2.0))
            .add(FlashCrowdProcess(extra_requests_per_slot=5.0, start_s=10.0))
        )
        assert schedule.compile_load_at(0.0, 3).tolist() == [2.0, 2.0, 2.0]
        assert schedule.compile_load_at(10.0, 3).tolist() == [7.0, 7.0, 7.0]
        with pytest.raises(FaultConfigError):
            schedule.compile_load_at(-1.0, 3)

    def test_load_only_schedule_counts_as_empty(self):
        """Without an overload model, flash crowds have nothing to saturate:
        the system must serve exactly as with no schedule."""
        schedule = FaultSchedule().add(
            FlashCrowdProcess(extra_requests_per_slot=2.0)
        )
        assert schedule.is_empty
        plain = make_system()
        loaded = make_system(schedule=schedule)
        for oid in OBJECTS[:4]:
            assert loaded.serve(USERS[0], oid, 0.0) == plain.serve(
                USERS[0], oid, 0.0
            )
        assert loaded.stats == plain.stats

    def test_flash_crowd_validation(self):
        with pytest.raises(FaultConfigError):
            FlashCrowdProcess(extra_requests_per_slot=-1.0)
        with pytest.raises(FaultConfigError):
            FlashCrowdProcess(
                extra_requests_per_slot=1.0, start_s=10.0, end_s=5.0
            )


class TestOverloadedServe:
    def test_shed_raises_overloaded_with_reason_and_class(self):
        model = OverloadModel(capacity_per_slot=1.0, ground_capacity_per_slot=1.0)
        system = make_system(model)
        served = 0
        sheds = []
        for _ in range(12):  # one object: two holders + ground = 3 slots
            try:
                system.serve(USERS[0], OBJECTS[0], 0.0, priority=0)
                served += 1
            except OverloadedError as exc:
                sheds.append(exc)
            except UnavailableError:
                pass
        assert sheds, "1-request budgets must shed most of a 12-request burst"
        # Three refusals open a target's breaker: admission sheds come first,
        # breaker-open sheds once every rung has tripped.
        reasons = [exc.reason for exc in sheds]
        assert reasons == sorted(reasons)
        assert set(reasons) == {"admission", "breaker-open"}
        assert all(exc.priority_class == 0 for exc in sheds)
        assert system.stats.shed == len(sheds)
        assert system.stats.requests == 12
        assert system.stats.shed_fraction == pytest.approx(len(sheds) / 12)

    def test_overloaded_is_a_kind_of_unavailable(self):
        assert issubclass(OverloadedError, UnavailableError)

    def test_tight_deadline_sheds_with_deadline_reason(self):
        model = OverloadModel(
            capacity_per_slot=100.0,
            deadline_ms=1e-6,
        )
        system = make_system(model)
        with pytest.raises(OverloadedError) as excinfo:
            system.serve(USERS[0], OBJECTS[0], 0.0)
        assert excinfo.value.reason == "deadline"
        assert system.stats.deadline_exhausted == 1
        assert system.stats.shed == 1

    def test_breaker_open_sheds_once_all_rungs_trip(self):
        model = OverloadModel(
            capacity_per_slot=0.25,  # admits nothing: every attempt fails
            ground_capacity_per_slot=0.25,
        )
        system = make_system(model)
        reasons = set()
        # Six objects with disjoint holders: each holder's third refusal
        # (the object's third request) opens its breaker, and at t = 0 no
        # cooldown ever elapses.
        for i in range(36):
            try:
                system.serve(USERS[0], OBJECTS[i % 6], 0.0)
            except OverloadedError as exc:
                reasons.add(exc.reason)
            except UnavailableError:
                pass
        assert "breaker-open" in reasons

    def test_priority_without_model_is_refused(self):
        system = make_system()
        with pytest.raises(ConfigurationError):
            system.serve(USERS[0], OBJECTS[0], 0.0, priority=1)
        with pytest.raises(ConfigurationError):
            system.serve_batch([USERS[0]], [OBJECTS[0]], 0.0, priorities=[1])

    def test_out_of_range_priority_is_refused(self):
        system = make_system(OverloadModel())
        with pytest.raises(ConfigurationError):
            system.serve(USERS[0], OBJECTS[0], 0.0, priority=99)

    def test_generous_model_changes_nothing(self):
        """Capacity far above demand: the overloaded walk must reproduce the
        plain serve results (modulo the priority annotation)."""
        model = OverloadModel(capacity_per_slot=1e9,
                              ground_capacity_per_slot=1e9,
                              deadline_ms=None)
        plain, guarded = make_system(), make_system(model)
        for i in range(6):
            expected = plain.serve(USERS[0], OBJECTS[i], float(i))
            actual = guarded.serve(USERS[0], OBJECTS[i], float(i))
            assert actual.priority is not None
            assert (actual.object_id, actual.source, actual.serving_satellite,
                    actual.rtt_ms) == (
                expected.object_id, expected.source,
                expected.serving_satellite, expected.rtt_ms,
            )

    def test_served_priority_is_echoed(self):
        system = make_system(OverloadModel())
        result = system.serve(USERS[0], OBJECTS[0], 0.0, priority=2)
        assert result.priority == 2


class TestOverloadExperiment:
    TUNED = dict(
        shell="small", num_requests=45, capacity=1.0, ground_capacity=3.0,
        loads=(0.5, 2.0, 4.0),
    )

    def test_graceful_degradation_no_cliff(self):
        result = overload_experiment.run(**self.TUNED)
        availability = [p.availability for p in result.points]
        shed = [p.shed_fraction for p in result.points]
        assert all(a is not None for a in availability)
        # Monotone-ish decline with rising shedding, never a cliff to zero.
        for lighter, heavier in zip(availability, availability[1:]):
            assert heavier <= lighter + 0.05
        assert availability[-1] > 0.0
        assert shed[-1] > shed[0]
        assert result.points[-1].goodput_rps > 0.0
        assert result.baseline.load == 0.5

    def test_flash_crowd_deepens_the_sweep(self):
        calm = overload_experiment.run(**self.TUNED)
        crowded = overload_experiment.run(
            **self.TUNED, flash_crowd=(60.0, 240.0, 1.0)
        )
        assert crowded.points[-1].shed_fraction > calm.points[-1].shed_fraction

    def test_parse_flash_crowd_rejects_malformed_specs(self):
        assert overload_experiment.parse_flash_crowd("60:240:1.5") == (
            60.0, 240.0, 1.5,
        )
        for bad in ("60:240", "a:b:c", "240:60:1", "0:100:-2"):
            with pytest.raises(FaultConfigError):
                overload_experiment.parse_flash_crowd(bad)

    def test_plan_round_trips_through_the_registry(self):
        plan = overload_experiment.build_plan(
            **self.TUNED, flash_crowd=(60.0, 240.0, 1.0)
        )
        wire = json.loads(json.dumps(plan.config))  # the manifest round trip
        assert plan_from_config(wire).config == plan.config
        assert len(plan.shard_ids) == len(self.TUNED["loads"])

    def test_config_is_validated_eagerly(self):
        with pytest.raises(ConfigurationError):
            overload_experiment.build_plan(num_requests=0)
        for load in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                overload_experiment.build_plan(loads=(1.0, load))
        with pytest.raises(ConfigurationError):
            overload_experiment.build_plan(capacity=float("nan"))
        with pytest.raises(ConfigurationError):
            overload_experiment.build_plan(loads=())
        with pytest.raises(ConfigurationError):
            overload_experiment.build_plan(capacity=-1.0)
        with pytest.raises(ConfigurationError):
            overload_experiment.build_plan(shell="mega")


class TestOverloadCli:
    def test_smoke_run(self, capsys):
        code = main(
            [
                "run", "overload", "--shell", "small", "--requests", "20",
                "--loads", "0.5,2.0", "--capacity", "1.0",
                "--ground-capacity", "3.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out and "shed frac" in out

    def test_bad_loads_exit_4(self, capsys):
        for loads in ("abc", "", "0.5,-1"):
            assert main(
                ["run", "overload", "--loads", loads]
            ) == EXIT_FAULT_CONFIG
        assert "bad fault configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("loads", ["nan", "inf", "1.0,-inf", "0"])
    def test_non_finite_loads_exit_4(self, capsys, loads):
        assert main(
            ["run", "overload", "--shell", "small", "--loads", loads]
        ) == EXIT_FAULT_CONFIG
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--capacity", "--ground-capacity"])
    def test_nan_capacity_exits_2(self, capsys, flag):
        assert main(
            ["run", "overload", "--shell", "small", flag, "nan"]
        ) == EXIT_ERROR
        assert "capacities must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("deadline", ["-5", "nan"])
    @pytest.mark.parametrize("with_out_dir", [False, True])
    def test_bad_deadline_exits_4(self, capsys, tmp_path, deadline, with_out_dir):
        # Only --deadline-ms 0 disables the deadline; any other
        # non-positive or non-finite budget is a fault-config error.
        out_dir = tmp_path / "run"
        argv = ["run", "overload", "--shell", "small", f"--deadline-ms={deadline}"]
        if with_out_dir:
            argv += ["--out-dir", str(out_dir)]
        assert main(argv) == EXIT_FAULT_CONFIG
        assert "deadline must be positive and finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_flash_crowd_exits_4(self, capsys):
        assert main(
            ["run", "overload", "--flash-crowd", "60:240"]
        ) == EXIT_FAULT_CONFIG
        assert main(
            ["run", "overload", "--flash-crowd", "240:60:1"]
        ) == EXIT_FAULT_CONFIG
        assert "bad fault configuration" in capsys.readouterr().err

    def test_overloaded_error_exits_10(self, capsys, monkeypatch):
        import repro.cli as cli_module

        def raise_overloaded(name, args):
            error = OverloadedError("shed by admission control")
            raise error

        monkeypatch.setattr(cli_module, "_build_plan", raise_overloaded)
        code = main(["run", "overload", "--shell", "small"])
        assert code == EXIT_OVERLOADED == 10
        assert "shed under overload" in capsys.readouterr().err


def _sum_overload_counters(prom_text: str) -> dict:
    """Aggregate repro_overload_* counters over shard/worker labels."""
    totals: dict = {}
    pattern = re.compile(r"^(repro_overload_\w+)\{([^}]*)\} (\S+)$")
    for line in prom_text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        name, raw_labels, value = match.groups()
        if name.endswith("_bucket"):
            continue
        labels = tuple(
            sorted(
                pair for pair in raw_labels.split(",")
                if pair and not pair.startswith(("shard=", "worker="))
            )
        )
        key = (name, labels)
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


class TestOverloadObs:
    ARGS = [
        "run", "overload", "--shell", "small", "--requests", "30",
        "--loads", "0.5,1.0,2.0", "--capacity", "1.0",
        "--ground-capacity", "3.0", "--flash-crowd", "60:240:1.0",
    ]

    def _run(self, tmp_path, name, jobs):
        out_dir = tmp_path / name
        code = main(
            self.ARGS
            + ["--out-dir", str(out_dir), "--jobs", str(jobs), "--obs"]
        )
        assert code == 0
        return out_dir

    def test_counters_reconcile_serial_vs_parallel(self, tmp_path, capsys):
        serial = self._run(tmp_path, "serial", jobs=1)
        parallel = self._run(tmp_path, "parallel", jobs=2)
        capsys.readouterr()
        a = _sum_overload_counters((serial / "obs-metrics.prom").read_text())
        b = _sum_overload_counters((parallel / "obs-metrics.prom").read_text())
        shed_keys = [k for k in a if k[0] == "repro_overload_shed_total"]
        assert shed_keys and sum(a[k] for k in shed_keys) > 0
        assert a == b

    def test_summarize_renders_the_overload_section(self, tmp_path, capsys):
        run_dir = self._run(tmp_path, "summ", jobs=1)
        capsys.readouterr()
        assert main(
            ["obs", "summarize", str(run_dir / "obs-trace.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "Overload protection:" in out
        assert "(shed)" in out
        assert "circuit breakers at end of trace" in out
        assert re.search(r"class\s+reason\s+shed", out)
        # The shed table reconciles exactly with the metrics counters.
        counters = _sum_overload_counters(
            (run_dir / "obs-metrics.prom").read_text()
        )
        for (name, labels), value in counters.items():
            if name != "repro_overload_shed_total":
                continue
            cls = dict(pair.split("=") for pair in labels)["class"].strip('"')
            reason = dict(pair.split("=") for pair in labels)["reason"].strip('"')
            assert re.search(
                rf"^{re.escape(cls)}\s+{re.escape(reason)}\s+{int(value)}\s*$",
                out,
                re.MULTILINE,
            )
