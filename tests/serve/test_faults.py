"""Fault-injection subsystem: plans, lifecycles, self-healing serving.

The invariants pinned here are the PR's acceptance bar:

* every submitted request reaches a terminal status under any fault
  plan (no hangs, even total fleet loss);
* completed requests stay bit-identical to serial execution;
* same seed + same plan => bit-identical reports across runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AdmissionShedError,
    FaultError,
    ReproError,
    RequestTimeoutError,
    SlotFailedError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    SlotHealth,
    SlotLifecycle,
)
from repro.serve import (
    GpuFleet,
    RequestStatus,
    SchedulerService,
    ServeConfig,
    execute_serial,
)
from repro.serve.workloads import mixed_workload_graphs


# -- fault plans -----------------------------------------------------------


class TestFaultPlan:
    def test_parse_describe_round_trip(self):
        text = (
            "crash:slot=1,at=0.002;restart:slot=1,at=0.004,warmup=0.0005;"
            "degrade:slot=0,at=0.001,factor=2.5;"
            "transfer-fault:slot=2,at=0.003"
        )
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_specs_sort_by_time(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(FaultKind.CRASH, 1, 5e-3),
                FaultSpec(FaultKind.DRAIN, 0, 1e-3),
            )
        )
        assert [s.at for s in plan] == [1e-3, 5e-3]

    def test_for_slot_filters(self):
        plan = FaultPlan.parse(
            "crash:slot=0,at=1e-3;crash:slot=1,at=2e-3;drain:slot=0,at=3e-3"
        )
        assert [s.kind for s in plan.for_slot(0)] == [
            FaultKind.CRASH,
            FaultKind.DRAIN,
        ]
        assert plan.max_slot() == 1
        assert FaultPlan().max_slot() == -1

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:slot=0,at=1e-3",          # unknown kind
            "crash:slot=0,at=1e-3,boom=2",     # unknown field
            "crash:slot=0",                    # missing at=
            "crash:at=1e-3",                   # missing slot=
            "crash:slot=zero,at=1e-3",         # non-numeric
            "crash:slot",                      # not key=value
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CRASH, -1, 1e-3)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CRASH, 0, -1e-3)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DEGRADE, 0, 1e-3, factor=0.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.RESTART, 0, 1e-3, warmup=-1.0)

    def test_random_is_pure_function_of_seed(self):
        a = FaultPlan.random(42, slots=4, horizon=10e-3)
        b = FaultPlan.random(42, slots=4, horizon=10e-3)
        c = FaultPlan.random(43, slots=4, horizon=10e-3)
        assert a == b
        assert a.seed == 42
        assert a != c
        assert 1 <= len(a) <= 2 * 4 + 4  # events + optional restarts

    def test_random_respects_slot_bound(self):
        for seed in range(20):
            plan = FaultPlan.random(seed, slots=3, horizon=5e-3)
            assert plan.max_slot() <= 2


class TestNodeScopedPlans:
    """``node=`` scope (cluster faults) in the same DSL."""

    def test_parse_describe_round_trip(self):
        text = (
            "crash:node=1,at=0.002;restart:node=1,at=0.004,warmup=0.0005;"
            "drain:node=0,at=0.001;crash:slot=2,at=0.003"
        )
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()) == plan
        assert "node=1" in plan.describe()

    def test_scope_split_and_filters(self):
        plan = FaultPlan.parse(
            "crash:node=0,at=1e-3;crash:node=1,at=2e-3;"
            "drain:node=0,at=3e-3;crash:slot=1,at=4e-3"
        )
        assert [s.kind for s in plan.for_node(0)] == [
            FaultKind.CRASH,
            FaultKind.DRAIN,
        ]
        assert len(plan.node_scoped()) == 3
        assert len(plan.slot_scoped()) == 1
        assert plan.max_node() == 1
        assert FaultPlan().max_node() == -1
        # for_slot must not see node-scoped specs.
        assert [s.at for s in plan.for_slot(1)] == [4e-3]

    @pytest.mark.parametrize(
        "bad",
        [
            "crash:node=0,slot=1,at=1e-3",  # both scopes
            "crash:at=1e-3",                # neither scope
            "crash:node=minus,at=1e-3",     # non-numeric node
        ],
    )
    def test_parse_rejects_bad_scopes(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_cannot_carry_both_scopes(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CRASH, 0, 1e-3, node=1)
        spec = FaultSpec.for_node(FaultKind.CRASH, 1, 1e-3)
        assert spec.node_scoped
        assert spec.node == 1

    def test_random_nodes_is_pure_function_of_seed(self):
        a = FaultPlan.random_nodes(42, nodes=2, horizon=10e-3)
        b = FaultPlan.random_nodes(42, nodes=2, horizon=10e-3)
        c = FaultPlan.random_nodes(43, nodes=2, horizon=10e-3)
        assert a == b
        assert a.seed == 42
        assert a != c
        assert all(s.node_scoped for s in a)

    def test_random_nodes_respects_node_bound(self):
        for seed in range(20):
            plan = FaultPlan.random_nodes(seed, nodes=2, horizon=5e-3)
            assert plan.max_node() <= 1
            assert plan.max_slot() == -1


# -- the slot state machine ------------------------------------------------


class TestSlotLifecycle:
    def test_crash_then_restart_then_healthy(self):
        lc = SlotLifecycle(
            0,
            (
                FaultSpec(FaultKind.CRASH, 0, 1e-3),
                FaultSpec(FaultKind.RESTART, 0, 2e-3, warmup=5e-4),
            ),
        )
        assert lc.state is SlotHealth.HEALTHY
        lc.advance(1.5e-3)
        assert lc.state is SlotHealth.DOWN
        assert not lc.admitting
        lc.advance(2.1e-3)
        assert lc.state is SlotHealth.RESTARTING
        assert lc.earliest_admit(2.1e-3) == pytest.approx(2.5e-3)
        lc.advance(3e-3)
        assert lc.state is SlotHealth.HEALTHY
        assert lc.admitting

    def test_drain_settles_to_down(self):
        lc = SlotLifecycle(0, (FaultSpec(FaultKind.DRAIN, 0, 1e-3),))
        made = lc.advance(2e-3)
        # The drain protocol is observable: DRAINING then DOWN.
        assert [t.after for t in made] == [
            SlotHealth.DRAINING,
            SlotHealth.DOWN,
        ]
        assert lc.earliest_admit(2e-3) is None  # no restart scheduled

    def test_degrade_sets_slowdown_and_restart_clears_it(self):
        lc = SlotLifecycle(
            0,
            (
                FaultSpec(FaultKind.DEGRADE, 0, 1e-3, factor=3.0),
                FaultSpec(FaultKind.CRASH, 0, 2e-3),
                FaultSpec(FaultKind.RESTART, 0, 3e-3),
            ),
        )
        lc.advance(1.5e-3)
        assert lc.state is SlotHealth.DEGRADED
        assert lc.admitting
        assert lc.slowdown == 3.0
        lc.advance(4e-3)  # crash, restart (no warmup), settle
        assert lc.state is SlotHealth.HEALTHY
        assert lc.slowdown == 1.0

    def test_transfer_fault_consumed_once(self):
        lc = SlotLifecycle(
            0, (FaultSpec(FaultKind.TRANSFER_FAULT, 0, 1e-3),)
        )
        lc.advance(2e-3)
        assert lc.state is SlotHealth.HEALTHY  # not a state change
        assert lc.take_transfer_fault(2e-3)
        assert not lc.take_transfer_fault(2e-3)

    def test_advance_rejects_rewind(self):
        lc = SlotLifecycle(0)
        lc.advance(1e-3)
        with pytest.raises(ValueError):
            lc.advance(5e-4)

    def test_earliest_admit_scans_future_restart(self):
        lc = SlotLifecycle(
            0,
            (
                FaultSpec(FaultKind.CRASH, 0, 1e-3),
                FaultSpec(FaultKind.RESTART, 0, 5e-3, warmup=1e-3),
            ),
        )
        lc.advance(2e-3)
        assert lc.state is SlotHealth.DOWN
        assert lc.earliest_admit(2e-3) == pytest.approx(6e-3)

    def test_crash_mid_restart_cancels_warmup(self):
        lc = SlotLifecycle(
            0,
            (
                FaultSpec(FaultKind.CRASH, 0, 1e-3),
                FaultSpec(FaultKind.RESTART, 0, 2e-3, warmup=5e-3),
            ),
        )
        lc.advance(2.5e-3)
        assert lc.state is SlotHealth.RESTARTING
        lc2 = SlotLifecycle(
            0,
            (
                FaultSpec(FaultKind.CRASH, 0, 1e-3),
                FaultSpec(FaultKind.RESTART, 0, 2e-3, warmup=5e-3),
                FaultSpec(FaultKind.CRASH, 0, 3e-3),
            ),
        )
        lc2.advance(10e-3)
        assert lc2.state is SlotHealth.DOWN  # second crash killed warm-up


# -- serving under faults --------------------------------------------------


def run_faulted(
    plan,
    requests=10,
    fleet_size=3,
    spacing=3e-4,
    deadline=None,
    **config_kw,
):
    """One faulted serving run over the mixed workloads; returns
    (report, submitted)."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    service = SchedulerService(
        fleet_size=fleet_size,
        config=ServeConfig(faults=plan, **config_kw),
    )
    submitted = []
    for i, graph in enumerate(mixed_workload_graphs(requests, seed=5)):
        arrival = i * spacing
        submitted.append(
            (
                service.submit(
                    f"t{i % 3}",
                    graph,
                    arrival_time=arrival,
                    deadline=(
                        arrival + deadline if deadline is not None else None
                    ),
                ),
                graph,
            )
        )
    return service.run(), submitted


def assert_all_terminal(report, submitted):
    by_id = {r.request_id: r for r in report.results}
    assert sorted(by_id) == sorted(rid for rid, _ in submitted)
    return by_id


class TestServiceUnderFaults:
    def test_crash_retries_onto_survivors(self):
        report, submitted = run_faulted(
            "crash:slot=1,at=1e-3", fleet_size=3
        )
        by_id = assert_all_terminal(report, submitted)
        m = report.metrics
        assert m.completed == len(submitted)
        assert report.counters["faults.injected"] == 1
        assert report.counters["faults.retries"] >= 1
        assert report.counters["faults.replacements"] >= 1
        # Nothing lands on the dead slot after the crash.
        for r in report.results:
            if r.start_time > 1.5e-3:
                assert r.device_index != 1
        # Completed outputs still match serial.
        for request_id, graph in submitted:
            result = by_id[request_id]
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)

    def test_retry_exhaustion_turns_failed(self):
        # One slot, crashed, never restarted, zero retries allowed: the
        # in-flight batch fails terminally, the queue tail sheds.
        report, submitted = run_faulted(
            "crash:slot=0,at=1e-3",
            fleet_size=1,
            requests=6,
            max_retries=0,
        )
        assert_all_terminal(report, submitted)
        m = report.metrics
        assert m.failed >= 1
        assert m.completed + m.shed + m.failed == len(submitted)
        failed = [r for r in report.results if not r.ok]
        for r in failed:
            with pytest.raises((SlotFailedError, AdmissionShedError)):
                r.raise_for_status()

    def test_exponential_backoff_spaces_retries(self):
        # at=0: armed before the first dispatch (a transfer fault only
        # strikes batches dispatched at/after its time).
        plan = FaultPlan.parse(
            "transfer-fault:slot=0,at=0;transfer-fault:slot=0,at=0"
        )
        report, submitted = run_faulted(
            plan,
            fleet_size=1,
            requests=1,
            spacing=0.0,
            batch_window=0.0,
            retry_backoff_us=100.0,
        )
        (result,) = report.results
        assert result.ok
        # Two transfer faults -> two retries -> three attempts.
        assert result.attempts == 3
        assert report.counters["faults.retries"] == 2

    def test_drain_finishes_in_flight_then_stops_admitting(self):
        report, submitted = run_faulted(
            "drain:slot=0,at=5e-4", fleet_size=2, requests=8
        )
        by_id = assert_all_terminal(report, submitted)
        assert report.metrics.completed == len(submitted)
        # Drained slots lose no work: nothing retried, nothing failed.
        assert report.counters["faults.retries"] == 0
        for r in report.results:
            if r.start_time > 1e-3:
                assert r.device_index != 0
        for request_id, graph in submitted:
            result = by_id[request_id]
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)

    def test_degraded_slot_runs_slower_but_correct(self):
        fast, _ = run_faulted(
            FaultPlan(), fleet_size=1, requests=6
        )
        slow, submitted = run_faulted(
            "degrade:slot=0,at=0,factor=3", fleet_size=1, requests=6
        )
        assert slow.metrics.completed == fast.metrics.completed == 6
        assert slow.metrics.makespan > fast.metrics.makespan
        by_id = {r.request_id: r for r in slow.results}
        for request_id, graph in submitted:
            result = by_id[request_id]
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)

    def test_total_blackout_sheds_instead_of_hanging(self):
        report, submitted = run_faulted(
            "crash:slot=0,at=1e-3;crash:slot=1,at=1e-3",
            fleet_size=2,
            requests=10,
        )
        assert_all_terminal(report, submitted)
        m = report.metrics
        assert m.shed > 0
        assert m.terminal == len(submitted)
        shed = [
            r for r in report.results if r.status is RequestStatus.SHED
        ]
        assert report.counters["faults.shed"] == len(shed)
        for r in shed:
            assert r.device_index == -1
            assert r.outputs == {}
            with pytest.raises(AdmissionShedError):
                r.raise_for_status()

    def test_blackout_with_pending_restart_fast_forwards(self):
        report, submitted = run_faulted(
            "crash:slot=0,at=1e-3;crash:slot=1,at=1e-3;"
            "restart:slot=0,at=2e-3,warmup=1e-4",
            fleet_size=2,
            requests=10,
        )
        assert_all_terminal(report, submitted)
        assert report.metrics.completed == len(submitted)

    def test_deadline_times_out(self):
        report, submitted = run_faulted(
            FaultPlan(),
            fleet_size=1,
            requests=8,
            spacing=0.0,
            deadline=5e-4,  # far too tight for 8 queued graphs
        )
        assert_all_terminal(report, submitted)
        m = report.metrics
        assert m.timed_out > 0
        timed_out = [
            r for r in report.results if r.status is RequestStatus.TIMEOUT
        ]
        for r in timed_out:
            assert r.outputs == {}
            with pytest.raises(RequestTimeoutError):
                r.raise_for_status()

    def test_watermark_shed_keeps_bounded_queue(self):
        # 1 of 4 slots survives (25% < the 50% watermark) with a deep
        # backlog: graceful degradation sheds the excess.
        plan = ";".join(f"crash:slot={s},at=5e-4" for s in (1, 2, 3))
        report, submitted = run_faulted(
            plan,
            fleet_size=4,
            requests=16,
            spacing=0.0,
            shed_queue_per_gpu=2,
        )
        assert_all_terminal(report, submitted)
        m = report.metrics
        assert m.shed > 0
        assert m.completed + m.shed + m.failed == len(submitted)

    def test_fault_knobs_rejected_on_compute_sessions(self):
        from repro.core.policies import SchedulerConfig
        from repro.errors import ConfigError

        for kw in (
            {"max_retries": 2},
            {"retry_backoff_us": 50.0},
            {"shed_watermark": 0.5},
        ):
            with pytest.raises(ConfigError):
                SchedulerConfig(**kw).validate(serving=False)
            SchedulerConfig(**kw).validate(serving=True)  # fine

    def test_fault_plan_outside_fleet_rejected(self):
        with pytest.raises(ValueError):
            SchedulerService(
                fleet_size=2,
                config=ServeConfig(faults="crash:slot=5,at=1e-3"),
            )

    def test_fleet_attach_faults_validates(self):
        fleet = GpuFleet([1, 1])
        with pytest.raises(ValueError):
            fleet.attach_faults(FaultPlan.parse("crash:slot=2,at=1e-3"))

    def test_fault_free_run_has_no_fault_counters(self):
        report, _ = run_faulted(None, requests=4)
        assert not any(
            k.startswith("faults.") for k in report.counters
        )

    def test_error_hierarchy(self):
        for exc in (
            FaultError,
            SlotFailedError,
            RequestTimeoutError,
            AdmissionShedError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(SlotFailedError, FaultError)
        assert issubclass(RequestTimeoutError, FaultError)
        assert issubclass(AdmissionShedError, FaultError)


# -- determinism ------------------------------------------------------------


class TestFaultDeterminism:
    def test_same_plan_same_seed_bit_identical(self):
        plan = "crash:slot=1,at=1e-3;restart:slot=1,at=3e-3,warmup=2e-4"
        a, _ = run_faulted(plan)
        b, _ = run_faulted(plan)
        assert a.fingerprint() == b.fingerprint()

    def test_different_plans_fingerprint_differently(self):
        a, _ = run_faulted("crash:slot=1,at=1e-3")
        b, _ = run_faulted("crash:slot=2,at=1e-3")
        assert a.fingerprint() != b.fingerprint()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_plans_replay_bit_identical_on_2211(self, seed):
        """Property (the tentpole's acceptance check): ANY seeded fault
        plan over the 2,2,1,1 fleet yields bit-identical reports across
        two runs, and every completed request matches serial."""
        plan = FaultPlan.random(seed, slots=4, horizon=3e-3)

        def run_once():
            service = SchedulerService(
                fleet_topology=[2, 2, 1, 1],
                config=ServeConfig(faults=plan),
            )
            submitted = []
            for i, graph in enumerate(
                mixed_workload_graphs(8, seed=seed % 17)
            ):
                submitted.append(
                    (
                        service.submit(
                            f"t{i % 3}", graph, arrival_time=i * 3e-4
                        ),
                        graph,
                    )
                )
            return service.run(), submitted

        first, submitted = run_once()
        second, _ = run_once()
        assert first.fingerprint() == second.fingerprint()
        by_id = assert_all_terminal(first, submitted)
        assert first.metrics.terminal == len(submitted)
        for request_id, graph in submitted:
            result = by_id[request_id]
            if not result.ok:
                continue
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)
