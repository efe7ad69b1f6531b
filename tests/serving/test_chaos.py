"""Chaos testing: seeded fault schedules, invariants, fault containment.

The chaos harness's job is to prove *correctness under compound
failure*: whatever a schedule throws at the pipeline (arrival storms,
pump stalls, slow bursts, executor-task deaths), every admitted ticket
resolves, no batch tears, and the overload ledger balances.  These
tests drive both the primitives (the fault wrappers, the executor's
thread-death firewall) and the full seeded replay.
"""

import numpy as np
import pytest

from repro.experiments.serve_chaos import (
    ChaosConfig,
    chaos_arrivals,
    run_chaos_schedule,
    run_chaos_suite,
)
from repro.experiments.serve_load import replay
from repro.experiments.serve_overload import (
    OverloadConfig,
    _payloads,
    _pipeline,
    build_overload_service,
)
from repro.serving.executor import MemberExecutor
from repro.serving.faults import (
    BurstySlowMember,
    ChaosEvent,
    ChaosSchedule,
    DyingMember,
    InjectedThreadDeath,
    ManualClock,
)
from repro.serving.transport import PipelineConfig, ServingPipeline

from tests.serving.test_pipeline import make_service

RNG = np.random.default_rng(53)


def small_service_config():
    return OverloadConfig(ensemble_size=4, input_dim=8, num_classes=4,
                          hidden=(8,), rows=4, member_seconds=0.002,
                          max_batch_rows=16, queue_depth=16,
                          horizon_s=1.0)


# ----------------------------------------------------------------------
class TestFaultPrimitives:
    def test_dying_member_dies_on_scheduled_calls(self, factory):
        model = DyingMember(factory.build(rng=0), on_calls=(1,))
        x = RNG.normal(size=(2, 4)).astype(np.float32)
        model(x)
        with pytest.raises(InjectedThreadDeath):
            model(x)
        model(x)
        assert model.calls == 3 and model.deaths == 1

    def test_dying_member_dies_inside_clock_windows(self, factory):
        clock = ManualClock()
        model = DyingMember(factory.build(rng=0),
                            windows=[(1.0, 2.0)], clock=clock)
        x = RNG.normal(size=(2, 4)).astype(np.float32)
        model(x)                                   # t=0: alive
        clock.now = 1.5
        with pytest.raises(InjectedThreadDeath):
            model(x)
        clock.now = 2.0                            # window is half-open
        model(x)
        assert model.deaths == 1

    def test_injected_death_is_not_an_exception(self):
        assert not issubclass(InjectedThreadDeath, Exception)
        assert issubclass(InjectedThreadDeath, BaseException)

    def test_bursty_slow_member_burns_clock_only_in_window(self, factory):
        clock = ManualClock()
        model = BurstySlowMember(factory.build(rng=0), seconds=0.5,
                                 windows=[(1.0, 2.0)], clock=clock)
        x = RNG.normal(size=(2, 4)).astype(np.float32)
        model(x)
        assert clock.now == 0.0                    # outside: free
        clock.now = 1.2
        model(x)
        assert clock.now == pytest.approx(1.7)     # inside: +0.5s
        assert model.slow_calls == 1

    def test_schedule_draw_is_seeded_and_sorted(self):
        first = ChaosSchedule.draw(np.random.default_rng(11), horizon=2.0,
                                   members=4, events=6)
        second = ChaosSchedule.draw(np.random.default_rng(11), horizon=2.0,
                                    members=4, events=6)
        assert first == second
        starts = [event.start for event in first.events]
        assert starts == sorted(starts)
        for event in first.events:
            assert event.kind in ChaosSchedule.KINDS
            assert 0.0 <= event.start < 2.0 * 0.8

    def test_storms_stack_multiplicatively(self):
        schedule = ChaosSchedule(events=[
            ChaosEvent(kind="storm", start=0.0, duration=1.0, magnitude=2.0),
            ChaosEvent(kind="storm", start=0.5, duration=1.0, magnitude=3.0),
        ])
        assert schedule.rate_multiplier(0.25) == 2.0
        assert schedule.rate_multiplier(0.75) == 6.0
        assert schedule.rate_multiplier(1.25) == 3.0
        assert schedule.rate_multiplier(2.5) == 1.0

    def test_stalled_windows(self):
        schedule = ChaosSchedule(events=[
            ChaosEvent(kind="stall", start=1.0, duration=0.5)])
        assert not schedule.stalled(0.9)
        assert schedule.stalled(1.2)
        assert not schedule.stalled(1.5)


# ----------------------------------------------------------------------
class TestThreadDeathFirewall:
    """A dying member task becomes a skip + breaker charge, never an
    unresolved ticket or a torn answer."""

    @staticmethod
    def _inline(service, x):
        outputs, skipped, _ = MemberExecutor(workers=0).run(
            service.members, x, batch_size=4)
        return [member.index for member, _ in outputs], skipped

    @staticmethod
    def _pool(service, x):
        # Only a deadline request runs its members on the pool.
        with MemberExecutor(workers=2) as executor:
            outputs, skipped, _ = executor.run(service.members, x,
                                               batch_size=4, deadline=60.0)
        return [member.index for member, _ in outputs], skipped

    @staticmethod
    def _predict(service, x):
        prediction = service.predict(x)
        return prediction.members_used, prediction.members_skipped

    @pytest.mark.parametrize("path", ["inline", "pool", "predict"])
    def test_executor_converts_death_to_fault_skip(self, factory, path):
        """Every path that runs members fails the same way on a death."""
        service, _ = make_service(factory, members=3)
        service.members[0].model = DyingMember(
            service.members[0].model, on_calls=range(10))
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        used, skipped = getattr(self, f"_{path}")(service, x)
        assert used == [1, 2]
        assert len(skipped) == 1
        index, kind, reason = skipped[0]
        assert index == 0 and kind == "fault"
        assert "died" in reason and "InjectedThreadDeath" in reason
        assert service.members[0].breaker.total_faults == 1

    def test_pipeline_answers_through_surviving_members(self, factory):
        service, _ = make_service(factory, members=3)
        dying = DyingMember(service.members[1].model, on_calls=range(10))
        service.members[1].model = dying
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        ticket = pipeline.submit(RNG.normal(size=(4, 4))
                                 .astype(np.float32))
        pipeline.batcher.pump_once()
        prediction = ticket.wait(0)
        assert prediction.members_used == [0, 2]
        assert prediction.degraded
        assert dying.deaths == 1
        stats = pipeline.stats()
        assert stats.completed == 1 and stats.failed == 0
        assert stats.conserved
        pipeline.close()


# ----------------------------------------------------------------------
class TestChaosReplay:
    def test_schedule_replay_is_deterministic(self):
        config = ChaosConfig(service=small_service_config(),
                             horizon_s=1.0, events=4)
        first = run_chaos_schedule(config, seed=3)
        second = run_chaos_schedule(config, seed=3)
        assert first == second

    def test_different_seeds_draw_different_schedules(self):
        config = ChaosConfig(service=small_service_config(),
                             horizon_s=1.0, events=4)
        assert run_chaos_schedule(config, seed=0)["events"] != \
            run_chaos_schedule(config, seed=1)["events"]

    def test_invariants_hold_across_seeded_schedules(self):
        payload = run_chaos_suite(ChaosConfig(
            service=small_service_config(), horizon_s=1.0, events=4,
            schedules=8))
        assert payload["ok"], f"failed seeds: {payload['failed_seeds']}"
        assert payload["total_submitted"] > 0
        for run in payload["runs"]:
            assert all(run["invariants"].values())
            assert run["submitted"] == run["admitted"] + run["shed"]
            assert run["admitted"] == run["completed"] + run["failed"]

    def test_chaos_exercises_every_fault_kind(self):
        """Across enough seeds the draw covers storms, stalls, slow
        bursts and deaths — the suite is not vacuously green."""
        payload = run_chaos_suite(ChaosConfig(
            service=small_service_config(), horizon_s=1.0, events=5,
            schedules=8))
        assert all(count > 0 for count in payload["event_kinds"].values())
        assert payload["total_shed"] > 0           # storms found the wall

    def test_storm_arrivals_multiply_inside_the_window(self):
        config = ChaosConfig(service=small_service_config(),
                             base_rate=200.0, horizon_s=2.0)
        schedule = ChaosSchedule(events=[
            ChaosEvent(kind="storm", start=0.5, duration=1.0,
                       magnitude=5.0)])
        times = chaos_arrivals(config, schedule,
                               np.random.default_rng(17))
        inside = ((times >= 0.5) & (times < 1.5)).sum()
        outside = len(times) - inside
        assert inside > 2 * outside                # 5x rate in half the time

    def test_pump_stall_forces_shedding_but_conserves(self):
        """A long stall lets the queue stand: admission control or the
        bounded queue must shed, and every shed is accounted for."""
        config = small_service_config()
        clock = ManualClock()
        service = build_overload_service(config, clock)
        pipeline = _pipeline(config, service, resilient=True)
        schedule = ChaosSchedule(events=[
            ChaosEvent(kind="stall", start=0.0, duration=0.6)])
        rng = np.random.default_rng(19)
        arrivals = np.cumsum(rng.exponential(1 / 400.0, size=200))
        payloads = _payloads(config, len(arrivals), rng)

        def unstall(t):
            for event in schedule.of_kind("stall"):
                if event.start <= t < event.end:
                    return event.end
            return t

        record = replay(pipeline, clock, arrivals, payloads,
                        unstall=unstall)
        stats = pipeline.stats()
        pipeline.close()
        assert stats.shed > 0
        assert stats.pending == 0 and stats.conserved
        assert stats.shed == len(record.shed)
        assert all(ticket.done for _, _, ticket in record.tickets)
