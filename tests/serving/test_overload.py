"""Overload resilience: admission control, brownout, conservation.

Covers the PR 9 server side — the CoDel-style admission controller and
its error taxonomy, the stop()/submit race contract, the pressure
controller's hysteresis and healthiest-K selection (including its
interaction with the circuit breaker), brownout bit-parity against a
fresh sub-ensemble, the overload ledger, and the virtual-time overload
harness the bench drives.
"""

import threading

import numpy as np
import pytest

from repro.experiments.serve_load import (
    LoadConfig,
    arrival_times,
    run_serve_load,
)
from repro.experiments.serve_overload import (
    OverloadConfig,
    analytic_capacity,
    run_overload_cell,
)
from repro.serving import (
    InvalidRequest,
    Overloaded,
    QueueFull,
    ServiceUnavailable,
)
from repro.serving.faults import ManualClock
from repro.serving.pressure import PressureConfig, PressureController
from repro.serving.scheduler import AdmissionController, MicroBatcher
from repro.serving.transport import PipelineConfig, ServingPipeline

from tests.serving.conftest import sub_ensemble
from tests.serving.test_pipeline import make_service

RNG = np.random.default_rng(41)


def requests_of(rows, count):
    return [RNG.normal(size=(rows, 4)).astype(np.float32)
            for _ in range(count)]


# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    """Overload errors sit on the retryable branch, with hints."""

    def test_overloaded_is_retryable_and_carries_retry_after(self):
        error = Overloaded("shed", retry_after=0.25)
        assert isinstance(error, ServiceUnavailable)
        assert not isinstance(error, InvalidRequest)
        assert error.retry_after == 0.25
        assert error.code == "overloaded"

    def test_queue_full_is_an_overload_not_a_plain_unavailable(self):
        error = QueueFull("full", retry_after=None)
        assert isinstance(error, Overloaded)
        assert isinstance(error, ServiceUnavailable)
        assert error.code == "queue-full"
        assert error.retry_after is None


class TestAdmissionController:
    """CoDel on sojourn time: grace interval, episodes, retry_after."""

    def test_transient_burst_within_interval_never_sheds(self):
        control = AdmissionController(target_delay_ms=20, interval_ms=100)
        control.observe(sojourn=0.05, now=0.0)     # above target: timer on
        assert control.admit(0.05, now=0.05) is None   # interval not up
        control.observe(sojourn=0.01, now=0.09)    # drained: timer resets
        assert not control.shedding
        assert control.shed_total == 0

    def test_standing_delay_sheds_with_floor_retry_after(self):
        control = AdmissionController(target_delay_ms=20, interval_ms=100)
        control.observe(sojourn=0.05, now=0.0)
        control.observe(sojourn=0.06, now=0.11)    # stood a full interval
        assert control.shedding and control.episodes == 1
        hint = control.admit(sojourn_estimate=0.05, now=0.12)
        assert hint == pytest.approx(0.1)          # excess 0.03 < interval
        hint = control.admit(sojourn_estimate=0.5, now=0.13)
        assert hint == pytest.approx(0.48)         # excess dominates
        assert control.shed_total == 2

    def test_estimate_under_target_admits_even_while_shedding(self):
        control = AdmissionController(target_delay_ms=20, interval_ms=100)
        control.observe(0.05, now=0.0)
        control.observe(0.05, now=0.2)
        assert control.shedding
        assert control.admit(sojourn_estimate=0.01, now=0.21) is None

    def test_recovery_closes_the_episode(self):
        control = AdmissionController(target_delay_ms=20, interval_ms=100)
        control.observe(0.05, now=0.0)
        control.observe(0.05, now=0.2)
        control.observe(0.005, now=0.3)            # head back under target
        assert not control.shedding
        assert control.admit(0.05, now=0.31) is None
        assert control.episodes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(target_delay_ms=0)
        with pytest.raises(ValueError):
            AdmissionController(interval_ms=-1)


class TestSchedulerShedding:
    """The batcher's front door under a standing queue (manual clock)."""

    def make_batcher(self, clock, **kwargs):
        drained = []
        batcher = MicroBatcher(
            process=lambda stacked, batch: drained.extend(batch),
            max_batch_rows=4, max_wait_ms=2.0, clock=clock, **kwargs)
        return batcher, drained

    def test_standing_queue_sheds_overloaded_with_retry_after(self):
        clock = ManualClock()
        batcher, _ = self.make_batcher(
            clock, admission=AdmissionController(target_delay_ms=20,
                                                 interval_ms=100))
        for x in requests_of(rows=4, count=3):
            batcher.submit(x, ticket=object())     # one request per batch
        clock.now = 0.03
        batcher.pump_once()                        # sojourn 30ms: timer on
        clock.now = 0.14
        batcher.pump_once()                        # stood 110ms: shedding
        assert batcher.admission.shedding
        clock.now = 0.15                           # head enqueued at t=0
        with pytest.raises(Overloaded) as caught:
            batcher.submit(requests_of(4, 1)[0], ticket=object())
        assert caught.value.retry_after == pytest.approx(0.13)
        assert batcher.requests_shed == 1
        assert batcher.requests_admitted == 3

    def test_queue_full_sheds_at_capacity(self):
        clock = ManualClock()
        batcher, _ = self.make_batcher(clock, queue_depth=2)
        for x in requests_of(rows=4, count=2):
            batcher.submit(x, ticket=object())
        with pytest.raises(QueueFull) as caught:
            batcher.submit(requests_of(4, 1)[0], ticket=object())
        assert isinstance(caught.value, Overloaded)
        assert caught.value.retry_after == pytest.approx(0.002)
        assert batcher.requests_shed == 1

    def test_no_admission_controller_means_no_early_shedding(self):
        clock = ManualClock()
        batcher, _ = self.make_batcher(clock, queue_depth=64)
        batcher.submit(requests_of(4, 1)[0], ticket=object())
        clock.now = 10.0                           # grotesque sojourn
        batcher.submit(requests_of(4, 1)[0], ticket=object())
        assert batcher.requests_shed == 0          # PR 8 behaviour intact


class TestStopSubmitRace:
    """stop() closes the front door; a racing submit never hangs."""

    def test_submit_after_stop_raises(self):
        batcher = MicroBatcher(process=lambda s, b: None)
        batcher.stop()
        with pytest.raises(ServiceUnavailable):
            batcher.submit(requests_of(4, 1)[0], ticket=object())

    def test_restart_after_stop_refused(self):
        batcher = MicroBatcher(process=lambda s, b: None)
        batcher.stop()
        with pytest.raises(ServiceUnavailable):
            batcher.start()

    def test_concurrent_submits_during_stop_complete_or_raise(self):
        """Regression for the drain race: every ticket that submit()
        accepted is processed by the drain loop — none left pending."""
        processed = set()
        lock = threading.Lock()

        def process(_stacked, batch):
            with lock:
                processed.update(id(pending.ticket) for pending in batch)

        batcher = MicroBatcher(process=process, max_batch_rows=64,
                               max_wait_ms=0.5, queue_depth=4096)
        batcher.start()
        accepted = []
        barrier = threading.Barrier(5)

        def submitter():
            barrier.wait()
            for _ in range(50):
                ticket = object()
                try:
                    batcher.submit(
                        np.zeros((1, 4), dtype=np.float32), ticket)
                except ServiceUnavailable:
                    continue
                accepted.append(ticket)

        def stopper():
            barrier.wait()
            batcher.stop()

        threads = [threading.Thread(target=submitter) for _ in range(4)] \
            + [threading.Thread(target=stopper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        missing = [t for t in accepted if id(t) not in processed]
        assert not missing, f"{len(missing)} accepted tickets never drained"


# ----------------------------------------------------------------------
class TestPressureController:
    """Hysteresis, interpolated K, healthiest-K selection, breakers."""

    def config(self, **overrides):
        kwargs = dict(target_delay_ms=20.0, levels=2, min_members=2,
                      enter_pressure=1.0, exit_pressure=0.4, sustain=2)
        kwargs.update(overrides)
        return PressureConfig(**kwargs)

    def test_sustain_gates_level_changes(self):
        controller = PressureController(self.config())
        assert controller.observe(0.05) == 0       # 1st above enter
        assert controller.observe(0.05) == 1       # 2nd: degrade
        assert controller.observe(0.05) == 1       # counter restarted
        assert controller.observe(0.05) == 2
        assert controller.observe(0.05) == 2       # capped at levels

    def test_hysteresis_band_resets_both_counters(self):
        controller = PressureController(self.config())
        controller.observe(0.05)
        controller.observe(0.012)                  # in (exit, enter) band
        controller.observe(0.05)
        assert controller.level == 0               # streak was broken
        controller.observe(0.05)
        assert controller.level == 1

    def test_recovery_needs_sustained_low_pressure(self):
        controller = PressureController(self.config())
        controller.observe(0.05)
        controller.observe(0.05)
        assert controller.level == 1
        controller.observe(0.001)
        assert controller.level == 1               # one low is not enough
        controller.observe(0.001)
        assert controller.level == 0
        assert controller.level_changes == 2

    def test_keep_count_interpolates_between_total_and_floor(self):
        controller = PressureController(self.config())
        assert controller.keep_count(6) == 6       # level 0
        controller.observe(0.05)
        controller.observe(0.05)
        assert controller.keep_count(6) == 4       # level 1 of 2
        controller.observe(0.05)
        controller.observe(0.05)
        assert controller.keep_count(6) == 2       # floor at max level

    def _degraded(self, **overrides):
        controller = PressureController(self.config(**overrides))
        controller.observe(0.05)
        controller.observe(0.05)
        return controller

    def test_roster_keeps_healthiest_k_in_roster_order(self, factory):
        service, _ = make_service(factory, members=4)
        controller = self._degraded(levels=1, min_members=2)
        scores = {0: 5.0, 1: 0.0, 2: 1.0, 3: 9.0}  # higher is sicker
        roster, level = controller.roster_for(service.members, scores)
        assert level == 1
        assert [member.index for member in roster] == [1, 2]

    def test_quarantined_members_never_count_toward_k(self, factory):
        """Satellite: breaker x brownout — quarantine excludes a member
        from the ranking entirely, not just from the final roster."""
        clock = ManualClock()
        service, _ = make_service(factory, members=4, clock=clock)
        sick = service.members[1]
        for _ in range(sick.breaker.fault_threshold):
            sick.breaker.record_fault("injected")
        assert sick.breaker.quarantined
        controller = self._degraded(levels=1, min_members=2)
        # Member 1 has the *best* score but is quarantined: the two
        # healthiest servable members are chosen instead.
        roster, _ = controller.roster_for(
            service.members, {0: 1.0, 1: 0.0, 2: 2.0, 3: 3.0})
        assert [member.index for member in roster] == [0, 2]

    def test_reinstatement_during_brownout_still_caps_at_k(self, factory):
        clock = ManualClock()
        service, _ = make_service(factory, members=4, clock=clock)
        sick = service.members[1]
        for _ in range(sick.breaker.fault_threshold):
            sick.breaker.record_fault("injected")
        controller = self._degraded(levels=1, min_members=2)
        clock.advance(sick.breaker.cooldown + 1.0)  # cooldown elapsed
        assert not sick.breaker.quarantined
        roster, _ = controller.roster_for(
            service.members, {0: 1.0, 1: 0.0, 2: 2.0, 3: 3.0})
        # The reinstated member re-enters the ranking (and wins a slot)
        # but the roster must not grow beyond K.
        assert [member.index for member in roster] == [0, 1]
        assert len(roster) == 2

    def test_level_zero_serves_everyone(self, factory):
        service, _ = make_service(factory, members=4)
        controller = PressureController(self.config())
        roster, level = controller.roster_for(service.members, {0: 99.0})
        assert level == 0 and len(roster) == 4


# ----------------------------------------------------------------------
def browned_pipeline(factory, members=4, **pressure_overrides):
    clock = ManualClock()
    service, ensemble = make_service(factory, members=members, clock=clock)
    kwargs = dict(target_delay_ms=20.0, levels=1, min_members=2,
                  enter_pressure=1.0, exit_pressure=0.4, sustain=1)
    kwargs.update(pressure_overrides)
    pipeline = ServingPipeline(service, PipelineConfig(
        workers=0, brownout=True,
        pressure=PressureConfig(**kwargs))).start(pump=False)
    return pipeline, service, ensemble, clock


class TestBrownoutPipeline:
    """Brownout through the real pipeline: parity, health, hysteresis."""

    def test_brownout_answers_bit_identical_to_sub_ensemble(self, factory):
        pipeline, _, ensemble, clock = browned_pipeline(factory)
        requests = requests_of(rows=4, count=2)
        tickets = [pipeline.submit(x) for x in requests]
        clock.advance(0.05)                        # sojourn 50ms >> target
        pipeline.batcher.pump_once()
        for ticket, x in zip(tickets, requests):
            prediction = ticket.wait(0)
            assert prediction.brownout_level == 1
            assert len(prediction.members_used) == 2
            expected = sub_ensemble(
                ensemble, prediction.members_used).predict_probs(x)
            assert np.array_equal(prediction.probs, expected)
        pipeline.close()

    def test_brownout_is_reported_degraded_and_in_health(self, factory):
        pipeline, service, _, clock = browned_pipeline(factory)
        ticket = pipeline.submit(requests_of(4, 1)[0])
        clock.advance(0.05)
        pipeline.batcher.pump_once()
        assert ticket.wait(0).degraded
        health = service.health()
        assert health.brownout_level == 1
        assert health.brownout_members is not None
        assert len(health.brownout_members) == 2
        pipeline.close()

    def test_pressure_clears_with_hysteresis(self, factory):
        pipeline, _, _, clock = browned_pipeline(factory, sustain=2)
        # Two pressured batches: level rises to 1.
        for _ in range(2):
            ticket = pipeline.submit(requests_of(4, 1)[0])
            clock.advance(0.05)
            pipeline.batcher.pump_once()
        assert ticket.wait(0).brownout_level == 1
        # One calm batch is not enough (sustain=2)...
        ticket = pipeline.submit(requests_of(4, 1)[0])
        pipeline.batcher.pump_once()               # sojourn ~ 0
        assert ticket.wait(0).brownout_level == 1
        # ...the second calm batch restores the full roster.
        ticket = pipeline.submit(requests_of(4, 1)[0])
        pipeline.batcher.pump_once()
        prediction = ticket.wait(0)
        assert prediction.brownout_level == 0
        assert len(prediction.members_used) == 4
        pipeline.close()

    def test_shed_requests_count_in_stats_and_health(self, factory):
        clock = ManualClock()
        service, _ = make_service(factory, clock=clock)
        pipeline = ServingPipeline(service, PipelineConfig(
            workers=0, max_batch_rows=4, target_delay_ms=20.0,
            interval_ms=100.0)).start(pump=False)
        for x in requests_of(rows=4, count=3):
            pipeline.submit(x)
        clock.now = 0.03
        pipeline.batcher.pump_once()
        clock.now = 0.14
        pipeline.batcher.pump_once()
        clock.now = 0.15
        with pytest.raises(Overloaded):
            pipeline.submit(requests_of(4, 1)[0])
        while pipeline.batcher.depth():
            pipeline.batcher.pump_once()
        stats = pipeline.stats()
        assert stats.shed == 1 and stats.submitted == 4
        assert stats.completed == 3 and stats.pending == 0
        assert stats.conserved
        assert service.health().requests_shed == 1
        pipeline.close()
        assert pipeline.stats().conserved


# ----------------------------------------------------------------------
class TestArrivalProfiles:
    """The load harness's ramp and burst arrival generators."""

    def rng(self):
        return np.random.default_rng(7)

    def test_ramp_sweeps_the_mean_rate(self):
        config = LoadConfig(requests=4000, arrival="ramp",
                            rate=100.0, rate_end=2000.0)
        times = arrival_times(config, self.rng())
        assert times.shape == (4000,)
        assert np.all(np.diff(times) > 0)
        first, last = times[:1000], times[-1000:]
        early = 1000 / (first[-1] - first[0])
        late = 1000 / (last[-1] - last[0])
        assert late > 4 * early                    # the rate really swept

    def test_burst_confines_arrivals_to_the_duty_cycle(self):
        config = LoadConfig(requests=2000, arrival="burst", rate=1000.0,
                            burst_period_s=0.1, burst_duty=0.3)
        times = arrival_times(config, self.rng())
        phase = np.mod(times, config.burst_period_s)
        assert np.all(phase <= config.burst_period_s * config.burst_duty)
        assert np.all(np.diff(times) >= 0)
        assert times.shape == (2000,)

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(arrival="burst", burst_duty=0.0)
        with pytest.raises(ValueError):
            LoadConfig(arrival="burst", burst_period_s=0.0)
        with pytest.raises(ValueError):
            LoadConfig(arrival="warble")


class TestOpenLoopReplay:
    """The load harness's open loop, replayed in virtual time."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("arrival", ["open", "ramp", "burst"])
    def test_queueing_delay_never_exceeds_the_window(self, arrival, seed):
        config = LoadConfig(arrival=arrival, seed=seed, requests=96,
                            rate_end=6000.0 if arrival == "ramp" else None,
                            ensemble_size=2, clients=2, warmup=0,
                            probe_requests=2)
        open_loop = run_serve_load(config).open_loop
        assert open_loop["batch_size_max"] > 1
        assert open_loop["queueing_delay_ms"]["max"] <= \
            config.max_wait_ms * (1 + 1e-9)


class TestOverloadHarness:
    """The virtual-time overload cells the bench is built from."""

    def small(self):
        return OverloadConfig(ensemble_size=4, input_dim=8, num_classes=4,
                              hidden=(8,), rows=4, member_seconds=0.002,
                              max_batch_rows=16, queue_depth=32,
                              horizon_s=1.0)

    def test_resilient_cell_bounds_latency_where_baseline_collapses(self):
        config = self.small()
        rate = 2.0 * analytic_capacity(config)
        resilient = run_overload_cell(config, rate=rate, resilient=True)
        baseline = run_overload_cell(config, rate=rate, resilient=False)
        assert resilient["conserved"] and baseline["conserved"]
        assert resilient["latency_ms"]["p99"] < baseline["latency_ms"]["p99"]
        assert resilient["shed"] + resilient["brownout_batches"] > 0
        assert baseline["shed"] == 0

    def test_cells_are_deterministic_per_seed(self):
        config = self.small()
        rate = 1.5 * analytic_capacity(config)
        first = run_overload_cell(config, rate=rate, resilient=True)
        second = run_overload_cell(config, rate=rate, resilient=True)
        assert first == second

    def test_brownout_parity_sample_from_a_saturated_cell(self):
        config = self.small()
        cell = run_overload_cell(
            config, rate=2.5 * analytic_capacity(config), resilient=True)
        assert cell["parity"] is not None
        assert cell["parity"]["ok"]
        assert cell["parity"]["level"] >= 1
