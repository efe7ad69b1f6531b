"""The concurrent serving pipeline: transport, scheduler, executor.

The acceptance property of the whole refactor: micro-batched +
parallel-member serving answers **bit-identically** (``==``, not
``allclose``) to the solo sequential ``InferenceService.predict`` for
every request, while the breaker, quorum, hot-swap and health machinery
keep their semantics under true concurrency.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.concurrency import lock_order_mode
from repro.core import Ensemble
from repro.models import ModelFactory, ResNetCIFAR
from repro.nn import predict_probs
from repro.ops.batching import batch_cell, batch_cell_rows
from repro.ops import fastpath_enabled
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    InferenceService,
    InvalidRequest,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.serving.executor import MemberExecutor
from repro.serving.faults import DyingMember, FlakyMember, ManualClock
from repro.serving.members import run_members
from repro.serving.scheduler import MicroBatcher, QueueFull
from repro.serving.transport import PipelineConfig, ServingPipeline
from repro.tensor import ArrayView, inference_mode, is_grad_enabled
from repro.tensor.ops import softmax

from tests.serving.conftest import sub_ensemble

RNG = np.random.default_rng(31)


def make_service(factory, members=4, **config):
    ensemble = Ensemble()
    for seed in range(members):
        ensemble.add(factory.build(rng=seed), alpha=seed + 0.5)
    return InferenceService(ensemble, ServiceConfig(**config)), ensemble


# ----------------------------------------------------------------------
class TestBitParity:
    """Batched + parallel == solo, byte for byte."""

    def test_pump_once_batches_bitwise_equal_solo(self, factory):
        service, _ = make_service(factory)
        requests = [RNG.normal(size=(8, 4)).astype(np.float32)
                    for _ in range(12)]
        solo = [service.predict(x).probs.copy() for x in requests]
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        tickets = [pipeline.submit(x) for x in requests]
        while not all(ticket.done for ticket in tickets):
            assert pipeline.batcher.pump_once() > 0
        for ticket, expected in zip(tickets, solo):
            assert np.array_equal(pipeline.result(ticket).probs, expected)
        pipeline.close()

    def test_threaded_clients_parallel_members_bitwise_equal_solo(
            self, factory):
        service, _ = make_service(factory, members=6)
        requests = [RNG.normal(size=(4, 4)).astype(np.float32)
                    for _ in range(24)]
        solo = [service.predict(x).probs.copy() for x in requests]
        results = [None] * len(requests)
        with ServingPipeline(service, PipelineConfig(
                workers=4, max_wait_ms=2.0)) as pipeline:
            def client(i):
                results[i] = pipeline.predict(requests[i]).probs

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(requests))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for got, expected in zip(results, solo):
            assert np.array_equal(got, expected)

    def test_mixed_row_counts_never_share_a_stack(self, factory):
        service, _ = make_service(factory)
        sizes = [3, 3, 5, 5, 5, 2]
        requests = [RNG.normal(size=(rows, 4)).astype(np.float32)
                    for rows in sizes]
        solo = [service.predict(x).probs.copy() for x in requests]
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        tickets = [pipeline.submit(x) for x in requests]
        drained = []
        while not all(ticket.done for ticket in tickets):
            drained.append(pipeline.batcher.pump_once())
        # FIFO same-size prefixes: [3,3], [5,5,5], [2].
        assert drained == [2, 3, 1]
        for ticket, expected in zip(tickets, solo):
            assert np.array_equal(pipeline.result(ticket).probs, expected)
        pipeline.close()

    def test_served_metadata_matches_solo(self, factory):
        service, _ = make_service(factory)
        x = RNG.normal(size=(8, 4)).astype(np.float32)
        expected = service.predict(x)
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        tickets = [pipeline.submit(x), pipeline.submit(x)]
        pipeline.batcher.pump_once()
        for ticket in tickets:
            answer = pipeline.result(ticket)
            assert answer.members_used == expected.members_used
            assert answer.alpha_mass == expected.alpha_mass
            assert not answer.deadline_hit
        pipeline.close()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stack_vote_rows_bitwise_equal_request_votes(self, factory,
                                                         dtype):
        # A micro-batch votes its whole stack once and slices the answer:
        # the vote is elementwise, so each slice is the request's vote.
        service, _ = make_service(factory, members=5)
        members, _ = service.roster_snapshot()
        rows, requests = 3, 7
        outputs = [(member, RNG.dirichlet(np.ones(6), size=rows * requests)
                    .astype(dtype)) for member in members]
        stacked = service.vote(outputs)
        assert stacked.dtype == dtype
        for lo in range(0, rows * requests, rows):
            sliced = [(member, probs[lo:lo + rows])
                      for member, probs in outputs]
            assert np.array_equal(stacked[lo:lo + rows],
                                  service.vote(sliced))

    def test_degraded_batch_bitwise_equal_solo(self, factory):
        # A member lost to a fault leaves the batch's one vote, as it
        # leaves each solo vote.
        service, _ = make_service(factory)
        members, _ = service.roster_snapshot()
        members[1].model = FlakyMember(members[1].model)
        requests = [RNG.normal(size=(8, 4)).astype(np.float32)
                    for _ in range(6)]
        solo = [service.predict(x) for x in requests]
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        tickets = [pipeline.submit(x) for x in requests]
        assert pipeline.batcher.pump_once() == len(requests)
        for ticket, expected in zip(tickets, solo):
            answer = pipeline.result(ticket)
            assert answer.members_used == expected.members_used == [0, 2, 3]
            assert np.array_equal(answer.probs, expected.probs)
        pipeline.close()


# ----------------------------------------------------------------------
class TestTransportSurface:
    def test_submit_poll_result(self, factory):
        service, _ = make_service(factory)
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        ticket = pipeline.submit(RNG.normal(size=(4, 4)).astype(np.float32))
        assert not pipeline.poll(ticket)
        pipeline.batcher.pump_once()
        assert pipeline.poll(ticket)
        assert pipeline.result(ticket).probs.shape == (4, 3)
        pipeline.close()

    def test_result_timeout(self, factory):
        service, _ = make_service(factory)
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        ticket = pipeline.submit(RNG.normal(size=(4, 4)).astype(np.float32))
        with pytest.raises(TimeoutError):
            pipeline.result(ticket, timeout=0.01)
        pipeline.close()

    def test_invalid_payload_rejected_and_counted(self, factory):
        service, _ = make_service(factory)
        pipeline = ServingPipeline(service, PipelineConfig(workers=0))
        bad = np.full((4, 4), np.nan, dtype=np.float32)
        with pytest.raises(InvalidRequest):
            pipeline.submit(bad)
        assert service.health().requests_rejected == 1
        pipeline.close()

    def test_queue_full_is_backpressure(self, factory):
        service, _ = make_service(factory)
        pipeline = ServingPipeline(service, PipelineConfig(
            workers=0, queue_depth=2)).start(pump=False)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        pipeline.submit(x)
        pipeline.submit(x)
        with pytest.raises(ServiceUnavailable, match="capacity"):
            pipeline.submit(x)
        assert service.health().requests_unavailable == 1
        pipeline.close()

    def test_batching_off_serves_immediately(self, factory):
        service, _ = make_service(factory)
        with ServingPipeline(service, PipelineConfig(
                batching=False, workers=0)) as pipeline:
            ticket = pipeline.submit(
                RNG.normal(size=(4, 4)).astype(np.float32))
            assert pipeline.poll(ticket)

    def test_close_drains_queued_requests(self, factory):
        service, _ = make_service(factory)
        pipeline = ServingPipeline(
            service, PipelineConfig(workers=0)).start(pump=False)
        tickets = [pipeline.submit(
            RNG.normal(size=(4, 4)).astype(np.float32)) for _ in range(3)]
        pipeline.close()
        assert all(ticket.done for ticket in tickets)


# ----------------------------------------------------------------------
class TestScheduler:
    def test_max_batch_rows_caps_the_stack(self):
        batches = []
        batcher = MicroBatcher(
            process=lambda stacked, batch: batches.append(len(batch)),
            max_batch_rows=8)
        for _ in range(5):
            batcher.submit(np.zeros((4, 2), dtype=np.float32), ticket=None)
        while batcher.pump_once():
            pass
        assert batches == [2, 2, 1]     # 8-row cap -> 2 requests per stack

    def test_single_oversized_request_still_forms_a_batch(self):
        batches = []
        batcher = MicroBatcher(
            process=lambda stacked, batch: batches.append(len(stacked)),
            max_batch_rows=8)
        batcher.submit(np.zeros((32, 2), dtype=np.float32), ticket=None)
        batcher.pump_once()
        assert batches == [32]

    def test_queue_full(self):
        batcher = MicroBatcher(process=lambda *a: None, queue_depth=1)
        batcher.submit(np.zeros((1, 1)), ticket=None)
        with pytest.raises(QueueFull):
            batcher.submit(np.zeros((1, 1)), ticket=None)


# ----------------------------------------------------------------------
class _Recorder:
    """A batcher ``process`` hook that logs (dispatch time, requests)
    and holds its first batch until :attr:`gate` opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.log = []
        self._cond = threading.Condition()

    def __call__(self, stacked, batch):
        with self._cond:
            self.log.append((time.monotonic(), len(batch)))
            self._cond.notify_all()
        if len(self.log) == 1:
            assert self.gate.wait(timeout=10.0)

    def wait_for(self, batches, timeout=10.0):
        with self._cond:
            assert self._cond.wait_for(
                lambda: len(self.log) >= batches, timeout=timeout)


class TestPumpWindow:
    """The live pump waits only for company that is actually coming:
    the requests still queued plus the senders the last batch woke."""

    def test_idle_pump_answers_a_lone_request_at_once(self, factory):
        service, _ = make_service(factory)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        with ServingPipeline(service, PipelineConfig(
                workers=0, max_wait_ms=500.0)) as pipeline:
            started = time.monotonic()
            answer = pipeline.result(pipeline.submit(x), timeout=10.0)
            elapsed = time.monotonic() - started
        assert elapsed < 0.25
        assert np.array_equal(answer.probs, service.predict(x).probs)

    def test_closed_loop_pair_batches_without_waiting_out_the_window(
            self, factory):
        service, _ = make_service(factory)
        requests = [RNG.normal(size=(8, 4)).astype(np.float32)
                    for _ in range(10)]
        solo = [service.predict(x).probs.copy() for x in requests]
        rounds, answers = 20, [[], []]
        # Neither client submits before both threads exist: the idle pump
        # answers a lone request at once, so a client that starts alone
        # is served solo round after round until its partner arrives.
        go = threading.Event()
        with ServingPipeline(service, PipelineConfig(
                workers=0, max_wait_ms=500.0)) as pipeline:
            def client(index):
                go.wait(timeout=10.0)
                for step in range(rounds):
                    which = (index + 2 * step) % len(requests)
                    ticket = pipeline.submit(requests[which])
                    answers[index].append(
                        (which, pipeline.result(ticket, timeout=10.0).probs))

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(2)]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            go.set()
            for thread in threads:
                thread.join(timeout=30.0)
            elapsed = time.monotonic() - started
            batches = pipeline.batcher.batches_formed
        assert not any(thread.is_alive() for thread in threads)
        # Holding every batch for the full window would take >= 10 s.
        assert elapsed < rounds * 0.5 / 2
        # 40 requests; all-pairs is 20 batches, all-solo 40.
        assert batches <= 26
        for per_client in answers:
            assert len(per_client) == rounds
            for which, probs in per_client:
                assert np.array_equal(probs, solo[which])

    def test_missing_company_is_dispatched_a_window_after_the_pump_freed(
            self):
        record = _Recorder()
        batcher = MicroBatcher(process=record, max_wait_ms=200.0).start()
        try:
            x = np.zeros((2, 3), dtype=np.float32)
            batcher.submit(x, ticket=None)
            record.wait_for(1)              # running, held at the gate
            batcher.submit(x, ticket=None)
            batcher.submit(x, ticket=None)
            # Both queued requests are already older than the window
            # when the pump frees, and the woken sender never returns.
            time.sleep(0.3)
            released = time.monotonic()
            record.gate.set()
            record.wait_for(2)
        finally:
            batcher.stop()
        dispatched, size = record.log[1]
        assert size == 2
        assert 0.2 <= dispatched - released < 2.0

    def test_full_prefix_is_dispatched_without_waiting(self):
        record = _Recorder()
        batcher = MicroBatcher(process=record, max_batch_rows=8,
                               max_wait_ms=500.0).start()
        try:
            x = np.zeros((4, 3), dtype=np.float32)
            batcher.submit(x, ticket=None)
            record.wait_for(1)
            batcher.submit(x, ticket=None)
            batcher.submit(x, ticket=None)
            released = time.monotonic()
            record.gate.set()
            record.wait_for(2)
        finally:
            batcher.stop()
        dispatched, size = record.log[1]
        assert size == 2                    # 8 rows: the prefix is full
        assert dispatched - released < 0.25


# ----------------------------------------------------------------------
class TestBreakerConcurrency:
    def test_concurrent_faults_trip_exactly_once(self):
        clock = ManualClock()
        breaker = CircuitBreaker(fault_threshold=3, cooldown=10.0,
                                 clock=clock)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(16):
                breaker.record_fault("injected")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.state == OPEN
        assert breaker.total_faults == 8 * 16      # no lost increments
        assert breaker.total_calls == 8 * 16

    def test_half_open_admits_exactly_one_probe(self):
        clock = ManualClock()
        breaker = CircuitBreaker(fault_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_fault("boom")
        clock.advance(5.0)                         # cooldown expired
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(admitted) == 1                  # single probe slot
        assert breaker.state == HALF_OPEN

    def test_concurrent_trip_and_reinstate_stay_consistent(self):
        clock = ManualClock()
        breaker = CircuitBreaker(fault_threshold=2, cooldown=5.0,
                                 clock=clock)
        barrier = threading.Barrier(4)

        def flip(n):
            barrier.wait()
            for _ in range(64):
                if n % 2:
                    breaker.trip("admin")
                else:
                    breaker.reinstate()

        threads = [threading.Thread(target=flip, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whatever interleaving happened, the breaker landed in a legal
        # state with internally consistent bookkeeping.
        assert breaker.state in (OPEN, CLOSED)
        if breaker.state == OPEN:
            assert breaker.opened_at is not None
        else:
            assert breaker.opened_at is None
            assert breaker.consecutive_faults == 0


# ----------------------------------------------------------------------
class TestHotSwapConsistency:
    def test_health_never_tears_mid_swap(self, factory):
        service, _ = make_service(factory)
        stop = threading.Event()
        errors = []

        def swapper():
            seed = 100
            while not stop.is_set():
                seed += 1
                service.replace_member(2, factory.build(rng=seed), alpha=2.5)

        def checker():
            while not stop.is_set():
                health = service.health()
                try:
                    assert health.members_total == 4
                    named = set(health.members_live) | \
                        set(health.members_quarantined)
                    assert named == {0, 1, 2, 3}
                    assert set(health.breaker_states) == {0, 1, 2, 3}
                    assert health.effective_alpha_mass == pytest.approx(1.0)
                except AssertionError as error:   # pragma: no cover
                    errors.append(error)
                    stop.set()

        threads = [threading.Thread(target=swapper),
                   threading.Thread(target=checker),
                   threading.Thread(target=checker)]
        for thread in threads:
            thread.start()
        stop.wait(timeout=0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.health().member_swaps > 0

    def test_in_flight_batches_see_whole_rosters(self, factory):
        """A hot swap mid-traffic: every answer equals one of the two
        rosters' solo aggregates — never a torn mix."""
        service, _ = make_service(factory)
        x = RNG.normal(size=(8, 4)).astype(np.float32)
        before = service.predict(x).probs.copy()
        replacement = factory.build(rng=999)
        snapshot, _ = service.roster_snapshot()
        after_ensemble = Ensemble()
        for position, member in enumerate(snapshot):
            if position == 2:
                after_ensemble.add(replacement, alpha=4.0)
            else:
                after_ensemble.add(member.model, alpha=member.alpha)
        legal = {before.tobytes()}
        answers = []
        with ServingPipeline(service, PipelineConfig(
                workers=2, max_wait_ms=0.5)) as pipeline:
            def client():
                for _ in range(20):
                    answers.append(pipeline.predict(x).probs)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            service.replace_member(2, replacement, alpha=4.0)
            for thread in threads:
                thread.join()
        legal.add(service.predict(x).probs.tobytes())
        assert legal == {before.tobytes(),
                         after_ensemble.predict_probs(x).tobytes()}
        for answer in answers:
            assert answer.tobytes() in legal


# ----------------------------------------------------------------------
class _ThreadProbe:
    """A member that logs the thread of every forward; it blocks on
    ``hold`` (when given) to outlive a deadline."""

    def __init__(self, model, log, hold=None):
        self.model, self.log, self.hold = model, log, hold

    def __getattr__(self, name):
        return getattr(self.model, name)

    def __call__(self, x):
        self.log.append(threading.current_thread())
        if self.hold is not None:
            assert self.hold.wait(timeout=10.0)
        return self.model(x)


class TestMemberThreads:
    """Members run on the thread that serves the request; the member pool
    serves deadline requests only."""

    @staticmethod
    def probed_pipeline(factory, **config):
        """A pooled pipeline (``workers=None``) whose members log their
        threads; build it under the lock-order sanitizer."""
        service, _ = make_service(factory)
        log = []
        for member in service.members:
            member.model = _ThreadProbe(member.model, log)
        pipeline = ServingPipeline(service, PipelineConfig(workers=None,
                                                           **config))
        return service, pipeline, log

    @pytest.fixture
    def probed(self, factory):
        with lock_order_mode():
            service, pipeline, log = self.probed_pipeline(factory)
            yield service, pipeline, log
            pipeline.close()

    @staticmethod
    def record_process(pipeline, log):
        """Wrap the batcher hook: (calling thread, member threads) per batch."""
        runs, process = [], pipeline.batcher.process

        def recording(stacked, batch):
            start = len(log)
            process(stacked, batch)
            runs.append((threading.current_thread(), log[start:]))

        pipeline.batcher.process = recording
        return runs

    @staticmethod
    def check_answers(service, pipeline, requests, tickets):
        for x, ticket in zip(requests, tickets):
            answer = pipeline.result(ticket, timeout=10.0)
            assert answer.members_skipped == []
            assert np.array_equal(answer.probs, service.predict(x).probs)
        ledger = pipeline.stats()
        assert ledger.failed == 0 and ledger.pending == 0

    def test_batched_members_run_on_the_processing_thread(self, probed):
        service, pipeline, log = probed
        runs = self.record_process(pipeline, log)
        requests = [RNG.normal(size=(4, 4)).astype(np.float32)
                    for _ in range(6)]
        pipeline.start(pump=False)
        tickets = [pipeline.submit(x) for x in requests[:3]]
        while pipeline.batcher.pump_once():
            pass
        # The live pump: three requests queued before it starts go out
        # as one stacked batch.
        tickets += [pipeline.submit(x) for x in requests[3:]]
        pipeline.start()
        self.check_answers(service, pipeline, requests, tickets)
        assert [len(threads) for _, threads in runs] == [4, 4]
        assert runs[0][0] is threading.current_thread()
        assert runs[1][0].name == "repro-batcher"
        for caller, threads in runs:
            assert all(thread is caller for thread in threads)

    def test_unbatched_request_runs_on_the_submitting_thread(self, factory):
        requests = [RNG.normal(size=(3, 4)).astype(np.float32)
                    for _ in range(2)]
        with lock_order_mode():
            service, pipeline, log = self.probed_pipeline(
                factory, batching=False)
            with pipeline:
                tickets = []
                client = threading.Thread(
                    target=lambda: tickets.extend(
                        pipeline.submit(x) for x in requests),
                    name="client")
                client.start()
                client.join(timeout=10.0)
                assert not client.is_alive()
                served = list(log)
                self.check_answers(service, pipeline, requests, tickets)
        assert len(served) == 2 * len(service.members)
        assert all(thread is client for thread in served)

    def test_deadline_request_runs_on_the_pool_and_abandons(self, probed):
        service, pipeline, log = probed
        hold = threading.Event()
        slow = service.members[2]
        slow.model.hold = hold
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        try:
            answer = pipeline.result(pipeline.submit(x, deadline=1.0),
                                     timeout=10.0)
        finally:
            hold.set()
        assert answer.deadline_hit
        assert [(index, kind) for index, kind, _ in answer.members_skipped] \
            == [(slow.index, "deadline")]
        assert slow.index not in answer.members_used
        assert len(log) == len(service.members)
        assert all(thread.name.startswith("repro-member") for thread in log)
        assert threading.current_thread() not in log


# ----------------------------------------------------------------------
class TestResNetServing:
    """Small ResNets (conv + BatchNorm) served on every pipeline path
    answer ``==`` ``service.predict`` and leave every module's mode and
    BatchNorm running statistics as they were."""

    @staticmethod
    def make_resnet_service():
        factory = ModelFactory(ResNetCIFAR, depth=8, num_classes=4,
                               base_width=4)
        rng = np.random.default_rng(5)
        ensemble = Ensemble()
        for seed in range(3):
            model = factory.build(rng=seed)
            # Non-trivial running statistics, so eval-mode BN matters.
            for module in model.modules():
                buffers = getattr(module, "_buffers", {})
                if "running_mean" in buffers:
                    width = buffers["running_mean"].shape
                    buffers["running_mean"][...] = rng.normal(
                        scale=0.1, size=width)
                    buffers["running_var"][...] = rng.uniform(
                        0.5, 1.5, size=width)
            ensemble.add(model, alpha=seed + 0.5)
        return InferenceService(ensemble, ServiceConfig()), ensemble

    @staticmethod
    def model_state(ensemble):
        return [(module.training,
                 {name: buffer.copy() for name, buffer in
                  getattr(module, "_buffers", {}).items()})
                for model in ensemble.models for module in model.modules()]

    def test_every_path_matches_service_predict(self):
        service, ensemble = self.make_resnet_service()
        rng = np.random.default_rng(9)
        requests = [rng.normal(size=(rows, 3, 10, 10)).astype(np.float32)
                    for rows in (2, 2, 2, 3, 2, 2)]
        before = self.model_state(ensemble)
        expected = [service.predict(x) for x in requests]
        answers = {}

        # Live pump, stacked: everything queued before the pump starts.
        pipeline = ServingPipeline(service, PipelineConfig(workers=None))
        tickets = [pipeline.submit(x) for x in requests]
        with pipeline.start():
            answers["live"] = [pipeline.result(t, timeout=30.0)
                               for t in tickets]
            stacked = pipeline.batcher.batches_formed < len(requests)
            # Deadline-solo on the member pool, with a budget nothing hits.
            answers["deadline"] = [pipeline.predict(x, deadline=60.0)
                                   for x in requests]
        assert stacked
        with ServingPipeline(service, PipelineConfig(workers=None)).start(
                pump=False) as pipeline:
            tickets = [pipeline.submit(x) for x in requests]
            while pipeline.batcher.pump_once():
                pass
            answers["pump_once"] = [pipeline.result(t, timeout=30.0)
                                    for t in tickets]
        with ServingPipeline(service, PipelineConfig(
                workers=None, batching=False)) as pipeline:
            answers["unbatched"] = [pipeline.predict(x) for x in requests]

        for path, served in answers.items():
            for answer, solo in zip(served, expected):
                assert np.array_equal(answer.probs, solo.probs), path
                assert answer.members_used == solo.members_used, path
                assert not answer.deadline_hit, path
        after = self.model_state(ensemble)
        assert len(after) == len(before)
        for (mode_before, stats_before), (mode_after, stats_after) in zip(
                before, after):
            assert mode_before == mode_after
            assert stats_before.keys() == stats_after.keys()
            for name, value in stats_before.items():
                assert np.array_equal(value, stats_after[name])


# ----------------------------------------------------------------------
class TestExecutorSemantics:
    def test_fault_and_quarantine_skips_match_serial(self, factory):
        service, _ = make_service(factory, fault_threshold=1)
        position = [m.index for m in service.members].index(1)
        service.members[position].model = FlakyMember(
            service.members[position].model)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        executor = MemberExecutor(workers=3)
        members, alpha_configured = service.roster_snapshot()
        # A deadline puts the members on the pool (none is hit here).
        outputs, skipped, _ = executor.run(members, x, batch_size=256,
                                           deadline=60.0)
        assert [m.index for m, _ in outputs] == [0, 2, 3]
        assert skipped[0][0] == 1 and skipped[0][1] == "fault"
        # Next run: the breaker (threshold 1) has the member quarantined.
        outputs, skipped, _ = executor.run(members, x, batch_size=256,
                                           deadline=60.0)
        assert skipped[0][1] == "quarantined"
        executor.shutdown()

    def test_all_members_lost_is_unavailable(self, factory):
        service, _ = make_service(factory, members=2, min_members=1,
                                  fault_threshold=1)
        for member in service.members:
            member.model = FlakyMember(member.model)
        with ServingPipeline(service, PipelineConfig(workers=2)) as pipeline:
            ticket = pipeline.submit(
                RNG.normal(size=(4, 4)).astype(np.float32))
            with pytest.raises(ServiceUnavailable):
                pipeline.result(ticket, timeout=5.0)
        assert service.health().requests_unavailable == 1


# ----------------------------------------------------------------------
def _thread_state():
    return (fastpath_enabled(), is_grad_enabled(), batch_cell_rows())


def _parent_predict_probs(model, x, batch_size):
    """``predict_probs`` as it was before single chunks skipped the
    concatenation: every chunk under a fresh inference mode, joined."""
    outputs = []
    with inference_mode():
        for start in range(0, len(x), batch_size):
            logits = model(ArrayView(np.asarray(x[start:start + batch_size])))
            outputs.append(softmax(logits, axis=1).data)
    return np.concatenate(outputs, axis=0)


class TestRosterScope:
    """The serial loop enters inference mode and the batch cell once per
    roster; a pool task enters its own.  Either way the thread leaves
    with the state it came in with, whatever its members did."""

    @staticmethod
    def faulty_roster(factory):
        """Members that raise, answer NaN, die, and answer."""
        service, _ = make_service(factory)
        members, _ = service.roster_snapshot()
        members[0].model = FlakyMember(members[0].model)
        members[1].model = FlakyMember(members[1].model, mode="nan")
        members[2].model = DyingMember(members[2].model, on_calls=(0,))
        return members

    @staticmethod
    def check_skips(outputs, skipped, members):
        assert [m.index for m, _ in outputs] == [members[3].index]
        assert [(index, kind) for index, kind, _ in skipped] == [
            (member.index, "fault") for member in members[:3]]
        assert "member task died" in skipped[2][2]

    @pytest.mark.parametrize("prior", ["default", "cell", "inference"])
    @pytest.mark.parametrize("cell", [None, 2])
    def test_serial_roster_restores_thread_state(self, factory, prior,
                                                 cell):
        members = self.faulty_roster(factory)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        scope = {"default": contextlib.nullcontext(),
                 "cell": batch_cell(3),
                 "inference": inference_mode()}[prior]
        with scope:
            before = _thread_state()
            outputs, skipped, hit = run_members(
                members, x, 256, time.monotonic, time.monotonic(),
                cell=cell)
            assert _thread_state() == before
        assert _thread_state() == (False, True, None)
        assert not hit
        self.check_skips(outputs, skipped, members)

    def test_deadline_pool_task_restores_thread_state(self, factory):
        members = self.faulty_roster(factory)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        before = _thread_state()
        # One pool thread runs every member task, then reports its state.
        with MemberExecutor(workers=1) as executor:
            outputs, skipped, hit = executor.run(
                members, x, batch_size=256, deadline=60.0, cell=2)
            pool_state = executor._pool.submit(_thread_state).result(
                timeout=10.0)
        assert not hit
        self.check_skips(outputs, skipped, members)
        assert pool_state == (False, True, None)
        assert _thread_state() == before

    def test_predict_probs_inside_inference_mode_matches(self, factory):
        model = factory.build(rng=4)
        x = RNG.normal(size=(10, 4)).astype(np.float32)
        for batch_size in (256, 4):
            outside = predict_probs(model, x, batch_size=batch_size)
            with inference_mode():
                inside = predict_probs(model, x, batch_size=batch_size)
                assert _thread_state() == (True, False, None)
            assert np.array_equal(inside, outside)

    def test_multi_chunk_requests_match_the_concatenated_chunks(
            self, factory):
        service, _ = make_service(factory)
        members, _ = service.roster_snapshot()
        x = RNG.normal(size=(10, 4)).astype(np.float32)
        outputs, skipped, _ = run_members(members, x, 4, time.monotonic,
                                          time.monotonic())
        assert skipped == [] and len(outputs) == len(members)
        for member, probs in outputs:
            expected = _parent_predict_probs(member.model, x, 4)
            assert np.array_equal(probs, expected)
            assert np.array_equal(
                predict_probs(member.model, x, batch_size=4), expected)
