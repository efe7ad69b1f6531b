"""Differential test: one seeded request stream through every serving path.

Every path that can answer a request — the sequential
``InferenceService.predict``, the pipeline with inline members and with a
member pool, micro-batched through ``pump_once`` and through the live
pump, per-request execution (``batching=False``), brownout with K = T
and deadline-solo with a budget nothing hits — must give the same answer
``==`` byte for byte, name the same voters and report the same skips.

The fault run adds one member that always raises and one that always
returns NaN, with ``fault_threshold=1``.  The first request is served
alone on every path, so both faults fire on the same call everywhere;
every later request, however it is batched, then finds both members
quarantined with the same reason.  Breaker end states must match too
(``total_calls`` is traffic, not state: a batch calls a healthy member
once for all of its requests).
"""

import numpy as np
import pytest

from repro.core import Ensemble
from repro.serving import InferenceService, ServiceConfig
from repro.serving.faults import FlakyMember, ManualClock
from repro.serving.pressure import PressureConfig
from repro.serving.transport import PipelineConfig, ServingPipeline

MEMBERS = 5
SEED = 2024
DEADLINE = 60.0


def request_stream(seed=SEED, count=24):
    """Seeded payloads of mixed row counts, so batches split by size."""
    rng = np.random.default_rng(seed)
    sizes = rng.choice([1, 3, 8], size=count)
    return [rng.normal(size=(int(rows), 4)).astype(np.float32)
            for rows in sizes]


def make_service(factory, faults, clock):
    ensemble = Ensemble()
    for seed in range(MEMBERS):
        ensemble.add(factory.build(rng=seed), alpha=seed + 0.5)
    service = InferenceService(ensemble, ServiceConfig(
        fault_threshold=1, clock=clock))
    if faults:
        service.members[1].model = FlakyMember(service.members[1].model,
                                               mode="raise")
        service.members[3].model = FlakyMember(service.members[3].model,
                                               mode="nan")
    return service


def serve_solo(factory, faults, stream):
    service = make_service(factory, faults, ManualClock())
    return [service.predict(x) for x in stream], service


def serve_pipeline(factory, faults, stream, live=False, deadline=None,
                   **config):
    """The first request alone, then the rest submitted together."""
    clock = ServiceConfig().clock if live else ManualClock()
    service = make_service(factory, faults, clock)
    pipeline = ServingPipeline(service, PipelineConfig(**config))
    if pipeline.pressure is not None:
        # Start at the top level, where K = T is what the healthiest-K
        # selection computes, not a level-0 pass-through.
        for _ in range(pipeline.pressure.config.levels):
            pipeline.pressure.observe(1.0)
    pipeline.start(pump=live)
    answers = []
    try:
        for chunk in (stream[:1], stream[1:]):
            tickets = [pipeline.submit(x, deadline=deadline) for x in chunk]
            if not live and pipeline.batcher is not None:
                clock.advance(1.0)      # brownout stays at its top level
                while not all(ticket.done for ticket in tickets):
                    assert pipeline.batcher.pump_once() > 0
            answers += [pipeline.result(ticket, timeout=10.0)
                        for ticket in tickets]
    finally:
        pipeline.close()
    if pipeline.pressure is not None:
        assert pipeline.pressure.level == pipeline.pressure.config.levels
    return answers, service


PATHS = {
    "inline": dict(workers=0),
    "pool": dict(workers=3),
    "live-pump": dict(workers=3, live=True),
    "unbatched": dict(workers=0, batching=False),
    "brownout-K=T": dict(workers=0, brownout=True, pressure=PressureConfig(
        target_delay_ms=20.0, levels=2, min_members=MEMBERS, sustain=1)),
    "deadline-solo": dict(workers=3, deadline=DEADLINE),
}


def breaker_state(service):
    return [(m.index, m.breaker.state, m.breaker.consecutive_faults,
             m.breaker.total_faults, m.breaker.last_fault_reason)
            for m in service.members]


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_every_serving_path_answers_identically(factory, faults):
    stream = request_stream()
    expected, reference = serve_solo(factory, faults, stream)
    if faults:
        assert expected[0].members_skipped[0][1] == "fault"
        assert expected[-1].members_used == [0, 2, 4]
        assert {kind for _, kind, _ in expected[-1].members_skipped} == \
            {"quarantined"}
    else:
        assert all(not answer.members_skipped for answer in expected)
    for name, config in PATHS.items():
        answers, service = serve_pipeline(factory, faults, stream, **config)
        assert len(answers) == len(stream), name
        for position, (got, want) in enumerate(zip(answers, expected)):
            where = f"{name} request {position}"
            assert np.array_equal(got.probs, want.probs), where
            assert got.members_used == want.members_used, where
            assert got.members_skipped == want.members_skipped, where
        assert breaker_state(service) == breaker_state(reference), name
