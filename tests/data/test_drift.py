"""Drift schedules and streams: validation, determinism, actual drift."""

import numpy as np
import pytest

from repro.data import (
    DriftPhase,
    DriftSchedule,
    DriftStream,
    ImageConfig,
    build_prototypes,
    rotate_prototypes,
)

CONFIG = ImageConfig(num_classes=4, image_size=6, prototypes_per_class=2,
                     train_size=32, test_size=16, noise_std=0.2,
                     jitter=1, occlusion_prob=0.1, mix_prob=0.1,
                     label_noise=0.0, name="drift-test")


def step_schedule(**overrides):
    kwargs = dict(pre_batches=3, drift_batches=4, covariate=0.8,
                  batch_size=8)
    kwargs.update(overrides)
    return DriftSchedule.step(**kwargs)


# ---------------------------------------------------------------- phases

class TestSchedule:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            DriftPhase(batches=0)
        with pytest.raises(ValueError):
            DriftPhase(batches=1, covariate=1.5)
        with pytest.raises(ValueError):
            DriftPhase(batches=1, label_skew=-0.1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DriftSchedule(phases=[])
        with pytest.raises(ValueError):
            DriftSchedule(phases=[{"batches": 1}], batch_size=0)
        with pytest.raises(ValueError):
            DriftSchedule(phases=[{"batches": 1}], interval=0.0)

    def test_phase_at_walks_segments(self):
        schedule = step_schedule()
        assert schedule.total_batches == 7
        assert schedule.phase_at(0).covariate == 0.0
        assert schedule.phase_at(2).covariate == 0.0
        assert schedule.phase_at(3).covariate == 0.8
        assert schedule.phase_at(6).covariate == 0.8
        with pytest.raises(IndexError):
            schedule.phase_at(7)

    def test_drift_onset(self):
        assert step_schedule().drift_onset() == 3
        stationary = DriftSchedule(phases=[{"batches": 5}])
        assert stationary.drift_onset() is None
        jitter_only = DriftSchedule(phases=[{"batches": 2},
                                            {"batches": 2, "jitter": 3}])
        assert jitter_only.drift_onset() == 2

    def test_payload_round_trip(self):
        schedule = DriftSchedule(phases=[
            {"batches": 2},
            {"batches": 3, "covariate": 0.6, "label_skew": 0.5, "jitter": 2},
        ], batch_size=16, interval=2.0)
        clone = DriftSchedule.from_payload(schedule.to_payload())
        assert clone == schedule

    def test_from_payload_rejects_garbage(self):
        with pytest.raises(ValueError):
            DriftSchedule.from_payload({"batch_size": 8})

    def test_dict_phases_coerced(self):
        schedule = DriftSchedule(phases=[{"batches": 2, "covariate": 0.3}])
        assert isinstance(schedule.phases[0], DriftPhase)


# ---------------------------------------------------------------- stream

class TestStream:
    def test_batches_follow_the_schedule(self):
        schedule = step_schedule()
        stream = DriftStream(CONFIG, schedule, rng=0)
        batches = list(stream)
        assert len(batches) == schedule.total_batches
        assert [b.index for b in batches] == list(range(7))
        assert [b.covariate for b in batches] == [0.0] * 3 + [0.8] * 4
        assert all(b.timestamp == b.index * schedule.interval
                   for b in batches)
        for batch in batches:
            assert batch.x.shape == (8, CONFIG.channels, 6, 6)
            assert batch.y.shape == (8,)
            assert set(np.unique(batch.y)) <= set(range(CONFIG.num_classes))

    def test_deterministic_replay(self):
        schedule = step_schedule()
        first = list(DriftStream(CONFIG, schedule, rng=7))
        second = list(DriftStream(CONFIG, schedule, rng=7))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_stream(self):
        schedule = step_schedule()
        a = DriftStream(CONFIG, schedule, rng=0).next_batch()
        b = DriftStream(CONFIG, schedule, rng=1).next_batch()
        assert not np.array_equal(a.x, b.x)

    def test_baseline_then_batches_is_the_contract(self):
        schedule = step_schedule()
        stream = DriftStream(CONFIG, schedule, rng=3)
        baseline = stream.baseline_dataset(24)
        assert len(baseline) == 24
        assert baseline.num_classes == CONFIG.num_classes
        replay = DriftStream(CONFIG, schedule, rng=3)
        np.testing.assert_array_equal(replay.baseline_dataset(24).x,
                                      baseline.x)
        np.testing.assert_array_equal(next(iter(replay)).x,
                                      stream.next_batch().x)

    def test_covariate_drift_moves_inputs(self):
        """Same rng, drifted schedule: the drifted phase must differ."""
        stationary = DriftSchedule(phases=[{"batches": 4}], batch_size=8)
        drifted = DriftSchedule(phases=[{"batches": 2},
                                        {"batches": 2, "covariate": 1.0}],
                                batch_size=8)
        a = list(DriftStream(CONFIG, stationary, rng=5))
        b = list(DriftStream(CONFIG, drifted, rng=5))
        np.testing.assert_array_equal(a[0].x, b[0].x)  # both stationary
        assert not np.array_equal(a[2].x, b[2].x)      # b has drifted

    def test_label_skew_tilts_priors(self):
        stream = DriftStream(CONFIG, step_schedule(), rng=0)
        uniform = stream.priors(0.0)
        np.testing.assert_allclose(uniform, 1.0 / CONFIG.num_classes)
        skewed = stream.priors(2.0)
        assert skewed.max() > 0.5
        np.testing.assert_allclose(skewed.sum(), 1.0)

    def test_skewed_phase_draws_skewed_labels(self):
        schedule = DriftSchedule(phases=[{"batches": 30, "label_skew": 3.0}],
                                 batch_size=16)
        stream = DriftStream(CONFIG, schedule, rng=0)
        labels = np.concatenate([b.y for b in stream])
        counts = np.bincount(labels, minlength=CONFIG.num_classes)
        head = stream.class_order[0]
        assert counts[head] == counts.max()
        assert counts[head] > len(labels) / 2


# ------------------------------------------------------------ prototypes

class TestPrototypes:
    def test_rotation_preserves_shape_and_content(self):
        rng = np.random.default_rng(0)
        bank = build_prototypes(CONFIG, rng)
        rotated = rotate_prototypes(bank)
        assert rotated.shape == bank.shape
        np.testing.assert_array_equal(rotate_prototypes(rotated, 3), bank)
        np.testing.assert_allclose(np.sort(rotated.ravel()),
                                   np.sort(bank.ravel()))

    def test_build_prototypes_matches_dataset_path(self):
        """make_image_dataset renders from the same bank (same rng)."""
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        np.testing.assert_array_equal(build_prototypes(CONFIG, rng_a),
                                      build_prototypes(CONFIG, rng_b))
