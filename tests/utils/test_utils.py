"""RNG plumbing and run logging."""

import numpy as np
import pytest

from repro.utils import RunLogger, new_rng, seed_everything, spawn_rng


class TestRng:
    def test_new_rng_from_int(self):
        a, b = new_rng(5), new_rng(5)
        assert a.random() == b.random()

    def test_new_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert new_rng(rng) is rng

    def test_new_rng_none_is_entropy(self):
        assert new_rng(None).random() != new_rng(None).random()

    def test_spawn_single(self):
        child = spawn_rng(new_rng(0))
        assert isinstance(child, np.random.Generator)

    def test_spawn_many_independent(self):
        children = spawn_rng(new_rng(0), count=3)
        assert len(children) == 3
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = spawn_rng(new_rng(7)).random()
        b = spawn_rng(new_rng(7)).random()
        assert a == b

    def test_seed_everything(self):
        rng = seed_everything(123)
        legacy_a = np.random.rand()
        seed_everything(123)
        legacy_b = np.random.rand()
        assert legacy_a == legacy_b
        assert isinstance(rng, np.random.Generator)


class TestRunLogger:
    def test_records_and_columns(self):
        logger = RunLogger()
        logger.log(epoch=0, loss=1.5)
        logger.log(epoch=1, loss=1.2, accuracy=0.6)
        assert logger.column("loss") == [1.5, 1.2]
        assert logger.column("accuracy") == [0.6]

    def test_last_with_default(self):
        logger = RunLogger()
        assert np.isnan(logger.last("loss"))
        logger.log(loss=2.0)
        logger.log(other=1.0)
        assert logger.last("loss") == 2.0
