"""Multi-seed replication helpers."""

import numpy as np
import pytest

from repro.experiments import ReplicatedResult
from repro.experiments.grid import compare_replicated, run_replicated
from repro.experiments.protocol import Scenario
from repro.experiments.replication import z_screen


@pytest.fixture
def tiny_scenario(tiny_image_split, mlp_factory):
    return Scenario(name="tiny", split=tiny_image_split, factory=mlp_factory,
                    ensemble_size=2, epochs_per_model=1,
                    edde_first_epochs=1, edde_later_epochs=1,
                    lr=0.05, batch_size=32, gamma=0.1, beta=0.7,
                    weight_decay=0.0)


class TestRunReplicated:
    def test_collects_per_seed(self, tiny_scenario):
        replicated = run_replicated("single", tiny_scenario, seeds=(0, 1))
        assert len(replicated.accuracies) == 2
        assert len(replicated.results) == 2
        assert 0.0 <= replicated.mean <= 1.0
        assert replicated.std >= 0.0

    def test_same_seed_zero_variance(self, tiny_scenario):
        replicated = run_replicated("single", tiny_scenario, seeds=(3, 3))
        assert replicated.std == pytest.approx(0.0)

    def test_summary_format(self, tiny_scenario):
        replicated = run_replicated("single", tiny_scenario, seeds=(0,))
        assert "n=1" in replicated.summary()

    def test_compare(self, tiny_scenario):
        outputs = compare_replicated(("single", "bagging"), tiny_scenario,
                                     seeds=(0,))
        assert set(outputs) == {"single", "bagging"}


class TestStd:
    def test_sample_std_uses_ddof_1(self):
        accs = [0.7, 0.8, 0.9]
        result = ReplicatedResult("m", accuracies=accs)
        assert result.std == pytest.approx(float(np.std(accs, ddof=1)))

    def test_single_seed_std_is_zero(self):
        assert ReplicatedResult("m", accuracies=[0.8]).std == 0.0


def better(a: ReplicatedResult, b: ReplicatedResult) -> bool:
    return z_screen(a.mean, a.stderr, b.mean, b.stderr)


class TestSignificance:
    def test_clear_separation(self):
        a = ReplicatedResult("a", accuracies=[0.9, 0.91, 0.89])
        b = ReplicatedResult("b", accuracies=[0.5, 0.52, 0.48])
        assert better(a, b)
        assert not better(b, a)

    def test_overlapping_not_significant(self):
        a = ReplicatedResult("a", accuracies=[0.70, 0.80])
        b = ReplicatedResult("b", accuracies=[0.72, 0.78])
        assert not better(a, b)
