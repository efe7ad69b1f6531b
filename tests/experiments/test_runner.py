"""Experiment runners on a tiny MLP scenario (fast end-to-end coverage)."""

import numpy as np
import pytest

from repro.experiments.protocol import Scenario
from repro.experiments.runner import (
    make_edde_config,
    run_effectiveness,
    run_method,
)


@pytest.fixture
def tiny_scenario(tiny_image_split, mlp_factory):
    return Scenario(name="tiny", split=tiny_image_split, factory=mlp_factory,
                    ensemble_size=2, epochs_per_model=2,
                    edde_first_epochs=2, edde_later_epochs=1,
                    lr=0.05, batch_size=32, gamma=0.1, beta=0.7,
                    weight_decay=0.0)


class TestRunMethod:
    @pytest.mark.parametrize("method", ["single", "bagging", "adaboost_m1",
                                        "adaboost_nc", "snapshot", "bans",
                                        "edde"])
    def test_dispatch(self, method, tiny_scenario):
        result = run_method(method, tiny_scenario, rng=0)
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_unknown_method(self, tiny_scenario):
        with pytest.raises(ValueError):
            run_method("gradient-boosting", tiny_scenario)

    def test_overrides_forwarded(self, tiny_scenario):
        result = run_method("edde", tiny_scenario, rng=0, num_models=3)
        assert len(result.ensemble) == 3


class TestEddeConfig:
    def test_matches_budget(self, tiny_scenario):
        config = make_edde_config(tiny_scenario)
        assert config.num_models == tiny_scenario.edde_num_models()
        assert config.gamma == tiny_scenario.gamma

    def test_half_budget_note(self, tiny_scenario):
        tiny_scenario.notes["edde_half_budget"] = True
        full = tiny_scenario.total_budget
        config = make_edde_config(tiny_scenario)
        assert config.total_epochs() <= max(tiny_scenario.edde_first_epochs,
                                            full // 2) + 1


class TestRunners:
    def test_effectiveness_subset(self, tiny_scenario):
        results = run_effectiveness(tiny_scenario,
                                    methods=("single", "edde"), rng=0)
        assert set(results) == {"single", "edde"}
