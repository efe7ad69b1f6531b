"""Ensemble container: Eq. 16 combination, voting, evaluation."""

import numpy as np
import pytest

from repro.core.ensemble import Ensemble, alpha_vote
from repro.models import MLP
from repro.nn import accuracy

RNG = np.random.default_rng(10)


def make_model(seed):
    return MLP(input_dim=4, num_classes=3, hidden=(6,), rng=seed)


class TestEnsemble:
    def test_add_and_len(self):
        ensemble = Ensemble()
        ensemble.add(make_model(0), 1.0)
        ensemble.add(make_model(1), 2.0)
        assert len(ensemble) == 2

    def test_rejects_nonpositive_alpha(self):
        ensemble = Ensemble()
        with pytest.raises(ValueError):
            ensemble.add(make_model(0), 0.0)

    def test_empty_predict_raises(self):
        with pytest.raises(RuntimeError):
            Ensemble().predict_probs(RNG.normal(size=(2, 4)))

    def test_poisoned_batch_rejected(self):
        # A NaN row would flow through softmax into a well-formed-looking
        # (possibly confident) garbage distribution; the ensemble must
        # refuse the batch up front with the serving taxonomy's
        # InvalidRequest instead.
        from repro.serving.errors import InvalidRequest

        ensemble = Ensemble()
        for s in range(2):
            ensemble.add(make_model(s), 1.0)
        poisoned = RNG.normal(size=(5, 4))
        poisoned[2, 1] = np.nan
        poisoned[4, 0] = np.inf
        with pytest.raises(InvalidRequest, match="non-finite") as excinfo:
            ensemble.predict_probs(poisoned)
        assert excinfo.value.field == "values"
        with pytest.raises(InvalidRequest):
            ensemble.predict(poisoned)
        with pytest.raises(InvalidRequest):
            ensemble.evaluate(poisoned, np.zeros(5, dtype=np.int64))

    def test_predict_probs_valid_distribution(self):
        ensemble = Ensemble()
        for s in range(3):
            ensemble.add(make_model(s), s + 1.0)
        probs = ensemble.predict_probs(RNG.normal(size=(7, 4)))
        assert probs.shape == (7, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_weighted_average_matches_manual(self):
        ensemble = Ensemble()
        models = [make_model(s) for s in range(2)]
        ensemble.add(models[0], 1.0)
        ensemble.add(models[1], 3.0)
        x = RNG.normal(size=(5, 4))
        member = ensemble.member_probs(x)
        expected = 0.25 * member[0] + 0.75 * member[1]
        np.testing.assert_allclose(ensemble.predict_probs(x), expected, atol=1e-12)

    def test_single_member_equals_model(self):
        ensemble = Ensemble()
        model = make_model(0)
        ensemble.add(model, 5.0)
        x = RNG.normal(size=(4, 4))
        from repro.nn import predict_probs
        np.testing.assert_allclose(ensemble.predict_probs(x),
                                   predict_probs(model, x), atol=1e-12)

    def test_evaluate_and_member_accuracies(self):
        ensemble = Ensemble()
        ensemble.add(make_model(0))
        ensemble.add(make_model(1))
        x = RNG.normal(size=(10, 4))
        y = RNG.integers(0, 3, size=10)
        acc = ensemble.evaluate(x, y)
        assert acc == accuracy(ensemble.predict_probs(x), y)
        members = [accuracy(probs, y) for probs in ensemble.member_probs(x)]
        assert len(members) == 2
        assert all(0.0 <= member <= 1.0 for member in members)


class TestReplaceMember:
    def build(self, seeds=(0, 1, 2), alphas=(1.0, 2.0, 3.0)):
        ensemble = Ensemble()
        for seed, alpha in zip(seeds, alphas):
            ensemble.add(make_model(seed), alpha)
        return ensemble

    def test_swapped_ensemble_matches_fresh_construction(self):
        ensemble = self.build()
        replacement = make_model(9)
        retired = ensemble.replace_member(1, replacement, alpha=0.5)
        fresh = Ensemble()
        fresh.add(ensemble.models[0], 1.0)
        fresh.add(replacement, 0.5)
        fresh.add(ensemble.models[2], 3.0)
        x = RNG.normal(size=(6, 4))
        # Bit-identical, not just close: the swap must be exactly an
        # Eq. 16 vote over the new roster.
        np.testing.assert_array_equal(ensemble.predict_probs(x),
                                      fresh.predict_probs(x))
        assert retired is not replacement
        from repro.nn import predict_probs
        np.testing.assert_array_equal(predict_probs(retired, x),
                                      predict_probs(make_model(1), x))

    def test_negative_index_and_version_bump(self):
        ensemble = self.build()
        version = ensemble.membership_version
        ensemble.replace_member(-1, make_model(9), alpha=1.0)
        assert ensemble.membership_version == version + 1
        assert ensemble.alphas == [1.0, 2.0, 1.0]

    def test_validation_leaves_ensemble_untouched(self):
        ensemble = self.build()
        x = RNG.normal(size=(4, 4))
        before_probs = ensemble.predict_probs(x)
        version = ensemble.membership_version
        with pytest.raises(ValueError):
            ensemble.replace_member(0, make_model(9), alpha=0.0)
        with pytest.raises(ValueError):
            ensemble.replace_member(0, make_model(9), alpha=float("nan"))
        with pytest.raises(IndexError):
            ensemble.replace_member(3, make_model(9), alpha=1.0)
        assert ensemble.membership_version == version
        assert ensemble.alphas == [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(ensemble.predict_probs(x),
                                      before_probs)


class TestCombiners:
    @pytest.mark.parametrize("alphas, expected", [
        ([1.0, 1.0], [[0.5, 0.5]]),
        ([3.0, 1.0], [[0.75, 0.25]]),
    ], ids=["uniform", "weighted"])
    def test_alpha_vote(self, alphas, expected):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(alpha_vote(alphas, [a, b]), expected)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            alpha_vote([], [])

    def test_alpha_mismatch(self):
        with pytest.raises(ValueError):
            alpha_vote([1.0, 2.0], [np.ones((1, 2))])
