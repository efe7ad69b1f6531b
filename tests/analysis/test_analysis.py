"""Analysis utilities: bias/variance, heatmaps, curves, tables."""

import numpy as np
import pytest

from repro.analysis import (
    curve_table,
    epochs_to_reach,
    format_table,
    main_prediction,
    mean_offdiagonal_similarity,
    percent,
    render_curves,
    render_heatmap,
    speedup_over,
    squared_decomposition,
    zero_one_decomposition,
)
from repro.core.results import CurvePoint, FitResult
from repro.core.ensemble import Ensemble


def onehot_probs(predictions, k=3):
    out = np.zeros((len(predictions), k))
    out[np.arange(len(predictions)), predictions] = 1.0
    return out


class TestBiasVariance:
    def test_perfect_agreement_zero_variance(self):
        labels = np.array([0, 1, 2])
        member = onehot_probs(labels)
        point = zero_one_decomposition([member, member.copy()], labels)
        assert point.variance == 0.0
        assert point.bias == 0.0

    def test_wrong_main_prediction_is_bias(self):
        labels = np.array([0, 0])
        wrong = onehot_probs(np.array([1, 1]))
        point = zero_one_decomposition([wrong, wrong.copy()], labels)
        assert point.bias == 1.0
        assert point.variance == 0.0

    def test_disagreement_is_variance(self):
        labels = np.array([0])
        members = [onehot_probs(np.array([0])),
                   onehot_probs(np.array([1])),
                   onehot_probs(np.array([0]))]
        point = zero_one_decomposition(members, labels)
        assert point.bias == 0.0          # plurality is correct
        assert point.variance == pytest.approx(1 / 3)

    def test_main_prediction_plurality(self):
        members = [onehot_probs(np.array([0, 1])),
                   onehot_probs(np.array([0, 2])),
                   onehot_probs(np.array([1, 2]))]
        np.testing.assert_array_equal(main_prediction(members), [0, 2])

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            zero_one_decomposition([onehot_probs(np.array([0]))], np.array([0]))

    def test_squared_decomposition_values(self):
        labels = np.array([0])
        a = np.array([[0.8, 0.2, 0.0]])
        b = np.array([[0.6, 0.4, 0.0]])
        point = squared_decomposition([a, b], labels)
        mean = np.array([[0.7, 0.3, 0.0]])
        expected_bias = np.sqrt(((mean - np.array([[1, 0, 0]])) ** 2).sum())
        assert point.bias == pytest.approx(expected_bias)
        assert point.variance > 0


class TestHeatmap:
    def test_renders_all_cells(self):
        matrix = np.array([[1.0, 0.8, 0.2],
                           [0.8, 1.0, 0.5],
                           [0.2, 0.5, 1.0]])
        text = render_heatmap(matrix, title="demo")
        assert "demo" in text
        assert "0.80" in text and "0.20" in text
        assert text.count("--") == 3  # the diagonal

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((2, 3)))

    def test_mean_offdiagonal(self):
        matrix = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert mean_offdiagonal_similarity(matrix) == pytest.approx(0.4)


def make_result(method, points):
    result = FitResult(method=method, ensemble=Ensemble())
    result.curve = [CurvePoint(e, a, i + 1) for i, (e, a) in enumerate(points)]
    if points:
        result.final_accuracy = points[-1][1]
        result.total_epochs = points[-1][0]
    return result


class TestCurves:
    def test_epochs_to_reach(self):
        result = make_result("m", [(10, 0.5), (20, 0.7), (30, 0.8)])
        assert epochs_to_reach(result, 0.7) == 20
        assert epochs_to_reach(result, 0.9) is None

    def test_speedup(self):
        fast = make_result("fast", [(10, 0.8), (20, 0.85)])
        slow = make_result("slow", [(20, 0.6), (40, 0.8)])
        assert speedup_over(fast, slow) == pytest.approx(4.0)

    def test_speedup_none_when_unreachable(self):
        fast = make_result("fast", [(10, 0.5)])
        slow = make_result("slow", [(40, 0.9)])
        assert speedup_over(fast, slow) is None

    def test_render_curves_mentions_methods(self):
        a = make_result("alpha", [(10, 0.6), (20, 0.9)])
        text = render_curves([a], title="fig")
        assert "fig" in text and "alpha" in text

    def test_render_curves_empty(self):
        assert "no curves" in render_curves([make_result("x", [])])

    def test_curve_table(self):
        a = make_result("a", [(10, 0.6), (20, 0.9)])
        rows = curve_table([a], budgets=[10, 20, 30])
        assert rows[0]["@10"] == 0.6
        assert rows[0]["@20"] == 0.9
        assert np.isnan(rows[0]["@30"]) or rows[0]["@30"] == 0.9


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["edde", 0.5], ["x", 1.0]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_percent(self):
        assert percent(0.7438) == "74.38%"
        assert percent(float("nan")) == "—"

    def test_nan_cell_rendered_as_dash(self):
        text = format_table(["v"], [[float("nan")]])
        assert "—" in text
