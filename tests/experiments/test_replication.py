"""Seed statistics the grid aggregate folds: sample std and the z-screen."""

import numpy as np
import pytest

from repro.experiments.grid import sample_std, standard_error, z_screen


class TestStd:
    def test_sample_std_uses_ddof_1(self):
        accs = [0.7, 0.8, 0.9]
        assert sample_std(accs) == pytest.approx(float(np.std(accs, ddof=1)))

    def test_single_seed_std_is_zero(self):
        assert sample_std([0.8]) == 0.0


def better(a, b) -> bool:
    return z_screen(float(np.mean(a)), standard_error(a),
                    float(np.mean(b)), standard_error(b))


class TestSignificance:
    def test_clear_separation(self):
        a = [0.9, 0.91, 0.89]
        b = [0.5, 0.52, 0.48]
        assert better(a, b)
        assert not better(b, a)

    def test_overlapping_not_significant(self):
        a = [0.70, 0.80]
        b = [0.72, 0.78]
        assert not better(a, b)
