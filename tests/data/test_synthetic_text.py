"""Synthetic text generator: ids, lengths, polarity structure."""

import numpy as np
import pytest

from repro.data.synthetic_text import (
    OOV_ID,
    PAD_ID,
    TextConfig,
    make_imdb_like,
    make_mr_like,
    make_text_dataset,
)


class TestShapesAndIds:
    def test_split_shapes(self):
        split = make_imdb_like(rng=0, train_size=60, test_size=30)
        assert split.train.x.shape == (60, 120)
        assert split.vocab_size == 5000
        assert split.num_classes == 2

    def test_ids_in_vocab(self):
        split = make_imdb_like(rng=0, train_size=60, test_size=30)
        assert split.train.x.min() >= 0
        assert split.train.x.max() < split.vocab_size

    def test_padding_at_tail(self):
        config = TextConfig(vocab_size=500, max_length=30, min_length=5,
                            train_size=40, test_size=10)
        split = make_text_dataset(config, rng=1)
        for row in split.train.x:
            content = np.flatnonzero(row != PAD_ID)
            if len(content) < len(row):
                # once padding starts, it continues to the end
                assert row[content.max() + 1:].max(initial=PAD_ID) == PAD_ID

    def test_mr_is_shorter(self):
        imdb = make_imdb_like(rng=0, train_size=20, test_size=10)
        mr = make_mr_like(rng=0, train_size=20, test_size=10)
        assert mr.train.x.shape[1] < imdb.train.x.shape[1]

    def test_labels_binary_and_balanced(self):
        split = make_imdb_like(rng=0, train_size=100, test_size=10)
        counts = split.train.class_counts()
        assert counts.sum() == 100
        assert abs(counts[0] - counts[1]) <= 1

    def test_deterministic(self):
        a = make_mr_like(rng=9, train_size=25, test_size=10)
        b = make_mr_like(rng=9, train_size=25, test_size=10)
        np.testing.assert_array_equal(a.train.x, b.train.x)

    def test_vocab_too_small_raises(self):
        with pytest.raises(ValueError):
            make_text_dataset(TextConfig(vocab_size=100, polar_vocab=60),
                              rng=0)


class TestPolarityStructure:
    def test_polar_tokens_predict_label(self):
        """Positive docs must contain more positive-range tokens."""
        config = TextConfig(vocab_size=500, max_length=40, min_length=20,
                            polar_vocab=40, train_size=200, test_size=10)
        split = make_text_dataset(config, rng=2)
        pos_lo, pos_hi = 2, 2 + config.polar_vocab
        neg_lo, neg_hi = pos_hi, pos_hi + config.polar_vocab
        x, y = split.train.x, split.train.y
        pos_counts = ((x >= pos_lo) & (x < pos_hi)).sum(axis=1)
        neg_counts = ((x >= neg_lo) & (x < neg_hi)).sum(axis=1)
        signal = np.where(pos_counts > neg_counts, 1, 0)
        agreement = (signal == y).mean()
        assert agreement > 0.8

    def test_textcnn_learns_it(self, tiny_text_split):
        from repro.core.trainer import TrainingConfig, train_model
        from repro.models import TextCNN
        from repro.nn import accuracy, predict_probs

        model = TextCNN(vocab_size=300, num_classes=2, embedding_dim=8,
                        filters_per_width=4, dropout=0.2, rng=0)
        train_model(model, tiny_text_split.train,
                    TrainingConfig(epochs=6, lr=0.1, batch_size=32,
                                   schedule="constant"), rng=0)
        test = tiny_text_split.test
        assert accuracy(predict_probs(model, test.x), test.y) > 0.65
