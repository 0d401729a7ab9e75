import numpy as np
import pytest

from pragref.colorspace import Color
from pragref.corpus import build_vocab, preprocess, synth_corpus
from pragref.errors import require_count
from pragref.listener import ListenerModel, l0_score, train_l0
from pragref.nnsubstrate import load_checkpoint, save_checkpoint
from pragref.speaker import SpeakerModel, s0_log_prob
from pragref.training import TrainConfig, same_length_batches

COLORS = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))


class TestCounts:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3)])
    def test_accepts_positive_integers(self, value):
        require_count("k", value)

    @pytest.mark.parametrize("value", [0, -2, 2.5, 1.0, True, "3", None])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="k must be an integer of at least 1"):
            require_count("k", value)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [{"epochs": 0}, {"epochs": -1}, {"epochs": 2.5},
                                        {"batch_size": 0}, {"batch_size": 1.0},
                                        {"batch_size": -4}])
    def test_bad_counts_raise(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults_and_ones_construct(self):
        assert (TrainConfig().epochs, TrainConfig().batch_size) == (10, 32)
        TrainConfig(epochs=1, batch_size=1)

    def test_batch_of_one_trains(self):
        trials = synth_corpus(8, np.random.default_rng(0))
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, np.random.default_rng(0), embed_dim=4, hidden_dim=3)
        report = train_l0(model, trials, trials, TrainConfig(epochs=1, batch_size=1))
        assert report.best_epoch == 1


class TestSameLengthBatches:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_raises(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            next(same_length_batches(np.array([2, 2, 3]), np.arange(3), batch_size))

    def test_batches_cover_rows_once(self):
        lengths = np.array([3, 1, 3, 3, 1, 2, 3])
        batches = list(same_length_batches(lengths, np.arange(7)[::-1], 2))
        assert sorted(np.concatenate(batches).tolist()) == list(range(7))
        assert all(len(b) <= 2 and len(set(lengths[b])) == 1 for b in batches)


def _model(cls):
    vocab = build_vocab([["dark", "dark", "blue", "blue"]])
    return cls.create(vocab, np.random.default_rng(2), embed_dim=4, hidden_dim=3)


def _score(model):
    if isinstance(model, ListenerModel):
        return l0_score(model, ["dark", "blue"], COLORS)
    return s0_log_prob(model, ["dark", "blue", "</s>"], COLORS, 1)


class TestCheckpointDims:
    @pytest.mark.parametrize("cls", [ListenerModel, SpeakerModel])
    def test_config_with_feature_dim_loads(self, cls, tmp_path):
        # checkpoints written while the feature width was an option record it
        model = _model(cls)
        model.save(tmp_path / "new.npz")
        arrays, config = load_checkpoint(tmp_path / "new.npz")
        assert set(config) == {"model", "vocab", "embed_dim", "hidden_dim"}
        save_checkpoint(tmp_path / "old.npz", arrays, {**config, "feature_dim": 54})
        assert np.array_equal(_score(cls.load(tmp_path / "old.npz")), _score(model))

    @pytest.mark.parametrize("cls,name", [(ListenerModel, "out_w"),
                                          (SpeakerModel, "encoder.w_x")])
    def test_other_feature_width_raises(self, cls, name, tmp_path):
        _model(cls).save(tmp_path / "m.npz")
        arrays, config = load_checkpoint(tmp_path / "m.npz")
        # the arrays of a model over 3 features
        if cls is ListenerModel:
            arrays["out_w"], arrays["out_b"] = arrays["out_w"][:, :12], arrays["out_b"][:12]
        else:
            arrays["encoder.w_x"] = arrays["encoder.w_x"][:3]
        save_checkpoint(tmp_path / "narrow.npz", arrays, {**config, "feature_dim": 3})
        with pytest.raises(ValueError, match=f"parameter '{name}' has shape"):
            cls.load(tmp_path / "narrow.npz")
