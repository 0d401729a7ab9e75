import numpy as np
import pytest

from conftest import checkpoint_meta, read_checkpoint, write_checkpoint
from pragref.colorspace import Color
from pragref.corpus import build_vocab, preprocess, synth_corpus
from pragref.errors import require_count
from pragref.listener import ListenerModel, l0_score, train_l0
from pragref.speaker import SpeakerModel, s0_log_prob
from pragref.training import TrainConfig, load_model, same_length_batches, save_model

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
        save_model(model, tmp_path / "new.npz")
        arrays, meta = read_checkpoint(tmp_path / "new.npz")
        config = meta["config"]
        assert set(config) == {"model", "vocab", "embed_dim", "hidden_dim"}
        write_checkpoint(tmp_path / "old.npz", arrays,
                         checkpoint_meta(arrays, {**config, "feature_dim": 54}))
        assert np.array_equal(_score(load_model(cls, tmp_path / "old.npz")), _score(model))

    @pytest.mark.parametrize("cls,name", [(ListenerModel, "out_w"),
                                          (SpeakerModel, "encoder.w_x")])
    def test_other_feature_width_raises(self, cls, name, tmp_path):
        save_model(_model(cls), tmp_path / "m.npz")
        arrays, meta = read_checkpoint(tmp_path / "m.npz")
        # the arrays of a model over 3 features
        if cls is ListenerModel:
            arrays["out_w"], arrays["out_b"] = arrays["out_w"][:, :12], arrays["out_b"][:12]
        else:
            arrays["encoder.w_x"] = arrays["encoder.w_x"][:3]
        write_checkpoint(tmp_path / "narrow.npz", arrays,
                         checkpoint_meta(arrays, {**meta["config"], "feature_dim": 3}))
        with pytest.raises(ValueError, match=f"parameter '{name}' has shape"):
            load_model(cls, tmp_path / "narrow.npz")


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


def _poisoned(arrays: dict, value: float) -> dict:
    out_b = arrays["out_b"].copy()
    out_b[-1] = value
    return {**arrays, "out_b": out_b}


# (arrays, meta) of a good checkpoint -> (arrays, meta) of a malformed one,
# and the text its ValueError must hold.
MALFORMED = {
    "no_meta": (lambda a, m: (a, None), "'__meta__'"),
    "meta_not_object": (lambda a, m: (a, [m]), "not a JSON object"),
    "no_arrays_entry": (lambda a, m: (a, _without(m, "arrays")), "no 'arrays' dict"),
    "no_config_entry": (lambda a, m: (a, _without(m, "config")), "no 'config' dict"),
    "array_missing_from_file": (lambda a, m: (_without(a, "out_b"), m),
                                "array 'out_b' is missing"),
    "wrong_model_kind": (lambda a, m: (a, {**m, "config": {**m["config"], "model": "rsa"}}),
                         "not a .* checkpoint: 'rsa'"),
    "no_vocab": (lambda a, m: (a, {**m, "config": _without(m["config"], "vocab")}),
                 "no 'vocab' list"),
    "vocab_not_list": (lambda a, m: (a, {**m, "config": {**m["config"], "vocab": "abc"}}),
                       "no 'vocab' list"),
    "no_hidden_dim": (lambda a, m: (a, {**m, "config": _without(m["config"], "hidden_dim")}),
                      "hidden_dim must be an integer of at least 1, got None"),
    "string_hidden_dim": (lambda a, m: (a, {**m, "config": {**m["config"], "hidden_dim": "3"}}),
                          "hidden_dim must be an integer of at least 1, got '3'"),
    "zero_embed_dim": (lambda a, m: (a, {**m, "config": {**m["config"], "embed_dim": 0}}),
                       "embed_dim must be an integer of at least 1, got 0"),
    "nan_parameter": (lambda a, m: (_poisoned(a, np.nan), m), "'out_b' has non-finite"),
    "inf_parameter": (lambda a, m: (_poisoned(a, -np.inf), m), "'out_b' has non-finite"),
}


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("cls", [ListenerModel, SpeakerModel])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_naming_the_fault(self, cls, case, tmp_path):
        save_model(_model(cls), tmp_path / "good.npz")
        breaks, message = MALFORMED[case]
        write_checkpoint(tmp_path / "bad.npz", *breaks(*read_checkpoint(tmp_path / "good.npz")))
        with pytest.raises(ValueError, match=message):
            load_model(cls, tmp_path / "bad.npz")

    @pytest.mark.parametrize("content", ["npy", "empty", "text"])
    def test_not_an_npz_archive_rejected(self, content, tmp_path):
        path = tmp_path / "other.npz"
        with open(path, "wb") as fh:
            if content == "npy":
                np.save(fh, np.zeros(3))
            elif content == "text":
                fh.write(b"not a checkpoint")
        with pytest.raises(ValueError, match="not an npz archive"):
            load_model(ListenerModel, path)
