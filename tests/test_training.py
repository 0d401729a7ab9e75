import numpy as np
import pytest

from conftest import checkpoint_meta, read_checkpoint, write_checkpoint
from pragref.colorspace import Color
from pragref.corpus import build_vocab, preprocess, synth_corpus
from pragref.errors import NonFiniteDevScore, require_count
from pragref import listener, nnsubstrate, speaker, training
from pragref.listener import ListenerModel, l0_score, train_l0
from pragref.nnsubstrate import Adam, Parameter
from pragref.speaker import SpeakerModel, s0_log_prob
from pragref.training import (
    TrainConfig,
    fit,
    load_model,
    restore_params,
    same_length_batches,
    save_model,
    snapshot_params,
)

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


class TestOneScanPerStep:
    """Each training step reads each gradient's self-dot once: the optimizer's
    step() clips, checks and updates, and fit scans nothing itself."""

    @pytest.mark.parametrize("cls,train_fn,module,opt_name,mode", [
        (ListenerModel, train_l0, listener, "Adadelta", "listener"),
        (SpeakerModel, speaker.train_s0, speaker, "Adam", "speaker")])
    def test_self_dots_equal_steps_times_parameters(self, monkeypatch, cls, train_fn, module,
                                                    opt_name, mode):
        trials = synth_corpus(12, np.random.default_rng(5))
        vocab = build_vocab([preprocess(t.combined_text(), mode) for t in trials])
        model = cls.create(vocab, np.random.default_rng(0), embed_dim=4, hidden_dim=3)
        dots, steps = [], []
        self_dot = nnsubstrate._self_dot
        monkeypatch.setattr(nnsubstrate, "_self_dot", lambda g: dots.append(1) or self_dot(g))

        class Counted(getattr(module, opt_name)):
            def step(self):
                steps.append(1)
                return super().step()

        monkeypatch.setattr(module, opt_name, Counted)
        train_fn(model, trials, trials[:4], TrainConfig(epochs=1, batch_size=4))
        assert len(steps) > 1
        assert len(dots) == len(steps) * len(model.parameters())


class TestIdBlocks:
    """Each batch's id block holds its rows' ids stacked, in the order of fit's
    seeded permutation and same_length_batches."""

    @pytest.mark.parametrize("cls,train_fn,module,loss_name,ids_at,row_ids,mode", [
        (ListenerModel, train_l0, listener, "_l0_losses_and_grads", 0,
         listener.trial_listener_ids, "listener"),
        (SpeakerModel, speaker.train_s0, speaker, "_s0_losses_and_grads", 1,
         speaker.trial_speaker_ids, "speaker")])
    def test_each_block_stacks_its_batch_rows(self, monkeypatch, cls, train_fn, module,
                                              loss_name, ids_at, row_ids, mode):
        trials = synth_corpus(40, np.random.default_rng(8))
        vocab = build_vocab([preprocess(t.combined_text(), mode) for t in trials])
        model = cls.create(vocab, np.random.default_rng(0), embed_dim=4, hidden_dim=3)
        config = TrainConfig(epochs=2, batch_size=4, seed=3)
        rows = [row_ids(model, t) for t in trials]
        lengths = np.array([len(r) for r in rows])
        order_rng = np.random.default_rng(config.seed)
        want = [np.array([rows[i] for i in batch]) for _ in range(config.epochs)
                for batch in same_length_batches(lengths, order_rng.permutation(len(rows)),
                                                 config.batch_size)]
        blocks = []
        losses_and_grads = getattr(module, loss_name)

        def spy(model, *args):
            blocks.append(args[ids_at].copy())
            return losses_and_grads(model, *args)

        monkeypatch.setattr(module, loss_name, spy)
        train_fn(model, trials, trials[:4], config)
        assert len(blocks) == len(want) and len(set(lengths.tolist())) > 1
        for got, rows_of_batch in zip(blocks, want):
            assert got.dtype == np.int64 and np.array_equal(got, rows_of_batch)


class TestFit:
    """fit on a stub model: one parameter, a constant gradient, a scripted dev score."""

    @staticmethod
    def _fit(keys):
        p = Parameter("w", np.zeros(2))

        def batch_grad(rows):
            p.grad = np.ones(2)
            return np.ones(len(rows)), len(rows)

        scores = iter(keys)
        return fit(Adam([p]), np.array([1, 1, 2]), batch_grad, lambda: (next(scores), {}),
                   TrainConfig(epochs=len(keys), batch_size=2))

    def test_keeps_best_epoch(self):
        report = self._fit([0.5, 0.75, 0.25])
        assert report.best_epoch == 2 and report.best().train_loss == 1.0
        assert [e.epoch for e in report.epochs] == [1, 2, 3]

    @pytest.mark.parametrize("keys,epoch", [([-np.inf], 1), ([np.nan, np.nan], 1),
                                            ([0.5, np.nan], 2), ([0.5, 0.6, -np.inf], 3),
                                            ([np.inf], 1)])
    def test_non_finite_dev_score_raises_naming_epoch(self, keys, epoch):
        # a run whose keys never beat -inf must not end holding the untrained
        # parameters with best_epoch -1 and no error
        with pytest.raises(NonFiniteDevScore, match=f"^epoch {epoch} gave the dev score"):
            self._fit(keys)


class TestRestoreInPlace:
    """restore_params copies into each parameter's own array."""

    @staticmethod
    def _params():
        rng = np.random.default_rng(0)
        return [Parameter("w", rng.standard_normal((3, 4))), Parameter("b", rng.standard_normal(4))]

    def test_fit_keeps_each_array(self):
        params = self._params()
        arrays = [p.data for p in params]
        seen = []

        def batch_grad(rows):
            for p in params:
                p.grad = np.ones(p.data.shape)
            return np.ones(len(rows)), len(rows)

        def dev():  # epoch 2 is best
            seen.append(snapshot_params(params))
            return [0.5, 0.75, 0.25][len(seen) - 1], {}

        report = fit(Adam(params), np.array([1, 1, 2]), batch_grad, dev,
                     TrainConfig(epochs=3, batch_size=2))
        assert report.best_epoch == 2
        for p, data in zip(params, arrays):
            assert p.data is data
            assert np.array_equal(p.data, seen[1][p.name])

    @pytest.mark.parametrize("cls", [ListenerModel, SpeakerModel])
    def test_load_model_keeps_each_array(self, cls, tmp_path, monkeypatch):
        mode = "listener" if cls is ListenerModel else "speaker"
        vocab = build_vocab([preprocess(t.combined_text(), mode)
                             for t in synth_corpus(6, np.random.default_rng(1))])
        saved = cls.create(vocab, np.random.default_rng(2), embed_dim=4, hidden_dim=3)
        save_model(saved, tmp_path / "m.npz")
        before = []

        def spy(params, snapshot):
            before.extend(p.data for p in params)
            restore_params(params, snapshot)

        monkeypatch.setattr(training, "restore_params", spy)
        loaded = load_model(cls, tmp_path / "m.npz")
        assert len(before) == len(loaded.parameters())
        for p, data, q in zip(loaded.parameters(), before, saved.parameters()):
            assert p.data is data
            assert np.array_equal(p.data, q.data)

    @pytest.mark.parametrize("fault", ["non-finite", "shape", "missing", "unexpected"])
    def test_rejected_snapshot_leaves_every_parameter(self, fault):
        params = self._params()
        arrays = [p.data for p in params]
        values = [p.data.copy() for p in params]
        snapshot = {p.name: p.data + 1.0 for p in params}
        if fault == "non-finite":
            snapshot["b"][2] = np.inf  # the last parameter, after "w" passed
        elif fault == "shape":
            snapshot["b"] = np.zeros(5)
        elif fault == "missing":
            del snapshot["b"]
        else:
            snapshot["c"] = np.zeros(1)
        with pytest.raises(ValueError):
            restore_params(params, snapshot)
        for p, data, value in zip(params, arrays, values):
            assert p.data is data
            assert np.array_equal(p.data, value)


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
    # the model's vocabulary is <unk> <s> </s> blue dark
    "vocab_token_not_string": (
        lambda a, m: (a, {**m, "config": {**m["config"],
                                          "vocab": ["<unk>", "<s>", "</s>", 7, "dark"]}}),
        "vocabulary token 3 is not a string: 7"),
    "vocab_token_repeats": (
        lambda a, m: (a, {**m, "config": {**m["config"],
                                          "vocab": ["<unk>", "<s>", "</s>", "dark", "dark"]}}),
        "vocabulary token 'dark' repeats: ids 3 and 4"),
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
