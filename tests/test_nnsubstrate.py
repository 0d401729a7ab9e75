import math

import numpy as np
import pytest

from conftest import checkpoint_meta, read_checkpoint, write_checkpoint
from pragref import listener, nnsubstrate, speaker
from pragref.corpus import build_vocab, preprocess, synth_corpus
from pragref.errors import IndexOutOfRange, NonFiniteGradient
from pragref.nnsubstrate import (
    OPT_BLOCK,
    Adadelta,
    Adam,
    LstmCellParams,
    Parameter,
    Tensor,
    check_finite_gradients,
    clip_global_norm,
    concat,
    embed,
    fd_gradient,
    gradcheck_rel_error,
    lstm_step,
    quad_scores,
    run_lstm,
    softmax_xent,
    zero_gradients,
)
from pragref.training import TrainConfig, load_model, save_model

TOL = 1e-4


def assert_grads_match(build_loss, arrays: dict[str, np.ndarray], max_coords=40,
                       seed=0):
    """Compare backward() gradients to central differences on each input array."""
    params = {k: Parameter(k, v) for k, v in arrays.items()}
    loss = build_loss(params)
    loss.backward()
    rng = np.random.default_rng(seed)
    for k, arr in arrays.items():
        n = arr.size
        idx = rng.choice(n, size=min(n, max_coords), replace=False)
        numeric = fd_gradient(lambda: float(build_loss(
            {k2: Parameter(k2, v2) for k2, v2 in arrays.items()}).data),
            arr, indices=idx)
        rel = gradcheck_rel_error(params[k].grad, numeric, indices=idx)
        assert rel < TOL, f"{k}: relative error {rel}"


class TestOpGradients:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(1)
        arrays = {"a": rng.standard_normal((4, 5)), "b": rng.standard_normal((5,)),
                  "c": rng.standard_normal((4, 5))}
        assert_grads_match(
            lambda p: ((p["a"] + p["b"]) * p["c"]).sum(), arrays)

    def test_matmul_tanh_sigmoid(self):
        rng = np.random.default_rng(2)
        arrays = {"x": rng.standard_normal((3, 4)), "w": rng.standard_normal((4, 6))}
        assert_grads_match(
            lambda p: (p["x"] @ p["w"]).tanh().sigmoid().sum(), arrays)

    def test_narrow_reshape_concat(self):
        rng = np.random.default_rng(3)
        arrays = {"x": rng.standard_normal((2, 8)), "y": rng.standard_normal((2, 3))}

        def loss(p):
            left = p["x"].narrow(1, 1, 3)
            joined = concat([left, p["y"]], axis=1).reshape(2, 6)
            return (joined * joined).sum()

        assert_grads_match(loss, arrays)

    def test_embed_gradients(self):
        rng = np.random.default_rng(4)
        arrays = {"table": rng.standard_normal((7, 3))}
        ids = np.array([0, 3, 3, 6])
        assert_grads_match(lambda p: embed(ids, p["table"]).tanh().sum(), arrays)

    def test_softmax_xent_gradients(self):
        rng = np.random.default_rng(5)
        arrays = {"logits": rng.standard_normal((6, 4))}
        targets = np.array([0, 1, 2, 3, 1, 2])

        def loss(p):
            losses, _ = softmax_xent(p["logits"], targets)
            return losses.sum()

        assert_grads_match(loss, arrays)

    def test_quad_scores_gradients(self):
        rng = np.random.default_rng(6)
        feats = rng.uniform(-1, 1, (2, 3, 5))
        arrays = {"mu": rng.standard_normal((2, 5)),
                  "sigma": rng.standard_normal((2, 5, 5))}

        def loss(p):
            losses, _ = softmax_xent(quad_scores(feats, p["mu"], p["sigma"]),
                                     np.array([0, 2]))
            return losses.sum()

        assert_grads_match(loss, arrays)

    def test_lstm_step_gradients(self):
        rng = np.random.default_rng(7)
        din, hid = 3, 4
        arrays = {
            "w_x": rng.standard_normal((din, 4 * hid)) * 0.5,
            "w_h": rng.standard_normal((hid, 4 * hid)) * 0.5,
            "bias": rng.standard_normal(4 * hid) * 0.5,
            "x": rng.standard_normal((2, din)),
            "h": rng.standard_normal((2, hid)),
            "c": rng.standard_normal((2, hid)),
        }

        def loss(p):
            cell = LstmCellParams(p["w_x"], p["w_h"], p["bias"])
            h2, c2 = lstm_step(p["x"], p["h"], p["c"], cell)
            return (h2 * h2).sum() + c2.sum()

        assert_grads_match(loss, arrays)


class TestForwardSemantics:
    def test_embed_row_lookup(self):
        table = Parameter("t", np.eye(4))
        out = embed(np.array([0]), table)
        assert np.allclose(out.data, [[1, 0, 0, 0]])

    def test_embed_out_of_range(self):
        table = Parameter("t", np.eye(4))
        with pytest.raises(IndexOutOfRange):
            embed(np.array([4]), table)

    def test_embed_repeated_id_grad_sums(self):
        table = Parameter("t", np.zeros((3, 2)))
        out = embed(np.array([1, 1]), table)
        out.sum().backward()
        assert np.allclose(table.grad, [[0, 0], [2, 2], [0, 0]])

    def test_softmax_uniform(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        loss, probs = softmax_xent(logits, [1])
        assert np.allclose(probs, 1 / 3)
        assert float(loss.data[0]) == pytest.approx(math.log(3))

    def test_softmax_confident(self):
        loss, _ = softmax_xent(Tensor(np.array([[40.0, 0.0, 0.0]])), [0])
        assert float(loss.data[0]) < 1e-12

    def test_lstm_zero_params_zero_state(self):
        cell = LstmCellParams(Parameter("wx", np.zeros((2, 12))),
                              Parameter("wh", np.zeros((3, 12))),
                              Parameter("b", np.zeros(12)))
        h2, c2 = lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                           Tensor(np.zeros((1, 3))), cell)
        assert np.allclose(h2.data, 0.0)
        assert np.allclose(c2.data, 0.0)

    def test_lstm_matches_hand_recurrence(self):
        # 1-dim cell, scalar hand computation of the standard recurrence
        wx = np.array([[0.5, -0.3, 0.2, 0.7]])
        wh = np.array([[0.1, 0.4, -0.2, 0.3]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        x, h, c = 0.8, -0.4, 0.6

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        pre = [x * wx[0, j] + h * wh[0, j] + b[j] for j in range(4)]
        i, f, o = sig(pre[0]), sig(pre[1]), sig(pre[2])
        g = math.tanh(pre[3])
        c2_hand = f * c + i * g
        h2_hand = o * math.tanh(c2_hand)

        cell = LstmCellParams(Parameter("wx", wx), Parameter("wh", wh),
                              Parameter("b", b))
        h2, c2 = lstm_step(Tensor(np.array([[x]])), Tensor(np.array([[h]])),
                           Tensor(np.array([[c]])), cell)
        assert abs(float(h2.data[0, 0]) - h2_hand) < 1e-12
        assert abs(float(c2.data[0, 0]) - c2_hand) < 1e-12

    def test_diamond_graph_fanout_sums(self):
        x = Parameter("x", np.array([0.7]))
        a = x.tanh()
        d = a * a + a.sigmoid()
        d.sum().backward()
        t = math.tanh(0.7)
        s = 1.0 / (1.0 + math.exp(-t))
        expect = (2 * t + s * (1 - s)) * (1 - t * t)
        assert float(x.grad[0]) == pytest.approx(expect, rel=1e-12)

    def test_run_lstm_shapes(self):
        rng = np.random.default_rng(0)
        cell = LstmCellParams.create("enc", 4, 5, rng)
        xs = [Tensor(rng.standard_normal((3, 4))) for _ in range(6)]
        h, c = run_lstm(xs, cell, batch=3)
        assert h.shape == (3, 5)
        assert c.shape == (3, 5)

    @pytest.mark.parametrize("shapes,name", [
        (((2, 12), (3, 8), (12,)), "wh"),
        (((2, 8), (3, 12), (12,)), "wx"),
        (((2, 12), (3, 12), (8,)), "b"),
    ])
    def test_lstm_cell_weights_must_agree(self, shapes, name):
        wx, wh, b = (Parameter(n, np.zeros(s)) for n, s in zip(("wx", "wh", "b"), shapes))
        with pytest.raises(ValueError, match=f"parameter '{name}'"):
            LstmCellParams(wx, wh, b)

    def test_lstm_cell_dims_come_from_weights(self):
        cell = LstmCellParams.create("enc", 4, 5, np.random.default_rng(0))
        assert (cell.input_dim, cell.hidden_dim) == (4, 5)

    def test_forget_bias_initialized_positive(self):
        cell = LstmCellParams.create("enc", 4, 5, np.random.default_rng(0))
        assert np.allclose(cell.bias.data[5:10], 1.0)
        assert np.allclose(cell.bias.data[:5], 0.0)


class TestOptimizers:
    def test_adam_first_step_magnitude(self):
        # g=1 everywhere: m_hat=1, v_hat=1 -> update = -lr/(1+eps) ~ -0.004
        p = Parameter("p", np.zeros(5))
        p.grad = np.ones(5)
        Adam([p]).step()
        assert np.allclose(p.data, -0.004, atol=1e-9)

    def test_zero_gradient_zero_update(self):
        for opt_cls in (Adam, Adadelta):
            p = Parameter("p", np.full(3, 1.5))
            p.grad = np.zeros(3)
            opt_cls([p]).step()
            assert np.allclose(p.data, 1.5)

    @pytest.mark.parametrize("opt_cls", [Adam, Adadelta])
    def test_quadratic_bowl_convergence(self, opt_cls):
        target = np.array([0.3, -0.2, 0.5])
        p = Parameter("p", np.zeros(3))
        opt = opt_cls([p])
        for _ in range(2000):
            p.grad = 2 * (p.data - target)
            opt.step()
        assert np.max(np.abs(p.data - target)) < 1e-3

    def test_non_finite_gradient_raises(self):
        p = Parameter("p", np.zeros(2))
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteGradient):
            Adam([p]).step()
        with pytest.raises(NonFiniteGradient):
            clip_global_norm([p])

    def test_clip_global_norm(self):
        p = Parameter("p", np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_global_norm([p])
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)
        zero_gradients([p])
        assert p.grad is None

    def test_clip_survives_overflowing_squares(self):
        p, q = Parameter("p", np.zeros(3)), Parameter("q", np.zeros(2))
        p.grad, q.grad = np.array([1e200, 1.0, -2.0]), np.array([3e199, -4e199])
        norm = clip_global_norm([p, q])
        assert np.isfinite(norm) and norm == pytest.approx(1e200 * np.sqrt(1.25))
        clipped = np.concatenate([p.grad, q.grad])
        assert np.linalg.norm(clipped) == pytest.approx(5.0)
        assert np.all(clipped != 0.0)


def _checkpoint_model():
    vocab = build_vocab([["a", "a", "b", "b"]])
    return listener.ListenerModel.create(vocab, np.random.default_rng(1), embed_dim=4,
                                         hidden_dim=3)


class TestCheckpoints:
    """The file layout of `training.save_model`, read and written from raw parts."""

    def test_round_trip(self, tmp_path):
        model = _checkpoint_model()
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded, meta = read_checkpoint(path)
        config = {"model": "listener", "vocab": ["<unk>", "<s>", "</s>", "a", "b"],
                  "embed_dim": 4, "hidden_dim": 3}
        assert meta == checkpoint_meta(loaded, config)
        assert set(loaded) == {p.name for p in model.parameters()}
        for p in model.parameters():
            assert loaded[p.name].dtype == np.float64
            assert np.array_equal(loaded[p.name], p.data)
        # and a file written from raw parts loads with exactly those arrays
        shifted = {k: v + 1.0 for k, v in loaded.items()}
        write_checkpoint(tmp_path / "raw.npz", shifted, checkpoint_meta(shifted, config))
        for p in load_model(listener.ListenerModel, tmp_path / "raw.npz").parameters():
            assert np.array_equal(p.data, shifted[p.name])

    def test_path_without_suffix(self, tmp_path):
        model = _checkpoint_model()
        path = tmp_path / "model"
        save_model(model, path)
        assert path.exists() and not (tmp_path / "model.npz").exists()
        loaded = load_model(listener.ListenerModel, path)
        assert np.array_equal(loaded.out_w.data, model.out_w.data)

    def test_format_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.array('{"format_version": 999, "arrays": {}}'))
        with pytest.raises(ValueError, match="format"):
            load_model(listener.ListenerModel, path)


# -- the lean training step against the composed graph and textbook formulas ------


def composed_lstm_step(x, h, c, p):
    """The LSTM step as separate graph nodes: matmuls, adds, narrows, gates."""
    n = p.hidden_dim
    gates = x @ p.w_x + h @ p.w_h + p.bias
    i = gates.narrow(-1, 0, n).sigmoid()
    f = gates.narrow(-1, n, n).sigmoid()
    o = gates.narrow(-1, 2 * n, n).sigmoid()
    g = gates.narrow(-1, 3 * n, n).tanh()
    c2 = f * c + i * g
    h2 = o * c2.tanh()
    return h2, c2


class ReferenceAdam:
    """Adam as out-of-place array expressions."""

    def __init__(self, params, lr=0.004, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self):
        check_finite_gradients(self.params)
        self.t += 1
        for p in self.params:
            if p.grad is None:
                continue
            m = self.m.get(p.name, np.zeros_like(p.data))
            v = self.v.get(p.name, np.zeros_like(p.data))
            self.m[p.name] = m = self.beta1 * m + (1 - self.beta1) * p.grad
            self.v[p.name] = v = self.beta2 * v + (1 - self.beta2) * p.grad ** 2
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceAdadelta:
    """ADADELTA as out-of-place array expressions."""

    def __init__(self, params, lr=0.2, rho=0.95, eps=1e-6):
        self.params, self.lr, self.rho, self.eps = params, lr, rho, eps
        self.sq_grad, self.sq_update = {}, {}

    def step(self):
        check_finite_gradients(self.params)
        for p in self.params:
            if p.grad is None:
                continue
            sg = self.sq_grad.get(p.name, np.zeros_like(p.data))
            su = self.sq_update.get(p.name, np.zeros_like(p.data))
            self.sq_grad[p.name] = sg = self.rho * sg + (1 - self.rho) * p.grad ** 2
            update = -np.sqrt(su + self.eps) / np.sqrt(sg + self.eps) * p.grad
            self.sq_update[p.name] = self.rho * su + (1 - self.rho) * update ** 2
            p.data += self.lr * update


def _lstm_arrays(rng, batch, din, hid):
    return {
        "x": rng.standard_normal((batch, din)),
        "h": rng.standard_normal((batch, hid)),
        "c": rng.standard_normal((batch, hid)) * 2.0,
        "w_x": rng.standard_normal((din, 4 * hid)) * 0.7,
        "w_h": rng.standard_normal((hid, 4 * hid)) * 0.7,
        "bias": rng.standard_normal(4 * hid),
    }


def _run_steps(step_fn, arrays, weights, steps, use_c):
    """Chain `steps` LSTM steps on fresh Parameters; every h (and the last c,
    when use_c) feeds a weighted sum. Returns the outputs and the Parameters.

    As in the models, c has one consumer outside its step: a second one would
    make the sum of its gradients depend on the order of three terms.
    """
    ps = {k: Parameter(k, v.copy()) for k, v in arrays.items()}
    cell = LstmCellParams(ps["w_x"], ps["w_h"], ps["bias"])
    h, c = ps["h"], ps["c"]
    outs, loss = [], None
    for t in range(steps):
        h, c = step_fn(ps["x"], h, c, cell)
        outs += [h.data.copy(), c.data.copy()]
        term = (h * Tensor(weights[t])).sum()
        loss = term if loss is None else loss + term
    if use_c:
        loss = loss + (c * Tensor(weights[0] ** 2)).sum()
    loss.backward()
    return outs, ps


class TestFusedLstmStep:
    @pytest.mark.parametrize("batch,din,hid,steps,use_c", [
        (1, 1, 1, 1, True), (5, 3, 4, 1, False), (7, 6, 5, 3, True), (32, 20, 16, 4, False)])
    def test_values_and_six_gradients_equal_composed(self, batch, din, hid, steps, use_c):
        rng = np.random.default_rng(batch * 100 + hid)
        arrays = _lstm_arrays(rng, batch, din, hid)
        weights = rng.standard_normal((steps, batch, hid))
        fused_out, fused = _run_steps(lstm_step, arrays, weights, steps, use_c)
        ref_out, ref = _run_steps(composed_lstm_step, arrays, weights, steps, use_c)
        for a, b in zip(fused_out, ref_out):
            assert np.array_equal(a, b)
        for name in arrays:
            assert fused[name].grad is not None
            assert np.array_equal(fused[name].grad, ref[name].grad), name

    def test_one_node_with_h_and_c_as_views(self):
        rng = np.random.default_rng(3)
        arrays = _lstm_arrays(rng, 4, 3, 5)
        ps = {k: Parameter(k, v) for k, v in arrays.items()}
        cell = LstmCellParams(ps["w_x"], ps["w_h"], ps["bias"])
        h2, c2 = lstm_step(ps["x"], ps["h"], ps["c"], cell)
        (node,) = h2._parents
        assert c2._parents == (node,)
        assert np.shares_memory(h2.data, node.data) and np.shares_memory(c2.data, node.data)
        assert node._parents == (ps["x"], ps["h"], ps["c"], ps["w_x"], ps["w_h"], ps["bias"])

    def test_narrow_adds_into_parent_slices(self):
        x = Parameter("x", np.ones((1, 4)))
        loss = x.narrow(1, 0, 3).sum() + x.narrow(1, 1, 3).sum() * 2.0 + x.sum()
        loss.backward()
        assert np.array_equal(x.grad, [[2.0, 4.0, 4.0, 3.0]])

    def test_first_gradient_is_copied(self):
        x = Parameter("x", np.ones(3))
        y = x + Tensor(np.zeros(3))
        (y * 2.0).sum().backward()
        assert x.grad is not y.grad and not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_shared_gradients_are_copied(self):
        # __add__ hands one array to both parents, reshape hands over a view
        p, q = Parameter("p", np.ones((2, 3))), Parameter("q", np.ones((2, 3)))
        r = Parameter("r", np.ones(6))
        loss = ((p + q) * 3.0 + r.reshape(2, 3)).sum()
        loss.backward()
        grads = [p.grad, q.grad, r.grad]
        assert all(np.array_equal(g.reshape(-1), np.full(6, v)) for g, v in zip(grads, [3, 3, 1]))
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])

    @pytest.mark.parametrize("kind", ["listener", "speaker"])
    def test_no_two_parameter_gradients_share_memory(self, kind):
        train, _ = _small_trials()
        vocab = build_vocab([preprocess(t.combined_text(), kind) for t in train])
        rng = np.random.default_rng(5)
        if kind == "listener":
            model = listener.ListenerModel.create(vocab, rng, embed_dim=7, hidden_dim=5)
            ids, feats, targets = listener._listener_inputs(model, train[:1] * 4)
            loss = softmax_xent(model.scores(np.array(ids), feats), targets)[0].sum()
        else:
            model = speaker.SpeakerModel.create(vocab, rng, embed_dim=7, hidden_dim=5)
            ids, feats = speaker._speaker_inputs(model, train[:1] * 4)
            loss = speaker._teacher_forced_losses(model, feats, np.array(ids)).sum()
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])


def _changing_grads(rng, shape, steps):
    grads = [rng.standard_normal(shape) * rng.choice([1e-4, 0.1, 3.0]) for _ in range(steps)]
    grads[3][..., :7] = 0.0
    return grads


class TestInPlaceOptimizers:
    SHAPES = {"big": (3, 11000), "small": (7, 11), "vec": (5,)}

    def test_big_parameter_spans_blocks(self):
        size = int(np.prod(self.SHAPES["big"]))
        assert size > 2 * OPT_BLOCK and size % OPT_BLOCK

    @pytest.mark.parametrize("cls,ref_cls", [(Adam, ReferenceAdam),
                                             (Adadelta, ReferenceAdadelta)])
    def test_twenty_steps_equal_formulas(self, cls, ref_cls):
        rng = np.random.default_rng(11)
        init = {k: rng.standard_normal(s) for k, s in self.SHAPES.items()}
        grads = {k: _changing_grads(rng, s, 20) for k, s in self.SHAPES.items()}
        ours = [Parameter(k, v.copy()) for k, v in init.items()]
        refs = [Parameter(k, v.copy()) for k, v in init.items()]
        opt, ref = cls(ours), ref_cls(refs)
        for t in range(20):
            for p, q in zip(ours, refs):
                # the vector skips a step now and then, as an unused parameter does
                p.grad = q.grad = None if p.name == "vec" and t % 4 == 1 else grads[p.name][t]
            opt.step()
            ref.step()
            for p, q in zip(ours, refs):
                assert np.array_equal(p.data, q.data), (t, p.name)

    def test_interleaved_optimizers_equal_formulas(self):
        rng = np.random.default_rng(12)
        shape = self.SHAPES["big"]
        start = rng.standard_normal(shape)
        pairs = []
        for cls, ref_cls in ((Adam, ReferenceAdam), (Adadelta, ReferenceAdadelta),
                             (Adam, ReferenceAdam)):
            p, q = Parameter("w", start.copy()), Parameter("w", start.copy())
            pairs.append((cls([p]), ref_cls([q]), p, q, _changing_grads(rng, shape, 20)))
        for t in range(20):
            for opt, ref, p, q, grads in pairs:
                p.grad = grads[t]
                q.grad = grads[t].copy()
                opt.step()
                ref.step()
        for _, _, p, q, _ in pairs:
            assert np.array_equal(p.data, q.data)

    @pytest.mark.parametrize("cls,ref_cls", [(Adam, ReferenceAdam),
                                             (Adadelta, ReferenceAdadelta)])
    def test_non_contiguous_parameter_is_updated(self, cls, ref_cls):
        rng = np.random.default_rng(13)
        start = rng.standard_normal((6, 4))
        p, q = Parameter("w", start.T), Parameter("w", start.T.copy())
        assert not p.data.flags.c_contiguous
        opt, ref = cls([p]), ref_cls([q])
        for g in _changing_grads(rng, (4, 6), 5):
            p.grad, q.grad = g, g.copy()
            opt.step()
            ref.step()
        assert np.array_equal(p.data, q.data) and not np.array_equal(p.data, start.T)

    def test_moments_are_updated_in_place(self):
        p = Parameter("p", np.zeros((3, 4)))
        opt = Adam([p])
        p.grad = np.ones((3, 4))
        opt.step()
        m, v = opt.state.slots["p"]["m"], opt.state.slots["p"]["v"]
        data = p.data
        opt.step()
        assert opt.state.slots["p"]["m"] is m and opt.state.slots["p"]["v"] is v
        assert p.data is data

    def test_clip_checks_finiteness_only_for_non_finite_norm(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nnsubstrate, "check_finite_gradients",
                            lambda params: calls.append(1) or check_finite_gradients(params))
        p, q = Parameter("p", np.zeros(3)), Parameter("q", np.zeros(2))
        p.grad, q.grad = np.full(3, 4.0), np.array([1.0, 2.0])
        clip_global_norm([p, q])
        assert calls == []
        q.grad = np.array([1.0, np.inf])
        with pytest.raises(NonFiniteGradient, match="'q'"):
            clip_global_norm([p, q])
        assert calls == [1]


def _small_trials():
    trials = synth_corpus(48, np.random.default_rng(21))
    return trials[:36], trials[36:]


def _train_both(model_cls, train_fn, vocab_mode, config):
    train, dev = _small_trials()
    vocab = build_vocab([preprocess(t.combined_text(), vocab_mode) for t in train])
    model = model_cls.create(vocab, np.random.default_rng(4), embed_dim=7, hidden_dim=5)
    report = train_fn(model, train, dev, config)
    return report, {p.name: p.data for p in model.parameters()}


class TestTrainingMatchesReferences:
    """train_l0 and train_s0 give the same report and bits with the composed
    LSTM step and the textbook optimizers patched in."""

    @pytest.fixture(params=[None, 37])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(nnsubstrate, "OPT_BLOCK", request.param)

    def _compare(self, monkeypatch, model_cls, train_fn, mode, module, opt_name, ref_opt):
        config = TrainConfig(epochs=2, batch_size=5, seed=3)
        ours = _train_both(model_cls, train_fn, mode, config)
        with monkeypatch.context() as m:
            m.setattr(nnsubstrate, "lstm_step", composed_lstm_step)
            m.setattr(speaker, "lstm_step", composed_lstm_step)
            m.setattr(module, opt_name, ref_opt)
            ref = _train_both(model_cls, train_fn, mode, config)
        assert ours[0] == ref[0]
        assert ours[1].keys() == ref[1].keys()
        for name in ours[1]:
            assert np.array_equal(ours[1][name], ref[1][name]), name

    def test_train_l0(self, monkeypatch, block):
        self._compare(monkeypatch, listener.ListenerModel, listener.train_l0, "listener",
                      listener, "Adadelta", ReferenceAdadelta)

    def test_train_s0(self, monkeypatch, block):
        self._compare(monkeypatch, speaker.SpeakerModel, speaker.train_s0, "speaker",
                      speaker, "Adam", ReferenceAdam)
