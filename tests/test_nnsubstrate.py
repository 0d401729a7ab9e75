import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    checkpoint_meta,
    read_checkpoint,
    set_cpus,
    traced_peak,
    write_checkpoint,
)
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
    clip_global_norm,
    concat,
    embed,
    fd_gradient,
    gradcheck_rel_error,
    lstm_bptt,
    lstm_cell,
    lstm_cell_backward,
    lstm_step,
    quad_form,
    quad_form_backward,
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

    @pytest.mark.parametrize("opt_cls", [Adam, Adadelta])
    def test_step_clips_and_returns_the_norm(self, opt_cls):
        p = Parameter("p", np.zeros(4))
        p.grad = np.full(4, 10.0)
        assert opt_cls([p]).step() == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

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


# -- the LSTM cell kernels against the tape, the optimizers against textbook formulas --


class ReferenceAdam:
    """Adam as out-of-place array expressions; step() first clips the
    parameters' own gradients in place and returns the pre-clip norm."""

    def __init__(self, params, lr=0.004, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self):
        norm = clip_global_norm(self.params)
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
        return norm


class ReferenceAdadelta:
    """ADADELTA as out-of-place array expressions; step() first clips the
    parameters' own gradients in place and returns the pre-clip norm."""

    def __init__(self, params, lr=0.2, rho=0.95, eps=1e-6):
        self.params, self.lr, self.rho, self.eps = params, lr, rho, eps
        self.sq_grad, self.sq_update = {}, {}

    def step(self):
        norm = clip_global_norm(self.params)
        for p in self.params:
            if p.grad is None:
                continue
            sg = self.sq_grad.get(p.name, np.zeros_like(p.data))
            su = self.sq_update.get(p.name, np.zeros_like(p.data))
            self.sq_grad[p.name] = sg = self.rho * sg + (1 - self.rho) * p.grad ** 2
            update = -np.sqrt(su + self.eps) / np.sqrt(sg + self.eps) * p.grad
            self.sq_update[p.name] = self.rho * su + (1 - self.rho) * update ** 2
            p.data += self.lr * update
        return norm


def _lstm_arrays(rng, batch, din, hid):
    return {
        "x": rng.standard_normal((batch, din)),
        "h": rng.standard_normal((batch, hid)),
        "c": rng.standard_normal((batch, hid)) * 2.0,
        "w_x": rng.standard_normal((din, 4 * hid)) * 0.7,
        "w_h": rng.standard_normal((hid, 4 * hid)) * 0.7,
        "bias": rng.standard_normal(4 * hid),
    }


def _run_steps(arrays, weights, steps, use_c):
    """Chain `steps` of the tape's lstm_step on fresh Parameters; every h (and
    the last c, when use_c) feeds a weighted sum. Returns the outputs and the
    Parameters.

    As in the models, c has one consumer outside its step: a second one would
    make the sum of its gradients depend on the order of three terms.
    """
    ps = {k: Parameter(k, v.copy()) for k, v in arrays.items()}
    cell = LstmCellParams(ps["w_x"], ps["w_h"], ps["bias"])
    h, c = ps["h"], ps["c"]
    outs, loss = [], None
    for t in range(steps):
        h, c = lstm_step(ps["x"], h, c, cell)
        outs += [h.data.copy(), c.data.copy()]
        term = (h * Tensor(weights[t])).sum()
        loss = term if loss is None else loss + term
    if use_c:
        loss = loss + (c * Tensor(weights[0] ** 2)).sum()
    loss.backward()
    return outs, ps


def _run_cells(arrays, weights, steps, use_c, out=False):
    """_run_steps on plain arrays: each step's forward through lstm_cell, then
    the backward through lstm_cell_backward from the last step back, each
    gradient that several steps share summed in that order. With out, each
    step's cell writes into output arrays made for it."""
    x, w_x, w_h, bias = (arrays[k] for k in ("x", "w_x", "w_h", "bias"))
    hs, cs, cells = [arrays["h"]], [arrays["c"]], []
    rows, hid = arrays["h"].shape
    for _ in range(steps):
        room = (np.empty((2, rows, hid)), np.empty((rows, 3 * hid)), np.empty((rows, hid)),
                np.empty((rows, hid))) if out else None
        cells.append(lstm_cell(x @ w_x + hs[-1] @ w_h + bias, cs[-1], room))
        assert not out or cells[-1] is room
        hs.append(cells[-1][0][0])
        cs.append(cells[-1][0][1])
    grads = {}
    gh, gc = weights[-1], weights[0] ** 2 if use_c else 0.0
    for t in range(steps - 1, -1, -1):
        d, gc = lstm_cell_backward(gh, gc, cs[t], *cells[t][1:])
        for name, g in (("bias", d.sum(axis=0)), ("x", d @ w_x.T), ("w_x", x.T @ d),
                        ("w_h", hs[t].T @ d)):
            grads[name] = g if name not in grads else grads[name] + g
        gh = d @ w_h.T if t == 0 else weights[t - 1] + d @ w_h.T
    grads["h"], grads["c"] = gh, gc
    return [a for hc, *_ in cells for a in hc], grads


class TestFusedLstmStep:
    """The fused cell kernels, lstm_cell and lstm_cell_backward, against the
    tape's lstm_step, which is composed from the tape's own nodes; and the
    tape's gradient bookkeeping."""

    @pytest.mark.parametrize("batch,din,hid,steps,use_c", [
        (1, 1, 1, 1, True), (5, 3, 4, 1, False), (7, 6, 5, 3, True), (32, 20, 16, 4, False)])
    def test_values_and_six_gradients_equal_composed(self, batch, din, hid, steps, use_c):
        rng = np.random.default_rng(batch * 100 + hid)
        arrays = _lstm_arrays(rng, batch, din, hid)
        weights = rng.standard_normal((steps, batch, hid))
        tape_out, tape = _run_steps(arrays, weights, steps, use_c)
        for out in (False, True):  # the cell allocating its outputs, or writing into ours
            cell_out, cell_grads = _run_cells(arrays, weights, steps, use_c, out)
            assert len(cell_out) == len(tape_out) == 2 * steps
            for a, b in zip(cell_out, tape_out):
                assert np.array_equal(a, b)
            assert cell_grads.keys() == arrays.keys()
            for name, g in cell_grads.items():
                assert np.array_equal(g, tape[name].grad), (name, out)

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
            listener._l0_losses_and_grads(model, np.array(ids), feats, targets, 1.0)
        else:
            model = speaker.SpeakerModel.create(vocab, rng, embed_dim=7, hidden_dim=5)
            ids, feats = speaker._speaker_inputs(model, train[:1] * 4)
            speaker._s0_losses_and_grads(model, feats, np.array(ids), 1.0)
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])


class TestLstmBptt:
    """lstm_bptt's gate gradients against the tape's lstm_step backward."""

    @given(seed=st.integers(0, 2 ** 16), steps=st.integers(1, 8), batch=st.integers(1, 4),
           hidden=st.integers(1, 6))
    @example(seed=0, steps=1, batch=1, hidden=1)
    @settings(max_examples=40, deadline=None)
    def test_matches_tape(self, seed, steps, batch, hidden):
        # W_x is the identity, so the gradient the tape leaves on each step's
        # input x is that step's gate gradient. Every h' takes an outside
        # gradient, and so does the last c'. Both sides make the same float
        # operations, and all cases tried were equal bit for bit.
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((steps, batch, 4 * hidden)) * 2.0
        w_h = rng.standard_normal((hidden, 4 * hidden)) * 0.7
        bias = rng.standard_normal(4 * hidden)
        gh = rng.standard_normal((steps, batch, hidden))
        gc = rng.standard_normal((batch, hidden))

        cell = LstmCellParams(Parameter("w_x", np.eye(4 * hidden)), Parameter("w_h", w_h),
                              Parameter("bias", bias))
        inputs = [Parameter(f"x{t}", x) for t, x in enumerate(xs)]
        h = c = Tensor(np.zeros((batch, hidden)))
        loss = None
        for x, g in zip(inputs, gh):
            h, c = lstm_step(x, h, c, cell)
            term = (h * Tensor(g)).sum()
            loss = term if loss is None else loss + term
        (loss + (c * Tensor(gc)).sum()).backward()

        cells, h, c = [], np.zeros((batch, hidden)), np.zeros((batch, hidden))
        for x in xs:
            cells.append(lstm_cell(x + h @ w_h + bias, c))
            h, c = cells[-1][0]
        got = lstm_bptt(cells, w_h, gh, gc)
        tape = np.stack([x.grad for x in inputs])
        assert got.shape == tape.shape
        assert np.abs(got - tape).max() <= 1e-12 * np.abs(tape).max()


def einsum_quad_form(feats, mu, sigma):
    """quad_form's outputs as contractions written out by index."""
    d = feats - mu[:, None, :]
    s_d = np.einsum("bfe,bke->bkf", sigma, d)
    return -np.einsum("bkf,bkf->bk", d, s_d), d, s_d


def einsum_quad_form_backward(g, sigma, d):
    """quad_form_backward's outputs as contractions written out by index."""
    s_d = np.einsum("bfe,bke->bkf", sigma, d)
    st_d = np.einsum("bef,bke->bkf", sigma, d)
    return (np.einsum("bk,bkf->bf", g, s_d + st_d),
            -np.einsum("bk,bkf,bke->bfe", g, d, d))


def assert_near(got, want):
    """got equals want to within 1e-12 of want's largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


class TestQuadForm:
    @given(batch=st.integers(1, 40), k=st.integers(1, 4), f=st.integers(1, 54),
           gain=st.sampled_from([1.0, 100.0]), seed=st.integers(0, 2 ** 16))
    @example(batch=21, k=3, f=54, gain=1.0, seed=0)
    @example(batch=1, k=1, f=1, gain=100.0, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_einsum_references(self, batch, k, f, gain, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((batch, k, f)) * gain
        mu = rng.standard_normal((batch, f)) * gain
        sigma = rng.standard_normal((batch, f, f)) * gain
        g = rng.standard_normal((batch, k)) * gain
        got = quad_form(feats, mu, sigma)
        for a, b in zip(got, einsum_quad_form(feats, mu, sigma)):
            assert_near(a, b)
        _, d, s_d = got
        for a, b in zip(quad_form_backward(g, sigma, d, s_d),
                        einsum_quad_form_backward(g, sigma, d)):
            assert_near(a, b)

    @pytest.mark.parametrize("batch,k", [(2, 3), (21, 3), (40, 1), (7, 4), (128, 3)])
    def test_row_equals_one_row_call(self, batch, k):
        # the per-row L0 branch scores gathered blocks of rows; it keeps the
        # bits of quad_scores on each row only if a row's floats do not
        # depend on the rows beside it
        rng = np.random.default_rng(batch * 10 + k)
        feats = rng.uniform(-1, 1, (batch, k, 54))
        mu = rng.standard_normal((batch, 54))
        sigma = rng.standard_normal((batch, 54, 54))
        rows = rng.permutation(batch)  # a gathered block, as l0_probs_many makes
        block = quad_form(feats[rows], mu[rows], sigma[rows])
        for i, r in enumerate(rows):
            one = quad_form(feats[r][None], mu[[r]], sigma[[r]])
            for a, b in zip(block, one):
                assert np.array_equal(a[i], b[0])


# a gradient scan that allocates nothing keeps its tracemalloc peak under
# this; a squared copy of the gradients below would take 2.4 MB
SCAN_PEAK_BYTES = 64 * 2 ** 10


def _big_grads(rng):
    """Two parameters with 300,000 gradient floats between them."""
    params = [Parameter("head", np.zeros((100, 2970))), Parameter("bias", np.zeros(3000))]
    for p in params:
        p.grad = rng.standard_normal(p.data.shape)
    return params


# each raises NonFiniteGradient for a gradient with a NaN or an infinity
SCANS = (clip_global_norm, lambda params: Adam(params).step(),
         lambda params: Adadelta(params).step())


class TestGradientScan:
    @pytest.mark.parametrize("gain", [1e-4, 1.0])  # below and above GRAD_CLIP
    def test_clip_allocates_nothing(self, gain):
        params = _big_grads(np.random.default_rng(0))
        for p in params:
            p.grad *= gain
        want = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        norm, peak = traced_peak(clip_global_norm, params)
        assert peak < SCAN_PEAK_BYTES
        assert norm == pytest.approx(want, rel=1e-12)
        assert (norm > nnsubstrate.GRAD_CLIP) == (gain == 1.0)

    def test_step_allocates_little(self):
        # the optimizer makes its moments and scratch rows when it is built
        for opt_cls in (Adam, Adadelta):
            opt = opt_cls(_big_grads(np.random.default_rng(1)))
            _, peak = traced_peak(opt.step)
            assert peak < SCAN_PEAK_BYTES, opt_cls

    @given(at=st.integers(0, 34), value=st.sampled_from([np.nan, np.inf, -np.inf]),
           bad=st.sampled_from(["p", "q"]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_entry_anywhere_raises_naming_it(self, at, value, bad):
        p, q = Parameter("p", np.zeros((5, 7))), Parameter("q", np.zeros((7, 5)))
        p.grad, q.grad = np.full((5, 7), 0.5), np.full((7, 5), -2.0)
        {"p": p, "q": q}[bad].grad.flat[at] = value
        for scan in SCANS:
            with pytest.raises(NonFiniteGradient, match=f"'{bad}'"):
                scan([p, q])
        # nothing was updated
        assert not p.data.any() and not q.data.any()

    @pytest.mark.parametrize("at", [0, 150_000, 296_999])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_of_a_big_gradient_raises(self, at, value):
        params = _big_grads(np.random.default_rng(2))
        params[0].grad.flat[at] = value
        for scan in SCANS:
            with pytest.raises(NonFiniteGradient, match="'head'"):
                scan(params)

    def test_finite_squares_that_overflow_pass_the_check(self):
        # the step squares only clipped gradients
        for opt_cls in (Adam, Adadelta):
            p = Parameter("p", np.zeros(3))
            p.grad = np.array([1e200, -1e200, 1.0])
            assert opt_cls([p]).step() == pytest.approx(1e200 * np.sqrt(2))
            assert np.all(np.isfinite(p.data)) and p.data.any()


def _changing_grads(rng, shape, steps):
    grads = [rng.standard_normal(shape) * rng.choice([1e-4, 0.1, 3.0]) for _ in range(steps)]
    grads[3][..., :7] = 0.0
    return grads


class TestInPlaceOptimizers:
    SHAPES = {"big": (3, 11000), "small": (7, 11), "wide": (2, 25000), "vec": (5,)}

    def test_big_parameter_spans_blocks(self):
        # the steps' blocks alternate between two threads, across parameters
        for name in ("big", "wide"):
            size = int(np.prod(self.SHAPES[name]))
            assert size > 2 * OPT_BLOCK and size % OPT_BLOCK, name

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
                skip = p.name == "vec" and t % 4 == 1
                p.grad = None if skip else grads[p.name][t]
                q.grad = None if skip else grads[p.name][t].copy()  # each step clips in place
            assert opt.step() == ref.step()
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
        # a Parameter holds a C-contiguous copy, which every step updates in place
        rng = np.random.default_rng(13)
        start = rng.standard_normal((6, 4))
        p, q = Parameter("w", start.T), Parameter("w", start.T.copy())
        assert p.data.flags.c_contiguous and not np.shares_memory(p.data, start)
        assert np.array_equal(p.data, start.T)
        data = p.data
        opt, ref = cls([p]), ref_cls([q])
        for g in _changing_grads(rng, (4, 6), 5):
            p.grad, q.grad = g, g.copy()
            opt.step()
            ref.step()
        assert p.data is data
        assert np.array_equal(p.data, q.data) and not np.array_equal(p.data, start.T)

    def test_moments_are_updated_in_place(self):
        for cls in (Adam, Adadelta):
            p = Parameter("p", np.zeros((3, 4)))
            opt = cls([p])
            moments, data = opt.moments[0], p.data
            assert moments.shape == (2, 3, 4) and not moments.any()
            for _ in range(2):
                p.grad = np.ones((3, 4))
                opt.step()
            assert opt.moments[0] is moments and p.data is data
            assert np.all(moments != 0.0), cls

    def test_clip_checks_finiteness_only_for_non_finite_norm(self, monkeypatch):
        calls = []
        self_dot = nnsubstrate._self_dot
        monkeypatch.setattr(nnsubstrate, "_self_dot",
                            lambda g: calls.append(g) or self_dot(g))
        p, q = Parameter("p", np.zeros(3)), Parameter("q", np.zeros(2))
        p.grad, q.grad = np.full(3, 4.0), np.array([1.0, 2.0])
        clip_global_norm([p, q])
        assert len(calls) == 2 and calls[0] is p.grad and calls[1] is q.grad
        calls.clear()
        q.grad = np.array([1.0, np.inf])
        with pytest.raises(NonFiniteGradient, match="'q'"):
            clip_global_norm([p, q])
        # the sum's self-dots, then the check's: only q's is not finite, so
        # only q is scanned element by element
        assert len(calls) == 4 and calls[2] is p.grad and calls[3] is q.grad


class TestTwoThreadSplit:
    """nnsubstrate's row split: two halves on the calling thread and the one
    worker thread, or inline on one CPU, with the same halves either way."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("lo, hi, want", [
        (0, 300, [(0, 150), (150, 300)]), (3, 300, [(0, 151), (151, 300)]),
        (0, 255, [(0, 255)]), (45, 300, [(0, 300)]), (0, 0, [(0, 0)])])
    def test_halves_depend_on_row_counts_alone(self, lo, hi, want, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        calls = []
        nnsubstrate.split_rows(lo, hi, lambda a, b: calls.append((a, b, threading.get_ident())))
        assert sorted(c[:2] for c in calls) == want
        threads = {c[2] for c in calls}
        if cpus == 1 or len(want) == 1:
            assert threads == {threading.get_ident()}
        else:
            assert len(threads) == 2 and threading.get_ident() in threads

    def test_a_split_from_the_worker_runs_inline(self):
        # a half that splits again must not wait on the worker it runs on
        ran = []

        def inner():
            nnsubstrate._in_two(lambda: ran.append(threading.get_ident()),
                                lambda: ran.append(threading.get_ident()))

        outer = threading.Thread(target=nnsubstrate._in_two, args=(lambda: None, inner),
                                 daemon=True)
        outer.start()
        outer.join(timeout=30)
        assert not outer.is_alive(), "a split called from the worker deadlocked"
        assert len(ran) == 2 and len(set(ran)) == 1

    def test_a_split_that_finds_the_worker_busy_runs_inline(self):
        started, release = threading.Event(), threading.Event()
        outer = threading.Thread(
            target=nnsubstrate._in_two,
            args=(lambda: None, lambda: started.set() or release.wait(30)), daemon=True)
        outer.start()
        try:
            assert started.wait(30)
            ran = []
            nnsubstrate._in_two(lambda: ran.append(threading.get_ident()),
                                lambda: ran.append(threading.get_ident()))
            assert ran == [threading.get_ident()] * 2 and not release.is_set()
        finally:
            release.set()
            outer.join(timeout=30)
        assert not outer.is_alive()

    @pytest.mark.parametrize("raising", ["first", "second"])
    def test_an_exception_reaches_the_caller_after_both_halves(self, raising):
        started, stopped = [], []

        def half(name):
            def run():
                started.append(name)
                if name == raising:
                    raise IndexOutOfRange(f"{name} half")
                time.sleep(0.05)  # the other half is still running when one raises
                stopped.append(name)
            return run

        with pytest.raises(IndexOutOfRange, match=f"^{raising} half$"):
            nnsubstrate._in_two(half("first"), half("second"))
        # every half that started has stopped (inline, a raising first half
        # keeps the second from starting)
        assert raising in started and set(started) - {raising} == set(stopped)
        ran = []
        nnsubstrate._in_two(lambda: ran.append(1), lambda: ran.append(2))
        assert sorted(ran) == [1, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_forked_child_runs_a_split(self):
        nnsubstrate._in_two(lambda: None, lambda: None)  # the parent's worker is started
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                ran = []
                nnsubstrate._in_two(lambda: ran.append(1), lambda: ran.append(2))
                code = 0 if sorted(ran) == [1, 2] else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split did not finish")
        assert os.waitstatus_to_exitcode(done[1]) == 0


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
    """train_l0 gives the same report and bits with textbook ADADELTA patched
    in, and train_s0 with textbook Adam. Neither model's gradients come from
    the tape: test_listener.TestExplicitGradient and
    test_speaker.TestExplicitGradient hold them to the tape's, whose lstm_step
    is composed from the tape's own nodes and shares no kernel with them."""

    @pytest.fixture(params=[None, 37])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(nnsubstrate, "OPT_BLOCK", request.param)

    def _compare(self, monkeypatch, model_cls, train_fn, mode, patches):
        config = TrainConfig(epochs=2, batch_size=5, seed=3)
        ours = _train_both(model_cls, train_fn, mode, config)
        with monkeypatch.context() as m:
            for module, name, value in patches:
                m.setattr(module, name, value)
            ref = _train_both(model_cls, train_fn, mode, config)
        assert ours[0] == ref[0]
        assert ours[1].keys() == ref[1].keys()
        for name in ours[1]:
            assert np.array_equal(ours[1][name], ref[1][name]), name

    def test_train_l0(self, monkeypatch, block):
        self._compare(monkeypatch, listener.ListenerModel, listener.train_l0, "listener",
                      [(listener, "Adadelta", ReferenceAdadelta)])

    def test_train_s0(self, monkeypatch, block):
        self._compare(monkeypatch, speaker.SpeakerModel, speaker.train_s0, "speaker",
                      [(speaker, "Adam", ReferenceAdam)])
