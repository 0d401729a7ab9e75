import math
import threading

import numpy as np
import pytest

from pragref.errors import IndexOutOfRange, NonFiniteGradient
from pragref.nnsubstrate import (
    Adadelta,
    Adam,
    LstmCellParams,
    Parameter,
    Tensor,
    affine,
    clip_global_norm,
    concat,
    embed,
    fd_gradient,
    gradcheck_rel_error,
    load_checkpoint,
    lstm_step,
    no_grad,
    quad_scores,
    run_lstm,
    save_checkpoint,
    softmax_xent,
    zero_gradients,
)

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
            cell = LstmCellParams(din, hid, p["w_x"], p["w_h"], p["bias"])
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
        logits = Tensor(np.zeros(3), requires_grad=True)
        loss, probs = softmax_xent(logits, 1)
        assert np.allclose(probs, 1 / 3)
        assert float(loss.data) == pytest.approx(math.log(3))

    def test_softmax_confident(self):
        loss, _ = softmax_xent(Tensor(np.array([40.0, 0.0, 0.0])), 0)
        assert float(loss.data) < 1e-12

    def test_affine(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Tensor(np.array([10.0, 20.0]))
        assert np.allclose(affine(x, w, b).data, [[11.0, 22.0]])

    def test_lstm_zero_params_zero_state(self):
        cell = LstmCellParams(2, 3, Parameter("wx", np.zeros((2, 12))),
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

        cell = LstmCellParams(1, 1, Parameter("wx", wx), Parameter("wh", wh),
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

    def test_forget_bias_initialized_positive(self):
        cell = LstmCellParams.create("enc", 4, 5, np.random.default_rng(0))
        assert np.allclose(cell.bias.data[5:10], 1.0)
        assert np.allclose(cell.bias.data[:5], 0.0)


class TestNoGrad:
    def test_derived_tensors_record_nothing(self):
        rng = np.random.default_rng(0)
        p = Parameter("p", rng.standard_normal((3, 3)))
        with no_grad():
            y = (p @ p + p).tanh().narrow(1, 0, 2)
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        z = (p @ p + p).tanh().narrow(1, 0, 2)
        assert z.requires_grad
        assert z._parents and z._backward is not None
        assert np.array_equal(y.data, z.data)
        z.sum().backward()
        assert p.grad is not None and np.any(p.grad != 0)

    def test_lstm_step_same_values_without_graph(self):
        rng = np.random.default_rng(1)
        cell = LstmCellParams.create("cell", 4, 3, rng)
        x = Tensor(rng.standard_normal((2, 4)))
        h = Tensor(rng.standard_normal((2, 3)))
        c = Tensor(rng.standard_normal((2, 3)))
        with no_grad():
            h1, c1 = lstm_step(x, h, c, cell)
        h2, c2 = lstm_step(x, h, c, cell)
        assert not h1.requires_grad and h2.requires_grad
        assert np.array_equal(h1.data, h2.data) and np.array_equal(c1.data, c2.data)

    def test_flag_restored_after_exception(self):
        p = Parameter("p", np.ones(2))
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (p * 2.0).requires_grad
                raise RuntimeError("inside")
        assert (p * 2.0).requires_grad

    def test_decorator_form(self):
        p = Parameter("p", np.ones(2))

        @no_grad()
        def forward(t):
            return t * 3.0

        assert not forward(p).requires_grad
        assert (p * 3.0).requires_grad

    def test_other_thread_still_builds_graph(self):
        p = Parameter("p", np.ones(2))
        entered, done = threading.Event(), threading.Event()
        seen = {}

        def holder():
            with no_grad():
                entered.set()
                done.wait(timeout=10)
                seen["holder"] = (p * 2.0).requires_grad

        def builder():
            entered.wait(timeout=10)
            seen["builder"] = (p * 2.0).requires_grad
            done.set()

        threads = [threading.Thread(target=holder), threading.Thread(target=builder)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"holder": False, "builder": True}

    def test_parameter_created_inside_is_trainable(self):
        with no_grad():
            q = Parameter("q", np.array([1.0, 2.0]))
        assert q.requires_grad
        (q * 3.0).sum().backward()
        assert np.array_equal(q.grad, [3.0, 3.0])


class TestOptimizers:
    def test_adam_first_step_magnitude(self):
        # g=1 everywhere: m_hat=1, v_hat=1 -> update = -lr/(1+eps) ~ -0.004
        p = Parameter("p", np.zeros(5))
        p.grad = np.ones(5)
        Adam([p], lr=0.004).step()
        assert np.allclose(p.data, -0.004, atol=1e-9)

    def test_zero_gradient_zero_update(self):
        for opt_cls in (Adam, Adadelta):
            p = Parameter("p", np.full(3, 1.5))
            p.grad = np.zeros(3)
            opt_cls([p]).step()
            assert np.allclose(p.data, 1.5)

    @pytest.mark.parametrize("opt_cls,kwargs", [
        (Adam, {"lr": 0.004}),
        (Adadelta, {"lr": 0.2}),
    ])
    def test_quadratic_bowl_convergence(self, opt_cls, kwargs):
        target = np.array([0.3, -0.2, 0.5])
        p = Parameter("p", np.zeros(3))
        opt = opt_cls([p], **kwargs)
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
        norm = clip_global_norm([p], max_norm=5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)
        zero_gradients([p])
        assert p.grad is None


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                  "b": np.zeros(3)}
        path = tmp_path / "model.npz"
        save_checkpoint(path, arrays, {"hidden": 3, "vocab": ["a", "b"]})
        loaded, config = load_checkpoint(path)
        assert config == {"hidden": 3, "vocab": ["a", "b"]}
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], arrays["w"])

    def test_path_without_suffix(self, tmp_path):
        path = tmp_path / "model"
        save_checkpoint(path, {"w": np.ones(2)}, {})
        assert path.exists() and not (tmp_path / "model.npz").exists()
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded["w"], np.ones(2))

    def test_format_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.array('{"format_version": 999, "arrays": {}}'))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)
