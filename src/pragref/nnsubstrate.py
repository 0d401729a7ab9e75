"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Provides exactly the kit the base agents need: a Tensor with a recorded
backward graph, embedding lookup, affine maps, an LSTM step, a fused
softmax/cross-entropy, a fused quadratic-form scorer, Adam and ADADELTA
optimizers with global-norm gradient clipping, and a self-describing
checkpoint container.

Inference builds no graph: the forward-only functions of the listener and the
speaker run under `no_grad()`, where derived tensors keep neither parents nor a
backward hook, so each step's arrays are freed once nothing refers to them.

Everything is double precision. A model instance is single-threaded during
training; frozen parameter arrays may be shared freely across threads, and the
`no_grad` flag is per thread.
"""

from __future__ import annotations

import contextlib
import json
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, MissingCheckpoint, NonFiniteGradient

CHECKPOINT_FORMAT_VERSION = 1


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Forward-only mode for the current thread; also usable as a decorator.

    Tensors derived inside it do not require gradients and keep neither their
    parents nor a backward hook. Parameters stay trainable.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    """A node in the computation graph: a float64 array plus backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_hook")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or (
            _grad_mode.enabled and any(p.requires_grad for p in parents))
        self._parents = parents if self.requires_grad else ()
        self._hook = None

    def _set_backward(self, fn) -> None:
        if self.requires_grad:  # a node outside the graph drops the hook its op assigns
            self._hook = fn

    _backward = property(lambda self: self._hook, _set_backward)

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- graph construction -------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data + other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = bwd
        return out

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(-g)
        return out

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            out = Tensor(self.data * other, parents=(self,))
            out._backward = lambda g: self.requires_grad and self._accumulate(g * other)
            return out
        out = Tensor(self.data * other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        out._backward = bwd
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor(y, parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(g * (1.0 - y * y))
        return out

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(y, parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(g * y * (1.0 - y))
        return out

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        axis = axis % self.data.ndim
        idx = tuple(slice(None) if a != axis else slice(start, start + length)
                    for a in range(self.data.ndim))
        out = Tensor(self.data[idx], parents=(self,))

        def bwd(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[idx] = g
                self._accumulate(full)

        out._backward = bwd
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(g.reshape(self.data.shape))
        return out

    def sum(self, axis=None) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis), parents=(self,))

        def bwd(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.full_like(self.data, g))
            else:
                self._accumulate(np.expand_dims(g, axis) * np.ones_like(self.data))

        out._backward = bwd
        return out

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    # -- reverse sweep ------------------------------------------------------

    def backward(self) -> None:
        """Run the reverse sweep from this (scalar) node."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss node")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._hook is not None and node.grad is not None:
                node._hook(node.grad)


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, values):
        super().__init__(values, requires_grad=True)
        self.name = name
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"parameter {name!r} initialized with non-finite values")


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = tuple(slice(None) if a != (axis % g.ndim) else slice(lo, hi)
                            for a in range(g.ndim))
                t._accumulate(g[idx])

    out._backward = bwd
    return out


def embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Row lookup into an embedding table; gradient scatter-adds into rows."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexOutOfRange(
            f"token id outside table of {table.data.shape[0]} rows")
    out = Tensor(table.data[ids], parents=(table,))

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    out._backward = bwd
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def softmax_xent(logits: Tensor, target_ids) -> tuple[Tensor, np.ndarray]:
    """Fused softmax + cross-entropy.

    logits: (K,) with an int target, or (B, K) with (B,) targets. Returns the
    per-example loss tensor (scalar or (B,)) and the probability array.
    """
    single = logits.data.ndim == 1
    z = logits.reshape(1, -1) if single else logits
    targets = np.atleast_1d(np.asarray(target_ids, dtype=int))
    shifted = z.data - z.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    probs = np.exp(logp)
    rows = np.arange(z.data.shape[0])
    loss_data = -logp[rows, targets]
    out = Tensor(loss_data[0] if single else loss_data, parents=(z,))

    def bwd(g):
        if not z.requires_grad:
            return
        grad = probs.copy()
        grad[rows, targets] -= 1.0
        z._accumulate(grad * np.atleast_1d(g)[:, None])

    out._backward = bwd
    return out, (probs[0] if single else probs)


def log_softmax(scores: Tensor) -> np.ndarray:
    """Log-space normalization of raw scores (no gradient; evaluation helper)."""
    z = scores.data if isinstance(scores, Tensor) else np.asarray(scores, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def quad_scores(feats: np.ndarray, mu: Tensor, sigma: Tensor) -> Tensor:
    """Quadratic-form color scores: -(f - mu)^T Sigma (f - mu) per candidate.

    feats: constant (B, K, F) feature block; mu: (B, F); sigma: (B, F, F).
    Sigma is used as-is (no symmetrization; only its symmetric part matters).
    Returns (B, K).
    """
    d = feats - mu.data[:, None, :]
    s_d = np.einsum("bfe,bke->bkf", sigma.data, d)
    out = Tensor(-np.einsum("bkf,bkf->bk", d, s_d), parents=(mu, sigma))

    def bwd(g):
        if mu.requires_grad:
            st_d = np.einsum("bef,bke->bkf", sigma.data, d)
            mu._accumulate(np.einsum("bk,bkf->bf", g, s_d + st_d))
        if sigma.requires_grad:
            sigma._accumulate(-np.einsum("bk,bkf,bke->bfe", g, d, d))

    out._backward = bwd
    return out


# -- LSTM -------------------------------------------------------------------

GATE_ORDER = ("input", "forget", "output", "candidate")


@dataclass
class LstmCellParams:
    """One LSTM cell: fused gate weights in GATE_ORDER blocks of `hidden` cols."""

    input_dim: int
    hidden_dim: int
    w_x: Parameter
    w_h: Parameter
    bias: Parameter

    @classmethod
    def create(cls, name: str, input_dim: int, hidden_dim: int,
               rng: np.random.Generator) -> "LstmCellParams":
        """Uniform +-1/sqrt(fan_in) weights; forget-gate bias starts at +1."""
        sx = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim:2 * hidden_dim] = 1.0
        return cls(
            input_dim, hidden_dim,
            Parameter(f"{name}.w_x", rng.uniform(-sx, sx, (input_dim, 4 * hidden_dim))),
            Parameter(f"{name}.w_h", rng.uniform(-sh, sh, (hidden_dim, 4 * hidden_dim))),
            Parameter(f"{name}.bias", b),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]


def lstm_step(x: Tensor, h: Tensor, c: Tensor,
              p: LstmCellParams) -> tuple[Tensor, Tensor]:
    """One step of the standard LSTM recurrence (sigmoid gates, tanh candidate)."""
    n = p.hidden_dim
    gates = x @ p.w_x + h @ p.w_h + p.bias
    i = gates.narrow(-1, 0, n).sigmoid()
    f = gates.narrow(-1, n, n).sigmoid()
    o = gates.narrow(-1, 2 * n, n).sigmoid()
    g = gates.narrow(-1, 3 * n, n).tanh()
    c2 = f * c + i * g
    h2 = o * c2.tanh()
    return h2, c2


def run_lstm(inputs: list[Tensor], p: LstmCellParams,
             batch: int) -> tuple[Tensor, Tensor]:
    """Run a sequence through one LSTM; returns final (h, c)."""
    h = Tensor(np.zeros((batch, p.hidden_dim)))
    c = Tensor(np.zeros((batch, p.hidden_dim)))
    for x in inputs:
        h, c = lstm_step(x, h, c, p)
    return h, c


# -- optimizers ---------------------------------------------------------------


def check_finite_gradients(params: list[Parameter]) -> None:
    for p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradient(f"non-finite gradient in {p.name!r}")


def clip_global_norm(params: list[Parameter], max_norm: float = 5.0) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    check_finite_gradients(params)
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def zero_gradients(params: list[Parameter]) -> None:
    for p in params:
        p.grad = None


@dataclass
class OptimizerState:
    """Per-parameter accumulators (Adam: moments + step; ADADELTA: sq averages)."""

    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    step_count: int = 0

    def slot(self, p: Parameter, names: tuple[str, ...]) -> dict[str, np.ndarray]:
        if p.name not in self.slots:
            self.slots[p.name] = {n: np.zeros_like(p.data) for n in names}
        return self.slots[p.name]


class Adam:
    """Adam with the published update rule (bias-corrected moments)."""

    def __init__(self, params: list[Parameter], lr: float = 0.004,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = OptimizerState()

    def step(self) -> None:
        check_finite_gradients(self.params)
        self.state.step_count += 1
        t = self.state.step_count
        for p in self.params:
            if p.grad is None:
                continue
            s = self.state.slot(p, ("m", "v"))
            s["m"] = self.beta1 * s["m"] + (1 - self.beta1) * p.grad
            s["v"] = self.beta2 * s["v"] + (1 - self.beta2) * p.grad ** 2
            self.state.slots[p.name] = s
            m_hat = s["m"] / (1 - self.beta1 ** t)
            v_hat = s["v"] / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Adadelta:
    """ADADELTA with running squared-gradient and squared-update averages."""

    def __init__(self, params: list[Parameter], lr: float = 0.2,
                 rho: float = 0.95, eps: float = 1e-6):
        self.params = params
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.state = OptimizerState()

    def step(self) -> None:
        check_finite_gradients(self.params)
        self.state.step_count += 1
        for p in self.params:
            if p.grad is None:
                continue
            s = self.state.slot(p, ("sq_grad", "sq_update"))
            s["sq_grad"] = self.rho * s["sq_grad"] + (1 - self.rho) * p.grad ** 2
            update = -np.sqrt(s["sq_update"] + self.eps) / np.sqrt(s["sq_grad"] + self.eps) * p.grad
            s["sq_update"] = self.rho * s["sq_update"] + (1 - self.rho) * update ** 2
            self.state.slots[p.name] = s
            p.data += self.lr * update


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict) -> None:
    """Write named float64 arrays plus a JSON config to a self-describing file.

    The file lands at exactly `path`; no suffix is appended.
    """
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dtype": "float64",
        "arrays": {k: list(v.shape) for k, v in arrays.items()},
        "config": config,
    }
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (arrays, config). Validates the format tag."""
    try:
        npz = np.load(path, allow_pickle=False)
    except FileNotFoundError as e:
        raise MissingCheckpoint(f"no checkpoint at {path}") from e
    with npz:
        meta = json.loads(str(npz["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format_version')}")
        arrays = {k: npz[k].astype(np.float64) for k in npz.files if k != "__meta__"}
    for name, shape in meta["arrays"].items():
        if list(arrays[name].shape) != shape:
            raise ValueError(f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                             f"expected {shape}")
    return arrays, meta["config"]


# -- finite differences -------------------------------------------------------


def fd_gradient(fn, x: np.ndarray, eps: float = 1e-5,
                indices=None) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    Perturbs `x` in place around each checked coordinate. `indices` limits the
    check to a flat-index subset (entries elsewhere are left zero).
    """
    g = np.zeros_like(x)
    idx = range(x.size) if indices is None else indices
    for i in idx:
        orig = x.flat[i]
        x.flat[i] = orig + eps
        hi = fn()
        x.flat[i] = orig - eps
        lo = fn()
        x.flat[i] = orig
        g.flat[i] = (hi - lo) / (2 * eps)
    return g


def gradcheck_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                        indices=None) -> float:
    """Worst relative error between analytic and central-difference gradients."""
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    if indices is not None:
        sel = np.asarray(list(indices))
        a, n = a[sel], n[sel]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
