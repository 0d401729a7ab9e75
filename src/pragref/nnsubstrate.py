"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Provides exactly the kit the base agents need: a Tensor with a recorded
backward graph, embedding lookup, an LSTM step, a fused softmax/cross-entropy,
a fused quadratic-form scorer, and Adam and ADADELTA optimizers with
global-norm gradient clipping. Checkpoints belong to `training`, which alone
knows their file format.

Both models train off the tape (the `Tensor` graph). Each batch's loss and
gradients are one forward and one explicit backward over all time steps on
plain arrays (`listener._l0_losses_and_grads`, `speaker._s0_losses_and_grads`):
the forward runs through `lstm_cell`, and the backward through `lstm_bptt`,
the one backpropagation through time, over `lstm_cell_backward`, and for the
listener through `quad_form_backward`. They are held to a tolerance against
the tape, which stays their reference. On the tape, `lstm_step` is composed
from the tape's own nodes (matmuls, adds, narrows, sigmoids, tanhs and
products), so the reference shares no LSTM kernel with the code it checks.
`quad_scores` stays one node whose forward is `quad_form` and whose backward
is `quad_form_backward`. A node's first gradient is always a copy, since a
backward may hand one array to two parents. Adam and ADADELTA update their
moments and the parameters in place, in cache-sized blocks, with the
operations of the textbook expressions in their order; a large model's
blocks alternate between two threads. Each `step()` first
clips the gradients (`clip_global_norm`), the step's one gradient scan: it
reads each gradient's self-dot, one BLAS dot product that allocates nothing;
a NaN or an infinity makes the sum non-finite, and only then is a gradient
scanned element by element.

Inference makes no `Tensor`: every inference path runs forward only on
plain arrays. The LSTMs (the speaker's context encoder, its decoder in the
sampler and in the batched scorer, and the listener's prefix tree) form their
own gate sums: word inputs come from an embedding W_x table built once per
call, the decoder's context inputs once per context, and h W_h is skipped at
step 0, where the state is zero. All share the cell's nonlinearity, and so
do both models' training forwards, through `lstm_cell`. `check_id_rows`
checks every id block that indexes an embedding: the scorers' through
`padded_ids`, and both training functions'. The listener's quadratic form
shares its forward with `quad_scores` through `quad_form`. Its products,
like `quad_form_backward`'s, are batched BLAS matrix products, one per row,
so a row's floats do not depend on the rows scored beside it. A `Tensor`
records a graph exactly when one of its parents requires a gradient; the
per-row references that run the tape on one row free it on return.

Where rows or blocks are independent and many, the work uses both CPUs:
`split_rows` runs the speaker's encoder and the sampled rows of its decoder
steps in two halves, and the optimizers alternate their blocks, the second
share on one worker thread, started on the first split and started again in
a forked child. numpy releases the interpreter lock in BLAS and in its
ufuncs, so the halves overlap. The halves depend only on row counts, and
they run inline when the process may use only one CPU or when the worker
is busy, as when one of its own halves asks for a split, so no output
depends on the CPU count or on the thread that runs a half. The calling
thread allocates every array the halves write into; each half writes only
into its own rows (`lstm_cell` takes output arrays), so the worker grows no
heap of its own. Forced and sampled rows keep separate products, and no
training forward or backward splits.

Everything is double precision. A model's parameters and an optimizer's
moments must not be used from two threads at once, apart from the split's
own halves; frozen parameter arrays may be shared freely across threads.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EmptyUtterance, IndexOutOfRange, NonFiniteGradient


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph: a float64 array plus backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g into self.grad; a first gradient is copied, since g may be
        shared: `__add__` hands one array to both parents, `reshape` a view."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
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
        """The slice start:start + length along axis, a view; its gradient
        adds into that slice of self's."""
        axis = axis % self.data.ndim
        idx = tuple(slice(None) if a != axis else slice(start, start + length)
                    for a in range(self.data.ndim))
        out = Tensor(self.data[idx], parents=(self,))

        def bwd(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[idx] += g

        out._backward = bwd
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(g.reshape(self.data.shape))
        return out

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), parents=(self,))
        out._backward = lambda g: self.requires_grad and self._accumulate(np.full_like(self.data, g))
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class Parameter(Tensor):
    """A named trainable tensor. Its data is a C-contiguous float64 array,
    which the optimizers update in place through flat views."""

    __slots__ = ("name",)

    def __init__(self, name: str, values):
        super().__init__(np.asarray(values, dtype=np.float64, order="C"), requires_grad=True)
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


def check_id_rows(ids: np.ndarray, vocab_size: int) -> None:
    """Raise IndexOutOfRange for the first id of the (N, T) block ids outside
    [0, vocab_size), naming its row: such an id would index an embedding row
    silently (-1) or fail without a typed error."""
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        row, step = np.argwhere(bad)[0]
        raise IndexOutOfRange(f"id row {row} holds id {ids[row, step]}, outside the "
                              f"vocabulary of {vocab_size}")


def padded_ids(seqs, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Id rows as a (N, longest) int matrix padded with 0, and their lengths (N,).

    Raises EmptyUtterance for a row with no ids, and IndexOutOfRange
    (check_id_rows) for an id outside [0, vocab_size).
    """
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    if lengths.size and lengths.min() == 0:
        raise EmptyUtterance(f"id row {int(lengths.argmin())} has no tokens")
    flat = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64,
                       count=int(lengths.sum()))
    padded = np.zeros((len(seqs), lengths.max(initial=0)), dtype=np.int64)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = flat
    check_id_rows(padded, vocab_size)
    return padded, lengths


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-space normalization of raw scores over the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_xent(logits: Tensor, target_ids) -> tuple[Tensor, np.ndarray]:
    """Fused softmax + cross-entropy.

    logits: (B, K) with (B,) int targets. Returns the per-example loss tensor
    (B,) and the probability array (B, K).
    """
    targets = np.asarray(target_ids, dtype=int)
    logp = log_softmax(logits.data)
    probs = np.exp(logp)
    rows = np.arange(len(logp))
    out = Tensor(-logp[rows, targets], parents=(logits,))

    def bwd(g):
        if not logits.requires_grad:
            return
        grad = probs.copy()
        grad[rows, targets] -= 1.0
        logits._accumulate(grad * g[:, None])

    out._backward = bwd
    return out, probs


def quad_form(feats: np.ndarray, mu: np.ndarray, sigma: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic-form color scores -(f - mu)^T Sigma (f - mu), forward only.

    feats: (B, K, F) candidates; mu: (B, F); sigma: (B, F, F), used as-is (no
    symmetrization; only its symmetric part matters). Returns the scores
    (B, K), then d = f - mu and Sigma d, both (B, K, F), which quad_scores'
    backward reuses. Sigma d is the batched BLAS product d Sigma^T, one
    (K, F) x (F, F) product per row b, so row b's floats do not depend on the
    rows beside it: a B-row call gives each row the bits of its one-row call.
    """
    d = feats - mu[:, None, :]
    s_d = np.matmul(d, sigma.transpose(0, 2, 1))
    return -np.einsum("bkf,bkf->bk", d, s_d), d, s_d


def quad_form_backward(g: np.ndarray, sigma: np.ndarray, d: np.ndarray,
                       s_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """quad_form's backward: the gradients on mu (B, F) and Sigma (B, F, F).

    g (B, K) is the gradient on the scores; d and s_d are quad_form's outputs.
    With score_k = -d_k^T Sigma d_k, the gradient on mu is
    sum_k g_k (Sigma + Sigma^T) d_k and the one on Sigma is -sum_k g_k d_k d_k^T.
    Both are batched BLAS products, one per row: Sigma^T d is d Sigma, and the
    Sigma gradient is -(g d)^T d, the sign taken on g, which is exact.
    """
    st_d = np.matmul(d, sigma)
    st_d += s_d
    weighted = d * -g[:, :, None]
    return (np.einsum("bk,bkf->bf", g, st_d),
            np.matmul(weighted.transpose(0, 2, 1), d))


def quad_scores(feats: np.ndarray, mu: Tensor, sigma: Tensor) -> Tensor:
    """quad_form as one graph node (B, K) over mu (B, F) and Sigma (B, F, F).

    feats is a constant (B, K, F) feature block. The backward is
    quad_form_backward.
    """
    scores, d, s_d = quad_form(feats, mu.data, sigma.data)
    out = Tensor(scores, parents=(mu, sigma))

    def bwd(g):
        d_mu, d_sigma = quad_form_backward(g, sigma.data, d, s_d)
        if mu.requires_grad:
            mu._accumulate(d_mu)
        if sigma.requires_grad:
            sigma._accumulate(d_sigma)

    out._backward = bwd
    return out


# -- two-thread row split -----------------------------------------------------

# Rows at or above which split_rows runs two halves on two threads. Below it a
# half's numpy calls are too short to pay for the hand-off.
PARALLEL_ROWS = 256


class _Worker:
    """The process's one worker thread, a daemon, so it never blocks
    interpreter exit. It runs one job at a time; `busy` is held by the caller
    whose job it runs."""

    def __init__(self):
        self.busy, self._start, self._done = (threading.Lock() for _ in range(3))
        self._start.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="pragref-split", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._start.acquire()
            try:
                self._job()
            except BaseException as exc:  # handed to the caller, which re-raises it
                self._error = exc
            finally:
                self._job = None
                self._done.release()

    def run(self, first, second) -> None:
        """first() here and second() on the worker; the caller holds busy."""
        self._job = second
        self._start.release()
        try:
            first()
        finally:
            self._done.acquire()  # the worker's half has stopped, even when first() raised
            error, self._error = self._error, None
        if error is not None:
            raise error


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child, which has no worker thread: the next split starts its own."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _in_two(first, second) -> None:
    """Run first() on the calling thread while the worker thread runs second().

    The worker starts on the first call. Both run inline, first then second,
    when the process may use fewer than two CPUs or when the worker is busy:
    with another thread's split, or with the split whose half is the caller,
    which must not wait on itself. Returns once both have stopped; an
    exception raised in either then reaches the caller with its type
    unchanged, first()'s when both raise.
    """
    global _worker
    if _cpus() >= 2:
        with _worker_lock:
            if _worker is None:
                _worker = _Worker()
            worker = _worker
        if worker.busy.acquire(blocking=False):
            try:
                worker.run(first, second)
            finally:
                worker.busy.release()
            return
    first()
    second()


def split_rows(lo: int, hi: int, fn) -> None:
    """Call fn(a, b) over the rows [0, hi), of which only [lo, hi) may split:
    fn(0, hi) when [lo, hi) holds fewer than PARALLEL_ROWS rows, else
    fn(0, mid) on the calling thread and fn(mid, hi) on the worker (_in_two),
    with mid the middle of [lo, hi).

    The halves depend only on the row counts, never on the CPUs, so a result
    does not either. fn must touch only its own rows and allocate no array:
    the calling thread allocates every array beforehand, at the size the
    whole range needs, and each half writes into views of it, so the worker
    grows no heap of its own.
    """
    if hi - lo < PARALLEL_ROWS:
        fn(0, hi)
        return
    mid = (lo + hi) // 2
    _in_two(lambda: fn(0, mid), lambda: fn(mid, hi))


# -- LSTM -------------------------------------------------------------------

GATE_ORDER = ("input", "forget", "output", "candidate")


@dataclass
class LstmCellParams:
    """One LSTM cell: fused gate weights in GATE_ORDER blocks of `hidden` cols.

    Its dimensions are read off w_x (input, 4 hidden) and w_h (hidden, 4 hidden);
    weights of other shapes raise ValueError.
    """

    w_x: Parameter
    w_h: Parameter
    bias: Parameter

    def __post_init__(self):
        hidden = self.w_h.data.shape[0]
        for p, shape in ((self.w_x, (self.w_x.data.shape[0], 4 * hidden)),
                         (self.w_h, (hidden, 4 * hidden)), (self.bias, (4 * hidden,))):
            if p.data.shape != shape:
                raise ValueError(f"parameter {p.name!r} has shape {p.data.shape}, "
                                 f"expected {shape} for a cell of hidden size {hidden}")

    @property
    def input_dim(self) -> int:
        return self.w_x.data.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_h.data.shape[0]

    @classmethod
    def create(cls, name: str, input_dim: int, hidden_dim: int,
               rng: np.random.Generator) -> "LstmCellParams":
        """Uniform +-1/sqrt(fan_in) weights; forget-gate bias starts at +1."""
        sx = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim:2 * hidden_dim] = 1.0
        return cls(
            Parameter(f"{name}.w_x", rng.uniform(-sx, sx, (input_dim, 4 * hidden_dim))),
            Parameter(f"{name}.w_h", rng.uniform(-sh, sh, (hidden_dim, 4 * hidden_dim))),
            Parameter(f"{name}.bias", b),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]


def lstm_cell(gates: np.ndarray, c, out: tuple | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The LSTM nonlinearity on gate pre-activations (..., 4 hidden), forward only.

    gates holds x W_x + h W_h + b in GATE_ORDER blocks and c the cell state
    (0.0 for the zero state); c' = f * c + i * g and h' = o * tanh(c').
    Returns the (2, ..., hidden) block [h'; c'], then the sigmoids of the i,
    f, o blocks, the tanh candidate and tanh(c'), which lstm_cell_backward
    reuses. Every LSTM forward off the tape goes through it: both models'
    training forwards and each forward-only inference path's. Its floats are
    those of the tape's composed lstm_step.

    out, when given, holds the four arrays to write these into, and the cell
    allocates no array. c' may be c itself, and tanh(c')'s array may be h'
    itself, which then holds h' on return: a forward-only caller that keeps
    no intermediate needs no array for it. A row split (split_rows) gives
    each half views of arrays its calling thread allocated.
    """
    n = gates.shape[-1] // 4
    if out is None:
        rows = gates.shape[:-1]
        out = (np.empty((2,) + rows + (n,)), np.empty(rows + (3 * n,)),
               np.empty(rows + (n,)), np.empty(rows + (n,)))
    hc, ifo, cand, tanh_c = out
    np.negative(gates[..., :3 * n], out=ifo)  # sigmoid of the i, f, o blocks
    np.exp(ifo, out=ifo)
    ifo += 1.0
    np.divide(1.0, ifo, out=ifo)
    i, f, o = ifo[..., :n], ifo[..., n:2 * n], ifo[..., 2 * n:]
    np.tanh(gates[..., 3 * n:], out=cand)
    h2, c2 = hc
    np.multiply(f, c, out=c2)
    np.multiply(i, cand, out=tanh_c)  # i * g, in tanh(c')'s room until c' is summed
    c2 += tanh_c
    np.tanh(c2, out=tanh_c)
    np.multiply(o, tanh_c, out=h2)
    return out


def lstm_cell_backward(gh: np.ndarray, gc, c, ifo: np.ndarray, cand: np.ndarray,
                       tanh_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lstm_cell's backward: the gradients (..., 4 hidden) on the gates and on c.

    gh and gc are the gradients on h' and c', c is the state the step read
    (gc and c may be 0.0), and ifo, cand and tanh_c are lstm_cell's outputs.
    The float operations are those of the tape's composed lstm_step
    backward, in its order, so the two give the same bits.
    """
    n = cand.shape[-1]
    i, f, o = ifo[..., :n], ifo[..., n:2 * n], ifo[..., 2 * n:]
    d = np.empty(cand.shape[:-1] + (4 * n,))
    dc = gh * o               # through h' = o * tanh(c'), then c' = f c + i g
    dc *= 1.0 - tanh_c * tanh_c
    dc += gc
    np.multiply(dc, cand, out=d[..., :n])
    np.multiply(dc, c, out=d[..., n:2 * n])
    np.multiply(gh, tanh_c, out=d[..., 2 * n:3 * n])
    d_ifo = d[..., :3 * n]
    d_ifo *= ifo
    d_ifo *= 1.0 - ifo
    d_cand = d[..., 3 * n:]
    np.multiply(dc, i, out=d_cand)
    d_cand *= 1.0 - cand * cand
    dc *= f
    return d, dc


def lstm_bptt(steps: list, w_h: np.ndarray, gh: np.ndarray, gc) -> np.ndarray:
    """Gate gradients (T, B, 4 hidden) of an LSTM run from the zero state, whose
    steps gave the lstm_cell outputs `steps`; gh (T, B, hidden) is the gradient
    on each h' from outside the recurrence and gc the one on the last c' (it
    may be 0.0). Backpropagation through time over lstm_cell_backward: each
    step's h' also takes the next step's gate gradient times w_h^T."""
    d = np.empty(gh.shape[:-1] + (4 * gh.shape[-1],))
    last = len(steps) - 1
    for t in range(last, -1, -1):
        g = gh[t] if t == last else gh[t] + d[t + 1] @ w_h.T
        d[t], gc = lstm_cell_backward(g, gc, steps[t - 1][0][1] if t else 0.0, *steps[t][1:])
    return d


def lstm_step(x: Tensor, h: Tensor, c: Tensor,
              p: LstmCellParams) -> tuple[Tensor, Tensor]:
    """One step of the standard LSTM recurrence (sigmoid gates, tanh candidate),
    composed from the tape's own nodes: gates = x W_x + h W_h + b in
    GATE_ORDER blocks, c' = f * c + i * g and h' = o * tanh(c'). It shares no
    kernel with lstm_cell, lstm_cell_backward or lstm_bptt, which it checks."""
    n = p.hidden_dim
    gates = x @ p.w_x + h @ p.w_h + p.bias
    i = gates.narrow(-1, 0, n).sigmoid()
    f = gates.narrow(-1, n, n).sigmoid()
    o = gates.narrow(-1, 2 * n, n).sigmoid()
    g = gates.narrow(-1, 3 * n, n).tanh()
    c2 = f * c + i * g
    return o * c2.tanh(), c2


def run_lstm(inputs: list[Tensor], p: LstmCellParams,
             batch: int) -> tuple[Tensor, Tensor]:
    """Run a sequence through one LSTM; returns final (h, c)."""
    h = Tensor(np.zeros((batch, p.hidden_dim)))
    c = Tensor(np.zeros((batch, p.hidden_dim)))
    for x in inputs:
        h, c = lstm_step(x, h, c, p)
    return h, c


# -- optimizers ---------------------------------------------------------------

# The fixed training design of both base agents: one global gradient-norm
# clip, Adam (Kingma & Ba 2014) for the speaker with the published betas and
# epsilon, and ADADELTA (Zeiler 2012) for the listener, scaled by a rate.
GRAD_CLIP = 5.0
ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.004, 0.9, 0.999, 1e-8
ADADELTA_LR, ADADELTA_RHO, ADADELTA_EPS = 0.2, 0.95, 1e-6


def _self_dot(g: np.ndarray) -> float:
    """sum(g ** 2) as one BLAS dot of g's flat view with itself, with no
    temporary. It is not finite when g holds a NaN or an infinity, or when
    finite squares overflow."""
    flat = g.reshape(-1)
    with np.errstate(over="ignore"):
        return float(flat @ flat)


def clip_global_norm(params: list[Parameter]) -> float:
    """Scale all gradients so their joint L2 norm is at most GRAD_CLIP; returns the norm.

    Each optimizer's step() opens with it. The squared norm is the sum of
    each gradient's self-dot, allocating nothing. Only a non-finite sum scans
    a gradient whose self-dot is not finite element by element, and
    NonFiniteGradient names the first that holds a NaN or an infinity. When
    finite squares overflow, the norm is recomputed on gradients divided by
    their largest magnitude.
    """
    grads = [p.grad for p in params if p.grad is not None]
    total = sum(_self_dot(g) for g in grads)
    norm = np.sqrt(total)
    if not np.isfinite(total):
        for p in params:
            if (p.grad is not None and not np.isfinite(_self_dot(p.grad))
                    and not np.all(np.isfinite(p.grad))):
                raise NonFiniteGradient(f"non-finite gradient in {p.name!r}")
        # finite gradients whose squares overflow: take the norm of the
        # gradients scaled by their largest magnitude, then scale it back
        top = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        norm = top * np.sqrt(sum(_self_dot(g / top) for g in grads))
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def zero_gradients(params: list[Parameter]) -> None:
    for p in params:
        p.grad = None


# Elements per block of an in-place optimizer update. A block's slices of the
# gradient, the parameter and its two moments, plus two scratch rows, are six
# 128 KB rows, which stay in a 2 MB L2 cache while a dozen ufuncs pass over
# them. On a 2-CPU Xeon, ADADELTA's step over 0.48M floats took 6.1 ms at this
# size, 7.1 ms at 4096, 6.1 ms at 65536 and 9.2 ms unblocked, all on one
# thread. A step whose blocks hold at least two blocks' worth of floats
# alternates them between the two threads (_Optimizer._update).
OPT_BLOCK = 16384


class _Optimizer:
    """Parameters, their moments (one (2, *shape) array of zeros each), and
    the instance's own scratch rows for blocked updates, two per thread."""

    def __init__(self, params: list[Parameter]):
        self.params = params
        self.moments = [np.zeros((2,) + p.data.shape) for p in params]
        self._scratch = np.empty((2, 2, OPT_BLOCK))

    def _update(self, kernel) -> None:
        """Call kernel(grad, param, moment 0, moment 1, scratch a, scratch b)
        on aligned flat slices of each block of each parameter that has a
        gradient. Blocks alternate between the calling thread and the worker
        (_in_two), each thread with its own scratch rows, when they hold at
        least 2 OPT_BLOCK floats; fewer all run on the calling thread. Each
        element's update reads only its own block, so the floats do not
        depend on which thread ran it."""
        blocks = []
        for p, moments in zip(self.params, self.moments):
            if p.grad is None:
                continue
            flat = (p.grad.reshape(-1), p.data.reshape(-1), *moments.reshape(2, -1))
            size = p.data.size
            blocks += [[a[lo:lo + OPT_BLOCK] for a in flat] for lo in range(0, size, OPT_BLOCK)]

        def run(part, scratch):
            for block in part:
                n = len(block[0])
                kernel(*block, scratch[0, :n], scratch[1, :n])

        if sum(len(block[0]) for block in blocks) < 2 * OPT_BLOCK:
            run(blocks, self._scratch[0])
        else:
            _in_two(lambda: run(blocks[::2], self._scratch[0]),
                    lambda: run(blocks[1::2], self._scratch[1]))


class Adam(_Optimizer):
    """Adam with the published update rule (bias-corrected moments).

    step() clips the gradients (clip_global_norm), updates m, v and the
    parameter in place, block by block (_update, on two threads for a large
    model), and returns the pre-clip norm; the floats are those of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), with lr, b1, b2
    and eps the ADAM_* constants and t the count of steps taken.
    """

    step_count = 0  # each instance counts its own from its first step

    def step(self) -> float:
        norm = clip_global_norm(self.params)
        self.step_count += 1
        t = self.step_count
        new1, new2 = 1 - ADAM_BETA1, 1 - ADAM_BETA2
        unbias1, unbias2 = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t

        def update(g, w, m, v, a, b):
            m *= ADAM_BETA1
            np.multiply(g, new1, out=a)
            m += a
            v *= ADAM_BETA2
            np.square(g, out=a)
            a *= new2
            v += a
            np.divide(m, unbias1, out=a)
            a *= ADAM_LR
            np.divide(v, unbias2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            w -= a

        self._update(update)
        return norm


class Adadelta(_Optimizer):
    """ADADELTA with running squared-gradient and squared-update averages.

    step() clips the gradients (clip_global_norm), updates both averages and
    the parameter in place, block by block (_update, on two threads for a
    large model), and returns the pre-clip norm; the floats are those of
    s_g = rho s_g + (1 - rho) g^2, u = -sqrt(s_u + eps) / sqrt(s_g + eps) g,
    s_u = rho s_u + (1 - rho) u^2 and p += lr u, with lr, rho and eps the
    ADADELTA_* constants and u's sign folded into the last subtraction
    (exact in IEEE).
    """

    def step(self) -> float:
        norm = clip_global_norm(self.params)
        new = 1 - ADADELTA_RHO

        def update(g, w, sq_grad, sq_update, a, b):
            sq_grad *= ADADELTA_RHO
            np.square(g, out=a)
            a *= new
            sq_grad += a
            np.add(sq_update, ADADELTA_EPS, out=a)
            np.sqrt(a, out=a)
            np.add(sq_grad, ADADELTA_EPS, out=b)
            np.sqrt(b, out=b)
            a /= b
            a *= g  # -u
            sq_update *= ADADELTA_RHO
            np.square(a, out=b)
            b *= new
            sq_update += b
            a *= ADADELTA_LR
            w -= a

        self._update(update)
        return norm


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
