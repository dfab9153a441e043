"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

A ``Tape`` records operations executed while it is active; ``Tape.backward``
replays the records in reverse to accumulate gradients into every tensor
created with ``requires_grad=True`` (the leaves).  A tape is replayed once:
the sweep frees each record as it goes, with the arrays its backward saved
and its output's gradient, so afterwards only leaves hold gradients.  With
no tape active the same ops run as plain numpy computations.  Three ops are
fused, each one tape record with a hand-written backward: ``linear`` is the
affine layer ``x @ w.T + b`` that every policy and value head is built from,
optionally for a stack of layers along a leading axis or for one layer
shared along it; ``lstm_seq`` runs an LSTM from a zero state over a whole
batch of sequences zero-padded at their end (backpropagation through time
into its weights), optionally for several LSTMs at once along leading axes;
and ``log_softmax`` replaces ``log(softmax(x))`` and stays finite where a
probability underflows to 0.
Training replays and scores every agent's actor through one such chain, its
weights joined along the agent axis by ``stack``, and values every agent
through one chain of the shared critic.  Rollout and evaluation actors
build no ``Tensor``: they step the LSTM through the plain-numpy kernels
``lstm_cell`` and ``softmax_array``, which the ops share.

A tensor's first gradient is stored as 0.0 + g in C order, bit for bit
what adding it onto zeros gives, without the zero array.  Tensors and tapes
are confined to a single thread: the active tape is a module global, so an
op run on another thread while a tape is active would record onto it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

_TAPE_STACK: list["Tape"] = []


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: Array) -> None:
        """Add ``g`` onto ``.grad``.  A first gradient is stored as 0.0 + g,
        as adding onto zeros gives (-0.0 becomes 0.0), and C-ordered, as
        those zeros were: a later sum over the gradient then adds in the
        same order whatever ``g``'s layout."""
        if self.grad is None:
            self.grad = np.asarray(np.add(g, 0.0, order="C"))
        else:
            self.grad += g

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Indexing routes through `take` so that tape recording stays in one
    # place; arithmetic goes through the module-level ops.
    def __getitem__(self, key):
        return take(self, key)


class Tape:
    """Ordered record of differentiable operations, replayed once.

    Execution order is already topological, so the backward pass is a single
    reverse sweep that visits each record exactly once.  The sweep frees
    each record as it goes, so a tape cannot be replayed a second time.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, Callable[[Array], None]] | None] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every leaf: every tensor created
        with ``requires_grad=True``, such as a parameter.

        ``loss`` must be a scalar produced under this tape.  Gradients add
        onto whatever is already in ``.grad``; callers zero between steps.
        Each record is freed once replayed: its entry becomes None (the
        tape keeps its length), which drops the arrays its backward saved,
        and its output's ``.grad`` is reset to None, so after the sweep only
        leaves hold gradients.  A second call on a replayed tape, whose
        last entry is None, raises ``RuntimeError``.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        records = self.records
        if records and records[-1] is None:
            raise RuntimeError("this tape was already replayed and its records freed; "
                               "record the forward again under a new tape")
        loss.accumulate_grad(np.ones_like(loss.data))
        for k in range(len(records) - 1, -1, -1):
            out, backward_fn = records[k]
            records[k] = None
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable[[Array], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.records.append((out, backward_fn))
    return out


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Plain-numpy kernels, shared by the ops and by gradient-free inference
# ---------------------------------------------------------------------------

def _sigmoid(x: Array, out: Array | None = None) -> Array:
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e =
    exp(-|x|), so exp cannot overflow; written into ``out`` if given.  As
    0 <= e <= 1, the numerator where(x >= 0, 1, e) is max(e, x >= 0), which
    numpy computes faster."""
    e = np.exp(np.copysign(x, -1.0))                         # exp(-|x|)
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def softmax_array(x: Array) -> Array:
    """Softmax over the last axis with the maximum shifted out, so exp
    cannot overflow."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def lstm_cell(z: Array, c: Array, out: tuple = (None,) * 4
              ) -> tuple[Array, Array, Array, Array]:
    """One LSTM update from gate pre-activations.

    ``z`` holds the (i, f, g, o) pre-activations along its last axis (4H)
    and ``c`` the cell state (H); leading axes are batch axes.  Returns the
    new hidden and cell states, the activated gates (laid out as ``z``) and
    ``tanh`` of the new cell state; the last two feed `lstm_seq`'s backward.
    Each result is written into the matching array of ``out`` where that
    is not None.
    """
    H = c.shape[-1]
    h_out, c_out, gates, tanh_c = out
    gates = _sigmoid(z, gates)
    g = np.tanh(z[..., 2 * H:3 * H], out=gates[..., 2 * H:3 * H])
    c_new = np.add(gates[..., H:2 * H] * c, gates[..., :H] * g, out=c_out)   # f·c + i·g
    tanh_c = np.tanh(c_new, out=tanh_c)
    return np.multiply(gates[..., 3 * H:], tanh_c, out=h_out), c_new, gates, tanh_c


# ---------------------------------------------------------------------------
# Forward ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward)


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """The affine layer ``x @ w.T + b`` as one tape record, for (N, n)
    rows ``x``, ``w`` (m, n) and ``b`` (m,).  With a leading axis of U
    layers, ``w`` (U, m, n), ``b`` (U, m) and ``x`` (U, N, n), layer u acts
    on ``x[u]``: one gemm per layer, so each layer's output and gradients
    equal those of its own call bit for bit.  A single layer also takes
    ``x`` with extra leading axes, (U, N, n), and sums its weight and bias
    gradients over them."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    stacked = w.data.ndim > 2
    out = Tensor(x.data @ np.swapaxes(w.data, -1, -2)
                 + (b.data[..., None, :] if stacked else b.data))

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            w.accumulate_grad(_unbroadcast(
                np.swapaxes(np.swapaxes(x.data, -1, -2) @ g, -1, -2), w.data.shape))
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=-2) if stacked else _unbroadcast(g, b.data.shape))

    return _record(out, (x, w, b), backward)


def take(a: Tensor, key) -> Tensor:
    """Slice/index a tensor; supports basic and advanced numpy indexing."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])

    def backward(g: Array) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a.accumulate_grad(full)

    return _record(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    out = Tensor(out_data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_data * out_data))

    return _record(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    out = Tensor(out_data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * out_data)

    return _record(out, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    out_data = softmax_array(a.data)
    out = Tensor(out_data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            a.accumulate_grad(out_data * (g - inner))

    return _record(out, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """``log(softmax(a))`` over the last axis, computed as
    ``shifted - log(sum(exp(shifted)))``: finite wherever ``a`` is, even
    where the softmax underflows to 0."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor(out_data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _record(out, (a,), backward)


def sum_(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis))

    def backward(g: Array) -> None:
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())
            else:
                a.accumulate_grad(np.broadcast_to(
                    np.expand_dims(g, axis), a.data.shape).copy())

    return _record(out, (a,), backward)


def mean(a: Tensor) -> Tensor:
    """The mean over every element."""
    a = _as_tensor(a)
    out = Tensor(a.data.mean())

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g / a.data.size, a.data.shape).copy())

    return _record(out, (a,), backward)


def clip_by_value(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the input was inside [lo, hi]."""
    a = _as_tensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * inside)

    return _record(out, (a,), backward)


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient routes to the smaller input (ties to first)."""
    a, b = _as_tensor(a), _as_tensor(b)
    pick_a = a.data <= b.data
    out = Tensor(np.where(pick_a, a.data, b.data))

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * pick_a, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ~pick_a, b.data.shape))

    return _record(out, (a, b), backward)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading axis; the backward
    hands row ``k`` of the gradient to ``tensors[k]``."""
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors]))

    def backward(g: Array) -> None:
        for t, g_t in zip(tensors, g):
            if t.requires_grad:
                t.accumulate_grad(g_t)

    return _record(out, tuple(tensors), backward)


def lstm_seq(x, w_ih, w_hh, bias) -> Tensor:
    """An LSTM over a batch of sequences from a zero state, as one tape
    record.

    Shapes: ``x`` (..., B, T, In), ``w_ih`` (..., 4H, In), ``w_hh``
    (..., 4H, H), ``bias`` (..., 4H).  Leading axes ``...``, if any, hold
    separate LSTMs, each with its own weights and inputs (training stacks
    one per agent), and every numpy call serves them all.  A matmul runs one
    gemm per leading index, so each LSTM's output and gradients equal those
    of its own call bit for bit.  The input projection runs for all T at
    once; the recurrence then needs only ``w_hh``.  Shorter sequences are
    padded at their end and run through the padding: the LSTM is causal, so
    a padded step changes no earlier output, and where its outputs get no
    gradient its BPTT adds only zeros.  Returns the hidden state after every
    step, (..., B, T, H); the backward is hand-written backpropagation
    through time into the weights (``x`` gets no gradient).
    """
    x, w_ih, w_hh, bias = (_as_tensor(t) for t in (x, w_ih, w_hh, bias))
    *lead, B, T, _ = x.data.shape
    H = w_hh.data.shape[-1]
    # The input projections and each step's results are kept time-major,
    # (T, ..., B, X), so a step reads and writes whole blocks in place.
    zx = np.empty((T, *lead, B, 4 * H))
    np.add(x.data @ np.swapaxes(w_ih.data, -1, -2)[..., None, :, :],
           bias.data[..., None, None, :], out=np.moveaxis(zx, 0, -2))
    w_hh_t = np.swapaxes(w_hh.data, -1, -2)
    hs, cs, tanh_c = (np.empty((T, *lead, B, H)) for _ in range(3))
    gates = np.empty((T, *lead, B, 4 * H))
    h = c = np.zeros((*lead, B, H))
    for t in range(T):
        h, c, _, _ = lstm_cell(zx[t] + h @ w_hh_t, c, (hs[t], cs[t], gates[t], tanh_c[t]))
    out = Tensor(np.moveaxis(hs, 0, -2))

    def backward(g: Array) -> None:
        g = np.moveaxis(g, -2, 0)                                 # time-major
        i, f, gg, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
        dtanh = o * (1.0 - tanh_c * tanh_c)
        # Gate slopes: s(1 - s) for the sigmoid gates, 1 - g^2 for the tanh
        # one.  Step t's slope is read only at step t, so dz overwrites it.
        # dz is stored batch-major, so that the weight gradients below read
        # it as (sequence, step) rows without a copy; the loop steps through
        # its time-major view.
        flat = np.empty((*lead, B * T, 4 * H))
        dz = np.moveaxis(flat.reshape(*lead, B, T, 4 * H), -2, 0)
        np.subtract(1.0, gates, out=dz)
        dz *= gates
        dz[..., 2 * H:3 * H] = 1.0 - gg * gg
        dh, dc = np.zeros((*lead, B, H)), np.zeros((*lead, B, H))
        d_gates = np.empty((*lead, B, 4 * H))
        blocks = [d_gates[..., k * H:(k + 1) * H] for k in range(4)]
        for t in range(T - 1, -1, -1):
            dh = dh + g[t]
            dc_new = dc + dh * dtanh[t]
            np.multiply(dc_new, gg[t], out=blocks[0])
            np.multiply(dc_new, cs[t - 1] if t else 0.0, out=blocks[1])
            np.multiply(dc_new, i[t], out=blocks[2])
            np.multiply(dh, tanh_c[t], out=blocks[3])
            dz[t] *= d_gates
            dh = dz[t] @ w_hh.data
            dc = dc_new * f[t]
        # The weight gradients sum over (sequence, step) rows in that order.
        flat_t = np.swapaxes(flat, -1, -2)
        if w_ih.requires_grad:
            w_ih.accumulate_grad(flat_t @ x.data.reshape(*lead, B * T, -1))
        if w_hh.requires_grad:
            # The state entering step t: zero, then the output of step t - 1.
            h_prev = np.concatenate((np.zeros((*lead, B, 1, H)), out.data[..., :-1, :]),
                                    axis=-2)
            w_hh.accumulate_grad(flat_t @ h_prev.reshape(*lead, B * T, H))
        if bias.requires_grad:
            bias.accumulate_grad(flat.sum(axis=-2))

    return _record(out, (w_ih, w_hh, bias), backward)


# ---------------------------------------------------------------------------
# Parameter initialization and optimizer
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def global_norm(grads: Iterable[Array]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads))


class Adam:
    """Adaptive-moment optimizer with bias correction and global-norm clipping."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 clip_norm: float = 0.5):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in self.params.items()}
        if self.clip_norm > 0.0:
            norm = global_norm(grads.values())
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
                grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
