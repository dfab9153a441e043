"""Actor and critic networks built on the tape-based tensor module.

Each agent owns a recurrent actor (one LSTM cell feeding a small policy
head); a single centralized critic blends a local value of the agent's own
observation with a global value of the full state through a softmax-
constrained weight pair, so the blend stays a convex combination no matter
how the weights train.  Rollouts run every agent's actor in one call over
weights stacked along a leading agent axis (`stack_actors`), and compute
every agent's value in plain numpy (`critic_values`); training collection
adds a leading episode axis to both and samples every row at once
(`sample_actions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .tensor import Tensor

FORGET_GATE_BIAS = 1.0


@dataclass
class LstmCellParams:
    """Fused input/hidden weights and bias for the (i, f, g, o) gates."""

    w_ih: Tensor  # (4H, In)
    w_hh: Tensor  # (4H, H)
    bias: Tensor  # (4H,)
    hidden_size: int

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/w_ih": self.w_ih, f"{prefix}/w_hh": self.w_hh,
                f"{prefix}/bias": self.bias}


@dataclass
class ActorParams:
    """Recurrent actor: LSTM cell, tanh hidden layer, action logits."""

    lstm: LstmCellParams | None  # None: feed-forward variant (obs -> head)
    w_head: Tensor   # (Hh, H)
    b_head: Tensor   # (Hh,)
    w_out: Tensor    # (A, Hh)
    b_out: Tensor    # (A,)

    @property
    def recurrent(self) -> bool:
        return self.lstm is not None

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}/w_head": self.w_head, f"{prefix}/b_head": self.b_head,
               f"{prefix}/w_out": self.w_out, f"{prefix}/b_out": self.b_out}
        if self.recurrent:
            out.update(self.lstm.tensors(f"{prefix}/lstm"))
        return out


@dataclass
class CriticParams:
    """Local and global value heads plus the learnable blend logits.

    A critic with no local layers is single-headed: a plain centralized
    critic over the global state, used by the feed-forward baseline.
    """

    local_layers: list[tuple[Tensor, Tensor]]   # [(w, b), ...] over obs
    global_layers: list[tuple[Tensor, Tensor]]  # [(w, b), ...] over state
    blend_logits: Tensor | None                 # (2,), shared by all agents

    @property
    def single_head(self) -> bool:
        return not self.local_layers

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(self.global_layers):
            out[f"{prefix}/global{i}/w"] = w
            out[f"{prefix}/global{i}/b"] = b
        if not self.single_head:
            out[f"{prefix}/blend_logits"] = self.blend_logits
            for i, (w, b) in enumerate(self.local_layers):
                out[f"{prefix}/local{i}/w"] = w
                out[f"{prefix}/local{i}/b"] = b
        return out


@dataclass
class HiddenState:
    h: np.ndarray
    c: np.ndarray


def zero_hidden(hidden_size: int, *agents: int) -> HiddenState:
    """Zero state of one actor, or with ``agents`` = (U,) of a stack of U."""
    shape = (*agents, hidden_size)
    return HiddenState(np.zeros(shape), np.zeros(shape))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmCellParams:
    cell = LstmCellParams(
        w_ih=tt.glorot_uniform(rng, input_dim, hidden, (4 * hidden, input_dim)),
        w_hh=tt.glorot_uniform(rng, hidden, hidden, (4 * hidden, hidden)),
        bias=tt.zeros(4 * hidden),
        hidden_size=hidden,
    )
    # Open the forget gate early so gradients flow through time from the start.
    cell.bias.data[hidden:2 * hidden] = FORGET_GATE_BIAS
    return cell


def init_actor(rng: np.random.Generator, obs_dim: int, n_actions: int,
               hidden: int, head_hidden: int, recurrent: bool = True) -> ActorParams:
    feature_dim = hidden if recurrent else obs_dim
    return ActorParams(
        lstm=init_lstm(rng, obs_dim, hidden) if recurrent else None,
        w_head=tt.glorot_uniform(rng, feature_dim, head_hidden,
                                 (head_hidden, feature_dim)),
        b_head=tt.zeros(head_hidden),
        w_out=tt.glorot_uniform(rng, head_hidden, n_actions,
                                (n_actions, head_hidden)),
        b_out=tt.zeros(n_actions),
    )


def stack_actors(actors: list[ActorParams]) -> ActorParams:
    """A copy of every agent's actor weights stacked along a leading agent
    axis, (U, ...), so that one `actor_step` serves all agents.  It is for
    rollout inference only: training updates the per-agent actors, not the
    stack."""
    def stack(weight) -> Tensor:
        return Tensor(np.stack([weight(a).data for a in actors]))
    return _build_actor(actors[0], stack)


def actor_row(stacked: ActorParams, agent: int) -> ActorParams:
    """Agent ``agent``'s actor as views of its row of a `stack_actors` stack."""
    return _build_actor(stacked, lambda weight: Tensor(weight(stacked).data[agent]))


def _build_actor(like: ActorParams, make) -> ActorParams:
    """An actor with ``like``'s architecture whose every weight is
    ``make(weight)``, ``weight`` being the accessor of that weight."""
    lstm = None
    if like.recurrent:
        lstm = LstmCellParams(w_ih=make(lambda a: a.lstm.w_ih),
                              w_hh=make(lambda a: a.lstm.w_hh),
                              bias=make(lambda a: a.lstm.bias),
                              hidden_size=like.lstm.hidden_size)
    return ActorParams(lstm=lstm,
                       w_head=make(lambda a: a.w_head),
                       b_head=make(lambda a: a.b_head),
                       w_out=make(lambda a: a.w_out),
                       b_out=make(lambda a: a.b_out))


def _init_mlp(rng: np.random.Generator, dims: list[int]) -> list[tuple[Tensor, Tensor]]:
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        layers.append((tt.glorot_uniform(rng, d_in, d_out, (d_out, d_in)),
                       tt.zeros(d_out)))
    return layers


def init_critic(rng: np.random.Generator, obs_dim: int, state_dim: int,
                hidden1: int, hidden2: int,
                single_head: bool = False) -> CriticParams:
    return CriticParams(
        local_layers=[] if single_head else _init_mlp(
            rng, [obs_dim, hidden1, hidden2, 1]),
        global_layers=_init_mlp(rng, [state_dim, hidden1, hidden2, 1]),
        blend_logits=None if single_head else tt.zeros(2),
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def policy_head_batch(params: ActorParams, features: Tensor) -> Tensor:
    """Action logits for a (N, feature) matrix of actor features."""
    hid = tt.tanh(tt.add(tt.matmul(features, tt.transpose(params.w_head)),
                         params.b_head))
    return tt.add(tt.matmul(hid, tt.transpose(params.w_out)), params.b_out)


def actor_log_probs(params: ActorParams, obs_seqs: list[np.ndarray]) -> Tensor:
    """Log-probabilities of every action at every slot of one or more
    observation sequences, (sum of lengths, A), sequence by sequence.

    A recurrent actor replays every sequence from a zero hidden state in one
    padded `lstm_seq` batch; the mask skips the padding after a shorter
    sequence, and only the unpadded slots reach the policy head.
    """
    if params.recurrent:
        cell = params.lstm
        B, T = len(obs_seqs), max(len(seq) for seq in obs_seqs)
        x = np.zeros((B, T, cell.w_ih.data.shape[1]))
        mask = np.zeros((B, T))
        for b, seq in enumerate(obs_seqs):
            x[b, :len(seq)] = seq
            mask[b, :len(seq)] = 1.0
        zero = np.zeros((B, cell.hidden_size))
        hs = tt.lstm_seq(x, cell.w_ih, cell.w_hh, cell.bias, zero, zero, mask)
        features = hs[np.nonzero(mask)]                     # (N, H)
    else:
        features = Tensor(np.concatenate(obs_seqs))          # (N, obs)
    return tt.log_softmax(policy_head_batch(params, features))


def _matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for one vector or a stack of rows of ``x``, with ``w`` one
    (out, in) matrix or a (U, out, in) stack matched to the rows.

    Every row comes out bit for bit equal to ``w @ x`` on its own, whatever
    the number of rows; ``x @ w.T`` does not, so rollouts never use it.
    """
    return np.matmul(w, x[..., None])[..., 0]


def actor_step(params: ActorParams, obs: np.ndarray,
               hidden: HiddenState) -> tuple[np.ndarray, HiddenState]:
    """Action distribution for one observation; advances the hidden state.

    With `stack_actors` weights, ``obs`` and ``hidden`` hold one row per
    agent and every agent steps at once; each row equals that agent's own
    call bit for bit.  Gradient-free rollout inference in plain numpy,
    building no `Tensor`; training replays the same math under a tape via
    `actor_log_probs`.
    """
    if params.recurrent:
        cell = params.lstm
        z = (_matvec(cell.w_ih.data, obs) + _matvec(cell.w_hh.data, hidden.h)
             + cell.bias.data)
        h, c, _, _ = tt.lstm_cell(z, hidden.c)
        new_hidden = HiddenState(h, c)
        features = h
    else:
        new_hidden = hidden
        features = obs
    hid = np.tanh(_matvec(params.w_head.data, features) + params.b_head.data)
    logits = _matvec(params.w_out.data, hid) + params.b_out.data
    return tt.softmax_array(logits), new_hidden


def global_value(params: CriticParams, global_state: Tensor) -> Tensor:
    """V_global(state): the centralized head, shared by every agent."""
    return _mlp_forward(params.global_layers, global_state)


def critic_value(params: CriticParams, obs: Tensor, v_global: Tensor) -> Tensor:
    """Blended scalar value w_l * V_local(obs) + w_g * v_global, where
    ``v_global`` is `global_value` of the state; a single-head critic
    returns ``v_global`` itself."""
    if params.single_head:
        return v_global
    v_local = _mlp_forward(params.local_layers, obs)
    weights = blend_weights(params)
    return tt.add(tt.mul(weights[0:1], v_local), tt.mul(weights[1:2], v_global))


def critic_values(params: CriticParams, obs: np.ndarray,
                  global_state: np.ndarray) -> np.ndarray:
    """Every agent's `critic_value` for one slot, (U,), from the (U, obs)
    observation rows and the global state, in plain numpy with the same
    arithmetic; rollout collection uses it, building no `Tensor`.  With a
    leading episode axis on both, (B, U, obs) and (B, state), it gives
    (B, U), each row equal to its episode's own call."""
    v_global = _mlp_array(params.global_layers, global_state)      # (…, 1)
    if params.single_head:
        return np.broadcast_to(v_global, obs.shape[:-1])
    v_local = _mlp_array(params.local_layers, obs)                 # (…, U, 1)
    weights = tt.softmax_array(params.blend_logits.data)
    blended = weights[0:1] * v_local + weights[1:2] * v_global[..., None, :]
    return blended[..., 0]


def _mlp_array(layers: list[tuple[Tensor, Tensor]], x: np.ndarray) -> np.ndarray:
    for idx, (w, b) in enumerate(layers):
        x = _matvec(w.data, x) + b.data
        if idx < len(layers) - 1:
            x = np.tanh(x)
    return x


def _mlp_forward(layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    out = x
    for idx, (w, b) in enumerate(layers):
        out = tt.add(tt.matmul(out, tt.transpose(w)) if out.data.ndim == 2
                     else tt.matmul(w, out), b)
        if idx < len(layers) - 1:
            out = tt.tanh(out)
    return out


def blend_weights(params: CriticParams) -> Tensor:
    """Softmax of the blend logits: positive weights summing to one."""
    return tt.softmax(params.blend_logits)


def sample_actions(probs: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`sample_action` on every distribution of ``probs`` (…, A) at once,
    given each one's uniform draw ``u`` (…); returns the indices and their
    log probabilities, both (…), equal to `sample_action`'s one by one."""
    cdf = np.cumsum(probs, axis=-1)
    idx = np.minimum((cdf <= u[..., None]).sum(axis=-1), probs.shape[-1] - 1)
    flat = probs.reshape(-1, probs.shape[-1])
    chosen = flat[np.arange(len(flat)), idx.ravel()].tolist()
    return idx, np.array([math.log(p) for p in chosen]).reshape(idx.shape)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Inverse-CDF draw from a distribution; returns (index, log prob)."""
    u = rng.random()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    idx = min(idx, len(probs) - 1)
    return idx, math.log(probs[idx])
