"""Actor and critic networks built on the tape-based tensor module.

Each agent owns a recurrent actor (one LSTM cell feeding a small policy
head); a single centralized critic blends a local value of the agent's own
observation with a global value of the full state through a softmax-
constrained weight pair, so the blend stays a convex combination no matter
how the weights train.  Every rollout, training and evaluation alike, runs
all agents' actors in one call over weights stacked along a leading agent
axis (`stack_actors`) and samples every row at once (`sample_actions`);
training collection adds a leading episode axis, and computes every
agent's value in plain numpy (`critic_values`).  The PPO update replays
every agent's actor over a whole batch of episodes in one `lstm_seq` tape
record (`actors_log_probs`) and scores them through one policy-head chain,
over per-agent weights joined along the agent axis by `tt.stack`; it values
every agent through one chain of the shared critic (`critic_value`), whose
weights serve the whole agent axis.
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

    @property
    def hidden_size(self) -> int:
        return self.w_hh.data.shape[-1]

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
    """Every agent's actor weights joined along a leading agent axis, (U,
    ...), by `tt.stack`, so that one call serves all agents.  Under a tape
    the backward hands each agent's rows to its own weights (training);
    outside one the stack is a plain copy (rollout inference with
    `actor_step`)."""
    cells = [a.lstm for a in actors]
    lstm = None if cells[0] is None else LstmCellParams(
        tt.stack([c.w_ih for c in cells]), tt.stack([c.w_hh for c in cells]),
        tt.stack([c.bias for c in cells]))
    return ActorParams(lstm, tt.stack([a.w_head for a in actors]),
                       tt.stack([a.b_head for a in actors]),
                       tt.stack([a.w_out for a in actors]),
                       tt.stack([a.b_out for a in actors]))


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
    """Action logits for a (N, feature) matrix of actor features, or with
    `stack_actors` weights for (U, N, feature), one matrix per agent."""
    hid = tt.tanh(tt.linear(features, params.w_head, params.b_head))
    return tt.linear(hid, params.w_out, params.b_out)


@dataclass
class ReplayBatch:
    """Every agent's observation sequences over B episodes, laid out once
    for `actors_log_probs`.  All agents of an episode have the same number
    of slots, so they share one padding: zeros after each episode's last
    slot."""

    obs: np.ndarray                       # (U, N, obs): every slot, episode by episode
    x: np.ndarray                         # (U, B, T, obs): zero-padded to the longest episode
    steps: tuple[np.ndarray, np.ndarray]  # (episode, slot) of each row of ``obs``


def replay_batch(obs_seqs: list[list[np.ndarray]]) -> ReplayBatch:
    """Lay out ``obs_seqs[j][b]``, agent j's (T_b, obs) observations in
    episode b, as a `ReplayBatch`."""
    lengths = np.array([len(seq) for seq in obs_seqs[0]])
    mask = np.arange(lengths.max()) < lengths[:, None]
    steps = np.nonzero(mask)
    obs = np.stack([np.concatenate(seqs) for seqs in obs_seqs])
    x = np.zeros((len(obs), *mask.shape, obs.shape[-1]))
    x[:, steps[0], steps[1]] = obs
    return ReplayBatch(obs=obs, x=x, steps=steps)


def actors_log_probs(actors: list[ActorParams], batch: ReplayBatch) -> Tensor:
    """Log-probabilities of every action at every slot under each agent's
    actor, (U, N, A), row ``[j, n]`` for row n of ``batch.obs[j]``.

    Every agent's weights are joined along a leading agent axis by
    `tt.stack`, so each agent's gradients reach its own weights, and every
    op serves all agents at once; a batched matmul runs one gemm per agent,
    so each agent's rows and gradients equal those of its own chain bit for
    bit.  Recurrent actors replay every sequence from a zero hidden state
    in one padded `lstm_seq` record, padding included; only the unpadded
    slots reach the policy heads, so the padding after a shorter sequence
    changes neither its log-probabilities nor any gradient.
    """
    stacked = stack_actors(actors)
    if stacked.recurrent:
        cell = stacked.lstm
        hs = tt.lstm_seq(batch.x, cell.w_ih, cell.w_hh, cell.bias)
        features = hs[(slice(None), *batch.steps)]               # (U, N, H)
    else:
        features = Tensor(batch.obs)
    return tt.log_softmax(policy_head_batch(stacked, features))


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
    `actors_log_probs`.
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


def critic_value(params: CriticParams, obs: Tensor, state: Tensor) -> Tensor:
    """The tape twin of `critic_values`: the blended value
    w_l * V_local(obs) + w_g * V_global(state) of every agent, (U, N, 1),
    from the (U, N, obs) observations and the (N, state) global states.
    The local head's weights are shared, so one chain serves every agent
    and its gradients sum over the agent axis.  A single-head critic
    returns V_global(state), (N, 1), which broadcasts over the agents."""
    v_global = _mlp_forward(params.global_layers, state)
    if params.single_head:
        return v_global
    v_local = _mlp_forward(params.local_layers, obs)
    weights = blend_weights(params)
    return tt.add(tt.mul(weights[0:1], v_local), tt.mul(weights[1:2], v_global))


def critic_values(params: CriticParams, obs: np.ndarray,
                  global_state: np.ndarray) -> np.ndarray:
    """Every agent's value for one slot, (U,), from the (U, obs)
    observation rows and the global state, in plain numpy with
    `critic_value`'s arithmetic; rollout collection uses it, building no
    `Tensor`.  With a leading episode axis on both, (B, U, obs) and
    (B, state), it gives (B, U), each row equal to its episode's own
    call."""
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
    for idx, (w, b) in enumerate(layers):
        x = tt.linear(x, w, b)
        if idx < len(layers) - 1:
            x = tt.tanh(x)
    return x


def blend_weights(params: CriticParams) -> Tensor:
    """Softmax of the blend logits: positive weights summing to one."""
    return tt.softmax(params.blend_logits)


def sample_actions(probs: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draws from every distribution of ``probs`` (…, A) at
    once, given each one's uniform draw ``u`` (…): the first index whose
    cumulative probability exceeds the draw, the last if rounding leaves
    none.  Returns the indices and their log probabilities, both (…)."""
    cdf = np.cumsum(probs, axis=-1)
    idx = np.minimum((cdf <= u[..., None]).sum(axis=-1), probs.shape[-1] - 1)
    flat = probs.reshape(-1, probs.shape[-1])
    chosen = flat[np.arange(len(flat)), idx.ravel()].tolist()
    return idx, np.array([math.log(p) for p in chosen]).reshape(idx.shape)
