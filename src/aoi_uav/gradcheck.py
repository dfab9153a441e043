"""Finite-difference verification of actor and critic gradients.

Randomized network/input instances are differentiated twice: analytically
through the tape, and numerically by central differences.  This is the master
correctness property of the autodiff stack and is exposed both to tests and
to the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets, tensor as tt
from .tensor import Tape, Tensor


@dataclass
class GradCheckResult:
    label: str
    worst_rel_error: float
    passed: bool


def tape_and_numeric_grads(build_loss, params: dict[str, Tensor],
                           h: float = 1e-5) -> tuple[dict, dict]:
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        tape.backward(build_loss())
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    numeric = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat, gflat = p.data.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        numeric[name] = g
    return analytic, numeric


def worst_relative_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name in numeric:
        denom = np.maximum(np.abs(numeric[name]), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic[name] - numeric[name]) / denom)))
    return worst


def _actor_logprob_loss(rng: np.random.Generator):
    """Two random LSTM actors replayed as `ppo_update` replays them: one
    agent-axis `lstm_seq` over their stacked weights, over a padded batch of
    two sequences of unequal length per agent; loss = sum of the replayed
    action log-probs of both agents, each weighted by a random advantage as
    in the surrogate.  With mixed signs the loss stays small, and so does
    the rounding in its finite differences; small actors keep the two loss
    evaluations per weight cheap."""
    obs_dim, hidden, head, n_actions, lengths = 4, 4, 4, 4, (3, 2)
    actors = [nets.init_actor(rng, obs_dim, n_actions, hidden, head)
              for _ in range(2)]
    params = {}
    for j, actor in enumerate(actors):
        params.update(actor.tensors(f"actor{j}"))
    for t in params.values():
        t.data = rng.normal(scale=0.4, size=t.data.shape)
    batch = nets.replay_batch([[rng.normal(size=(n, obs_dim)) for n in lengths]
                               for _ in actors])
    actions = rng.integers(n_actions, size=(len(actors), sum(lengths)))
    advantages = rng.normal(size=actions.shape)

    def build():
        log_all = nets.actors_log_probs(actors, batch)
        return tt.sum_(tt.mul(log_all[(*np.indices(actions.shape), actions)],
                              advantages))

    return "actors-lstm-logprob", build, params


def _critic_value_loss(rng: np.random.Generator):
    """Random blended critic; loss = squared value against a fixed target."""
    obs_dim, state_dim, h1, h2 = 5, 8, 7, 6
    critic = nets.init_critic(rng, obs_dim, state_dim, h1, h2)
    for t in critic.tensors("c").values():
        t.data = rng.normal(scale=0.4, size=t.data.shape)
    obs = rng.normal(size=(1, obs_dim))
    state = rng.normal(size=(1, state_dim))
    target = float(rng.normal())
    params = critic.tensors("critic")

    def build():
        v = nets.critic_value(critic, Tensor(obs), Tensor(state))
        err = tt.sub(v, Tensor(np.array([target])))
        return tt.sum_(tt.mul(err, err))

    return "critic-blend-mse", build, params


def run_gradcheck(trials: int, seed: int = 0,
                  tolerance: float = 1e-4) -> list[GradCheckResult]:
    """Alternate actor and critic graph checks for ``trials`` rounds."""
    rng = np.random.default_rng(seed)
    results = []
    for trial in range(trials):
        maker = _actor_logprob_loss if trial % 2 == 0 else _critic_value_loss
        label, build, params = maker(rng)
        analytic, numeric = tape_and_numeric_grads(build, params)
        worst = worst_relative_error(analytic, numeric)
        results.append(GradCheckResult(f"{label}#{trial}", worst, worst < tolerance))
    return results
