"""Training loop: rollout collection, advantage estimation, clipped-surrogate
policy updates, plus heuristic baselines and the evaluation harness.

Training rollouts and policy evaluation share one episode loop,
`run_episode`; they differ only in how the joint action is chosen and what
is recorded.  Each rollout draws from a single RNG stream, episode by
episode, so the output is a function of the seed alone.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import nets, tensor as tt, world
from .config import ScenarioConfig, TrainConfig
from .nets import (
    ActorParams,
    CriticParams,
    HiddenState,
    actor_row,
    actor_step,
    critic_value,
    critic_values,
    global_value,
    sample_action,
    stack_actors,
    zero_hidden,
)
from .tensor import Adam, Tape, Tensor
from .world import EpisodeLog, WorldState, global_state_vector, observe, peak_aoi

METRICS_CSV_HEADER = ("episode,cum_reward,aoi_reward,energy_reward,peak_aoi,"
                      "collections,collisions,clips,wall_ms")


class TrainingDiverged(RuntimeError):
    """Non-finite loss; the update is aborted rather than silently poisoned."""


# ---------------------------------------------------------------------------
# Policy bundle
# ---------------------------------------------------------------------------

@dataclass
class PolicyBundle:
    actors: list[ActorParams]
    critic: CriticParams
    hidden_size: int

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for j, actor in enumerate(self.actors):
            out.update(actor.tensors(f"actor{j}"))
        out.update(self.critic.tensors("critic"))
        return out


def build_bundle(scenario: ScenarioConfig, tconf: TrainConfig,
                 seed: int) -> PolicyBundle:
    rng = np.random.default_rng(seed)
    recurrent = tconf.algo == "mappo_lstm"
    actors = [nets.init_actor(rng, scenario.obs_dim, scenario.n_actions,
                              tconf.hidden_size, tconf.head_hidden,
                              recurrent=recurrent)
              for _ in range(scenario.n_uavs)]
    critic = nets.init_critic(rng, scenario.obs_dim, scenario.global_state_dim,
                              tconf.critic_hidden1, tconf.critic_hidden2,
                              single_head=not recurrent)
    return PolicyBundle(actors=actors, critic=critic,
                        hidden_size=tconf.hidden_size)


def bundle_to_tensors(bundle: PolicyBundle) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in bundle.parameters().items()}


def bundle_from_tensors(tensors: dict[str, np.ndarray],
                        scenario: ScenarioConfig,
                        tconf: TrainConfig) -> PolicyBundle:
    """Rebuild a bundle with the config's architecture, then load weights."""
    bundle = build_bundle(scenario, tconf, seed=0)
    params = bundle.parameters()
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint does not match config "
                         f"(missing={missing[:3]}, unexpected={extra[:3]})")
    for name, tensor in params.items():
        if tensor.data.shape != tensors[name].shape:
            raise ValueError(f"checkpoint tensor {name} has shape "
                             f"{tensors[name].shape}, config expects "
                             f"{tensor.data.shape}")
        tensor.data = tensors[name].copy()
    return bundle


# ---------------------------------------------------------------------------
# Trajectories and episode metrics
# ---------------------------------------------------------------------------

@dataclass
class AgentTrajectory:
    obs: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)      # at collection
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None


@dataclass
class EpisodeMetrics:
    episode: int
    cum_reward: float
    aoi_reward: float
    energy_reward: float
    peak_aoi: int
    peak_aoi_recorded: int
    counts: world.EpisodeCounts
    wall_ms: float

    def csv_row(self) -> str:
        c = self.counts
        return (f"{self.episode},{self.cum_reward!r},{self.aoi_reward!r},"
                f"{self.energy_reward!r},{self.peak_aoi},{c.collections},"
                f"{c.collisions},{c.clips},{self.wall_ms:.3f}")


@dataclass
class EpisodeTrajectory:
    agents: list[AgentTrajectory]
    global_states: list[np.ndarray]
    metrics: EpisodeMetrics
    log: EpisodeLog


@dataclass
class TrajectoryBatch:
    episodes: list[EpisodeTrajectory]

    def agent_slots(self):
        for ep in self.episodes:
            for agent_idx, traj in enumerate(ep.agents):
                yield ep, agent_idx, traj


def _episode_metrics(episode: int, rewards_by_agent, breakdown_by_agent,
                     log: EpisodeLog, config: ScenarioConfig,
                     wall_ms: float) -> EpisodeMetrics:
    n = config.n_uavs
    cum = sum(sum(rs) for rs in rewards_by_agent) / n
    aoi = sum(config.reward.alpha_a * b.r_a for b in breakdown_by_agent[0])
    energy = sum(sum(config.reward.beta_p * b.r_p for b in bs)
                 for bs in breakdown_by_agent) / n
    final = log.final_state
    return EpisodeMetrics(
        episode=episode,
        cum_reward=cum,
        aoi_reward=aoi,
        energy_reward=energy,
        peak_aoi=peak_aoi(final),
        peak_aoi_recorded=final.peak_recorded_aoi,
        counts=world.episode_counts(log),
        wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# Episode loop and rollout collection
# ---------------------------------------------------------------------------

def run_episode(scenario: ScenarioConfig, act, episode_idx: int
                ) -> tuple[EpisodeMetrics, EpisodeLog, list[list[float]]]:
    """Play one episode from reset; ``act(state)`` returns the joint action.

    Returns the episode metrics, its event log and each agent's per-slot
    rewards.  ``wall_ms`` covers the reset and every slot.
    """
    t0 = time.perf_counter()
    state = world.reset(scenario, scenario.rng_seed)
    log = EpisodeLog(config=scenario)
    rewards: list[list[float]] = [[] for _ in range(scenario.n_uavs)]
    breakdowns: list[list] = [[] for _ in range(scenario.n_uavs)]
    done = False
    while not done:
        state, step_rewards, done = world.step(state, act(state), scenario)
        log.absorb(state)
        for j, breakdown in enumerate(step_rewards):
            rewards[j].append(breakdown.total)
            breakdowns[j].append(breakdown)
    wall_ms = (time.perf_counter() - t0) * 1e3
    metrics = _episode_metrics(episode_idx, rewards, breakdowns, log,
                               scenario, wall_ms)
    return metrics, log, rewards


def _collect_episode(scenario: ScenarioConfig, bundle: PolicyBundle,
                     actors: ActorParams, episode_idx: int,
                     rng: np.random.Generator) -> EpisodeTrajectory:
    """One sampled episode; ``actors`` is `stack_actors` of the bundle's."""
    agents = [AgentTrajectory() for _ in range(scenario.n_uavs)]
    hidden = zero_hidden(bundle.hidden_size, scenario.n_uavs)
    global_states: list[np.ndarray] = []

    def act(state: WorldState) -> list[int]:
        nonlocal hidden
        gstate = global_state_vector(state, scenario)
        global_states.append(gstate)
        obs = observe(state, None, scenario)
        probs, hidden = actor_step(actors, obs, hidden)
        values = critic_values(bundle.critic, obs, gstate).tolist()
        joint = []
        for j, traj in enumerate(agents):
            action, logp = sample_action(probs[j], rng)
            traj.obs.append(obs[j])
            traj.actions.append(action)
            traj.log_probs.append(logp)
            traj.values.append(values[j])
            joint.append(action)
        return joint

    metrics, log, rewards = run_episode(scenario, act, episode_idx)
    for traj, agent_rewards in zip(agents, rewards):
        traj.rewards = agent_rewards
    return EpisodeTrajectory(agents=agents, global_states=global_states,
                             metrics=metrics, log=log)


def collect_rollout(scenario: ScenarioConfig, bundle: PolicyBundle,
                    episodes: int, seed: int, *,
                    first_episode_idx: int = 0) -> TrajectoryBatch:
    """Run full episodes under the bundle's actors, sampling actions.

    Hidden states reset at episode boundaries; every quantity the update
    needs (observations, actions, collection-time log-probs, rewards,
    values, global states) is stored.  One RNG stream seeded ``seed``
    serves the episodes in order.
    """
    rng = np.random.default_rng(seed)
    actors = stack_actors(bundle.actors)
    return TrajectoryBatch(episodes=[
        _collect_episode(scenario, bundle, actors, first_episode_idx + e, rng)
        for e in range(episodes)])


# ---------------------------------------------------------------------------
# Advantages
# ---------------------------------------------------------------------------

def compute_advantages(batch: TrajectoryBatch, gamma: float, lam: float,
                       normalize: bool = True) -> None:
    """Generalized advantage estimation over every stored agent sequence.

    delta_t = r_t + gamma * V_{t+1} - V_t, with V_T = 0 because every stored
    episode ends at its terminal slot;
    A_t = sum_k (gamma * lam)^k * delta_{t+k};  lam = 0 recovers the one-step
    TD error.  Return targets are A_t + V_t.  With ``normalize`` the
    advantages are standardized jointly across the whole batch.
    """
    all_adv = []
    for ep in batch.episodes:
        for traj in ep.agents:
            T = len(traj.rewards)
            values = np.asarray(traj.values)
            rewards = np.asarray(traj.rewards)
            adv = np.zeros(T)
            last = 0.0
            for t in range(T - 1, -1, -1):
                next_value = values[t + 1] if t + 1 < T else 0.0
                delta = rewards[t] + gamma * next_value - values[t]
                last = delta + gamma * lam * last
                adv[t] = last
            traj.advantages = adv
            traj.returns = adv + values
            all_adv.append(adv)
    if normalize and all_adv:
        flat = np.concatenate(all_adv)
        mean, std = flat.mean(), flat.std()
        for ep in batch.episodes:
            for traj in ep.agents:
                traj.advantages = (traj.advantages - mean) / (std + 1e-8)


# ---------------------------------------------------------------------------
# PPO update
# ---------------------------------------------------------------------------

@dataclass
class LossReport:
    actor_loss: float
    value_loss: float
    entropy: float
    mean_ratio: float
    clip_fraction: float


def _replay_log_probs(actor: ActorParams, *trajs: AgentTrajectory):
    """Recompute per-slot log-probs and distributions under the live actor,
    replaying one or more of its episodes as one padded batch.

    Returns the log-probs of the stored actions (N,), the distributions
    (N, A) and their logs (N, A), with rows episode by episode.
    """
    log_all = nets.actor_log_probs(actor, [np.stack(t.obs) for t in trajs])
    actions = np.concatenate([t.actions for t in trajs])
    selected = log_all[np.arange(actions.size), actions]
    return selected, tt.exp(log_all), log_all


def ppo_update(batch: TrajectoryBatch, bundle: PolicyBundle, optimizer: Adam,
               tconf: TrainConfig) -> LossReport:
    """Clipped-surrogate actor update plus value regression, multiple epochs
    over full-episode sequences; ratios are taken against the log-probs
    stored when ``batch`` was collected.

    Each epoch replays all episodes of one agent as one batch and runs the
    critic's global head once over the states of every episode.
    """
    critic = bundle.critic
    states = Tensor(np.concatenate([np.stack(ep.global_states)
                                    for ep in batch.episodes]))
    agents = []
    for j, actor in enumerate(bundle.actors):
        trajs = [ep.agents[j] for ep in batch.episodes]
        agents.append((actor, trajs,
                       np.concatenate([t.log_probs for t in trajs]),
                       np.concatenate([t.advantages for t in trajs]),
                       Tensor(np.concatenate([np.stack(t.obs) for t in trajs])),
                       np.concatenate([t.returns for t in trajs])[:, None]))
    report = None
    for _ in range(tconf.epochs):
        with Tape() as tape:
            v_global = global_value(critic, states)
            objectives, entropies, value_errs = [], [], []
            ratio_data, clipped_flags = [], []
            for actor, trajs, old_logp, adv, obs, returns in agents:
                new_logp, probs, log_all = _replay_log_probs(actor, *trajs)
                ratio = tt.exp(tt.sub(new_logp, old_logp))
                clipped = tt.clip_by_value(ratio, 1.0 - tconf.clip_epsilon,
                                           1.0 + tconf.clip_epsilon)
                obj = tt.minimum(tt.mul(ratio, adv), tt.mul(clipped, adv))
                objectives.append(obj)
                entropies.append(tt.mul(tt.sum_(tt.mul(probs, log_all), axis=-1), -1.0))
                ratio_data.append(ratio.data.copy())
                clipped_flags.append(ratio.data != clipped.data)
                err = tt.sub(critic_value(critic, obs, v_global), returns)
                value_errs.append(tt.mul(err, err)[:, 0])

            surrogate = tt.mean(tt.concat(objectives))
            entropy = tt.mean(tt.concat(entropies))
            value_loss = tt.mean(tt.concat(value_errs))
            loss = tt.add(
                tt.sub(tt.mul(surrogate, -1.0), tt.mul(entropy, tconf.entropy_coef)),
                tt.mul(value_loss, tconf.value_coef))
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(
                    f"non-finite loss (surrogate={surrogate.item()!r}, "
                    f"value={value_loss.item()!r}, entropy={entropy.item()!r})")
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            ratios = np.concatenate(ratio_data)
            report = LossReport(
                actor_loss=-surrogate.item(),
                value_loss=value_loss.item(),
                entropy=entropy.item(),
                mean_ratio=float(ratios.mean()),
                clip_fraction=float(np.concatenate(clipped_flags).mean()),
            )
    return report


# ---------------------------------------------------------------------------
# Baseline policies
# ---------------------------------------------------------------------------

class _PerAgentPolicy:
    """A policy that chooses agent by agent, in index order."""

    def joint_action(self, state: WorldState, rng: np.random.Generator,
                     greedy: bool) -> list[int]:
        return [self.act(state, j, rng, greedy)
                for j in range(self.scenario.n_uavs)]


class RandomPolicy(_PerAgentPolicy):
    """Uniform over the action set."""

    name = "random"

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        self.n_actions = scenario.n_actions

    def begin_episode(self) -> None:
        pass

    def act(self, state: WorldState, agent: int, rng: np.random.Generator,
            greedy: bool) -> int:
        return int(rng.integers(self.n_actions))


class GreedyPolicy(_PerAgentPolicy):
    """Chase the oldest pending IoT; divert to the nearest charging station
    below the energy threshold and stay until full."""

    name = "greedy"

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        self.charging = [False] * scenario.n_uavs

    def begin_episode(self) -> None:
        self.charging = [False] * self.scenario.n_uavs

    def _target(self, state: WorldState, agent: int) -> np.ndarray:
        cfg = self.scenario
        pos, energy = state.uav_pos[agent], state.uav_energy[agent]
        if energy <= cfg.e_charge_threshold:
            self.charging[agent] = True
        elif energy >= cfg.e_full - cfg.epsilon_energy:
            self.charging[agent] = False
        pending = np.flatnonzero(state.has_data)
        if self.charging[agent] or not pending.size:
            k, _ = world._nearest_lbd_horizontal(pos, state.lbds)
            return state.lbds[k][:2]
        # Oldest first, then nearest, then lowest index (lexsort is stable).
        offset = state.iot_pos[pending] - pos
        order = np.lexsort((np.hypot(offset[:, 0], offset[:, 1]),
                            state.gen_time[pending]))
        return state.iot_pos[pending[order[0]]]

    def act(self, state: WorldState, agent: int, rng: np.random.Generator,
            greedy: bool) -> int:
        cfg = self.scenario
        target = self._target(state, agent)
        pos = state.uav_pos[agent]
        step_len = cfg.speed * cfg.slot_dt
        best_action, best_dist = 0, float("inf")
        for a in range(cfg.n_actions):
            cand = pos + world._ACTION_UNIT[a] * step_len
            d = float(np.hypot(*(cand - target)))
            if d < best_dist - 1e-12:
                best_action, best_dist = a, d
        return best_action


class LearnedPolicy:
    """Greedy or sampling wrapper around trained actors, held as one
    `stack_actors` stack, with one hidden-state row per agent.
    `joint_action` steps every agent's actor in one call; `act` steps agent
    ``agent``'s alone, on its rows of the stack and the hidden state."""

    name = "learned"

    def __init__(self, scenario: ScenarioConfig, bundle: PolicyBundle):
        self.scenario = scenario
        self.hidden_size = bundle.hidden_size
        self.actors = stack_actors(bundle.actors)
        self.begin_episode()

    def begin_episode(self) -> None:
        self.hidden = zero_hidden(self.hidden_size, self.scenario.n_uavs)

    def joint_action(self, state: WorldState, rng: np.random.Generator,
                     greedy: bool) -> list[int]:
        obs = observe(state, None, self.scenario)
        probs, self.hidden = actor_step(self.actors, obs, self.hidden)
        if greedy:
            return np.argmax(probs, axis=1).tolist()
        return [sample_action(p, rng)[0] for p in probs]

    def act(self, state: WorldState, agent: int, rng: np.random.Generator,
            greedy: bool) -> int:
        obs = observe(state, agent, self.scenario)
        probs, row = actor_step(
            actor_row(self.actors, agent), obs,
            HiddenState(self.hidden.h[agent], self.hidden.c[agent]))
        self.hidden.h[agent], self.hidden.c[agent] = row.h, row.c
        if greedy:
            return int(np.argmax(probs))
        action, _ = sample_action(probs, rng)
        return action


def make_policy(kind: str, scenario: ScenarioConfig,
                bundle: PolicyBundle | None = None):
    if kind == "random":
        return RandomPolicy(scenario)
    if kind == "greedy":
        return GreedyPolicy(scenario)
    if kind == "learned":
        if bundle is None:
            raise ValueError("learned policy requires a checkpoint bundle")
        return LearnedPolicy(scenario, bundle)
    raise ValueError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Policy rollouts without gradients (baselines and evaluation)
# ---------------------------------------------------------------------------

def rollout_policy(scenario: ScenarioConfig, policy, episodes: int, seed: int,
                   *, greedy: bool = True,
                   first_episode_idx: int = 0) -> tuple[list[EpisodeMetrics], list[EpisodeLog]]:
    """Run a policy for whole episodes, returning metrics and event logs."""
    rows, logs = [], []
    rng = np.random.default_rng(seed)

    def act(state: WorldState) -> list[int]:
        return policy.joint_action(state, rng, greedy)

    for e in range(episodes):
        policy.begin_episode()
        metrics, log, _ = run_episode(scenario, act, first_episode_idx + e)
        rows.append(metrics)
        logs.append(log)
    return rows, logs


# ---------------------------------------------------------------------------
# Training driver
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    bundle: PolicyBundle
    metrics: list[EpisodeMetrics]
    loss_reports: list[LossReport]


def train(scenario: ScenarioConfig, tconf: TrainConfig, seed: int,
          metrics_sink=None, checkpoint_sink=None, event_sink=None) -> TrainResult:
    """Alternate rollout collection, advantage estimation, and PPO updates
    for ``tconf.episodes`` episodes."""
    scenario.validate()
    tconf.validate()
    bundle = build_bundle(scenario, tconf, seed)
    optimizer = Adam(bundle.parameters(), lr=tconf.learning_rate,
                     beta1=tconf.adam_beta1, beta2=tconf.adam_beta2,
                     eps=tconf.adam_eps, clip_norm=tconf.clip_norm)
    metrics: list[EpisodeMetrics] = []
    reports: list[LossReport] = []
    episodes_done = 0
    update_idx = 0
    next_checkpoint = tconf.eval_interval
    last_checkpoint = -1

    while episodes_done < tconf.episodes:
        todo = min(tconf.episodes_per_update, tconf.episodes - episodes_done)
        rollout_seed = seed + 1_000_003 * (update_idx + 1)
        batch = collect_rollout(scenario, bundle, todo, rollout_seed,
                                first_episode_idx=episodes_done)
        compute_advantages(batch, tconf.gamma, tconf.gae_lambda)
        reports.append(ppo_update(batch, bundle, optimizer, tconf))
        update_idx += 1
        for ep in batch.episodes:
            metrics.append(ep.metrics)
            if metrics_sink is not None:
                metrics_sink(ep.metrics)
            if event_sink is not None:
                event_sink(ep.metrics.episode, ep.log)
        episodes_done += todo
        if checkpoint_sink is not None and episodes_done >= next_checkpoint:
            checkpoint_sink(episodes_done, bundle)
            last_checkpoint = episodes_done
            next_checkpoint += tconf.eval_interval
    if checkpoint_sink is not None and last_checkpoint != episodes_done:
        checkpoint_sink(episodes_done, bundle)
    return TrainResult(bundle=bundle, metrics=metrics, loss_reports=reports)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    policy: str
    episodes: int
    mean_peak_aoi: float
    max_peak_aoi: int
    mean_peak_aoi_recorded: float
    mean_cum_reward: float
    mean_aoi_reward: float
    mean_energy_reward: float
    mean_collections: float
    constraints: world.EpisodeCounts  # summed over all episodes

    CSV_HEADER = ("policy,episodes,mean_peak_aoi,max_peak_aoi,"
                  "mean_peak_aoi_recorded,mean_cum_reward,mean_aoi_reward,"
                  "mean_energy_reward,mean_collections")

    def csv_row(self) -> str:
        return (f"{self.policy},{self.episodes},{self.mean_peak_aoi!r},"
                f"{self.max_peak_aoi},{self.mean_peak_aoi_recorded!r},"
                f"{self.mean_cum_reward!r},{self.mean_aoi_reward!r},"
                f"{self.mean_energy_reward!r},{self.mean_collections!r}")

    def human_text(self) -> str:
        c = self.constraints
        lines = [
            f"policy             : {self.policy}",
            f"episodes           : {self.episodes}",
            f"mean peak AoI      : {self.mean_peak_aoi:.3f} slots "
            f"(recorded-only {self.mean_peak_aoi_recorded:.3f})",
            f"max peak AoI       : {self.max_peak_aoi} slots",
            f"mean cum reward    : {self.mean_cum_reward:.4f}",
            f"mean AoI reward    : {self.mean_aoi_reward:.4f}",
            f"mean energy reward : {self.mean_energy_reward:.4f}",
            f"mean collections   : {self.mean_collections:.2f}",
            "constraints (satisfied / violations over all episodes):",
            f"  all data collected : {c.uncollected == 0} / {c.uncollected}",
            f"  iot energy floor   : {c.low_energy_iots == 0} / {c.low_energy_iots}",
            f"  uav energy range   : {c.deaths == 0} / {c.deaths}",
            f"  collision distance : {c.collisions == 0} / {c.collisions}",
            f"  flight area        : {c.clips == 0} / {c.clips}",
        ]
        return "\n".join(lines)


def evaluate(scenario: ScenarioConfig, policy, episodes: int,
             seed: int) -> EvalReport:
    """Deterministic evaluation: a learned policy acts by argmax, the greedy
    heuristic has no randomness, and the random baseline draws from the
    stream seeded ``seed``."""
    rows, _ = rollout_policy(scenario, policy, episodes, seed)
    totals = [sum(col) for col in zip(*(astuple(r.counts) for r in rows))]
    return EvalReport(
        policy=getattr(policy, "name", "policy"),
        episodes=episodes,
        mean_peak_aoi=float(np.mean([r.peak_aoi for r in rows])),
        max_peak_aoi=int(max(r.peak_aoi for r in rows)),
        mean_peak_aoi_recorded=float(np.mean([r.peak_aoi_recorded for r in rows])),
        mean_cum_reward=float(np.mean([r.cum_reward for r in rows])),
        mean_aoi_reward=float(np.mean([r.aoi_reward for r in rows])),
        mean_energy_reward=float(np.mean([r.energy_reward for r in rows])),
        mean_collections=float(np.mean([r.counts.collections for r in rows])),
        constraints=world.EpisodeCounts(*totals),
    )
