"""Training loop: rollout collection, advantage estimation, clipped-surrogate
policy updates, plus heuristic baselines and the evaluation harness.

Training collection steps every episode of an update in lock step
(`world.step_batch`); evaluation plays one episode at a time through
`run_episode` and `world.step`.  Both follow one RNG rule: episode ``e`` of
a rollout seeded ``s`` draws from its own stream,
``np.random.default_rng([s, e])``, so an episode's output depends on the
seed and its index alone, not on how many episodes run beside it.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

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
    sample_actions,
    stack_actors,
    zero_hidden,
)
from .tensor import Adam, Tape, Tensor
from .world import (
    EpisodeLog,
    Event,
    WorldState,
    global_state_vector,
    observe,
    peak_aoi,
)

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
    obs: np.ndarray              # (T, obs_dim)
    actions: list[int]
    log_probs: list[float]       # at collection
    rewards: list[float]
    values: list[float]
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
    global_states: np.ndarray    # (T, global_state_dim)
    metrics: EpisodeMetrics
    events: list[Event] | None   # only when collected with events


@dataclass
class TrajectoryBatch:
    episodes: list[EpisodeTrajectory]

    def agent_slots(self):
        for ep in self.episodes:
            for agent_idx, traj in enumerate(ep.agents):
                yield ep, agent_idx, traj


def _episode_metrics(episode: int, rewards: list[list[float]],
                     r_a: list[float], r_p: list[list[float]],
                     final: WorldState, counts: world.EpisodeCounts,
                     config: ScenarioConfig, wall_ms: float) -> EpisodeMetrics:
    """One episode's metrics from each agent's per-slot total and energy
    rewards, the per-slot AoI reward and the final state."""
    n = config.n_uavs
    rw = config.reward
    return EpisodeMetrics(
        episode=episode,
        cum_reward=sum(sum(rs) for rs in rewards) / n,
        aoi_reward=sum(rw.alpha_a * r for r in r_a),
        energy_reward=sum(sum(rw.beta_p * r for r in rs) for rs in r_p) / n,
        peak_aoi=peak_aoi(final),
        peak_aoi_recorded=final.peak_recorded_aoi,
        counts=counts,
        wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# Episode loop and rollout collection
# ---------------------------------------------------------------------------

def run_episode(scenario: ScenarioConfig, act, episode_idx: int
                ) -> tuple[EpisodeMetrics, EpisodeLog]:
    """Play one episode from reset; ``act(state)`` returns the joint action.

    Returns the episode metrics and its event log.  ``wall_ms`` covers the
    reset and every slot.
    """
    t0 = time.perf_counter()
    state = world.reset(scenario, scenario.rng_seed)
    log = EpisodeLog(config=scenario)
    rewards: list[list[float]] = [[] for _ in range(scenario.n_uavs)]
    r_p: list[list[float]] = [[] for _ in range(scenario.n_uavs)]
    r_a: list[float] = []
    done = False
    while not done:
        state, step_rewards, done = world.step(state, act(state), scenario)
        log.absorb(state)
        r_a.append(step_rewards[0].r_a)
        for j, breakdown in enumerate(step_rewards):
            rewards[j].append(breakdown.total)
            r_p[j].append(breakdown.r_p)
    wall_ms = (time.perf_counter() - t0) * 1e3
    metrics = _episode_metrics(episode_idx, rewards, r_a, r_p, state,
                               world.episode_counts(log), scenario, wall_ms)
    return metrics, log


def collect_rollout(scenario: ScenarioConfig, bundle: PolicyBundle,
                    episodes: int, seed: int, *, first_episode_idx: int = 0,
                    with_events: bool = False) -> TrajectoryBatch:
    """Run full episodes under the bundle's actors, sampling actions.

    The episodes run in lock step as one `world.WorldBatch`: each slot makes
    one `global_state_vector`, `observe`, `actor_step`, `critic_values`,
    `sample_actions` and `world.step` call over every episode still
    running, and an episode leaves the batch when it ends.  Episode ``i``
    (counted from ``first_episode_idx``) draws U uniforms per slot from
    ``np.random.default_rng([seed, i])``, so its trajectory equals the one
    it would have alone.  Hidden states start at zero.  Every quantity the
    update needs is stored; ``with_events`` keeps each episode's events.

    An episode's ``wall_ms`` is its share of the rollout's wall time: the
    reset split evenly over the episodes, and each slot's time split
    evenly over the episodes running in it, so the episodes' ``wall_ms``
    add up to the time of the reset and the slots.
    """
    t0 = time.perf_counter()
    n = scenario.n_uavs
    # Each episode's stream drawn up front, U uniforms per slot in order,
    # which are the numbers that slot-by-slot draws would give.
    draws = np.stack([
        np.random.default_rng([seed, first_episode_idx + e]).random(
            (scenario.horizon, n)) for e in range(episodes)])
    actors = stack_actors(bundle.actors)
    batch = world.WorldBatch.repeat(world.reset(scenario, scenario.rng_seed),
                                    episodes, record_events=with_events)
    hidden = zero_hidden(bundle.hidden_size, episodes, n)
    slots = []    # per slot: the running episodes, then one row per episode
    events = [[] for _ in range(episodes)]
    ends = {}     # episode -> (final state, counts)
    wall = np.full(episodes, (time.perf_counter() - t0) / episodes)
    live = np.arange(episodes)
    while live.size:
        t_slot = time.perf_counter()
        gstate = global_state_vector(batch, scenario)
        obs = observe(batch, None, scenario)
        probs, hidden = actor_step(actors, obs, hidden)
        values = critic_values(bundle.critic, obs, gstate)
        actions, logp = sample_actions(probs, draws[live, batch.slot])
        batch, rewards, done = world.step(batch, actions, scenario)
        slots.append((live, obs, gstate, actions, logp, values, rewards.total,
                      rewards.r_p, rewards.r_a))
        for e, slot_events in zip(live.tolist(), batch.events):
            events[e].extend(slot_events)
        running = live
        if done.any():
            for k in np.flatnonzero(done).tolist():
                ends[int(live[k])] = (batch.row(k),
                                      batch.episode_counts(k, scenario))
            keep = ~done
            batch, live = batch.take(keep), live[keep]
            hidden = HiddenState(hidden.h[keep], hidden.c[keep])
        wall[running] += (time.perf_counter() - t_slot) / running.size

    owner, obs, gstate, actions, logp, values, totals, r_p, r_a = (
        np.concatenate(column) for column in zip(*slots))
    trajectories = []
    for e in range(episodes):
        rows = np.flatnonzero(owner == e)           # the episode's slots, in order
        rewards = totals[rows].T.tolist()
        agents = [AgentTrajectory(obs=obs[rows, j],
                                  actions=actions[rows, j].tolist(),
                                  log_probs=logp[rows, j].tolist(),
                                  rewards=rewards[j],
                                  values=values[rows, j].tolist())
                  for j in range(n)]
        final, counts = ends[e]
        metrics = _episode_metrics(
            first_episode_idx + e, rewards, r_a[rows].tolist(),
            r_p[rows].T.tolist(), final, counts, scenario, wall[e] * 1e3)
        trajectories.append(EpisodeTrajectory(
            agents=agents, global_states=gstate[rows], metrics=metrics,
            events=events[e] if with_events else None))
    return TrajectoryBatch(episodes=trajectories)


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
    log_all = nets.actor_log_probs(actor, [t.obs for t in trajs])
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
    states = Tensor(np.concatenate([ep.global_states for ep in batch.episodes]))
    agents = []
    for j, actor in enumerate(bundle.actors):
        trajs = [ep.agents[j] for ep in batch.episodes]
        agents.append((actor, trajs,
                       np.concatenate([t.log_probs for t in trajs]),
                       np.concatenate([t.advantages for t in trajs]),
                       Tensor(np.concatenate([t.obs for t in trajs])),
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
        """The move whose end point is nearest the target, lower index
        first among moves within 1e-12 m of each other."""
        cfg = self.scenario
        target = self._target(state, agent)
        ends = (state.uav_pos[agent]
                + world._ACTION_UNIT[:cfg.n_actions] * (cfg.speed * cfg.slot_dt))
        gap = ends - target
        best_action, best_dist = 0, float("inf")
        for a, d in enumerate(np.hypot(gap[:, 0], gap[:, 1]).tolist()):
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
                   first_episode_idx: int = 0) -> list[EpisodeMetrics]:
    """Run a policy for whole episodes, one at a time, returning each
    episode's metrics.  Episode ``i`` (counted from ``first_episode_idx``)
    draws from ``np.random.default_rng([seed, i])``, the stream that
    `collect_rollout` gives it."""
    rows = []
    for idx in range(first_episode_idx, first_episode_idx + episodes):
        rng = np.random.default_rng([seed, idx])
        policy.begin_episode()
        metrics, _ = run_episode(
            scenario, lambda state: policy.joint_action(state, rng, greedy), idx)
        rows.append(metrics)
    return rows


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
    for ``tconf.episodes`` episodes.  Each update collects its episodes in
    lock step from the run seed, episode ``i`` of the run drawing from
    ``np.random.default_rng([seed, i])``; ``event_sink(episode, events)``,
    when given, receives each episode's event list."""
    scenario.validate()
    tconf.validate()
    bundle = build_bundle(scenario, tconf, seed)
    optimizer = Adam(bundle.parameters(), lr=tconf.learning_rate,
                     beta1=tconf.adam_beta1, beta2=tconf.adam_beta2,
                     eps=tconf.adam_eps, clip_norm=tconf.clip_norm)
    metrics: list[EpisodeMetrics] = []
    reports: list[LossReport] = []
    episodes_done = 0
    next_checkpoint = tconf.eval_interval
    last_checkpoint = -1

    while episodes_done < tconf.episodes:
        todo = min(tconf.episodes_per_update, tconf.episodes - episodes_done)
        batch = collect_rollout(scenario, bundle, todo, seed,
                                first_episode_idx=episodes_done,
                                with_events=event_sink is not None)
        compute_advantages(batch, tconf.gamma, tconf.gae_lambda)
        reports.append(ppo_update(batch, bundle, optimizer, tconf))
        for ep in batch.episodes:
            metrics.append(ep.metrics)
            if metrics_sink is not None:
                metrics_sink(ep.metrics)
            if event_sink is not None:
                event_sink(ep.metrics.episode, ep.events)
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
    heuristic has no randomness, and the random baseline's episode ``e``
    draws from ``np.random.default_rng([seed, e])``."""
    rows = rollout_policy(scenario, policy, episodes, seed)
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
