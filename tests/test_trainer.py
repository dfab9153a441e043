"""Rollouts, GAE, clipped-surrogate mechanics, baselines, evaluation."""

import copy
import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from aoi_uav import cli, nets, tensor as tt, trainer, world
from aoi_uav.config import ScenarioConfig, TrainConfig, tiny_scenario
from aoi_uav.config_io import load_config
from aoi_uav.nets import actor_step, critic_values, zero_hidden
from aoi_uav.tensor import Tensor
from aoi_uav.trainer import (
    AgentTrajectory,
    EpisodeTrajectory,
    TrainingDiverged,
    TrajectoryBatch,
    build_bundle,
    bundle_to_tensors,
    collect_rollout,
    compute_advantages,
    evaluate,
    make_policy,
    ppo_update,
    rollout_policy,
    train,
)

SMALL_TRAIN = TrainConfig(episodes=2, episodes_per_update=2, epochs=2,
                          hidden_size=8, head_hidden=8,
                          critic_hidden1=8, critic_hidden2=8)


def small_scenario(horizon=10, n_uavs=2):
    return replace(tiny_scenario(), horizon=horizon, n_uavs=n_uavs)


def synthetic_batch(rewards, values):
    """Single-episode, single-agent batch with the given scalar sequences."""
    T = len(rewards)
    traj = AgentTrajectory(
        obs=np.zeros((T, 3)),
        actions=[0] * T,
        log_probs=[0.0] * T,
        rewards=list(rewards),
        values=list(values),
    )
    ep = EpisodeTrajectory(
        agents=[traj],
        global_states=np.zeros((T, 4)),
        metrics=None,
    )
    return TrajectoryBatch(episodes=[ep])


def stable(row):
    return row.csv_row().rsplit(",", 1)[0]  # drop wall_ms


def play_episode(scen, choose):
    """One episode from reset through `world.step`, ``choose(state)`` giving
    each joint action; returns the final state and every event."""
    state, events, done = world.reset(scen, scen.rng_seed), [], False
    while not done:
        state, _, done = world.step(state, choose(state), scen)
        events.extend(state.events)
    return state, events


def sampled_episode_events(scen, bundle, seed, idx):
    """The events of episode ``idx`` of a sampling LearnedPolicy, played as
    `rollout_policy` plays it."""
    policy = make_policy("learned", scen, bundle)
    rng = np.random.default_rng([seed, idx])
    return play_episode(scen, lambda state: policy.joint_action(state, rng, False))[1]


def brute_force_gae(rewards, values, gamma, lam):
    """Independent double-loop evaluation of the advantage sums."""
    T = len(rewards)
    vs = list(values) + [0.0]
    deltas = []
    for t in range(T):
        nonterminal = 0.0 if t == T - 1 else 1.0
        deltas.append(rewards[t] + gamma * vs[t + 1] * nonterminal - vs[t])
    adv = []
    for t in range(T):
        total = 0.0
        for k in range(t, T):
            total += (gamma * lam) ** (k - t) * deltas[k]
        adv.append(total)
    return deltas, adv


def death_shortened_batch(algo="mappo_lstm"):
    """Three UAVs over three episodes, some cut short by a death, so that a
    replay pads the shorter episodes."""
    scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.03)
    tconf = replace(SMALL_TRAIN, algo=algo)
    bundle = build_bundle(scen, tconf, seed=2)
    batch = collect_rollout(scen, bundle, episodes=3, seed=2)
    assert len({len(ep.agents[0].obs) for ep in batch.episodes}) > 1
    return bundle, batch, tconf


def one_agent_log_probs(actor, obs_seqs):
    """Reference replay of one agent alone: its padded episodes through an
    `lstm_seq` call with no agent axis."""
    if not actor.recurrent:
        return tt.log_softmax(nets.policy_head_batch(actor, Tensor(np.concatenate(obs_seqs))))
    cell = actor.lstm
    B, T = len(obs_seqs), max(len(seq) for seq in obs_seqs)
    x, mask = np.zeros((B, T, cell.w_ih.data.shape[1])), np.zeros((B, T))
    for b, seq in enumerate(obs_seqs):
        x[b, :len(seq)] = seq
        mask[b, :len(seq)] = 1.0
    hs = tt.lstm_seq(x, cell.w_ih, cell.w_hh, cell.bias)
    return tt.log_softmax(nets.policy_head_batch(actor, hs[np.nonzero(mask)]))


def agent_columns(batch, name):
    """Every agent's ``name`` field, stacked along a leading agent axis,
    with its slots episode by episode."""
    return np.stack([np.concatenate([getattr(ep.agents[j], name)
                                     for ep in batch.episodes])
                     for j in range(len(batch.episodes[0].agents))])


def agent_by_agent_ppo_update(batch, bundle, optimizer, tconf):
    """Reference `ppo_update` that replays and scores one agent at a time
    through `one_agent_log_probs`.  The critic is the same one chain over
    every agent as in `ppo_update`: Adam's global-norm clip couples every
    parameter, so a critic summed in another order would move the actors
    too."""
    critic = bundle.critic
    states = Tensor(np.concatenate([ep.global_states for ep in batch.episodes]))
    per_agent = [[ep.agents[j] for ep in batch.episodes]
                 for j in range(len(bundle.actors))]
    obs = Tensor(agent_columns(batch, "obs"))
    returns = agent_columns(batch, "returns")[..., None]
    report = None
    for _ in range(tconf.epochs):
        with tt.Tape() as tape:
            objectives, entropies, ratios, flags = [], [], [], []
            for actor, trajs in zip(bundle.actors, per_agent):
                actions = np.concatenate([t.actions for t in trajs])
                log_all = one_agent_log_probs(actor, [t.obs for t in trajs])
                new_logp = log_all[np.arange(actions.size), actions]
                probs = tt.exp(log_all)
                ratio = tt.exp(tt.sub(new_logp, np.concatenate([t.log_probs for t in trajs])))
                clipped = tt.clip_by_value(ratio, 1.0 - tconf.clip_epsilon,
                                           1.0 + tconf.clip_epsilon)
                adv = np.concatenate([t.advantages for t in trajs])
                objectives.append(tt.minimum(tt.mul(ratio, adv), tt.mul(clipped, adv)))
                entropies.append(tt.mul(tt.sum_(tt.mul(probs, log_all), axis=-1), -1.0))
                ratios.append(ratio.data.copy())
                flags.append(ratio.data != clipped.data)
            surrogate = tt.mean(tt.stack(objectives))
            entropy = tt.mean(tt.stack(entropies))
            err = tt.sub(nets.critic_value(critic, obs, states), returns)
            value_loss = tt.mean(tt.mul(err, err))
            loss = tt.add(
                tt.sub(tt.mul(surrogate, -1.0), tt.mul(entropy, tconf.entropy_coef)),
                tt.mul(value_loss, tconf.value_coef))
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            report = trainer.LossReport(
                -surrogate.item(), value_loss.item(), entropy.item(),
                float(np.concatenate(ratios).mean()),
                float(np.concatenate(flags).mean()))
    return report


def per_agent_critic_loss(critic, obs, states, returns):
    """The value loss as `ppo_update` once built it: the global head once,
    then the local head and the blend agent by agent, each agent's squared
    errors joined into one mean."""
    v_global = nets._mlp_forward(critic.global_layers, states)
    value_errs = []
    for obs_j, returns_j in zip(obs, returns):
        if critic.single_head:
            v = v_global
        else:
            v_local = nets._mlp_forward(critic.local_layers, Tensor(obs_j))
            weights = nets.blend_weights(critic)
            v = tt.add(tt.mul(weights[0:1], v_local), tt.mul(weights[1:2], v_global))
        err = tt.sub(v, returns_j)
        value_errs.append(tt.mul(err, err)[:, 0])
    return tt.mean(tt.stack(value_errs))


class TestRolloutCollection:
    def test_bookkeeping_shapes(self):
        scen = small_scenario(horizon=10, n_uavs=2)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=0)
        batch = collect_rollout(scen, bundle, episodes=1, seed=1)
        ep = batch.episodes[0]
        assert len(ep.agents) == 2
        for traj in ep.agents:
            assert len(traj.obs) == len(traj.actions) == len(traj.rewards) == 10
            assert len(traj.values) == 10
        assert len(ep.global_states) == 10

    def test_rollout_deterministic(self):
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=0)
        a = collect_rollout(scen, bundle, episodes=2, seed=5)
        b = collect_rollout(scen, bundle, episodes=2, seed=5)
        for ep_a, ep_b in zip(a.episodes, b.episodes):
            for ta, tb in zip(ep_a.agents, ep_b.agents):
                for name in ("actions", "log_probs", "rewards", "obs"):
                    np.testing.assert_array_equal(getattr(ta, name), getattr(tb, name))

    def test_episode_order_follows_first_episode_idx(self):
        # Episode i draws from default_rng([seed, i]): a shorter rollout is
        # a prefix of a longer one, and a rollout that starts at episode 2
        # replays episodes 2 and 3 of the longer one.
        scen = small_scenario(horizon=6)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=0)
        full = collect_rollout(scen, bundle, episodes=4, seed=9)
        head = collect_rollout(scen, bundle, episodes=2, seed=9)
        tail = collect_rollout(scen, bundle, episodes=2, seed=9,
                               first_episode_idx=2)
        assert [ep.metrics.episode for ep in full.episodes] == [0, 1, 2, 3]
        assert [ep.metrics.episode for ep in tail.episodes] == [2, 3]
        def joint_actions(batch):
            return [[t.actions.tolist() for t in ep.agents] for ep in batch.episodes]

        actions = joint_actions(full)
        assert joint_actions(head) == actions[:2]
        assert joint_actions(tail) == actions[2:]
        assert actions[0] != actions[1]
        other_seed = collect_rollout(scen, bundle, episodes=1, seed=10)
        assert joint_actions(other_seed)[0] != actions[0]

    def test_collection_matches_sampling_policy_rollout(self):
        # Lock-step collection and a sampling LearnedPolicy played one
        # episode at a time through world.step draw the same numbers from
        # the same per-episode streams, so they play the same episodes.
        scen = small_scenario(horizon=8)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=4)
        batch = collect_rollout(scen, bundle, episodes=3, seed=13,
                                first_episode_idx=5)
        rows = rollout_policy(scen, make_policy("learned", scen, bundle),
                              8, seed=13, greedy=False)[5:]
        logs = [sampled_episode_events(scen, bundle, 13, i) for i in (5, 6, 7)]

        assert ([stable(ep.metrics) for ep in batch.episodes]
                == [stable(row) for row in rows])
        assert ([world.events_to_csv(trainer._replay_events(scen, ep))
                 for ep in batch.episodes]
                == [world.events_to_csv(events) for events in logs])

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_lock_step_collection_matches_each_episode_alone(self, algo):
        # Low energy ends some episodes early by a death, so episodes leave
        # the batch at different slots, and the last one runs on alone.
        scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.03)
        bundle = build_bundle(scen, replace(SMALL_TRAIN, algo=algo), seed=2)
        batch = collect_rollout(scen, bundle, episodes=5, seed=9,
                                first_episode_idx=3)
        lengths = [len(ep.agents[0].actions) for ep in batch.episodes]
        assert len(set(lengths)) > 2 and min(lengths) < scen.horizon
        for e, ep in enumerate(batch.episodes):
            alone = collect_rollout(scen, bundle, episodes=1, seed=9,
                                    first_episode_idx=3 + e).episodes[0]
            assert stable(ep.metrics) == stable(alone.metrics)
            events = world.events_to_csv(trainer._replay_events(scen, ep))
            assert events == world.events_to_csv(
                trainer._replay_events(scen, alone))
            assert events == world.events_to_csv(
                sampled_episode_events(scen, bundle, 9, 3 + e))
            np.testing.assert_array_equal(ep.global_states, alone.global_states)
            for a, b in zip(ep.agents, alone.agents):
                for name in ("obs", "actions", "log_probs", "rewards", "values"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_values_equal_per_slot_critic_calls(self, algo):
        # Collection values every slot in one call after the last slot;
        # each value equals that slot's own call, bit for bit.
        bundle, batch, _ = death_shortened_batch(algo)
        for ep in batch.episodes:
            for t, gstate in enumerate(ep.global_states):
                obs = np.stack([traj.obs[t] for traj in ep.agents])
                assert (critic_values(bundle.critic, obs, gstate).tolist()
                        == [traj.values[t] for traj in ep.agents])

    @pytest.mark.parametrize("per_update", [4, 1])
    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_event_sink_gets_each_episodes_step_events(self, algo, per_update,
                                                       monkeypatch):
        # `train` hands each episode the events of its stored actions played
        # through `world.step`, also for episodes cut short by a death, and
        # asking for events changes no metric and no weight.
        scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.03)
        tconf = replace(SMALL_TRAIN, algo=algo, episodes=5,
                        episodes_per_update=per_update)
        plain = train(scen, tconf, seed=3)
        collected, sunk = [], []
        real_collect = trainer.collect_rollout

        def collect(*args, **kwargs):
            batch = real_collect(*args, **kwargs)
            collected.extend(batch.episodes)
            return batch

        monkeypatch.setattr(trainer, "collect_rollout", collect)
        logged = train(scen, tconf, seed=3,
                       event_sink=lambda idx, events: sunk.append((idx, events)))
        assert [idx for idx, _ in sunk] == list(range(5))
        assert len({len(ep.agents[0].actions) for ep in collected}) > 1
        for ep, (_, events) in zip(collected, sunk):
            joints = zip(*(traj.actions for traj in ep.agents))
            _, played = play_episode(scen, lambda state: list(next(joints)))
            assert next(joints, None) is None
            assert world.events_to_csv(events) == world.events_to_csv(played)
        assert ([stable(row) for row in logged.metrics]
                == [stable(row) for row in plain.metrics])
        for name, weights in bundle_to_tensors(plain.bundle).items():
            np.testing.assert_array_equal(
                bundle_to_tensors(logged.bundle)[name], weights)

    def test_wall_ms_shares_fit_in_the_collection_time(self):
        scen = small_scenario(horizon=10)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=0)
        t0 = time.perf_counter()
        batch = collect_rollout(scen, bundle, episodes=3, seed=1)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        shares = [ep.metrics.wall_ms for ep in batch.episodes]
        assert all(w > 0.0 for w in shares)
        assert sum(shares) <= elapsed_ms

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_joint_action_rollout_matches_per_agent_acts(self, algo):
        # rollout_policy asks the learned policy for the whole joint action
        # at once; a loop of per-agent act calls must play the same episodes.
        scen = small_scenario(horizon=30, n_uavs=3)
        bundle = build_bundle(scen, replace(SMALL_TRAIN, algo=algo), seed=6)
        joint = make_policy("learned", scen, bundle)
        policy = make_policy("learned", scen, bundle)
        rng = np.random.default_rng(0)
        for idx in range(2):
            joint.begin_episode()
            _, by_joint = play_episode(
                scen, lambda state: joint.joint_action(state, rng, True))
            policy.begin_episode()
            _, by_agent = play_episode(
                scen, lambda state: [policy.act(state, j, rng, True)
                                     for j in range(scen.n_uavs)])
            assert world.events_to_csv(by_agent) == world.events_to_csv(by_joint)

    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampling"])
    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_act_per_agent_equals_joint_action_on_canonical_ring(self, algo, greedy):
        # `act` for agents 0..U-1 picks the joint action, keeps the same
        # hidden state and draws the same numbers, one uniform per agent.
        scen, _, _ = load_config(cli._resolve_input("canonical_ring", "presets"))
        bundle = build_bundle(scen, replace(SMALL_TRAIN, algo=algo), seed=4)
        joint = make_policy("learned", scen, bundle)
        single = make_policy("learned", scen, bundle)
        rng_joint, rng_single = np.random.default_rng(7), np.random.default_rng(7)
        state = world.reset(scen, scen.rng_seed)
        for _ in range(40):
            actions = joint.joint_action(state, rng_joint, greedy)
            assert [single.act(state, j, rng_single, greedy)
                    for j in range(scen.n_uavs)] == actions
            np.testing.assert_array_equal(single.hidden.h, joint.hidden.h)
            np.testing.assert_array_equal(single.hidden.c, joint.hidden.c)
            state, _, _ = world.step(state, actions, scen)
        assert rng_single.random() == rng_joint.random()

    def test_padded_batch_replay_matches_per_episode_replay(self):
        # A UAV death ends an episode early, so the batch replay pads the
        # shorter episodes; the padding must change no log-prob or gradient.
        scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.05)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=2)
        batch = collect_rollout(scen, bundle, episodes=3, seed=2)
        trajs = [ep.agents[0] for ep in batch.episodes]
        assert len({len(t.obs) for t in trajs}) > 1
        actor = bundle.actors[0]
        params = actor.tensors("actor")

        def replay(groups):
            for p in params.values():
                p.zero_grad()
            with tt.Tape() as tape:
                outs = [trainer._replay_log_probs(actor, *g) for g in groups]
                loss = 0.0
                for sel, probs, log_all in outs:
                    loss = tt.add(loss, tt.add(tt.sum_(sel),
                                               tt.sum_(tt.mul(probs, log_all))))
                tape.backward(loss)
            logps = np.concatenate([sel.data for sel, _, _ in outs])
            return logps, {k: p.grad.copy() for k, p in params.items()}

        batched, batched_grads = replay([trajs])
        single, single_grads = replay([[t] for t in trajs])
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(batched_grads[k], single_grads[k],
                                       rtol=0, atol=1e-10, err_msg=k)

    def test_actor_step_matches_replay_distributions(self):
        scen = small_scenario(horizon=12)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=6)
        batch = collect_rollout(scen, bundle, episodes=1, seed=7)
        for ep, agent_idx, traj in batch.agent_slots():
            actor = bundle.actors[agent_idx]
            hidden = zero_hidden(SMALL_TRAIN.hidden_size)
            stepped = []
            for obs in traj.obs:
                probs, hidden = actor_step(actor, obs, hidden)
                stepped.append(probs)
            _, _, log_all = trainer._replay_log_probs(actor, traj)
            np.testing.assert_allclose(np.exp(log_all.data), np.stack(stepped),
                                       rtol=0, atol=1e-12)

    def test_stored_logps_self_consistent(self):
        # Under the unmodified policy the replayed log-probs reproduce the
        # stored ones: ratio 1 everywhere.
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=2)
        batch = collect_rollout(scen, bundle, episodes=1, seed=3)
        for ep, agent_idx, traj in batch.agent_slots():
            new_logp, _, _ = trainer._replay_log_probs(bundle.actors[agent_idx], traj)
            ratios = np.exp(new_logp.data - np.asarray(traj.log_probs))
            np.testing.assert_allclose(ratios, np.ones(len(traj.obs)), atol=1e-12)


class TestAdvantages:
    def test_lambda_zero_equals_td_error(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=12)
        values = rng.normal(size=12)
        batch = synthetic_batch(rewards, values)
        compute_advantages(batch, gamma=0.9, lam=0.0, normalize=False)
        deltas, _ = brute_force_gae(rewards, values, 0.9, 0.0)
        np.testing.assert_allclose(batch.episodes[0].agents[0].advantages,
                                   deltas, atol=1e-12)

    def test_gamma_one_lambda_one_suffix_sums(self):
        rewards = [1.0, 2.0, 3.0, 4.0]
        batch = synthetic_batch(rewards, [0.0] * 4)
        compute_advantages(batch, gamma=1.0, lam=1.0, normalize=False)
        np.testing.assert_allclose(batch.episodes[0].agents[0].advantages,
                                   [10.0, 9.0, 7.0, 4.0], atol=1e-12)

    def test_three_slot_hand_example(self):
        # Frozen from the double-loop oracle: deltas (0.95, 0.95, 0.5),
        # advantages (1.8932, 1.31, 0.5).
        rewards = [1.0, 1.0, 1.0]
        values = [0.5, 0.5, 0.5]
        deltas, adv = brute_force_gae(rewards, values, 0.9, 0.8)
        np.testing.assert_allclose(deltas, [0.95, 0.95, 0.5], atol=1e-12)
        np.testing.assert_allclose(adv, [1.8932, 1.31, 0.5], atol=1e-12)
        batch = synthetic_batch(rewards, values)
        compute_advantages(batch, gamma=0.9, lam=0.8, normalize=False)
        traj = batch.episodes[0].agents[0]
        np.testing.assert_allclose(traj.advantages, adv, atol=1e-12)
        np.testing.assert_allclose(traj.returns, np.array(adv) + values, atol=1e-12)

    def test_normalization_statistics(self):
        rng = np.random.default_rng(8)
        batch = synthetic_batch(rng.normal(size=40), rng.normal(size=40))
        compute_advantages(batch, gamma=0.99, lam=0.95, normalize=True)
        adv = batch.episodes[0].agents[0].advantages
        assert abs(adv.mean()) < 1e-10
        assert abs(adv.std() - 1.0) < 1e-6


class TestClippedObjective:
    def _objective(self, ratio, adv, eps=0.2):
        r = Tensor(np.array([ratio]))
        a = Tensor(np.array([adv]))
        clipped = tt.clip_by_value(r, 1.0 - eps, 1.0 + eps)
        return tt.minimum(tt.mul(r, a), tt.mul(clipped, a)).item()

    def test_positive_advantage_clips_high_ratio(self):
        assert self._objective(1.3, 1.0) == pytest.approx(1.2, abs=1e-15)

    def test_negative_advantage_clips_low_ratio(self):
        assert self._objective(0.5, -1.0) == pytest.approx(-0.8, abs=1e-15)

    def test_pessimism_bound_on_real_batch(self):
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=5)
        batch = collect_rollout(scen, bundle, episodes=1, seed=6)
        compute_advantages(batch, 0.99, 0.95)
        for ep, agent_idx, traj in batch.agent_slots():
            new_logp, _, _ = trainer._replay_log_probs(bundle.actors[agent_idx], traj)
            ratio = np.exp(new_logp.data - np.asarray(traj.log_probs))
            clipped = np.clip(ratio, 0.8, 1.2)
            adv = traj.advantages
            assert np.all(np.minimum(ratio * adv, clipped * adv) <= ratio * adv + 1e-15)


class TestAgentAxisReplay:
    """The update replays every agent in one agent-axis `lstm_seq` record;
    it must equal each agent replayed alone, bit for bit."""

    def test_stacked_replay_equals_per_agent_replay(self):
        bundle, batch, _ = death_shortened_batch()
        trajs = [[ep.agents[j] for ep in batch.episodes] for j in range(3)]
        actions = [np.concatenate([t.actions for t in ts]) for ts in trajs]
        params = {}
        for j, actor in enumerate(bundle.actors):
            params.update(actor.tensors(f"actor{j}"))

        def replay(log_prob_terms):
            for p in params.values():
                p.zero_grad()
            with tt.Tape() as tape:
                terms = log_prob_terms()
                loss = 0.0
                for sel, probs, log_all in terms:
                    loss = tt.add(loss, tt.add(tt.sum_(sel),
                                               tt.sum_(tt.mul(probs, log_all))))
                tape.backward(loss)
            return ([sel.data for sel, _, _ in terms],
                    {k: p.grad.copy() for k, p in params.items()})

        replay_batch = nets.replay_batch([[t.obs for t in ts] for ts in trajs])
        stacked = replay(lambda: [
            trainer._log_prob_terms(log_all, a) for log_all, a in
            zip(nets.actors_log_probs(bundle.actors, replay_batch), actions)])
        alone = replay(lambda: [trainer._replay_log_probs(actor, *ts)
                                for actor, ts in zip(bundle.actors, trajs)])
        no_axis = replay(lambda: [
            trainer._log_prob_terms(one_agent_log_probs(actor, [t.obs for t in ts]), a)
            for actor, ts, a in zip(bundle.actors, trajs, actions)])
        for other in (alone, no_axis):
            for got, want in zip(stacked[0], other[0]):
                np.testing.assert_array_equal(got, want)
            for k in params:
                np.testing.assert_array_equal(stacked[1][k], other[1][k], err_msg=k)

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_ppo_update_equals_agent_by_agent_update(self, algo):
        bundle, batch, tconf = death_shortened_batch(algo)
        compute_advantages(batch, tconf.gamma, tconf.gae_lambda)
        reference = copy.deepcopy(bundle)
        report = ppo_update(batch, bundle, tt.Adam(bundle.parameters()), tconf)
        want_report = agent_by_agent_ppo_update(
            batch, reference, tt.Adam(reference.parameters()), tconf)
        assert astuple(report) == astuple(want_report)
        got, want = bundle_to_tensors(bundle), bundle_to_tensors(reference)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k


class TestOneCriticChain:
    """`ppo_update` values every agent in one critic chain; it must give
    the per-agent chain's value loss and, up to the order in which the
    shared weights sum their agents' terms, its gradients."""

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_one_chain_equals_per_agent_chains(self, algo):
        bundle, batch, tconf = death_shortened_batch(algo)
        compute_advantages(batch, tconf.gamma, tconf.gae_lambda)
        critic = bundle.critic
        states = Tensor(np.concatenate([ep.global_states for ep in batch.episodes]))
        obs = agent_columns(batch, "obs")
        returns = agent_columns(batch, "returns")[..., None]
        params = critic.tensors("critic")

        def run(build):
            for p in params.values():
                p.zero_grad()
            with tt.Tape() as tape:
                loss = build()
                tape.backward(loss)
            return loss.item(), {k: p.grad.copy() for k, p in params.items()}

        def one_chain():
            err = tt.sub(nets.critic_value(critic, Tensor(obs), states), returns)
            return tt.mean(tt.mul(err, err))

        got = run(one_chain)
        want = run(lambda: per_agent_critic_loss(critic, obs, states, returns))
        assert got[0] == want[0]
        for k in params:
            np.testing.assert_allclose(got[1][k], want[1][k], rtol=1e-12, err_msg=k)

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_tape_records_do_not_grow_with_agents(self, algo, monkeypatch):
        counts = []
        backward = tt.Tape.backward

        def counting_backward(tape, loss):
            counts.append(len(tape.records))
            backward(tape, loss)

        monkeypatch.setattr(tt.Tape, "backward", counting_backward)
        tconf = replace(SMALL_TRAIN, algo=algo, epochs=1)
        for n_uavs in (2, 4):
            scen = small_scenario(n_uavs=n_uavs)
            bundle = build_bundle(scen, tconf, seed=5)
            batch = collect_rollout(scen, bundle, episodes=2, seed=6)
            compute_advantages(batch, tconf.gamma, tconf.gae_lambda)
            ppo_update(batch, bundle, tt.Adam(bundle.parameters()), tconf)
        assert len(counts) == 2
        assert counts[0] == counts[1]


class TestPpoUpdate:
    def test_update_changes_parameters_and_reports(self):
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=7)
        opt = tt.Adam(bundle.parameters(), lr=1e-3)
        batch = collect_rollout(scen, bundle, episodes=2, seed=8)
        compute_advantages(batch, 0.99, 0.95)
        before = {k: t.data.copy() for k, t in bundle.parameters().items()}
        report = ppo_update(batch, bundle, opt, SMALL_TRAIN)
        changed = any(not np.array_equal(before[k], t.data)
                      for k, t in bundle.parameters().items())
        assert changed
        assert math.isfinite(report.actor_loss)
        assert report.entropy <= math.log(scen.n_actions) + 1e-9

    def test_first_epoch_ratio_is_one(self):
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=9)
        batch = collect_rollout(scen, bundle, episodes=1, seed=10)
        compute_advantages(batch, 0.99, 0.95)
        opt = tt.Adam(bundle.parameters(), lr=1e-3)
        one_epoch = replace(SMALL_TRAIN, epochs=1)
        report = ppo_update(batch, bundle, opt, one_epoch)
        assert report.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.clip_fraction == 0.0

    def test_non_finite_loss_aborts(self):
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=11)
        batch = collect_rollout(scen, bundle, episodes=1, seed=12)
        compute_advantages(batch, 0.99, 0.95)
        bundle.critic.blend_logits.data[...] = np.nan
        opt = tt.Adam(bundle.parameters(), lr=1e-3)
        with pytest.raises(TrainingDiverged):
            ppo_update(batch, bundle, opt, SMALL_TRAIN)

    def test_saturated_logit_stays_finite(self):
        # A saturated logit drives every other action probability to exactly
        # 0; the replay's log_softmax keeps their log-probs finite.
        scen = small_scenario()
        bundle = build_bundle(scen, SMALL_TRAIN, seed=11)
        batch = collect_rollout(scen, bundle, episodes=1, seed=12)
        compute_advantages(batch, 0.99, 0.95)
        for actor in bundle.actors:
            actor.b_out.data[0] = 1000.0
        opt = tt.Adam(bundle.parameters(), lr=1e-3)
        report = ppo_update(batch, bundle, opt, SMALL_TRAIN)
        assert all(math.isfinite(v) for v in astuple(report))
        assert all(np.all(np.isfinite(t.data))
                   for t in bundle.parameters().values())


class TestTrainLoop:
    def test_single_episode_single_row(self):
        scen = small_scenario(horizon=6)
        res = train(scen, replace(SMALL_TRAIN, episodes=1, episodes_per_update=1),
                    seed=1)
        assert len(res.metrics) == 1
        assert res.metrics[0].episode == 0

    def test_same_seed_identical_metrics_stream(self):
        scen = small_scenario(horizon=8)
        tconf = replace(SMALL_TRAIN, episodes=4, episodes_per_update=2)
        a = train(scen, tconf, seed=21)
        b = train(scen, tconf, seed=21)
        strip = lambda row: row.csv_row().rsplit(",", 1)[0]  # drop wall_ms
        assert [strip(r) for r in a.metrics] == [strip(r) for r in b.metrics]

    def test_checkpoint_sink_called_on_interval(self):
        scen = small_scenario(horizon=5)
        tconf = replace(SMALL_TRAIN, episodes=4, episodes_per_update=1,
                        eval_interval=2)
        seen = []
        train(scen, tconf, seed=2, checkpoint_sink=lambda ep, b: seen.append(ep))
        assert seen == [2, 4]


class TestBaselinesAndEvaluate:
    def test_evaluate_deterministic(self):
        scen = small_scenario(horizon=15)
        rep1 = evaluate(scen, make_policy("random", scen), episodes=3, seed=1)
        rep2 = evaluate(scen, make_policy("random", scen), episodes=3, seed=1)
        assert rep1 == rep2

    def test_greedy_toy_collects_both_iots(self, tmp_path):
        layout = tmp_path / "toy.txt"
        layout.write_text("UAV 0 0\nIOT 0 10\nIOT 0 -10\nLBD 0 0 0\n")
        scen = replace(ScenarioConfig(), n_uavs=1, n_iots=2, n_lbds=1,
                       horizon=10, speed=5.0, comm_radius=5.0,
                       regenerate_on_collect=False, layout_file=str(layout))
        policy = make_policy("greedy", scen)
        rows = rollout_policy(scen, policy, episodes=1, seed=0)
        assert rows[0].counts.uncollected == 0
        assert rows[0].counts.collections == 2

    def test_eval_constraint_block_sums_episode_counts(self):
        # Low initial energy: some episodes end in a death, others run out.
        scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.05)
        rows = rollout_policy(scen, make_policy("random", scen),
                              episodes=3, seed=2)
        policy = make_policy("random", scen)
        counts = []
        for idx in range(3):
            rng = np.random.default_rng([2, idx])
            final, _ = play_episode(
                scen, lambda state: policy.joint_action(state, rng, True))
            counts.append(world.episode_counts(final, scen))
        assert [r.counts for r in rows] == counts
        report = evaluate(scen, make_policy("random", scen), episodes=3, seed=2)
        block = report.human_text().splitlines()[-5:]
        for line, label, name in zip(block, (
                "all data collected", "iot energy floor", "uav energy range",
                "collision distance", "flight area"), (
                "uncollected", "low_energy_iots", "deaths", "collisions", "clips")):
            n = sum(getattr(c, name) for c in counts)
            assert line.split(":") == [f"  {label:<18} ", f" {n == 0} / {n}"]
        assert sum(c.deaths for c in counts) > 0
        assert sum(c.collisions for c in counts) > 0

    def test_rollout_policy_episode_depends_on_its_index_alone(self):
        # Episode i replays the same whatever ran before it: the first three
        # episodes of a longer rollout, by a policy that has already played
        # other episodes, equal a fresh three-episode rollout.
        scen = small_scenario(horizon=15)
        rows = rollout_policy(scen, make_policy("random", scen), episodes=3,
                              seed=4, greedy=False)
        policy = make_policy("random", scen)
        rollout_policy(scen, policy, episodes=2, seed=9, greedy=False)
        longer = rollout_policy(scen, policy, episodes=5, seed=4, greedy=False)
        assert [stable(r) for r in rows] == [stable(r) for r in longer[:3]]
        assert len({stable(r).split(",", 1)[1] for r in rows}) == 3

    def test_learned_policy_requires_bundle(self):
        scen = small_scenario()
        with pytest.raises(ValueError):
            make_policy("learned", scen)

    def test_greedy_beats_random_on_peak_aoi(self):
        scen = replace(tiny_scenario(), rng_seed=3)
        greedy = evaluate(scen, make_policy("greedy", scen), episodes=2, seed=0)
        rand = evaluate(scen, make_policy("random", scen), episodes=2, seed=0)
        assert greedy.mean_peak_aoi <= rand.mean_peak_aoi


def eval_policy(kind, algo, scen):
    bundle = (build_bundle(scen, replace(SMALL_TRAIN, algo=algo), seed=4)
              if kind == "learned" else None)
    return make_policy(kind, scen, bundle)


def counting_world(monkeypatch):
    """Count `world.reset` and `world.step` calls from here on."""
    calls = {"reset": 0, "step": 0}
    for name in calls:
        def wrapped(*args, _name=name, _inner=getattr(world, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(world, name, wrapped)
    return calls


class TestDeterministicEvaluation:
    # Every evaluation episode resets to the same seeded layout, so a policy
    # that draws no random numbers plays one distinct episode.

    @pytest.mark.parametrize("kind, algo", [("greedy", None),
                                            ("learned", "mappo_lstm"),
                                            ("learned", "mappo_ff")])
    @pytest.mark.parametrize("preset", ["tiny", "canonical_ring"])
    def test_n_plays_equal_n_copies(self, preset, kind, algo, monkeypatch):
        scen, _, _ = load_config(cli._resolve_input(preset, "presets"))
        policy = eval_policy(kind, algo, scen)
        copies = rollout_policy(scen, policy, episodes=3, seed=6)
        monkeypatch.setattr(policy, "deterministic", lambda greedy: False,
                            raising=False)
        plays = rollout_policy(scen, policy, episodes=3, seed=6)
        assert [r.episode for r in copies] == [0, 1, 2]
        assert [stable(r) for r in copies] == [stable(r) for r in plays]

    @pytest.mark.parametrize("kind, algo", [("greedy", None),
                                            ("learned", "mappo_lstm")])
    def test_steps_one_episodes_worth(self, kind, algo, monkeypatch):
        scen = small_scenario(horizon=12)
        policy = eval_policy(kind, algo, scen)
        calls = counting_world(monkeypatch)
        rows = rollout_policy(scen, policy, episodes=4, seed=1)
        assert len(rows) == 4
        assert calls == {"reset": 1, "step": 12}

    @pytest.mark.parametrize("kind, greedy", [("random", True), ("random", False),
                                              ("learned", False)])
    def test_random_draws_play_every_episode(self, kind, greedy, monkeypatch):
        scen = small_scenario(horizon=12)
        policy = eval_policy(kind, "mappo_lstm", scen)
        calls = counting_world(monkeypatch)
        rows = rollout_policy(scen, policy, episodes=4, seed=1, greedy=greedy)
        assert calls == {"reset": 4, "step": 48}
        assert len({stable(r).split(",", 1)[1] for r in rows}) > 1

    def test_deterministic_flags(self):
        scen = small_scenario()
        for kind, flags in (("greedy", (True, True)), ("random", (False, False)),
                            ("learned", (True, False))):
            policy = eval_policy(kind, "mappo_lstm", scen)
            assert (policy.deterministic(True), policy.deterministic(False)) == flags


class TestFeedForwardBaseline:
    def test_mappo_ff_trains_and_ignores_local_obs(self):
        scen = small_scenario(horizon=8)
        tconf = replace(SMALL_TRAIN, algo="mappo_ff", episodes=2)
        res = train(scen, tconf, seed=4)
        assert len(res.metrics) == 2
        critic = res.bundle.critic
        assert critic.single_head
        assert not any(k.startswith("critic/local")
                       for k in res.bundle.parameters())
        rng = np.random.default_rng(0)
        state = Tensor(rng.normal(size=(1, scen.global_state_dim)))
        v1 = nets.critic_value(critic, Tensor(rng.normal(size=(1, scen.obs_dim))),
                               state).item()
        v2 = nets.critic_value(critic, Tensor(rng.normal(size=(1, scen.obs_dim))),
                               state).item()
        assert v1 == v2
