"""Rollouts, GAE, clipped-surrogate mechanics, baselines, evaluation."""

import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from aoi_uav import tensor as tt, trainer, world
from aoi_uav.config import ScenarioConfig, TrainConfig, tiny_scenario
from aoi_uav.nets import actor_step, zero_hidden
from aoi_uav.tensor import Tensor
from aoi_uav.trainer import (
    AgentTrajectory,
    EpisodeTrajectory,
    TrainingDiverged,
    TrajectoryBatch,
    build_bundle,
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
        events=None,
    )
    return TrajectoryBatch(episodes=[ep])


def stable(row):
    return row.csv_row().rsplit(",", 1)[0]  # drop wall_ms


def sampled_episode_log(scen, bundle, seed, idx):
    """Episode ``idx`` of a sampling LearnedPolicy, as `rollout_policy`
    plays it, with its event log."""
    policy = make_policy("learned", scen, bundle)
    rng = np.random.default_rng([seed, idx])
    _, log = trainer.run_episode(
        scen, lambda state: policy.joint_action(state, rng, False), idx)
    return log


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
                assert ta.actions == tb.actions
                assert ta.log_probs == tb.log_probs
                assert ta.rewards == tb.rewards
                np.testing.assert_array_equal(np.stack(ta.obs), np.stack(tb.obs))

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
        actions = [[t.actions for t in ep.agents] for ep in full.episodes]
        assert [[t.actions for t in ep.agents] for ep in head.episodes] == actions[:2]
        assert [[t.actions for t in ep.agents] for ep in tail.episodes] == actions[2:]
        assert actions[0] != actions[1]
        other_seed = collect_rollout(scen, bundle, episodes=1, seed=10)
        assert [t.actions for t in other_seed.episodes[0].agents] != actions[0]

    def test_collection_matches_sampling_policy_rollout(self):
        # Lock-step collection and a sampling LearnedPolicy played one
        # episode at a time through world.step draw the same numbers from
        # the same per-episode streams, so they play the same episodes.
        scen = small_scenario(horizon=8)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=4)
        batch = collect_rollout(scen, bundle, episodes=3, seed=13,
                                first_episode_idx=5, with_events=True)
        rows = rollout_policy(scen, make_policy("learned", scen, bundle),
                              3, seed=13, greedy=False, first_episode_idx=5)
        logs = [sampled_episode_log(scen, bundle, 13, i) for i in (5, 6, 7)]

        assert ([stable(ep.metrics) for ep in batch.episodes]
                == [stable(row) for row in rows])
        assert ([world.events_to_csv(ep.events) for ep in batch.episodes]
                == [world.events_to_csv(log.events) for log in logs])

    @pytest.mark.parametrize("algo", ["mappo_lstm", "mappo_ff"])
    def test_lock_step_collection_matches_each_episode_alone(self, algo):
        # Low energy ends some episodes early by a death, so episodes leave
        # the batch at different slots, and the last one runs on alone.
        scen = replace(small_scenario(horizon=40, n_uavs=3), e_init_frac=0.03)
        bundle = build_bundle(scen, replace(SMALL_TRAIN, algo=algo), seed=2)
        batch = collect_rollout(scen, bundle, episodes=5, seed=9,
                                first_episode_idx=3, with_events=True)
        lengths = [len(ep.agents[0].actions) for ep in batch.episodes]
        assert len(set(lengths)) > 2 and min(lengths) < scen.horizon
        for e, ep in enumerate(batch.episodes):
            alone = collect_rollout(scen, bundle, episodes=1, seed=9,
                                    first_episode_idx=3 + e,
                                    with_events=True).episodes[0]
            assert stable(ep.metrics) == stable(alone.metrics)
            assert world.events_to_csv(ep.events) == world.events_to_csv(alone.events)
            np.testing.assert_array_equal(ep.global_states, alone.global_states)
            for a, b in zip(ep.agents, alone.agents):
                np.testing.assert_array_equal(a.obs, b.obs)
                assert (a.actions, a.log_probs, a.rewards, a.values) == (
                    b.actions, b.log_probs, b.rewards, b.values)

    def test_events_kept_only_when_asked(self):
        scen = small_scenario(horizon=5)
        bundle = build_bundle(scen, SMALL_TRAIN, seed=0)
        plain = collect_rollout(scen, bundle, episodes=2, seed=1)
        kept = collect_rollout(scen, bundle, episodes=2, seed=1, with_events=True)
        assert [ep.events for ep in plain.episodes] == [None, None]
        assert all(ep.events for ep in kept.episodes)
        assert ([stable(ep.metrics) for ep in plain.episodes]
                == [stable(ep.metrics) for ep in kept.episodes])

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
            _, log = trainer.run_episode(
                scen, lambda state: joint.joint_action(state, rng, True), idx)
            policy.begin_episode()
            state, events, done = world.reset(scen, scen.rng_seed), [], False
            while not done:
                actions = [policy.act(state, j, rng, True)
                           for j in range(scen.n_uavs)]
                state, _, done = world.step(state, actions, scen)
                events.extend(state.events)
            assert world.events_to_csv(events) == world.events_to_csv(log.events)

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
            _, log = trainer.run_episode(
                scen, lambda state: policy.joint_action(state, rng, True), idx)
            counts.append(world.episode_counts(log))
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
        scen = small_scenario(horizon=15)
        rows = rollout_policy(scen, make_policy("random", scen), episodes=3,
                              seed=4, greedy=False)
        alone = [rollout_policy(scen, make_policy("random", scen), episodes=1,
                                seed=4, greedy=False, first_episode_idx=i)[0]
                 for i in range(3)]
        assert [stable(r) for r in rows] == [stable(r) for r in alone]
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
        state = rng.normal(size=scen.global_state_dim)
        v_global = trainer.global_value(critic, Tensor(state))
        v1 = trainer.critic_value(critic, Tensor(rng.normal(size=scen.obs_dim)),
                                  v_global).item()
        v2 = trainer.critic_value(critic, Tensor(rng.normal(size=scen.obs_dim)),
                                  v_global).item()
        assert v1 == v2
