"""Actor/critic network behavior and the finite-difference master property."""

import math

import numpy as np
import pytest

from aoi_uav import nets, tensor as tt
from aoi_uav.gradcheck import run_gradcheck
from aoi_uav.nets import (
    HiddenState,
    actor_row,
    actor_step,
    blend_weights,
    critic_value,
    critic_values,
    global_value,
    init_actor,
    init_critic,
    sample_action,
    sample_actions,
    stack_actors,
    zero_hidden,
)
from aoi_uav.tensor import Tensor

RNG = np.random.default_rng(0)
OBS_DIM, HIDDEN, HEAD, N_ACTIONS = 7, 8, 8, 8


def fresh_actor(seed=0, recurrent=True):
    return init_actor(np.random.default_rng(seed), OBS_DIM, N_ACTIONS,
                      HIDDEN, HEAD, recurrent=recurrent)


class TestActor:
    def test_zero_params_uniform(self):
        actor = fresh_actor()
        for t in actor.tensors("a").values():
            t.data[...] = 0.0
        probs, hidden = actor_step(actor, np.zeros(OBS_DIM), zero_hidden(HIDDEN))
        np.testing.assert_allclose(probs, np.full(N_ACTIONS, 1.0 / N_ACTIONS))
        np.testing.assert_array_equal(hidden.h, np.zeros(HIDDEN))
        np.testing.assert_array_equal(hidden.c, np.zeros(HIDDEN))

    def test_deterministic(self):
        actor = fresh_actor(3)
        obs = RNG.normal(size=OBS_DIM)
        h0 = zero_hidden(HIDDEN)
        p1, _ = actor_step(actor, obs, h0)
        p2, _ = actor_step(actor, obs, h0)
        np.testing.assert_array_equal(p1, p2)

    def test_distribution_valid(self):
        actor = fresh_actor(4)
        probs, _ = actor_step(actor, RNG.normal(size=OBS_DIM), zero_hidden(HIDDEN))
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_history_dependence(self):
        # Constructed weights: the forget gate carries a first-step input bit
        # into the cell state, so identical current observations can yield
        # different distributions under different histories.
        actor = fresh_actor()
        for t in actor.tensors("a").values():
            t.data[...] = 0.0
        H = HIDDEN
        actor.lstm.bias.data[0:H] = 5.0          # input gate ~ open
        actor.lstm.bias.data[H:2 * H] = 5.0      # forget gate ~ open
        actor.lstm.bias.data[3 * H:4 * H] = 5.0  # output gate ~ open
        actor.lstm.w_ih.data[2 * H, 0] = 3.0     # first obs entry drives cell 0
        actor.w_head.data[0, 0] = 2.0
        actor.w_out.data[0, 0] = 2.0

        past_a = np.zeros(OBS_DIM)
        past_b = np.zeros(OBS_DIM)
        past_b[0] = 1.0
        current = np.zeros(OBS_DIM)

        _, hid_a = actor_step(actor, past_a, zero_hidden(HIDDEN))
        _, hid_b = actor_step(actor, past_b, zero_hidden(HIDDEN))
        probs_a, _ = actor_step(actor, current, hid_a)
        probs_b, _ = actor_step(actor, current, hid_b)
        assert not np.allclose(probs_a, probs_b)

    def test_feed_forward_variant_ignores_history(self):
        actor = fresh_actor(recurrent=False)
        obs = RNG.normal(size=OBS_DIM)
        p1, hid = actor_step(actor, obs, zero_hidden(HIDDEN))
        hid.h[:] = 99.0
        p2, _ = actor_step(actor, obs, hid)
        np.testing.assert_array_equal(p1, p2)

    def test_feed_forward_variant_has_no_lstm(self):
        actor = fresh_actor(recurrent=False)
        assert actor.lstm is None and not actor.recurrent
        assert sorted(actor.tensors("a")) == ["a/b_head", "a/b_out",
                                              "a/w_head", "a/w_out"]
        assert fresh_actor().recurrent


class TestStackedActors:
    """One `actor_step` over stacked weights must equal every agent's own
    call bit for bit, step after step."""

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_stacked_step_equals_per_agent_steps(self, recurrent):
        actors = [fresh_actor(seed, recurrent) for seed in range(4)]
        stacked = stack_actors(actors)
        rng = np.random.default_rng(5)
        hidden = zero_hidden(HIDDEN, len(actors))
        own = [zero_hidden(HIDDEN) for _ in actors]
        for _ in range(6):
            obs = rng.normal(size=(len(actors), OBS_DIM))
            probs, hidden = actor_step(stacked, obs, hidden)
            for j, actor in enumerate(actors):
                p_j, own[j] = actor_step(actor, obs[j], own[j])
                np.testing.assert_array_equal(probs[j], p_j)
                np.testing.assert_array_equal(hidden.h[j], own[j].h)
                np.testing.assert_array_equal(hidden.c[j], own[j].c)

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_episode_axis_rows_equal_each_episode(self, recurrent):
        # Lock-step collection adds a leading episode axis; each episode's
        # rows must not depend on how many episodes share the call.
        stacked = stack_actors([fresh_actor(seed, recurrent) for seed in range(3)])
        rng = np.random.default_rng(6)
        hidden = zero_hidden(HIDDEN, 5, 3)
        own = [zero_hidden(HIDDEN, 3) for _ in range(5)]
        for _ in range(6):
            obs = rng.normal(size=(5, 3, OBS_DIM))
            probs, hidden = actor_step(stacked, obs, hidden)
            for b in range(5):
                p_b, own[b] = actor_step(stacked, obs[b], own[b])
                np.testing.assert_array_equal(probs[b], p_b)
                np.testing.assert_array_equal(hidden.h[b], own[b].h)
                np.testing.assert_array_equal(hidden.c[b], own[b].c)

    def test_row_of_stack_is_the_agent_actor(self):
        actors = [fresh_actor(seed) for seed in range(3)]
        row = actor_row(stack_actors(actors), 1)
        assert row.tensors("a").keys() == actors[1].tensors("a").keys()
        for name, t in row.tensors("a").items():
            np.testing.assert_array_equal(t.data, actors[1].tensors("a")[name].data)


class TestCritic:
    def fresh(self, seed=0, **kw):
        return init_critic(np.random.default_rng(seed), OBS_DIM, 12, 10, 6, **kw)

    def test_equal_logits_even_blend(self):
        critic = self.fresh()
        obs, state = RNG.normal(size=OBS_DIM), RNG.normal(size=12)
        v = critic_value(critic, Tensor(obs), global_value(critic, Tensor(state)))
        v_local = nets._mlp_forward(critic.local_layers, Tensor(obs))
        v_global = nets._mlp_forward(critic.global_layers, Tensor(state))
        assert v.item() == 0.5 * v_local.item() + 0.5 * v_global.item()

    def test_constant_heads_pass_through(self):
        critic = self.fresh()
        for w, b in critic.local_layers + critic.global_layers:
            w.data[...] = 0.0
            b.data[...] = 0.0
        critic.local_layers[-1][1].data[...] = 7.5
        critic.global_layers[-1][1].data[...] = 7.5
        critic.blend_logits.data[...] = [3.0, -1.0]
        v = critic_value(critic, Tensor(RNG.normal(size=OBS_DIM)),
                         global_value(critic, Tensor(RNG.normal(size=12))))
        assert v.item() == pytest.approx(7.5, abs=1e-12)

    def test_saturated_blend(self):
        critic = self.fresh()
        critic.blend_logits.data[...] = [20.0, 0.0]
        obs, state = RNG.normal(size=OBS_DIM), RNG.normal(size=12)
        v = critic_value(critic, Tensor(obs), global_value(critic, Tensor(state)))
        v_local = nets._mlp_forward(critic.local_layers, Tensor(obs))
        assert abs(v.item() - v_local.item()) < 1e-8

    @pytest.mark.parametrize("single_head", [False, True])
    def test_numpy_values_equal_tensor_values(self, single_head):
        critic = self.fresh(single_head=single_head)
        if not single_head:
            critic.blend_logits.data[...] = [0.3, -0.4]
        obs, state = RNG.normal(size=(4, OBS_DIM)), RNG.normal(size=12)
        v_global = global_value(critic, Tensor(state))
        expected = [critic_value(critic, Tensor(row), v_global).item()
                    for row in obs]
        np.testing.assert_array_equal(critic_values(critic, obs, state), expected)

    @pytest.mark.parametrize("single_head", [False, True])
    def test_episode_axis_values_equal_each_episode(self, single_head):
        critic = self.fresh(single_head=single_head)
        obs, states = RNG.normal(size=(4, 3, OBS_DIM)), RNG.normal(size=(4, 12))
        values = critic_values(critic, obs, states)
        assert values.shape == (4, 3)
        for b in range(4):
            np.testing.assert_array_equal(values[b],
                                          critic_values(critic, obs[b], states[b]))

    def test_blend_weights_convex_after_updates(self):
        critic = self.fresh()
        params = {"blend": critic.blend_logits}
        opt = tt.Adam(params, lr=0.5, clip_norm=0.0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            critic.blend_logits.grad = rng.normal(size=critic.blend_logits.data.shape)
            opt.step()
        w = blend_weights(critic).data
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_near_deterministic_distribution(self):
        probs = np.full(8, 1e-9)
        probs[5] = 1.0 - probs.sum() + 1e-9
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx, logp = sample_action(probs, rng)
            assert idx == 5
            assert logp == pytest.approx(0.0, abs=1e-6)

    def test_uniform_frequencies(self):
        probs = np.full(8, 0.125)
        rng = np.random.default_rng(123)
        counts = np.zeros(8)
        n = 100_000
        for _ in range(n):
            idx, _ = sample_action(probs, rng)
            counts[idx] += 1
        np.testing.assert_allclose(counts / n, probs, atol=0.01)

    def test_logp_is_exact_log(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(5)
        for _ in range(20):
            idx, logp = sample_action(probs, rng)
            assert logp == math.log(probs[idx])


class TestBatchSampling:
    def test_rows_equal_sample_action(self):
        # U uniforms drawn at once equal U draws one by one, so the batch
        # sampler picks what sample_action picks, row by row.
        rng = np.random.default_rng(3)
        probs = tt.softmax_array(rng.normal(size=(5, 3, N_ACTIONS)) * 3.0)
        probs[0, 0] = np.eye(N_ACTIONS)[N_ACTIONS - 1]   # a saturated row
        streams = [np.random.default_rng([9, b]) for b in range(5)]
        idx, logp = sample_actions(
            probs, np.stack([s.random(3) for s in streams]))
        for b in range(5):
            replay = np.random.default_rng([9, b])
            for j in range(3):
                assert (idx[b, j], logp[b, j]) == sample_action(probs[b, j], replay)


class TestGradientMasterProperty:
    def test_actor_and_critic_graphs(self):
        results = run_gradcheck(trials=8, seed=1)
        for r in results:
            assert r.passed, f"{r.label}: worst rel error {r.worst_rel_error}"
