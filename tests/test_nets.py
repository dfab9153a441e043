"""Actor/critic network behavior and the finite-difference master property."""

import math

import numpy as np
import pytest

from aoi_uav import nets, tensor as tt
from aoi_uav.gradcheck import run_gradcheck
from aoi_uav.nets import (
    HiddenState,
    actor_step,
    blend_weights,
    critic_value,
    critic_values,
    init_actor,
    init_critic,
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

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_stack_rows_are_the_agent_actors(self, recurrent):
        actors = [fresh_actor(seed, recurrent) for seed in range(3)]
        stacked = stack_actors(actors)
        assert stacked.tensors("a").keys() == actors[0].tensors("a").keys()
        for j, actor in enumerate(actors):
            for name, t in stacked.tensors("a").items():
                np.testing.assert_array_equal(t.data[j], actor.tensors("a")[name].data)
        if recurrent:
            assert stacked.lstm.hidden_size == actors[0].lstm.hidden_size == HIDDEN


class TestCritic:
    def fresh(self, seed=0, **kw):
        return init_critic(np.random.default_rng(seed), OBS_DIM, 12, 10, 6, **kw)

    def test_equal_logits_even_blend(self):
        critic = self.fresh()
        obs, state = RNG.normal(size=OBS_DIM), RNG.normal(size=12)
        v = critic_value(critic, Tensor(obs), Tensor(state))
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
                         Tensor(RNG.normal(size=12)))
        assert v.item() == pytest.approx(7.5, abs=1e-12)

    def test_saturated_blend(self):
        critic = self.fresh()
        critic.blend_logits.data[...] = [20.0, 0.0]
        obs, state = RNG.normal(size=OBS_DIM), RNG.normal(size=12)
        v = critic_value(critic, Tensor(obs), Tensor(state))
        v_local = nets._mlp_forward(critic.local_layers, Tensor(obs))
        assert abs(v.item() - v_local.item()) < 1e-8

    @pytest.mark.parametrize("single_head", [False, True])
    def test_numpy_values_equal_tensor_values(self, single_head):
        critic = self.fresh(single_head=single_head)
        if not single_head:
            critic.blend_logits.data[...] = [0.3, -0.4]
        obs, state = RNG.normal(size=(4, OBS_DIM)), RNG.normal(size=12)
        expected = [critic_value(critic, Tensor(row), Tensor(state)).item()
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


def per_agent_head_chains(actors, batch):
    """`nets.actors_log_probs` as it ran before its heads were stacked: the
    agent-axis replay, then one head chain per agent."""
    if actors[0].recurrent:
        cells = [a.lstm for a in actors]
        hs = tt.lstm_seq(batch.x, *(tt.stack([getattr(c, name) for c in cells])
                                    for name in ("w_ih", "w_hh", "bias")))
        features = hs[(slice(None), *batch.steps)]
        per_agent = [features[j] for j in range(len(actors))]
    else:
        per_agent = [Tensor(obs) for obs in batch.obs]
    return [tt.log_softmax(nets.policy_head_batch(actor, f))
            for actor, f in zip(actors, per_agent)]


class TestStackedHeads:
    @pytest.mark.parametrize("recurrent", [True, False])
    def test_stacked_heads_equal_per_agent_chains(self, recurrent):
        # mappo_lstm and mappo_ff actors, three agents, unequal episodes.
        actors = [fresh_actor(seed, recurrent) for seed in range(3)]
        params = {}
        for j, actor in enumerate(actors):
            params.update(actor.tensors(f"actor{j}"))
        rng = np.random.default_rng(43)
        batch = nets.replay_batch([[rng.normal(size=(n, OBS_DIM)) for n in (5, 2, 4)]
                                   for _ in actors])
        weight = rng.normal(size=(len(actors), 11, N_ACTIONS))

        def run(build):
            for p in params.values():
                p.zero_grad()
            with tt.Tape() as tape:
                data, loss = build()
                tape.backward(loss)
            return data, {k: p.grad.tobytes() for k, p in params.items()}

        def stacked():
            log_all = nets.actors_log_probs(actors, batch)
            return log_all.data.tobytes(), tt.sum_(tt.mul(log_all, weight))

        def chains():
            logs = per_agent_head_chains(actors, batch)
            return (np.stack([log_j.data for log_j in logs]).tobytes(),
                    tt.sum_(tt.stack([tt.mul(log_j, w_j)
                                      for log_j, w_j in zip(logs, weight)])))

        got, want = run(stacked), run(chains)
        assert got[0] == want[0]
        for k in params:
            assert got[1][k] == want[1][k], k


class TestTapeRecords:
    def test_every_affine_layer_is_one_record(self):
        # A policy head is linear, tanh, linear; a 3-layer value head adds
        # one more linear and tanh.
        actor = fresh_actor(recurrent=False)
        critic = init_critic(np.random.default_rng(1), OBS_DIM, 12, 6, 5,
                             single_head=True)
        with tt.Tape() as tape:
            nets.policy_head_batch(actor, Tensor(RNG.normal(size=(4, OBS_DIM))))
        assert len(tape.records) == 3
        with tt.Tape() as tape:
            critic_value(critic, Tensor(RNG.normal(size=(3, 4, OBS_DIM))),
                         Tensor(RNG.normal(size=(4, 12))))
        assert len(tape.records) == 5


def inverse_cdf(probs, u):
    """Reference draw from one distribution: the first index whose
    cumulative probability exceeds ``u``, the last if none does."""
    idx = min(int(np.searchsorted(np.cumsum(probs), u, side="right")),
              len(probs) - 1)
    return idx, math.log(probs[idx])


class TestSampling:
    def test_near_deterministic_distribution(self):
        probs = np.full(8, 1e-9)
        probs[5] = 1.0 - probs.sum() + 1e-9
        rng = np.random.default_rng(0)
        idx, logp = sample_actions(np.tile(probs, (50, 1)), rng.random(50))
        assert idx.tolist() == [5] * 50
        np.testing.assert_allclose(logp, 0.0, atol=1e-6)

    def test_uniform_frequencies(self):
        probs = np.full(8, 0.125)
        rng = np.random.default_rng(123)
        n = 100_000
        idx, _ = sample_actions(np.broadcast_to(probs, (n, 8)), rng.random(n))
        np.testing.assert_allclose(np.bincount(idx, minlength=8) / n, probs,
                                   atol=0.01)

    def test_logp_is_exact_log(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(5)
        idx, logp = sample_actions(np.tile(probs, (20, 1)), rng.random(20))
        assert logp.tolist() == [math.log(probs[i]) for i in idx.tolist()]


class TestBatchSampling:
    def test_rows_equal_inverse_cdf_reference(self):
        # U uniforms drawn at once equal U draws one by one, so the batch
        # sampler picks what a one-row inverse-CDF draw picks, row by row.
        rng = np.random.default_rng(3)
        probs = tt.softmax_array(rng.normal(size=(5, 3, N_ACTIONS)) * 3.0)
        probs[0, 0] = np.eye(N_ACTIONS)[N_ACTIONS - 1]   # a saturated row
        streams = [np.random.default_rng([9, b]) for b in range(5)]
        idx, logp = sample_actions(
            probs, np.stack([s.random(3) for s in streams]))
        for b in range(5):
            replay = np.random.default_rng([9, b])
            for j in range(3):
                assert ((idx[b, j], logp[b, j])
                        == inverse_cdf(probs[b, j], replay.random()))

    def test_rounding_short_cdf_picks_the_last_index(self):
        # A cumulative sum that rounds below the draw selects no index by
        # its rule, and both samplers fall back to the last one.
        probs = np.array([[0.5, 0.5 - 1e-12]])
        idx, _ = sample_actions(probs, np.array([1.0 - 1e-13]))
        assert idx.tolist() == [1] == [inverse_cdf(probs[0], 1.0 - 1e-13)[0]]


class TestGradientMasterProperty:
    def test_actor_and_critic_graphs(self):
        results = run_gradcheck(trials=8, seed=1)
        for r in results:
            assert r.passed, f"{r.label}: worst rel error {r.worst_rel_error}"
