"""Autodiff correctness: op semantics, finite differences, optimizer."""

import math

import numpy as np
import pytest

from aoi_uav import tensor as tt
from aoi_uav.tensor import Adam, Tape, Tensor


def finite_difference(f, params, h=1e-5):
    """Central-difference gradients of scalar f() w.r.t. each param tensor."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def tape_gradients(build, params):
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = build()
        tape.backward(loss)
    return {k: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for k, p in params.items()}


def assert_grads_close(analytic, numeric, rel=1e-4):
    for name in numeric:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(n), 1e-6)
        worst = np.max(np.abs(a - n) / denom)
        assert worst < rel, f"{name}: worst relative error {worst}"


class TestForwardSemantics:
    def test_softmax_symmetry(self):
        out = tt.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = tt.softmax(Tensor(rng.normal(size=(7, 9))))
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-12)

    def test_matmul_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = tt.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_activations_at_zero(self):
        _, _, gates, _ = tt.lstm_cell(np.zeros(4), np.zeros(1))
        np.testing.assert_array_equal(gates, [0.5, 0.5, 0.0, 0.5])
        assert tt.tanh(Tensor(0.0)).item() == 0.0

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(5).normal(size=(4, 6))
        np.testing.assert_allclose(tt.log_softmax(Tensor(x)).data,
                                   np.log(tt.softmax(Tensor(x)).data), atol=1e-14)

    def test_log_softmax_finite_where_softmax_underflows(self):
        assert tt.softmax(Tensor([1000.0, 0.0])).data[1] == 0.0
        np.testing.assert_array_equal(tt.log_softmax(Tensor([1000.0, 0.0])).data,
                                      [0.0, -1000.0])

    def test_concat_and_take(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0])
        cat = tt.concat([a, b])
        np.testing.assert_array_equal(cat.data, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cat[1:].data, [2.0, 3.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tt.linear(Tensor(np.ones((4,))), Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))


class TestBackward:
    def test_product_rule(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(tt.mul(x, y))
        assert x.grad == 3.0 and y.grad == 2.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = tt.mul(x, 2.0)
            with pytest.raises(ValueError):
                tape.backward(out)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(1.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(tt.mul(x, 5.0))
        with Tape() as tape:
            tape.backward(tt.mul(x, 5.0))
        assert x.grad == 10.0

    def test_backward_deterministic(self):
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(np.zeros(4))
        x = rng.normal(size=4)

        def run():
            w.zero_grad()
            with Tape() as tape:
                tape.backward(tt.sum_(tt.tanh(tt.linear(Tensor(x), w, b))))
            return w.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1, g2)

    def test_reused_tensor_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(tt.mul(x, x))
        assert x.grad == 6.0


class TestFiniteDifferenceMaster:
    def test_mlp_composition(self):
        rng = np.random.default_rng(7)
        params = {
            "w1": Tensor(rng.normal(size=(6, 4)) * 0.5, requires_grad=True),
            "b1": Tensor(rng.normal(size=6) * 0.1, requires_grad=True),
            "w2": Tensor(rng.normal(size=(1, 6)) * 0.5, requires_grad=True),
        }
        x = rng.normal(size=4)

        def forward():
            h = tt.tanh(tt.linear(Tensor(x), params["w1"], params["b1"]))
            return tt.sum_(tt.linear(h, params["w2"], Tensor(np.zeros(1))))

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)

    def test_softmax_logprob_composition(self):
        rng = np.random.default_rng(13)
        params = {"w": Tensor(rng.normal(size=(8, 5)) * 0.4, requires_grad=True)}
        x = rng.normal(size=5)

        def forward():
            return tt.log_softmax(tt.linear(Tensor(x), params["w"], Tensor(np.zeros(8))))[3]

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)

    def test_clip_min_exp_composition(self):
        rng = np.random.default_rng(17)
        params = {"a": Tensor(rng.normal(size=6), requires_grad=True),
                  "b": Tensor(rng.normal(size=6), requires_grad=True)}

        def forward():
            ratio = tt.exp(tt.sub(params["a"], params["b"]))
            clipped = tt.clip_by_value(ratio, 0.8, 1.2)
            return tt.mean(tt.minimum(ratio, clipped))

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)

    def test_randomized_elementwise_chains(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            params = {"x": Tensor(rng.uniform(0.5, 1.5, size=7), requires_grad=True)}

            def forward():
                t = tt.log_softmax(params["x"])
                t = tt.add(tt.exp(t), tt.tanh(t))
                t = tt.mul(t, tt.tanh(params["x"]))
                return tt.mean(t)

            analytic = tape_gradients(forward, params)
            numeric = finite_difference(lambda: forward().item(), params)
            assert_grads_close(analytic, numeric)


class TestFusedOps:
    H, IN = 3, 4

    def lstm_inputs(self, rng, B, T, lead=()):
        H, IN = self.H, self.IN
        return {"x": Tensor(rng.normal(size=(*lead, B, T, IN)), requires_grad=True),
                "w_ih": Tensor(rng.normal(scale=0.5, size=(*lead, 4 * H, IN)), requires_grad=True),
                "w_hh": Tensor(rng.normal(scale=0.5, size=(*lead, 4 * H, H)), requires_grad=True),
                "bias": Tensor(rng.normal(scale=0.3, size=(*lead, 4 * H)), requires_grad=True),
                "h0": Tensor(rng.normal(scale=0.5, size=(*lead, B, H)), requires_grad=True),
                "c0": Tensor(rng.normal(scale=0.5, size=(*lead, B, H)), requires_grad=True)}

    def step_by_step(self, p, mask):
        """Reference: one `lstm_cell` call per LSTM, sequence and step."""
        x, w_ih, w_hh, bias = (p[k].data for k in ("x", "w_ih", "w_hh", "bias"))
        out = np.empty(x.shape[:-1] + (self.H,))
        for u in np.ndindex(x.shape[:-3]):
            for b in range(x.shape[-3]):
                h, c = p["h0"].data[u][b], p["c0"].data[u][b]
                for t in range(x.shape[-2]):
                    if mask[b, t]:
                        h, c, _, _ = tt.lstm_cell(
                            w_ih[u] @ x[u][b, t] + w_hh[u] @ h + bias[u], c)
                    out[u][b, t] = h
        return out

    @pytest.mark.parametrize("B,T,lengths", [(1, 1, (1,)), (1, 5, (5,)),
                                             (3, 4, (4, 2, 1))])
    def test_lstm_seq_forward_and_finite_differences(self, B, T, lengths):
        # Without and with a leading agent axis of two LSTMs sharing the mask.
        rng = np.random.default_rng(31 + B * T)
        mask = np.array([[t < n for t in range(T)] for n in lengths], dtype=float)
        names = ("x", "w_ih", "w_hh", "bias", "h0", "c0")
        for lead in ((), (2,)):
            p = self.lstm_inputs(rng, B, T, lead)
            weight = rng.normal(size=(*lead, B, T, self.H))

            def forward(p=p, weight=weight):
                return tt.sum_(tt.mul(tt.lstm_seq(*(p[k] for k in names), mask), weight))

            hs = tt.lstm_seq(*(p[k] for k in names), mask)
            np.testing.assert_allclose(hs.data, self.step_by_step(p, mask), atol=1e-14)
            analytic = tape_gradients(forward, p)
            numeric = finite_difference(lambda: forward().item(), p)
            assert_grads_close(analytic, numeric)
            if min(lengths) < T:  # padding: a masked step carries h and c over
                np.testing.assert_array_equal(hs.data[..., 2, 1:, :],
                                              np.repeat(hs.data[..., 2, :1, :], 3, -2))
                np.testing.assert_array_equal(analytic["x"][..., 2, 1:, :], 0.0)
            for u in range(lead[0]) if lead else ():  # each LSTM equals its own call
                own = {k: Tensor(p[k].data[u], requires_grad=True) for k in names}
                own_hs = tt.lstm_seq(*(own[k] for k in names), mask)
                np.testing.assert_array_equal(own_hs.data, hs.data[u])
                own_grads = tape_gradients(
                    lambda own=own, u=u: forward(own, weight[u]), own)
                for k in names:
                    np.testing.assert_array_equal(own_grads[k], analytic[k][u], err_msg=k)

    def test_stack_finite_differences(self):
        # ``a`` is stacked twice, so its gradient sums two rows.
        rng = np.random.default_rng(41)
        params = {k: Tensor(rng.normal(size=(2, 3)), requires_grad=True) for k in "ab"}
        weight = rng.normal(size=(3, 2, 3))

        def forward():
            stacked = tt.stack([params["a"], params["b"], params["a"]])
            return tt.sum_(tt.mul(stacked, weight))

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)
        np.testing.assert_array_equal(analytic["b"], weight[1])

    @pytest.mark.parametrize("x_shape", [(4,), (5, 4)])
    def test_linear_finite_differences(self, x_shape):
        # On rows, the bias gradient sums over them.
        rng = np.random.default_rng(43)
        params = {"x": Tensor(rng.normal(size=x_shape), requires_grad=True),
                  "w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=3), requires_grad=True)}
        weight = rng.normal(size=(*x_shape[:-1], 3))

        def forward():
            return tt.sum_(tt.mul(tt.linear(params["x"], params["w"], params["b"]),
                                  weight))

        with Tape() as tape:
            out = tt.linear(params["x"], params["w"], params["b"])
        assert len(tape.records) == 1
        np.testing.assert_allclose(
            out.data, params["x"].data @ params["w"].data.T + params["b"].data)
        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("shape", [(5,), (3, 6)])
    def test_log_softmax_finite_differences(self, shape):
        rng = np.random.default_rng(37)
        params = {"a": Tensor(rng.normal(size=shape), requires_grad=True)}
        weight = rng.normal(size=shape)

        def forward():
            return tt.sum_(tt.mul(tt.log_softmax(params["a"]), weight))

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)


class TestAdam:
    def test_zero_gradients_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_moves_against_sign(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01, clip_norm=0.0)
        history = [p.data.copy()]
        for _ in range(50):
            p.grad = np.array(2.5)
            opt.step()
            history.append(p.data.copy())
        diffs = np.diff(np.array(history))
        assert np.all(diffs < 0)

    def test_global_norm_clip_scale(self):
        # Norm 5 against threshold 0.5 must scale every gradient by 0.1
        # before the moment update; verify via the first-step moments.
        p1 = Tensor(np.array([3.0]), requires_grad=True)
        p2 = Tensor(np.array([4.0]), requires_grad=True)
        opt = Adam({"a": p1, "b": p2}, lr=0.0, clip_norm=0.5)
        p1.grad, p2.grad = np.array([3.0]), np.array([4.0])
        opt.step()
        np.testing.assert_allclose(opt.m["a"], 0.1 * np.array([0.3]), atol=1e-15)
        np.testing.assert_allclose(opt.m["b"], 0.1 * np.array([0.4]), atol=1e-15)

    def test_entropy_identity(self):
        probs = tt.softmax(Tensor(np.zeros(8)))
        ent = -float(np.sum(probs.data * np.log(probs.data)))
        assert ent == pytest.approx(math.log(8), abs=1e-12)
