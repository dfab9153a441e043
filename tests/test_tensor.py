"""Autodiff correctness: op semantics, finite differences, optimizer."""

import math
import weakref

import numpy as np
import pytest

from aoi_uav import gradcheck, tensor as tt
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

    def test_take(self):
        a = Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(a[1:].data, [2.0, 3.0])
        np.testing.assert_array_equal(a[[2, 0]].data, [3.0, 1.0])

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
        x = rng.normal(size=(1, 4))

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


class TestReplayFreesRecords:
    """`Tape.backward` frees each record once replayed: only leaves keep
    gradients, and a tape is replayed once."""

    @staticmethod
    def layer():
        # loss = sum(tanh(x @ w.T + b)): three records, two of whose
        # outputs (the linear and the tanh) are intermediates.
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        tape = Tape()
        with tape:
            pre = tt.linear(x, w, b)
            act = tt.tanh(pre)
            loss = tt.sum_(act)
        return x, w, b, tape, pre, act, loss

    def test_intermediate_outputs_are_freed(self):
        x, w, b, tape, pre, act, loss = self.layer()
        refs = [weakref.ref(pre.data), weakref.ref(act.data)]
        del pre, act
        assert all(r() is not None for r in refs)        # the tape holds them
        tape.backward(loss)
        assert all(r() is None for r in refs)

    def test_tape_keeps_its_length(self):
        # `bench/spans.py` counts a tape's records after its backward.
        x, w, b, tape, pre, act, loss = self.layer()
        assert len(tape.records) == 3
        tape.backward(loss)
        assert len(tape.records) == 3

    def test_second_backward_raises(self):
        x, w, b, tape, pre, act, loss = self.layer()
        tape.backward(loss)
        grads = w.grad.copy(), b.grad.copy()
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
        assert w.grad.tobytes() == grads[0].tobytes()
        assert b.grad.tobytes() == grads[1].tobytes()

    def test_only_leaves_keep_gradients(self):
        x, w, b, tape, pre, act, loss = self.layer()
        tape.backward(loss)
        assert pre.grad is None and act.grad is None and loss.grad is None
        assert x.grad is None
        # The leaves' gradients, written out as the ops compute them.
        slope = 1.0 - act.data * act.data
        assert w.grad.tobytes() == np.ascontiguousarray((x.data.T @ slope).T).tobytes()
        assert b.grad.tobytes() == slope.sum(axis=0).tobytes()


class TestFiniteDifferenceMaster:
    def test_mlp_composition(self):
        rng = np.random.default_rng(7)
        params = {
            "w1": Tensor(rng.normal(size=(6, 4)) * 0.5, requires_grad=True),
            "b1": Tensor(rng.normal(size=6) * 0.1, requires_grad=True),
            "w2": Tensor(rng.normal(size=(1, 6)) * 0.5, requires_grad=True),
        }
        x = rng.normal(size=(1, 4))

        def forward():
            h = tt.tanh(tt.linear(Tensor(x), params["w1"], params["b1"]))
            return tt.sum_(tt.linear(h, params["w2"], Tensor(np.zeros(1))))

        analytic = tape_gradients(forward, params)
        numeric = finite_difference(lambda: forward().item(), params)
        assert_grads_close(analytic, numeric)

    def test_softmax_logprob_composition(self):
        rng = np.random.default_rng(13)
        params = {"w": Tensor(rng.normal(size=(8, 5)) * 0.4, requires_grad=True)}
        x = rng.normal(size=(1, 5))

        def forward():
            return tt.log_softmax(tt.linear(Tensor(x), params["w"], Tensor(np.zeros(8))))[0, 3]

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

    def lstm_inputs(self, rng, lead=()):
        H, IN = self.H, self.IN
        return {"w_ih": Tensor(rng.normal(scale=0.5, size=(*lead, 4 * H, IN)), requires_grad=True),
                "w_hh": Tensor(rng.normal(scale=0.5, size=(*lead, 4 * H, H)), requires_grad=True),
                "bias": Tensor(rng.normal(scale=0.3, size=(*lead, 4 * H)), requires_grad=True)}

    def step_by_step(self, x, p, lengths):
        """Reference: one `lstm_cell` call per LSTM, sequence and unpadded
        step, from a zero state; padded steps are left at zero."""
        w_ih, w_hh, bias = (p[k].data for k in ("w_ih", "w_hh", "bias"))
        out = np.zeros(x.shape[:-1] + (self.H,))
        for u in np.ndindex(x.shape[:-3]):
            for b, n in enumerate(lengths):
                h = c = np.zeros(self.H)
                for t in range(n):
                    h, c, _, _ = tt.lstm_cell(
                        w_ih[u] @ x[u][b, t] + w_hh[u] @ h + bias[u], c)
                    out[u][b, t] = h
        return out

    @pytest.mark.parametrize("B,T,lengths", [(1, 1, (1,)), (1, 5, (5,)),
                                             (3, 4, (4, 2, 1))])
    def test_lstm_seq_forward_and_finite_differences(self, B, T, lengths):
        # Without and with a leading agent axis of two LSTMs.  Shorter
        # sequences are zero-padded at their end and their padded outputs
        # get no weight, as `nets.actors_log_probs` pads and reads them.
        rng = np.random.default_rng(31 + B * T)
        unpadded = (np.arange(T) < np.array(lengths)[:, None])[..., None]
        for lead in ((), (2,)):
            x = rng.normal(size=(*lead, B, T, self.IN)) * unpadded
            p = self.lstm_inputs(rng, lead)
            weight = rng.normal(size=(*lead, B, T, self.H)) * unpadded

            def forward(x=x, p=p, weight=weight):
                return tt.sum_(tt.mul(tt.lstm_seq(x, *p.values()), weight))

            hs = tt.lstm_seq(x, *p.values())
            np.testing.assert_allclose(hs.data * unpadded,
                                       self.step_by_step(x, p, lengths), atol=1e-14)
            analytic = tape_gradients(forward, p)
            numeric = finite_difference(lambda: forward().item(), p)
            assert_grads_close(analytic, numeric)
            for u in range(lead[0]) if lead else ():  # each LSTM equals its own call
                own = {k: Tensor(v.data[u], requires_grad=True) for k, v in p.items()}
                own_hs = tt.lstm_seq(x[u], *own.values())
                np.testing.assert_array_equal(own_hs.data, hs.data[u])
                own_grads = tape_gradients(
                    lambda own=own, u=u: forward(x[u], own, weight[u]), own)
                for k in p:
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

    @pytest.mark.parametrize("x_shape", [(1, 4), (5, 4)])
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

    def test_linear_shared_weight_over_leading_axis_gradcheck(self):
        # One (m, n) layer over (U, N, n) rows, as the critic's local head
        # runs over every agent: its weight and bias gradients sum over U.
        rng = np.random.default_rng(47)
        params = {"x": Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True),
                  "w": Tensor(rng.normal(size=(2, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=2), requires_grad=True)}
        weight = rng.normal(size=(3, 5, 2))

        def build():
            return tt.sum_(tt.mul(tt.linear(params["x"], params["w"], params["b"]),
                                  weight))

        analytic, numeric = gradcheck.tape_and_numeric_grads(build, params)
        assert gradcheck.worst_relative_error(analytic, numeric) < 1e-6
        assert analytic["w"].shape == (2, 4) and analytic["b"].shape == (2,)
        np.testing.assert_allclose(
            analytic["w"], sum(weight[u].T @ params["x"].data[u] for u in range(3)),
            rtol=1e-12)

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

    def test_two_steps_exact_values(self):
        # Step 1 is clipped (gradient norm 5 against 1), step 2 is not
        # (norm sqrt(0.14)).  Every expected value is worked out below in
        # Python floats, in the order Adam applies its operations.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([0.5]), requires_grad=True)
        opt = Adam({"a": a, "b": b}, lr=lr, beta1=b1, beta2=b2, eps=eps, clip_norm=1.0)
        p, m, v = [1.0, -2.0, 0.5], [0.0] * 3, [0.0] * 3
        for t, grads in ((1, [3.0, 4.0, 0.0]), (2, [0.1, -0.2, 0.3])):
            a.grad, b.grad = np.array(grads[:2]), np.array(grads[2:])
            opt.step()
            norm = math.sqrt(sum(g * g for g in grads[:2]) + grads[2] * grads[2])
            scale = 1.0 / norm if norm > 1.0 else 1.0
            assert (scale < 1.0) == (t == 1)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, g in enumerate(grads):
                g = g * scale if scale < 1.0 else g
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                p[k] -= lr * (m[k] / bc1) / (math.sqrt(v[k] / bc2) + eps)
            assert opt.m["a"].tolist() + opt.m["b"].tolist() == m
            assert opt.v["a"].tolist() + opt.v["b"].tolist() == v
            assert a.data.tolist() + b.data.tolist() == p
            if t == 1:
                # The first step's m̂ is g and its v̂ is g², so a parameter
                # with a nonzero gradient moves by lr·g / (|g| + eps) and one
                # with none stays.
                assert p[0] == pytest.approx(0.9, abs=1e-8)
                assert p[1] == pytest.approx(-2.1, abs=1e-8)
                assert p[2] == 0.5

    def test_entropy_identity(self):
        probs = tt.softmax(Tensor(np.zeros(8)))
        ent = -float(np.sum(probs.data * np.log(probs.data)))
        assert ent == pytest.approx(math.log(8), abs=1e-12)


class TestFirstGradient:
    """A first gradient is stored as 0.0 + g, C-ordered, whatever g's layout:
    `global_norm` sums each gradient in memory order, so an F-ordered
    gradient (a `linear` weight's, (x.T @ g).T) kept as it is would change
    the clipping norm's rounding."""

    def f_ordered(self):
        g = np.asfortranarray(np.random.default_rng(17).normal(size=(5, 3)))
        g[0, 0], g[2, 1] = -0.0, 0.0
        assert not g.flags.c_contiguous
        return g

    def test_f_ordered_first_gradient_is_stored_c_ordered(self):
        g = self.f_ordered()
        want = 0.0 + g
        t = Tensor(np.zeros((5, 3)), requires_grad=True)
        t.accumulate_grad(g)
        assert t.grad.flags.c_contiguous
        assert t.grad.tobytes() == np.ascontiguousarray(want).tobytes()
        assert math.copysign(1.0, t.grad[0, 0]) == 1.0     # -0.0 became 0.0

    def test_first_gradient_is_a_copy(self):
        # A later gradient adds onto .grad in place; the caller's array,
        # which an op may still hold, must not change with it.
        g = np.ascontiguousarray(self.f_ordered())
        before = g.tobytes()
        t = Tensor(np.zeros((5, 3)), requires_grad=True)
        t.accumulate_grad(g)
        t.accumulate_grad(np.ones((5, 3)))
        assert t.grad is not g and g.tobytes() == before

    def test_linear_weight_gradient_is_c_ordered(self):
        rng = np.random.default_rng(19)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            tape.backward(tt.sum_(tt.linear(Tensor(rng.normal(size=(6, 4))), w,
                                            Tensor(np.zeros(3)))))
        assert w.grad.flags.c_contiguous


def old_sigmoid(x):
    """The gate sigmoid as it was first written: split by sign."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def old_lstm_cell(z, c):
    H = c.shape[-1]
    gates = old_sigmoid(z)
    gates[..., 2 * H:3 * H] = np.tanh(z[..., 2 * H:3 * H])
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, gates, tanh_c


def old_lstm_seq(x, w_ih, w_hh, bias, h0, c0, mask, g):
    """`lstm_seq`'s forward and BPTT as first written: a `np.where` at every
    step.  Returns the hidden states and, for upstream gradient ``g``, the
    gradients of (x, w_ih, w_hh, bias, h0, c0), each as a first gradient is
    stored (0.0 + G)."""
    keep = np.asarray(mask, dtype=bool)[..., None]
    B, T, _ = keep.shape
    H = h0.shape[-1]
    lead = h0.shape[:-2]
    zx = x @ np.swapaxes(w_ih, -1, -2)[..., None, :, :] + bias[..., None, None, :]
    w_hh_t = np.swapaxes(w_hh, -1, -2)
    hs, c_prev, tanh_c = (np.empty((*lead, B, T, H)) for _ in range(3))
    gates = np.empty((*lead, B, T, 4 * H))
    h, c = h0, c0
    for t in range(T):
        c_prev[..., t, :] = c
        h_new, c_new, gates[..., t, :], tanh_c[..., t, :] = old_lstm_cell(
            zx[..., t, :] + h @ w_hh_t, c)
        h = np.where(keep[:, t], h_new, h)
        c = np.where(keep[:, t], c_new, c)
        hs[..., t, :] = h
    i, f, gg, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    dtanh = o * (1.0 - tanh_c * tanh_c)
    dz = 1.0 - gates
    dz *= gates
    dz[..., 2 * H:3 * H] = 1.0 - gg * gg
    dh, dc = np.zeros((*lead, B, H)), np.zeros((*lead, B, H))
    for t in range(T - 1, -1, -1):
        k = keep[:, t]
        dh = dh + g[..., t, :]
        dc_new = dc + dh * dtanh[..., t, :]
        d_gates = np.concatenate((dc_new * gg[..., t, :], dc_new * c_prev[..., t, :],
                                  dc_new * i[..., t, :], dh * tanh_c[..., t, :]), axis=-1)
        dz[..., t, :] = np.where(k, d_gates * dz[..., t, :], 0.0)
        dh = np.where(k, dz[..., t, :] @ w_hh, dh)
        dc = np.where(k, dc_new * f[..., t, :], dc)
    flat = dz.reshape(*lead, B * T, 4 * H)
    flat_t = np.swapaxes(flat, -1, -2)
    h_prev = np.concatenate((h0[..., None, :], hs[..., :-1, :]), axis=-2)
    grads = ((flat @ w_ih).reshape(x.shape), flat_t @ x.reshape(*lead, B * T, -1),
             flat_t @ h_prev.reshape(*lead, B * T, H), flat.sum(axis=-2), dh, dc)
    return hs, [np.zeros_like(G) + G for G in grads]


class TestKernelPins:
    """Today's kernels against test-local copies of the code they replaced,
    bit for bit."""

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("lengths", [(6, 6, 6), (6, 3, 1), (1,), (4, 6)])
    def test_lstm_seq_equals_the_masked_loop(self, lead, lengths):
        # As `nets.actors_log_probs` calls it: zero initial state, zero
        # padding at the end of the shorter sequences, and no weight on the
        # padded outputs, which the masked loop does not compute.
        rng = np.random.default_rng(sum(lengths) + len(lead))
        B, T, H, IN = len(lengths), max(lengths), 5, 3
        mask = np.arange(T) < np.array(lengths)[:, None]
        x = rng.normal(size=(*lead, B, T, IN)) * mask[..., None]
        arrays = {"w_ih": rng.normal(scale=0.5, size=(*lead, 4 * H, IN)),
                  "w_hh": rng.normal(scale=0.5, size=(*lead, 4 * H, H)),
                  "bias": rng.normal(scale=0.3, size=(*lead, 4 * H))}
        weight = rng.normal(size=(*lead, B, T, H)) * mask[..., None]
        weight[..., 0, 0, :2] = -0.0
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with Tape() as tape:
            hs = tt.lstm_seq(x, *params.values())
            tape.backward(tt.sum_(tt.mul(hs, weight)))
        zero = np.zeros((*lead, B, H))
        want_hs, want_grads = old_lstm_seq(x, *arrays.values(), zero, zero, mask, weight)
        assert hs.data[..., mask, :].tobytes() == want_hs[..., mask, :].tobytes()
        for (name, p), want in zip(params.items(), want_grads[1:4]):
            assert p.grad.tobytes() == want.tobytes(), name

    def test_sigmoid_equals_the_sign_split_formula(self):
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 745.0, -745.0,
                      746.0, -746.0, 709.8, -709.8, 36.8, -36.8, np.inf, -np.inf,
                      np.nan, 1.0, -1.0])
        x = np.concatenate([x, np.random.default_rng(23).normal(scale=20.0, size=500)])
        assert tt._sigmoid(x).tobytes() == old_sigmoid(x).tobytes()

    def test_lstm_cell_equals_the_old_cell(self):
        rng = np.random.default_rng(29)
        z, c = rng.normal(scale=4.0, size=(3, 2, 16)), rng.normal(size=(3, 2, 4))
        for got, want in zip(tt.lstm_cell(z, c), old_lstm_cell(z, c)):
            assert got.tobytes() == want.tobytes()
