import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from retinassl import autodiff as ad
from retinassl.autodiff import (
    Tape,
    Tensor,
    backward,
    finite_difference,
    gelu,
    layer_norm,
    log_softmax_rows,
    matmul,
)
from retinassl.errors import ContractError, ParameterError


def naive_matmul(a, b):
    """Triple-loop oracle, independent of np.matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_annihilator(self):
        z = Tensor(np.zeros((2, 2)))
        b = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(matmul(z, b).data, np.zeros((2, 3)))

    def test_against_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = naive_matmul(a, b)
        np.testing.assert_array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    """The row softmax the tape records, as exp of log_softmax_rows."""

    @staticmethod
    def softmax(x, temperature):
        return np.exp(log_softmax_rows(Tensor(x), temperature).data)

    def test_constant_row_uniform(self):
        for k in (2, 5, 17):
            out = self.softmax(np.full((3, k), 4.2), 0.3)
            np.testing.assert_allclose(out, 1.0 / k, atol=1e-12)

    def test_two_entry_row(self):
        out = self.softmax(np.array([[1.0, 0.0]]), 1.0)
        e = np.e
        np.testing.assert_allclose(out[0], [e / (e + 1), 1 / (e + 1)], atol=1e-10)
        np.testing.assert_allclose(out[0], [0.7311, 0.2689], atol=1e-4)

    def test_monotone_sharpening(self):
        x = np.array([[1.0, 0.0]])
        assert self.softmax(x, 0.04).max() > self.softmax(x, 0.1).max()

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            log_softmax_rows(Tensor(np.zeros((1, 2))), 0.0)
        with pytest.raises(ParameterError):
            log_softmax_rows(Tensor(np.zeros((1, 2))), -1.0)

    def test_stable_for_large_logits(self):
        log_p = log_softmax_rows(Tensor(np.array([[1e4, 0.0, -1e4]])), 1.0).data
        assert np.all(np.isfinite(log_p))
        np.testing.assert_allclose(np.exp(log_p).sum(), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(-50, 50), min_size=4, max_size=4),
            min_size=1, max_size=4),
        tau=st.floats(1e-3, 10.0),
        shift=st.floats(-20, 20),
    )
    def test_rows_sum_to_one_and_shift_invariance(self, rows, tau, shift):
        x = np.array(rows)
        out = self.softmax(x, tau)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out, self.softmax(x + shift, tau), atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(tau_pair=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
    def test_sharpening_property(self, tau_pair):
        # Below tau ~ 0.035 the top probability of this row rounds to exactly
        # 1.0, so sharpening is asserted on the runner-up log-probability,
        # which float64 resolves over the whole range.
        lo, hi = sorted(tau_pair)
        if hi - lo < 1e-6:
            return
        x = Tensor(np.array([[2.0, 0.5, -1.0]]))
        assert log_softmax_rows(x, hi).data[0, 1] > log_softmax_rows(x, lo).data[0, 1]


class TestLayerNorm:
    def _affine(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_row_maps_to_zeros(self):
        s, b = self._affine(4)
        out = layer_norm(Tensor(np.full((2, 4), 3.0)), s, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_already_normalized(self):
        s, b = self._affine(2)
        out = layer_norm(Tensor(np.array([[1.0, -1.0]])), s, b)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_hand_computed_row(self):
        s, b = self._affine(3)
        out = layer_norm(Tensor(np.array([[2.0, 4.0, 6.0]])), s, b)
        r = np.sqrt(1.5)
        np.testing.assert_allclose(out.data, [[-r, 0.0, r]], atol=1e-6)
        np.testing.assert_allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-4)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_large_positive_asymptote(self):
        x = np.array([8.0, 20.0])
        np.testing.assert_allclose(gelu(Tensor(x)).data, x, atol=1e-6)

    def test_value_at_one_exact_erf(self):
        # Oracle: x * Phi(x) with the scalar normal CDF.
        phi = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
        out = gelu(Tensor(np.array([1.0]))).data[0]
        np.testing.assert_allclose(out, 1.0 * phi, atol=1e-12)
        np.testing.assert_allclose(out, 0.8413, atol=1e-4)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = w.sum()
        backward(loss, tape)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_rule(self):
        w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            loss = (w * w).sum()
        backward(loss, tape)
        np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = w * w
        with pytest.raises(ContractError):
            backward(out, tape)

    def test_off_cone_leaf_gets_zero(self):
        w = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = w.sum()
        backward(loss, tape, leaves=[w, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros(2))

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 5)))
        w1 = Tensor(rng.normal(size=(5, 6)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
        w3 = Tensor(rng.normal(size=(6, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(np.zeros(6), requires_grad=True)
        scale = Tensor(np.ones(6), requires_grad=True)
        shift = Tensor(np.zeros(6), requires_grad=True)
        params = [w1, w2, w3, b1, scale, shift]
        targets = np.full((4, 3), 1.0 / 3.0)

        def forward():
            h = gelu(matmul(x, w1) + b1)
            h = layer_norm(matmul(h, w2), scale, shift)
            logits = matmul(h, w3)
            log_p = log_softmax_rows(logits, 0.7)
            return ad.tensor_sum(ad.mul(Tensor(-targets), log_p))

        with Tape() as tape:
            loss = forward()
        backward(loss, tape, leaves=params)
        analytic = [p.grad.copy() for p in params]

        numeric = finite_difference(lambda: forward().item(), params, epsilon=1e-5)
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                     np.full_like(a, 1e-3)])
            assert rel.max() <= 1e-4


def _whole_tape_backward(loss, tape, leaves=()):
    """backward as it was before it consumed the tape: the same sweep, with
    the tape left whole and every interior gradient kept."""
    ad._slot_of(loss).grad = np.ones((), dtype=ad.DTYPE)
    for out, inputs, grad_fns in reversed(tape.nodes):
        if out.grad is None:
            continue
        g = np.asarray(out.grad, dtype=ad.DTYPE)
        for slot, grad_fn in zip(inputs, grad_fns):
            if slot is not None:
                gp = ad._unbroadcast(grad_fn(g), slot.shape)
                slot.grad = gp if slot.grad is None else slot.grad + gp
    for leaf in leaves:
        if leaf.requires_grad and leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)


def _rich_graph(leaves):
    """A loss over most ops, with a leaf read twice and two leaves added."""
    w, v, b, scale, shift, cls, qkv_w = leaves
    x = Tensor(_x(2, 5, 4, seed=3))
    h = ad.linear(x, w, b) + ad.broadcast_to(ad.reshape(v, (1, 1, 4)), (2, 5, 4))
    h = ad.concat([ad.broadcast_to(cls, (2, 1, 4)), h[:, 1:, :]], axis=1)
    h = layer_norm(gelu(h), scale, shift)
    out, _ = ad.attention(ad.linear(h, qkv_w, Tensor(np.zeros(12))), 2, 0.5, rows=2)
    z = ad.l2_normalize_rows(ad.reshape(out, (2, 8)))
    logits = matmul(z, ad.transpose(ad.concat([w, w], axis=1), (1, 0)))
    logits = logits + ad.reshape(shift + scale, (1, 4))
    log_p = log_softmax_rows(logits, 0.3)
    return ad.tensor_sum(ad.mul(Tensor(np.full((2, 4), -0.25)), log_p))


class TestBackwardConsumesTheTape:
    def _leaves(self):
        shapes = [(4, 4), (4,), (4,), (4,), (4,), (1, 1, 4), (4, 12)]
        return [Tensor(_x(*shape, seed=i) + (1.0 if i == 3 else 0.0), requires_grad=True)
                for i, shape in enumerate(shapes)]

    def test_leaf_gradients_are_the_whole_tape_sweeps_bits(self):
        got, want = self._leaves(), self._leaves()
        with Tape() as tape:
            loss = _rich_graph(got)
        backward(loss, tape, leaves=got)
        with Tape() as tape:
            loss = _rich_graph(want)
        _whole_tape_backward(loss, tape, leaves=want)
        for g, w in zip(got, want):
            assert np.array_equal(g.grad, w.grad)

    def test_tape_is_emptied_and_interior_gradients_released(self):
        w = Tensor(_x(3, 4), requires_grad=True)
        with Tape() as tape:
            hidden = gelu(w * 2.0)
            loss = hidden.sum()
        assert len(tape.nodes) == 3
        backward(loss, tape)
        assert tape.nodes == []
        assert hidden.grad is None and loss.grad is None
        assert w.grad is not None

    def test_entries_are_freed_as_the_sweep_reaches_them(self):
        # the first entry is popped last; by then every later entry's
        # closures (and the activations they saved) are gone
        w = Tensor(_x(3, 4), requires_grad=True)
        with Tape() as tape:
            loss = gelu(gelu(w * 2.0)).sum()
        alive = []
        first = tape.nodes[0][2][0]
        tape.nodes[0] = (tape.nodes[0][0], tape.nodes[0][1],
                         (lambda g: alive.append(len(tape.nodes)) or first(g),))
        backward(loss, tape)
        assert alive == [0]


class TestFiniteDifferenceOracle:
    def test_quadratic_exact(self):
        p = Tensor(np.array([3.0]))
        g = finite_difference(lambda: float(p.data[0] ** 2), [p], epsilon=1e-5)[0]
        np.testing.assert_allclose(g, [6.0], atol=1e-8)

    def test_sin_at_zero(self):
        p = Tensor(np.array([0.0]))
        g = finite_difference(lambda: float(np.sin(p.data[0])), [p], epsilon=1e-5)[0]
        np.testing.assert_allclose(g, [1.0], atol=1e-9)

    def test_bad_epsilon(self):
        with pytest.raises(ParameterError):
            finite_difference(lambda: 0.0, [Tensor(np.zeros(1))], epsilon=0.0)


class TestTapeSemantics:
    def test_tape_free_ops_record_nothing(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        out = matmul(w, w)  # no active tape
        assert out.requires_grad is False
        with Tape() as tape:
            pass
        assert tape.nodes == []

    def test_determinism_same_inputs_same_bits(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4))

        def run():
            t = Tensor(x.copy(), requires_grad=True)
            with Tape() as tape:
                loss = (log_softmax_rows(gelu(matmul(t, t)), 0.3)).sum()
            backward(loss, tape)
            return loss.data.copy(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)) * 100)
        for out in (log_softmax_rows(x, 0.01), gelu(x),
                    ad.l2_normalize_rows(x)):
            assert np.all(np.isfinite(out.data))


def _x(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def _zero_row(x):
    x = x.copy()
    x[1] = 0.0
    return x


# (input arrays, forward over Tensors of those arrays) for every recorded op;
# the broadcast cases put each operand shape through the one unbroadcast in
# backward
OP_CASES = {
    "add_B11": ([_x(2, 3, 4), _x(2, 1, 1, seed=1)], lambda a, b: a + b),
    "add_d": ([_x(4, seed=1), _x(2, 3, 4)], lambda a, b: a + b),
    "add_scalar": ([_x(2, 3), _x(seed=1)], lambda a, b: a + b),
    "mul_B11": ([_x(2, 3, 4), _x(2, 1, 1, seed=1)], lambda a, b: a * b),
    "mul_d": ([_x(4, seed=1), _x(2, 3, 4)], lambda a, b: a * b),
    "mul_scalar": ([_x(seed=1), _x(2, 3)], lambda a, b: a * b),
    "broadcast_to": ([_x(3, 1)], lambda a: ad.broadcast_to(a, (2, 3, 4))),
    "reshape": ([_x(2, 6)], lambda a: ad.reshape(a, (3, 4))),
    "transpose": ([_x(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1))),
    "getitem": ([_x(3, 4)], lambda a: a[1:, ::2]),
    "concat_axis1": ([_x(2, 3, 4), _x(2, 2, 4, seed=1)],
                     lambda a, b: ad.concat([a, b], axis=1)),
    "concat_axis-1": ([_x(2, 3), _x(2, 5, seed=1)],
                      lambda a, b: ad.concat([a, b], axis=-1)),
    "sum_all": ([_x(2, 3)], lambda a: a.sum()),
    "matmul_batched_2d_weight": ([_x(2, 3, 4), _x(4, 5, seed=1)], matmul),
    "log_softmax_rows": ([_x(3, 4)], lambda a: log_softmax_rows(a, 0.5)),
    "layer_norm": ([_x(2, 3, 4), _x(4, seed=1), _x(4, seed=2)],
                   layer_norm),
    "gelu": ([_x(3, 4)], gelu),
    "linear_2d": ([_x(5, 4), _x(4, 3, seed=1), _x(3, seed=2)], ad.linear),
    "linear_3d": ([_x(2, 3, 4), _x(4, 3, seed=1), _x(3, seed=2)], ad.linear),
    "attention": ([_x(2, 5, 12)], lambda qkv: ad.attention(qkv, 2, 0.7, 5)[0]),
    "attention_2_query_rows": ([_x(2, 5, 12)],
                               lambda qkv: ad.attention(qkv, 2, 0.7, 2)[0]),
    "l2_normalize_guarded_zero_row": ([_zero_row(_x(3, 4))],
                                      ad.l2_normalize_rows),
    "cross_entropy_rows": ([_x(3, 4)], lambda a: ad.tensor_sum(
        ad.mul(Tensor(np.full((3, 4), -0.25)), log_softmax_rows(a, 1.0)))),
}

# module constants that a case sets for its run: a guard of 0.5 keeps the
# zeroed row, and no other, on the pass-through path while finite
# differences move it
OP_CONSTANTS = {"l2_normalize_guarded_zero_row": {"L2_GUARD": 0.5}}


@pytest.mark.parametrize("case", list(OP_CASES))
def test_every_op_matches_finite_differences(case, monkeypatch):
    arrays, op = OP_CASES[case]
    for name, value in OP_CONSTANTS.get(case, {}).items():
        monkeypatch.setattr(ad, name, value)
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out_shape = op(*params).shape
    weight = Tensor(_x(*out_shape, seed=9))  # a constant, so no gradient to it

    def forward():
        return (op(*params) * weight).sum()

    with Tape() as tape:
        loss = forward()
    backward(loss, tape, leaves=params)
    numeric = finite_difference(lambda: forward().item(), params)
    for p, n in zip(params, numeric):
        assert p.grad.shape == p.shape
        np.testing.assert_allclose(p.grad, n, rtol=1e-6, atol=1e-8)
    assert weight.grad is None


def test_constant_operand_gradient_is_never_formed(monkeypatch):
    # (3, 1) is the constant's shape and no other tensor's, so a reduction
    # to it would be the gradient of `c`, which nothing needs
    w = Tensor(_x(2, 3, 4), requires_grad=True)
    c = Tensor(_x(3, 1, seed=1))
    reduced_to = []
    real = ad._unbroadcast

    def spy(grad, shape):
        reduced_to.append(shape)
        return real(grad, shape)

    monkeypatch.setattr(ad, "_unbroadcast", spy)
    with Tape() as tape:
        loss = (w * c).sum()
    backward(loss, tape)
    assert (3, 1) not in reduced_to
    assert c.grad is None
    np.testing.assert_array_equal(w.grad, np.broadcast_to(c.data, w.shape))


def test_tape_entries_name_their_op():
    w = Tensor(_x(2, 3), requires_grad=True)
    with Tape() as tape:
        ad.layer_norm(w * 2.0, Tensor(np.ones(3)), Tensor(np.zeros(3))).sum()
    # a constant input has no slot and no gradient function
    ops = [{fn.__qualname__.split(".")[0] for fn in grad_fns if fn is not None}
           for _, _, grad_fns in tape.nodes]
    assert ops == [{"mul"}, {"layer_norm"}, {"tensor_sum"}]
    assert [len(inputs) for _, inputs, _ in tape.nodes] == [2, 3, 1]


def _unfused_linear(x, w, b):
    return matmul(x, w) + b


def _softmax_rows(x):
    """Taped row softmax with its closed-form gradient y * (g - rowsum(g * y));
    the attention chain's op, which only this oracle still needs."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return ad._record(y, (x,), lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True)))


def _unfused_attention(qkv, n_heads, scale):
    """The per-head op chain that ad.attention replaces: (out, probabilities)."""
    b, t, d3 = qkv.shape
    d = d3 // 3
    hd = d // n_heads
    qkv = ad.transpose(ad.reshape(qkv, (b, t, 3, n_heads, hd)), (2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]
    att = _softmax_rows(matmul(q, ad.transpose(k, (0, 1, 3, 2))) * scale)
    out = ad.transpose(matmul(att, v), (0, 2, 1, 3))
    return ad.reshape(out, (b, t, d)), att


def _value_and_grads(op, arrays):
    """[op's value, the gradient of each input] for a fixed random cotangent."""
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*params)
        loss = (out * Tensor(_x(*out.shape, seed=9))).sum()
    backward(loss, tape, leaves=params)
    return [out.data] + [p.grad for p in params]


class TestFusedOps:
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
    def test_linear_matches_matmul_plus_bias(self, x_shape):
        arrays = [_x(*x_shape), _x(4, 3, seed=1), _x(3, seed=2)]
        fused = _value_and_grads(ad.linear, arrays)
        for got, want in zip(fused, _value_and_grads(_unfused_linear, arrays)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_linear_constant_input_gets_no_gradient(self):
        # the patch-embedding case: pixels are data, not parameters
        x = Tensor(_x(2, 3, 4))
        w = Tensor(_x(4, 5, seed=1), requires_grad=True)
        b = Tensor(_x(5, seed=2), requires_grad=True)
        with Tape() as tape:
            loss = ad.linear(x, w, b).sum()
        backward(loss, tape)
        assert x.grad is None
        np.testing.assert_allclose(w.grad, np.broadcast_to(
            x.data.reshape(-1, 4).sum(axis=0)[:, None], (4, 5)), atol=1e-12)
        np.testing.assert_array_equal(b.grad, np.full(5, 6.0))

    def test_linear_shape_mismatch(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                      Tensor(np.zeros(5)))
        with pytest.raises(ContractError):
            ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))),
                      Tensor(np.zeros(4)))

    def test_attention_matches_the_op_chain(self):
        arrays = [_x(2, 5, 12)]
        fused = _value_and_grads(lambda qkv: ad.attention(qkv, 2, 0.7, 5)[0], arrays)
        chain = _value_and_grads(lambda qkv: _unfused_attention(qkv, 2, 0.7)[0], arrays)
        for got, want in zip(fused, chain):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_attention_probabilities_are_the_chains_bits(self):
        qkv = Tensor(_x(3, 7, 18))
        _, probs = ad.attention(qkv, 3, 1.0 / np.sqrt(2.0), 7)
        _, att = _unfused_attention(qkv, 3, 1.0 / np.sqrt(2.0))
        assert probs.shape == (3, 3, 7, 7)
        np.testing.assert_array_equal(probs, att.data)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5, 10), (5, 12)], ids=["width", "rank"])
    def test_attention_shape_mismatch(self, shape):
        with pytest.raises(ContractError):
            ad.attention(Tensor(np.zeros(shape)), 2, 1.0, 5)

    @pytest.mark.parametrize("rows", [2, 3, 6])
    def test_attention_query_rows_are_the_leading_rows_of_the_full_op(self, rows):
        qkv = Tensor(_x(3, 7, 18))
        full_out, full_probs = ad.attention(qkv, 3, 1.0 / np.sqrt(2.0), 7)
        out, probs = ad.attention(qkv, 3, 1.0 / np.sqrt(2.0), rows)
        assert out.shape == (3, rows, 6) and probs.shape == (3, 3, rows, 7)
        # two or more rows keep the matrix-product path, so the bits hold
        np.testing.assert_array_equal(out.data, full_out.data[:, :rows])
        np.testing.assert_array_equal(probs, full_probs[:, :, :rows])

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_attention_gradient_of_fewer_query_rows(self, rows):
        # the full op with the cotangent zero past `rows` is the same function
        # of qkv, so its gradient is the reference; dq is exactly zero on the
        # rows that are not queried
        qkv = _x(2, 5, 12)
        g = _x(2, rows, 4, seed=9)
        got, want = Tensor(qkv.copy(), requires_grad=True), Tensor(qkv.copy(),
                                                                    requires_grad=True)
        with Tape() as tape:
            loss = (ad.attention(got, 2, 0.7, rows)[0] * Tensor(g)).sum()
        backward(loss, tape)
        padded = np.zeros((2, 5, 4))
        padded[:, :rows] = g
        with Tape() as tape:
            loss = (ad.attention(want, 2, 0.7, 5)[0] * Tensor(padded)).sum()
        backward(loss, tape)
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)
        assert not got.grad[:, rows:, :4].any()
        assert got.grad[:, :rows, :4].all() and got.grad[:, :, 4:].all()

    @pytest.mark.parametrize("rows", [0, -1, 6])
    def test_attention_query_rows_outside_1_to_t(self, rows):
        with pytest.raises(ContractError, match=r"rows must be in 1\.\.5"):
            ad.attention(Tensor(np.zeros((2, 5, 12))), 2, 1.0, rows)

    def test_gelu_gradient_has_the_bits_of_the_closed_form(self):
        x = np.concatenate([_x(3, 40).ravel() * 4.0,
                            [0.0, 40.0, -40.0, 1e-160, -1e-160, 1e150, -1e150]])
        g = _x(x.size, seed=1)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = (gelu(t) * Tensor(g)).sum()
        backward(loss, tape)
        phi = (erf(x * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
        pdf = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * x * x)
        np.testing.assert_array_equal(t.grad, g * (phi + x * pdf))

    def test_layer_norm_gradient_has_the_bits_of_the_closed_form(self):
        x, scale, shift = _x(2, 3, 8), _x(8, seed=1), _x(8, seed=2)
        g = _x(2, 3, 8, seed=3)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = (layer_norm(t, Tensor(scale), Tensor(shift)) * Tensor(g)).sum()
        backward(loss, tape)
        xhat = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / 8 + 1e-6)
        xhat *= inv
        dxhat = g * scale
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        np.testing.assert_array_equal(t.grad, (dxhat - m1 - xhat * m2) * inv)
