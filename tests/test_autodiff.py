"""Differentiation in the training kernel: forward values, analytic
gradients of ``train_step`` and ``cross_entropy``, the fairness means
against a second backward sweep, and their error contracts.
Single-network cases run the kernel on a stack of one; ``TestSeedStack``
checks that stacking leaves every network's bytes unchanged."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballot.errors import ConfigurationError, NumericalFailure
from ballot.masks import build_random_mask
from ballot.model import (
    apply_mask,
    cross_entropy,
    init_network,
    sgd_step,
    stack_params,
    train_step,
)

from conftest import (logits, net_from_layers, per_layer, random_net, random_dims,
                      reference_fair_means, reference_loss)


def _net(*layers):
    """Parameters from (weights, bias) pairs, a ReLU after every layer
    but the last."""
    return net_from_layers([np.array(w, dtype=np.float64) for w, _ in layers],
                           [np.array(b, dtype=np.float64) for _, b in layers])


class Grads(NamedTuple):
    weights: list
    biases: list


def _step(params, x, y, fair=None):
    """``train_step`` of one network, as a stack of one: copies of slot
    0 of the plain loss's parameter gradients, and slot 0 of the
    ``(means_a, means_f)`` pre-activation means split into one array per
    hidden layer, or None without ``fair``."""
    stack = stack_params([params.copy()])
    means = train_step(
        stack, np.asarray(x, dtype=np.float64)[None],
        np.asarray(y, dtype=np.float64)[None],
        None if fair is None else np.asarray(fair, dtype=np.float64)[None],
    )
    grads = Grads([w[0].copy() for w in stack.grad_weights],
                  [b[0].copy() for b in stack.grad_biases])
    if means is None:
        return grads, None
    return grads, [per_layer(m[0], params.dims) for m in means]


def _ce(logits, onehot):
    """``cross_entropy`` of one network, as a stack of one."""
    loss, dlogits = cross_entropy(
        np.asarray(logits, dtype=np.float64)[None],
        np.asarray(onehot, dtype=np.float64)[None],
    )
    return float(loss[0]), dlogits[0]


def _batch(rng, dims, n):
    x = rng.normal(size=(n, dims[0]))
    y = np.eye(dims[-1])[rng.integers(0, dims[-1], n)]
    return x, y


class TestAffine:
    def test_identity(self):
        params = _net((np.eye(2), [0.0, 0.0]))
        out = logits(params, [[1.0, 2.0]])
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_hand_matrix_product(self):
        params = _net(([[3.0], [5.0]], [1.0]))
        out = logits(params, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(out, [[4.0], [6.0]])

    def test_zero_input_passes_bias(self):
        params = _net(([[2.5, -1.0], [0.3, 4.0]], [7.0, 7.0]))
        out = logits(params, [[0.0, 0.0]])
        np.testing.assert_array_equal(out, [[7.0, 7.0]])

    def test_gradients_match_hand_derivation(self):
        # z0 = 1*3 + 2*5 + 0.5 = 13.5 (active); the logits are exactly
        # [0, 0], so dlogits = (softmax - y) / n = [-0.5, 0.5], the
        # hidden gradient is -0.5*1 + 0.5*(-1) = -1, and the input
        # layer's gradients are x^T * -1 and -1.
        params = _net(([[3.0], [5.0]], [0.5]),
                      ([[1.0, -1.0]], [-13.5, 13.5]))
        grads, (means, _) = _step(params, [[1.0, 2.0]], [[1.0, 0.0]], np.ones(2))
        np.testing.assert_allclose(grads.weights[1], [[-6.75, 6.75]], rtol=1e-15)
        np.testing.assert_allclose(grads.biases[1], [-0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(grads.weights[0], [[-1.0], [-2.0]], rtol=1e-15)
        np.testing.assert_allclose(grads.biases[0], [-1.0], rtol=1e-15)
        np.testing.assert_allclose(means[0], [-1.0], rtol=1e-15)


class TestRelu:
    def test_definition(self):
        params = _net((np.eye(3), [0.0] * 3),
                      (np.eye(3), [0.0] * 3))
        out = logits(params, [[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_all_negative_is_all_zero(self):
        params = _net((np.eye(2), [0.0, 0.0]),
                      (np.eye(2), [0.0, 0.0]))
        out = logits(params, [[-3.0, -0.5], [-1e9, -1e-9]])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def _hidden_grad(self, x):
        # identity hidden layer, so the hidden pre-activations equal x
        params = _net((np.eye(2), [0.0, 0.0]),
                      ([[1.0, -1.0], [2.0, 0.5]], [0.0, 0.0]))
        y = [[1.0, 0.0]]
        _, (means, _) = _step(params, x, y, np.ones(2))
        _, dlogits = _ce(logits(params, x), y)
        return means[0], (dlogits @ params.weights[1].T)[0]

    def test_gradient_gates_negative_input(self):
        got, ungated = self._hidden_grad([[-1.0, 2.0]])
        assert ungated[0] != 0.0
        np.testing.assert_array_equal(got, [0.0, ungated[1]])

    def test_subgradient_at_zero_is_zero(self):
        got, ungated = self._hidden_grad([[0.0, 1.0]])
        assert ungated[0] != 0.0
        np.testing.assert_array_equal(got, [0.0, ungated[1]])


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        loss, _ = _ce([[0.0, 0.0]], [[1.0, 0.0]])
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_extreme_logits_stay_finite(self):
        loss, dlogits = _ce([[1000.0, 0.0]], [[1.0, 0.0]])
        assert 0.0 <= loss < 1e-12
        assert np.isfinite(dlogits).all()

    def test_batch_mean_reduction(self):
        # per-sample losses ln 2 and ln 4
        loss, _ = _ce([[0.0, 0.0], [math.log(3.0), 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert loss == pytest.approx(1.5 * math.log(2.0), rel=1e-15)

    def test_uniform_weights_reduce_to_plain_ce_bit_exact(self, rng):
        # the loss and dlogits are the textbook formula bit for bit, and
        # all-ones class weights give fairness means equal to the plain
        # means bit for bit, because multiplying by 1.0 is exact
        for _ in range(50):
            n, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            z = rng.normal(scale=3.0, size=(n, c))
            y = np.eye(c)[rng.integers(0, c, n)]
            loss, dlogits = _ce(z, y)
            zmax = z.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
            assert loss == float((-(y * (z - lse)).sum(axis=1)).mean())
            assert np.array_equal(dlogits, (np.exp(z - lse) - y) / n)
        own = np.random.default_rng(21)
        for _ in range(20):
            dims, params = random_net(own)
            x, y = _batch(own, dims, int(own.integers(1, 9)))
            _, (means_a, means_f) = _step(params, x, y, np.ones(dims[-1]))
            for a, f in zip(means_a, means_f):
                assert a.tobytes() == f.tobytes()

    def test_non_finite_weights_rejected(self):
        params = _net((np.eye(2), [0.0, 0.0]))
        for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0]):
            with pytest.raises(ConfigurationError, match="class_weights"):
                _step(params, [[1.0, 2.0]], [[1.0, 0.0]], bad)

    def test_non_finite_logits_are_numerical_failure(self):
        # the loss turns non-finite: inf - inf is nan in the max shift,
        # and a -inf logit gives 0 * -inf in the picked log-probability
        for logits in ([np.inf, 0.0], [np.nan, 0.0], [0.0, -np.inf]):
            with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure):
                _ce([logits], [[1.0, 0.0]])


def _fd(params, x, y, class_w, arr, idx, h=1e-5):
    """Central difference of the reference loss in entry ``idx`` of
    ``arr``, one of ``params``' arrays."""
    orig = arr[idx]
    arr[idx] = orig + h
    up = reference_loss(params.weights, params.biases, x, y, class_w)
    arr[idx] = orig - h
    down = reference_loss(params.weights, params.biases, x, y, class_w)
    arr[idx] = orig
    return (up - down) / (2 * h)


class TestBackward:
    def test_finite_difference_oracle_on_random_net(self, rng):
        dims, params = random_net(rng, max_units=6)
        x, y = _batch(rng, dims, 4)
        c = dims[-1]
        cw = rng.uniform(0.5, 2.0, c)
        grads, (_, means_f) = _step(params, x, y, cw)
        # the weighted loss's dlogits: the plain ones, row n scaled by
        # the weight of sample n's class
        _, dlogits = _ce(logits(params, x), y)
        dlogits_f = (y @ cw)[:, None] * dlogits

        # the plain loss: every parameter gradient
        for li in range(len(dims) - 1):
            for arr, g in ((params.weights[li], grads.weights[li]),
                           (params.biases[li], grads.biases[li])):
                for idx in np.ndindex(*arr.shape):
                    fd = _fd(params, x, y, np.ones(c), arr, idx)
                    assert abs(g[idx] - fd) / max(1.0, abs(fd)) <= 1e-5

        # the weighted loss: a bias's derivative is the batch sum of its
        # unit's pre-activation gradient, n times the recorded mean
        n = x.shape[0]
        fair_bias = [n * m for m in means_f] + [dlogits_f.sum(axis=0)]
        for li, g in enumerate(fair_bias):
            for idx in np.ndindex(*params.biases[li].shape):
                fd = _fd(params, x, y, cw, params.biases[li], idx)
                assert abs(g[idx] - fd) / max(1.0, abs(fd)) <= 1e-5

    def test_two_backward_passes_are_independent(self, rng):
        # the fairness means ride on the plain backward pass: asking for
        # them leaves every parameter gradient and plain mean unchanged
        dims, params = random_net(rng)
        x, y = _batch(rng, dims, 3)
        c = dims[-1]
        ones, fair = np.ones(c), rng.uniform(0.5, 2.0, c)

        grads_a, no_means = _step(params, x, y)
        grads_o, (means_a, means_o) = _step(params, x, y, ones)
        grads, (both_a, both_f) = _step(params, x, y, fair)
        assert no_means is None
        for got, same, want in zip(grads.weights + grads.biases,
                                   grads_o.weights + grads_o.biases,
                                   grads_a.weights + grads_a.biases):
            assert np.array_equal(got, want)
            assert np.array_equal(same, want)
        for got_a, want_a, got_o in zip(both_a, means_a, means_o):
            assert np.array_equal(got_a, want_a)
            # the all-ones weighting is the plain loss, bit for bit
            assert np.array_equal(got_o, want_a)
        assert not all(np.array_equal(a, f) for a, f in zip(both_a, both_f))

    def test_scaled_loss_scales_gradients(self, rng):
        # scaling every class weight by 2 is exact in floating point
        dims, params = random_net(rng)
        x, y = _batch(rng, dims, 3)
        c = dims[-1]
        _, (base_means, _) = _step(params, x, y, np.ones(c))
        _, (_, scaled_means) = _step(params, x, y, np.full(c, 2.0))
        for got, want in zip(scaled_means, base_means):
            np.testing.assert_array_equal(got, 2.0 * want)

    def test_fair_means_match_a_second_backward_sweep(self):
        # stacks of three random networks with random class weights:
        # every slot's fairness means match the weighted loss's own
        # backward sweep within 1e-12 of the layer's largest mean
        rng = np.random.default_rng(22)
        for _ in range(40):
            dims = random_dims(rng, max_hidden_layers=3, max_units=12)
            nets = [init_network(dims, int(s)) for s in rng.integers(0, 2**31, 3)]
            starts = [p.copy() for p in nets]
            n, c = int(rng.integers(1, 17)), dims[-1]
            x = rng.normal(size=(3, n, dims[0]))
            y = np.eye(c)[rng.integers(0, c, (3, n))]
            fair = rng.uniform(0.2, 5.0, (3, c))
            means_f = per_layer(train_step(stack_params(nets), x, y, fair)[1], dims)
            for r, start in enumerate(starts):
                want = reference_fair_means(start.weights, start.biases,
                                            x[r], y[r], fair[r])
                for got, ref in zip(means_f, want):
                    assert np.abs(got[r] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_deterministic_gradients(self, rng):
        dims, params = random_net(rng)
        x, y = _batch(rng, dims, 5)
        fair = np.full(dims[-1], 3.0)
        first, means_1 = _step(params, x, y, fair)
        second, means_2 = _step(params, x, y, fair)
        for a, b in zip(first.weights + first.biases + means_1[0] + means_1[1],
                        second.weights + second.biases + means_2[0] + means_2[1]):
            assert np.array_equal(a, b)

    def test_non_finite_layer_output_is_numerical_failure(self, rng):
        dims, params = random_net(rng)
        params.weights[0][:] = 1e308
        x, y = _batch(rng, dims, 2)
        x[:] = 10.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure):
                _step(params, x, y)


class TestSeedStack:
    def test_three_stacked_steps_equal_three_single_steps(self, rng):
        dims = (5, 7, 6, 3)
        x, y = _batch(rng, dims, 40)
        masks = [build_random_mask(dims, omega, seed)
                 for omega, seed in ((0.3, 1), (0.6, 2), (1.0, 3))]
        starts = [apply_mask(init_network(dims, s), m)
                  for s, m in zip((11, 12, 13), masks)]
        fair = rng.uniform(0.5, 2.0, (3, 3))

        nets = [p.copy() for p in starts]
        stack = stack_params(nets, [m.keep for m in masks])
        singles = [stack_params([p], [m.keep]) for p, m in zip(starts, masks)]
        for step in range(4):
            # every network draws its own batch; odd steps train the
            # plain loss alone, as retraining does
            idx = np.stack([rng.permutation(40)[:16] for _ in range(3)])
            weights = fair if step % 2 == 0 else None
            means = train_step(stack, x[idx], y[idx], weights)
            for r, one in enumerate(singles):
                means1 = train_step(
                    one, x[idx[r]][None], y[idx[r]][None],
                    None if weights is None else weights[r:r + 1],
                )
                got = stack.grad_weights + stack.grad_biases
                want = one.grad_weights + one.grad_biases
                if weights is None:
                    assert means is None and means1 is None
                else:
                    got, want = got + list(means), want + list(means1)
                for a, b in zip(got, want):
                    assert a[r].tobytes() == b[0].tobytes()
                sgd_step(one, 0.1)
            sgd_step(stack, 0.1)
        for a, b in zip(nets, starts):
            for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
                assert wa.tobytes() == wb.tobytes()

    def test_failure_names_the_slot(self, rng):
        dims, params = random_net(rng)
        bad = params.copy()
        bad.weights[0][:] = 1e308
        x, y = _batch(rng, dims, 2)
        x[:] = 10.0
        stack = stack_params([params, params.copy(), bad])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure) as caught:
                train_step(stack, np.stack([x] * 3), np.stack([y] * 3))
        assert caught.value.index == 2


def _second_reduction_means(stack, x, onehot, fair):
    """The pre-activation means as the kernel computed them while it
    reduced each hidden layer's gradient a second time for them: plain
    numpy on the stack's weights, before any step, in the kernel's
    order of operations."""
    ws, n, last = stack.weights, x.shape[1], len(stack.dims) - 2
    inputs, gates, h = [], [], x
    for i, (w, b) in enumerate(zip(ws, stack.biases)):
        inputs.append(h)
        h = h @ w
        h += b[:, None, :]
        if i < last:
            gates.append(h > 0.0)
            np.maximum(h, 0.0, out=h)
    _, g = cross_entropy(h, onehot)
    s = np.add.reduce(onehot * fair[:, None, :], axis=2)[:, :, None]
    means_a, means_f = [], []
    for i in range(last, 0, -1):
        g = g @ ws[i].swapaxes(1, 2)
        g *= gates[i - 1]
        means_a.insert(0, np.add.reduce(g, axis=1) / n)
        means_f.insert(0, np.add.reduce(g * s, axis=1) / n)
    return means_a, means_f


class TestOneReduction:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), r=st.integers(1, 4), n=st.integers(1, 24))
    def test_plain_means_and_masked_step_match_their_references(self, seed, r, n):
        # random dims, stack sizes and batch sizes: the plain means are
        # the bias gradients over n and a second reduction's bytes, the
        # fairness means too, and a masked step is theta - (keep * lr) * g
        # with every masked entry left at +0.0; a retention of 0.5 or
        # more is feasible at every such dims
        rng = np.random.default_rng(seed)
        dims = random_dims(rng, max_hidden_layers=3, max_units=12)
        masks = [build_random_mask(dims, float(rng.uniform(0.5, 1.0)), int(s))
                 for s in rng.integers(0, 2**31, r)]
        nets = [apply_mask(init_network(dims, int(s)), m)
                for s, m in zip(rng.integers(0, 2**31, r), masks)]
        stack = stack_params(nets, [m.keep for m in masks])
        x = rng.normal(size=(r, n, dims[0]))
        y = np.eye(dims[-1])[rng.integers(0, dims[-1], (r, n))]
        fair = rng.uniform(0.2, 5.0, (r, dims[-1]))
        want_a, want_f = _second_reduction_means(stack, x, y, fair)
        means_a, means_f = (per_layer(m, dims) for m in train_step(stack, x, y, fair))
        for i, (a, f, wa, wf) in enumerate(zip(means_a, means_f, want_a, want_f)):
            assert a.tobytes() == (stack.grad_biases[i] / n).tobytes() == wa.tobytes()
            assert f.tobytes() == wf.tobytes()

        lr, keep = float(rng.uniform(0.001, 1.0)), stack.keep
        want = stack.flat - (keep * lr) * stack.grad
        sgd_step(stack, lr)
        assert stack.flat.tobytes() == want.tobytes()
        masked = stack.flat[~keep]
        assert (masked == 0.0).all() and not np.signbit(masked).any()
