"""Network tests: per-neuron forward oracle, finite-difference gradients,
hand-stepped optimizer sequences, optimizer steps against their one-line
expressions and their memory floor, and the minibatch stream."""

import math
import tracemalloc

import numpy as np
import pytest

from capinv.network import (
    DEFAULT_LEARNING_RATES,
    Adam,
    Mlp,
    Momentum,
    TrainingError,
    backward,
    forward,
    make_optimizer,
    minibatch_stream,
)


def loop_forward(net: Mlp, batch: np.ndarray) -> np.ndarray:
    """Scalar-arithmetic reimplementation of the forward pass."""
    out = []
    for row in batch:
        a = list(row)
        for w, b, name in zip(net.weights, net.biases, net.activations):
            z = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += a[i] * w[i, j]
                z.append(math.tanh(s) if name == "tanh" else s)
            a = z
        out.append(a)
    return np.asarray(out)


def random_net(sizes, activations, seed) -> Mlp:
    return Mlp.init(sizes, activations, np.random.default_rng(seed))


def fd_gradient(f, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        hi = f()
        arr[idx] = keep - h
        lo = f()
        arr[idx] = keep
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def relative_error(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    return np.max(np.abs(analytic - numeric) / scale)


class TestForward:
    @pytest.mark.parametrize(
        "sizes,acts,seed",
        [
            ((3, 4, 2), ("tanh", "linear"), 0),
            ((2, 5, 5, 3), ("tanh", "tanh", "tanh"), 1),
            ((4, 1), ("linear",), 2),
        ],
    )
    def test_matches_per_neuron_loop(self, sizes, acts, seed):
        net = random_net(sizes, acts, seed)
        batch = np.random.default_rng(seed + 100).normal(size=(6, sizes[0]))
        cache = forward(net, batch)
        assert len(cache) == len(sizes)
        assert np.array_equal(cache[0], batch)
        assert np.allclose(cache[-1], loop_forward(net, batch), rtol=1e-12, atol=1e-14)

    def test_rejects_wrong_width(self):
        net = random_net((3, 2), ("linear",), 0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((4, 5)))


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        net = Mlp.init((50, 30, 10), ("tanh", "linear"), np.random.default_rng(0))
        for w, b, (fi, fo) in zip(net.weights, net.biases, [(50, 30), (30, 10)]):
            limit = math.sqrt(6.0 / (fi + fo))
            assert np.max(np.abs(w)) <= limit
            assert np.max(np.abs(w)) > 0.5 * limit  # draws actually span the range
            assert np.array_equal(b, np.zeros(fo))

    def test_same_seed_same_weights(self):
        a = Mlp.init((4, 3), ("tanh",), np.random.default_rng(7))
        b = Mlp.init((4, 3), ("tanh",), np.random.default_rng(7))
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_layer_sizes_and_parameter_count(self):
        net = random_net((441, 200, 20), ("tanh", "linear"), 0)
        assert net.layer_sizes == (441, 200, 20)
        assert sum(p.size for p in net.weights + net.biases) == 441 * 200 + 200 + 200 * 20 + 20

    def test_validation(self):
        with pytest.raises(ValueError):
            Mlp(weights=[np.zeros((3, 2))], biases=[np.zeros(3)], activations=("tanh",))
        with pytest.raises(ValueError):
            Mlp(weights=[np.zeros((3, 2)), np.zeros((4, 1))], biases=[np.zeros(2), np.zeros(1)],
                activations=("tanh", "tanh"))
        with pytest.raises(ValueError):
            Mlp(weights=[np.zeros((3, 2))], biases=[np.zeros(2)], activations=("relu",))
        with pytest.raises(ValueError):
            Mlp(weights=[np.full((3, 2), np.nan)], biases=[np.zeros(2)], activations=("tanh",))


class TestBackward:
    @pytest.mark.parametrize(
        "sizes,acts,seed",
        [
            ((3, 4, 2), ("tanh", "linear"), 0),
            ((5, 6, 6, 4), ("tanh", "tanh", "tanh"), 1),
            ((2, 3), ("linear",), 2),
        ],
    )
    def test_matches_finite_differences(self, sizes, acts, seed):
        net = random_net(sizes, acts, seed)
        rng = np.random.default_rng(seed + 50)
        batch = rng.normal(size=(5, sizes[0]))
        target = rng.normal(size=(5, sizes[-1]))

        def objective():
            diff = forward(net, batch)[-1] - target
            return 0.5 * float(np.sum(diff * diff))

        cache = forward(net, batch)
        w_grads, b_grads, input_grad = backward(net, cache, cache[-1] - target)
        for l in range(len(net.weights)):
            assert relative_error(w_grads[l], fd_gradient(objective, net.weights[l])) < 1e-5
            assert relative_error(b_grads[l], fd_gradient(objective, net.biases[l])) < 1e-5
        assert relative_error(input_grad, fd_gradient(objective, batch)) < 1e-5

    def test_sums_over_batch_rows(self):
        # Gradient of a two-row batch equals the sum of the single-row gradients.
        net = random_net((3, 2), ("tanh",), 4)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(2, 3))
        grad = rng.normal(size=(2, 2))
        full = backward(net, forward(net, batch), grad)
        parts = [backward(net, forward(net, batch[i : i + 1]), grad[i : i + 1]) for i in range(2)]
        assert np.allclose(full[0][0], parts[0][0][0] + parts[1][0][0], rtol=1e-13)
        assert np.allclose(full[1][0], parts[0][1][0] + parts[1][1][0], rtol=1e-13)

    def test_writes_into_out_and_skips_the_input_gradient_on_request(self):
        # Training hands backward the same arrays every step and needs no
        # gradient for its data: neither may change a parameter gradient's bits.
        net = random_net((3, 4, 2), ("tanh", "linear"), 6)
        rng = np.random.default_rng(7)
        cache = forward(net, rng.normal(size=(5, 3)))
        grad = rng.normal(size=(5, 2))
        fresh = backward(net, cache, grad)
        buffers = [np.full(w.shape, np.nan) for w in net.weights], [np.full(b.shape, np.nan) for b in net.biases]
        given = [*buffers[0], *buffers[1]]
        w_grads, b_grads, input_grad = backward(net, cache, grad, out=buffers)
        assert all(got is want for got, want in zip([*w_grads, *b_grads], given, strict=True))
        assert [g.tobytes() for g in given] == [g.tobytes() for g in [*fresh[0], *fresh[1]]]
        assert input_grad.tobytes() == fresh[2].tobytes()
        w_grads, b_grads, input_grad = backward(net, cache, grad, input_grad=False)
        assert input_grad is None
        assert [g.tobytes() for g in [*w_grads, *b_grads]] == [g.tobytes() for g in [*fresh[0], *fresh[1]]]

    def test_rejects_stale_cache(self):
        net = random_net((3, 4, 2), ("tanh", "linear"), 0)
        other = random_net((3, 5, 2), ("tanh", "linear"), 1)
        batch = np.zeros((2, 3))
        cache = forward(other, batch)
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            backward(net, forward(net, batch), np.zeros((3, 2)))


class TestOptimizers:
    def test_momentum_hand_sequence(self):
        p = [np.array([1.0, -2.0])]
        opt = Momentum(learning_rate=0.25)
        opt.step(p, [np.array([1.0, 2.0])])
        # v1 = -0.25*g = (-0.25, -0.5) exactly; p1 = (0.75, -2.5)
        assert np.array_equal(p[0], [0.75, -2.5])
        opt.step(p, [np.array([-2.0, 4.0])])
        # v2 = 0.9*v1 - 0.25*g, in the step's own float operations and order
        v2 = [-0.25 * 0.9 - 0.25 * -2.0, -0.5 * 0.9 - 0.25 * 4.0]
        assert np.array_equal(p[0], [0.75 + v2[0], -2.5 + v2[1]])

    def test_adam_hand_sequence(self):
        p = [np.array([1.0])]
        g1, g2 = np.array([0.5]), np.array([-1.5])
        opt = Adam(learning_rate=0.1)
        opt.step(p, [g1])
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        expect = 1.0 - 0.1 * (m / 0.1) / (math.sqrt(v / 0.001) + 1e-8)
        assert np.allclose(p[0], [expect], rtol=1e-14)
        opt.step(p, [g2])
        m = 0.9 * m + 0.1 * (-1.5)
        v = 0.999 * v + 0.001 * 2.25
        c1 = 1.0 - 0.9**2
        c2 = 1.0 - 0.999**2
        expect -= 0.1 * (m / c1) / (math.sqrt(v / c2) + 1e-8)
        assert np.allclose(p[0], [expect], rtol=1e-13)

    def test_zero_learning_rate_is_identity(self):
        p = [np.array([3.0, 4.0])]
        before = p[0].copy()
        Momentum(0.0).step(p, [np.array([5.0, -5.0])])
        assert np.array_equal(p[0], before)
        Adam(0.0).step(p, [np.array([5.0, -5.0])])
        assert np.array_equal(p[0], before)

    def test_non_finite_gradients_abort(self):
        p = [np.array([1.0])]
        with pytest.raises(TrainingError):
            Momentum(0.1).step(p, [np.array([np.inf])])
        with pytest.raises(ValueError):
            Momentum(0.1).step(p, [np.zeros(2)])

    def test_make_optimizer_pairs_default_rates(self):
        assert DEFAULT_LEARNING_RATES == {"momentum": 1e-5, "adam": 1e-3}
        assert isinstance(make_optimizer("momentum"), Momentum)
        assert make_optimizer("momentum").learning_rate == 1e-5
        assert isinstance(make_optimizer("adam"), Adam)
        assert make_optimizer("adam").learning_rate == 1e-3
        assert make_optimizer("adam", 0.01).learning_rate == 0.01
        with pytest.raises(ValueError):
            make_optimizer("sgd")

    def test_bad_constructor_arguments(self):
        for rate in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning rate"):
                Momentum(rate)
            with pytest.raises(ValueError, match="learning rate"):
                Adam(rate)


def traced_peak_rise(call) -> int:
    """How far call() raises tracemalloc's peak above the memory traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def paper_parameters(rng) -> list:
    """The weights and biases of a 441-200-20 encoder and a 20-200-441 decoder."""
    nets = [Mlp.init(sizes, ("tanh", "tanh"), rng) for sizes in ((441, 200, 20), (20, 200, 441))]
    return [a for net in nets for a in (*net.weights, *net.biases)]


class ExpressionMomentum:
    """Momentum.step as the one-line expressions it must reproduce bit for bit."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.velocity = None

    def step(self, params, grads):
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self.velocity):
            v *= Momentum.gamma
            v -= self.learning_rate * g
            p += v


class ExpressionAdam:
    """Adam.step as the one-line expressions it must reproduce bit for bit."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.m = self.v = None
        self.t = 0

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - Adam.beta1 ** self.t
        c2 = 1.0 - Adam.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= Adam.beta1
            m += (1.0 - Adam.beta1) * g
            v *= Adam.beta2
            v += (1.0 - Adam.beta2) * (g * g)
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + Adam.eps)


class TestOptimizerBits:
    SHAPES = ((1,), (7,), (1, 1), (5, 3), (3, 8), (2, 3, 4))

    @pytest.mark.parametrize(
        "optimizer,expression,rate",
        [(Momentum, ExpressionMomentum, 1e-5), (Momentum, ExpressionMomentum, 0.037),
         (Adam, ExpressionAdam, 1e-3), (Adam, ExpressionAdam, 0.29)],
    )
    def test_steps_give_the_bytes_of_the_expressions(self, optimizer, expression, rate):
        rng = np.random.default_rng(11)
        params = [rng.normal(size=shape) for shape in self.SHAPES]
        twins = [p.copy() for p in params]
        ours, theirs = optimizer(rate), expression(rate)
        for step in range(50):
            # Gradients over many magnitudes, signs and some exact zeros.
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 4, size=p.shape) for p in params]
            grads[step % len(grads)].flat[0] = 0.0
            ours.step(params, grads)
            theirs.step(twins, grads)
            assert [p.tobytes() for p in params] == [p.tobytes() for p in twins], f"step {step + 1}"

    @pytest.mark.parametrize("optimizer", [Momentum(1e-5), Adam(1e-3)], ids=["momentum", "adam"])
    def test_later_steps_allocate_less_than_half_a_parameter(self, optimizer):
        rng = np.random.default_rng(12)
        params = paper_parameters(rng)
        grads = [rng.normal(size=p.shape) for p in params]
        optimizer.step(params, grads)  # the first step makes the optimizer's state
        limit = max(p.nbytes for p in params) // 2
        for _ in range(3):
            assert traced_peak_rise(lambda: optimizer.step(params, grads)) < limit

    def test_a_gradient_that_would_broadcast_is_refused(self):
        # The steps write through out= arrays, which would take a broadcast
        # gradient without complaint; the shape check must come first.
        params = [np.zeros((4, 3))]
        for optimizer in (Momentum(0.1), Adam(0.1)):
            optimizer.step(params, [np.ones((4, 3))])
            with pytest.raises(ValueError, match="does not match parameter shape"):
                optimizer.step(params, [np.ones(3)])


class TestMinibatchStream:
    def test_partitions_each_epoch_when_divisible(self):
        stream = minibatch_stream(9, 3, np.random.default_rng(0))
        epoch = np.concatenate([next(stream) for _ in range(3)])
        assert sorted(epoch) == list(range(9))
        epoch2 = np.concatenate([next(stream) for _ in range(3)])
        assert sorted(epoch2) == list(range(9))
        assert not np.array_equal(epoch, epoch2)  # reshuffled

    def test_drops_short_remainder(self):
        stream = minibatch_stream(10, 3, np.random.default_rng(1))
        batches = [next(stream) for _ in range(6)]
        assert all(len(b) == 3 for b in batches)
        first_epoch = np.concatenate(batches[:3])
        assert len(set(first_epoch)) == 9  # one index per epoch left unused

    def test_deterministic_per_seed(self):
        a = minibatch_stream(8, 4, np.random.default_rng(3))
        b = minibatch_stream(8, 4, np.random.default_rng(3))
        for _ in range(5):
            assert np.array_equal(next(a), next(b))

    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            next(minibatch_stream(4, 5, np.random.default_rng(0)))
