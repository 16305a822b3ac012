import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import NonFiniteError, Optimizer, ParamTensor, problems
from optlab.problems import (
    ACTIVATIONS,
    BlobsMLPProblem,
    QuadraticProblem,
    RosenbrockProblem,
    make_blobs,
    mlp_init,
    philox,
    rosenbrock,
    smoothed_targets,
)

from oracles import (
    PRE_ACTIVATION_DERIVATIVES,
    finite_diff_grad,
    label_smoothed_ce,
    mlp_eval,
    quadratic,
)


# the data fields of a small blobs MLP problem
BLOBS = {"data_seed": 5, "n": 40, "d": 6, "classes": 4, "separation": 3.0}


def problem_on(x, y, n_classes, hidden=(), **kwargs):
    """A blobs MLP problem whose data is the inputs ``x`` and labels ``y``,
    assigned before its first call; its data fields only set the widths."""
    x = np.asarray(x, dtype=np.float64)
    problem = BlobsMLPProblem(
        n=n_classes, d=x.shape[1], classes=n_classes, hidden=hidden, batch_size=1, **kwargs
    )
    problem.data = (x, np.asarray(y))
    return problem


def reference_of(params, x, y, activation):
    """The oracle ``mlp_eval`` on the arrays of ``params``, at smoothing 0.1."""
    layers = [(w.array, b.values) for w, b in zip(params[0::2], params[1::2])]
    return mlp_eval(layers, x, y, activation, 0.1)


class TestRosenbrock:
    def test_global_minimum(self):
        loss, grad = rosenbrock([1.0, 1.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin(self):
        loss, grad = rosenbrock([0.0, 0.0])
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [-2.0, 0.0])

    def test_minus_one_one(self):
        loss, grad = rosenbrock([-1.0, 1.0])
        assert loss == 4.0
        # d/dx1 = -2(1-x1) - 400 x1 (x2 - x1^2) = -4, d/dx2 = 200(x2 - x1^2) = 0
        np.testing.assert_allclose(grad, [-4.0, 0.0])

    def test_overflowing_square_gives_inf_loss_and_nan_gradient(self):
        # (x2 - x1**2)**2 overflows; Python's float ** raises instead of giving inf
        loss, grad = rosenbrock([1e160, 1.0])
        assert loss == math.inf
        assert np.isnan(grad).all()
        problem = RosenbrockProblem(start=(1e160, 1.0))
        params = problem.init_params(philox(0))
        assert problem.metrics(params) == (math.inf, None)
        with pytest.raises(NonFiniteError, match="x: non-finite values rejected"):
            problem.evaluate(params)


def quadratic_at(x, spectrum):
    """``QuadraticProblem``'s loss and gradient values at ``x``."""
    problem = QuadraticProblem(tuple(spectrum), tuple(x))
    loss, (grad,) = problem.evaluate(problem.init_params(philox(0)))
    return loss, grad.values


class TestQuadratic:
    def test_zero(self):
        loss, grad = quadratic_at([0.0, 0.0], [1.0, 2.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_direct(self):
        loss, grad = quadratic_at([1.0, 2.0], [1.0, 1.0])
        assert loss == 2.5
        np.testing.assert_array_equal(grad, [1.0, 2.0])

    def test_ill_conditioned(self):
        loss, grad = quadratic_at([1.0, 1.0], [1.0, 1e4])
        assert loss == pytest.approx(5000.5)
        np.testing.assert_array_equal(grad, [1.0, 1e4])

    def test_non_positive_spectrum_rejected(self):
        with pytest.raises(ValueError, match=r"^spectrum\[0\]: must be > 0.0, got 0.0$"):
            QuadraticProblem((0.0,), (1.0,))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_evaluate_and_metrics_give_the_oracle_bits(self, n):
        rng = np.random.default_rng(n)
        spectrum = tuple(rng.uniform(0.1, 1e3, n).tolist())
        problem = QuadraticProblem(spectrum, tuple(rng.standard_normal(n).tolist()))
        params = problem.init_params(philox(0))
        loss, (grad,) = problem.evaluate(params)
        expected_loss, expected_grad = quadratic(params[0].values, spectrum)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert grad.values.tobytes() == expected_grad.tobytes()
        assert np.float64(problem.metrics(params)[0]).tobytes() == np.float64(loss).tobytes()

    def test_spectrum_is_checked_once(self, monkeypatch):
        calls = []
        checked = problems.check_fields

        def counting(problem):
            calls.append(problem.spectrum)
            return checked(problem)

        monkeypatch.setattr(problems, "check_fields", counting)
        problem = QuadraticProblem((1.0, 4.0, 9.0), (1.0, -1.0, 0.5))
        params = problem.init_params(philox(0))
        for _ in range(3):
            problem.evaluate(params)
        problem.metrics(params)
        assert calls == [(1.0, 4.0, 9.0)]


class TestLabelSmoothedCE:
    @staticmethod
    def ce(logits, label, alpha):
        """The smoothed cross-entropy of one row of ``logits`` against
        ``label`` and its gradient w.r.t. the logits, by the evaluate of a
        problem with no hidden layer: on one zero input, with zero weights,
        its logits are its bias."""
        n_classes = len(logits)
        problem = problem_on(np.zeros((1, 1)), [label], n_classes, alpha=alpha)
        params = [
            ParamTensor("w0", (n_classes, 1), np.zeros(n_classes)),
            ParamTensor("b0", (n_classes,), logits),
        ]
        loss, (_, grad) = problem.evaluate(params)
        return loss, grad.values

    def test_alpha_zero_is_plain_cross_entropy(self):
        logits = np.array([0.2, -1.0, 0.5])
        loss, grad = self.ce(logits, 2, 0.0)
        p = np.exp(logits) / np.exp(logits).sum()
        assert loss == pytest.approx(-math.log(p[2]), rel=1e-12)
        np.testing.assert_allclose(grad, p - np.eye(3)[2], rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("target", [0, 3])
    def test_uniform_logits_give_log_c(self, alpha, target):
        loss, _ = self.ce(np.zeros(4), target, alpha)
        assert loss == pytest.approx(math.log(4.0), rel=1e-12)

    def test_two_class_hand_value(self):
        # p = (1/4, 3/4), q = (0.95, 0.05)
        loss, grad = self.ce([0.0, math.log(3.0)], 0, 0.1)
        expected = -(0.95 * math.log(0.25) + 0.05 * math.log(0.75))
        assert loss == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(grad, [0.25 - 0.95, 0.75 - 0.05], rtol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            self.ce([0.0, 0.0], 2, 0.1)

    @pytest.mark.parametrize(
        "labels",
        [[-1, 0], [0, 4], [0.5, 1.0], [True, False], [[0], [1]], []],
        ids=["negative", "too_large", "float", "bool", "2d", "empty_float"],
    )
    def test_smoothed_targets_rejects_labels_outside_the_rule(self, labels):
        with pytest.raises(ValueError) as excinfo:
            smoothed_targets(np.array(labels), 4, 0.1)
        assert str(excinfo.value) == "need one label per row, each in [0, 4)"

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [True, False]], ids=["float", "bool"])
    def test_label_smoothed_ce_rejects_labels_that_are_not_integers(self, labels):
        problem = problem_on(np.zeros((2, 1)), np.array(labels), 4)
        with pytest.raises(ValueError) as excinfo:
            problem.evaluate(problem.init_params(philox(0)))
        assert str(excinfo.value) == "need one label per row, each in [0, 4)"

    def test_smoothed_targets_of_no_labels_has_no_rows(self):
        q = smoothed_targets(np.array([], dtype=np.int64), 4, 0.1)
        assert q.shape == (0, 4) and q.dtype == np.float64

    def test_gradient_matches_finite_differences(self):
        rng = philox(5)
        logits = rng.uniform(-3, 3, size=5)
        _, grad = self.ce(logits, 1, 0.1)

        def f(params):
            return self.ce(params[0].values, 1, 0.1)[0]

        fd = finite_diff_grad(f, [ParamTensor("z", (5,), logits)])
        np.testing.assert_allclose(grad, fd[0].values, rtol=1e-6, atol=1e-9)

    @settings(max_examples=200, derandomize=True)
    @given(
        st.lists(st.floats(-20, 20), min_size=2, max_size=8),
        st.floats(0.0, 0.9),
    )
    def test_gibbs_inequality(self, logits, alpha):
        target = len(logits) // 2
        loss, _ = self.ce(logits, target, alpha)
        q = smoothed_targets(np.array([target]), len(logits), alpha)[0]
        entropy = float(-(q[q > 0] * np.log(q[q > 0])).sum())
        assert loss >= entropy - 1e-10


class TestMLP:
    def widths(self):
        return (6, 5, 4)

    def batch(self, n=7, seed=9):
        rng = philox(seed)
        x = rng.standard_normal((n, self.widths()[0]))
        y = rng.integers(0, self.widths()[-1], size=n)
        return x, y

    def problem(self, x, y, activation="tanh"):
        return problem_on(x, y, self.widths()[-1], self.widths()[1:-1], activation=activation)

    def evaluate(self, params, x, y):
        return self.problem(x, y).evaluate(params)

    def test_zero_weights_give_uniform_predictions(self):
        widths = self.widths()
        params = []
        for layer, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
            params.append(ParamTensor(f"w{layer}", (fo, fi), np.zeros(fo * fi)))
            params.append(ParamTensor(f"b{layer}", (fo,), np.zeros(fo)))
        x, y = self.batch()
        loss, _ = self.evaluate(params, x, y)
        assert loss == pytest.approx(math.log(widths[-1]), rel=1e-12)

    def test_duplicated_sample_invariance(self):
        params = mlp_init(self.widths(), philox(1))
        x, y = self.batch(n=1)
        xk, yk = np.repeat(x, 6, axis=0), np.repeat(y, 6)
        loss1, grads1 = self.evaluate(params, x, y)
        lossk, gradsk = self.evaluate(params, xk, yk)
        assert lossk == pytest.approx(loss1, rel=1e-12)
        for g1, gk in zip(grads1, gradsk):
            np.testing.assert_allclose(gk.values, g1.values, rtol=1e-12, atol=1e-15)

    def test_sample_order_invariance(self):
        params = mlp_init(self.widths(), philox(2))
        x, y = self.batch(n=9)
        perm = philox(3).permutation(9)
        loss1, grads1 = self.evaluate(params, x, y)
        loss2, grads2 = self.evaluate(params, x[perm], y[perm])
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for g1, g2 in zip(grads1, grads2):
            np.testing.assert_allclose(g2.values, g1.values, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradients_match_finite_differences(self, activation):
        params = mlp_init(self.widths(), philox(4))
        problem = self.problem(*self.batch(), activation=activation)

        def f(ps):
            return problem.evaluate(ps)[0]

        _, grads = problem.evaluate(params)
        fd = finite_diff_grad(f, params)
        for g, g_fd in zip(grads, fd):
            np.testing.assert_allclose(g.values, g_fd.values, rtol=1e-5, atol=1e-8)

    # A problem with no hidden layer applies no activation, but still
    # rejects an unknown one.
    @pytest.mark.parametrize("hidden", [(5,), ()], ids=["blobs_mlp", "blobs_linear"])
    def test_unknown_activation_rejected(self, hidden):
        with pytest.raises(ValueError) as excinfo:
            BlobsMLPProblem(n=4, d=6, classes=4, hidden=hidden, batch_size=1, activation="bogus")
        assert str(excinfo.value) == "activation: expected one of ['relu', 'tanh'], got 'bogus'"

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_output_derivative_matches_pre_activation_oracle(self, activation):
        act, deriv = ACTIVATIONS[activation]
        oracle = PRE_ACTIVATION_DERIVATIVES[activation]
        edges = [0.0, -0.0, 20.0, -20.0, 25.0, -37.5, 400.0, -1e300, 1e-300, -5e-324]
        z = np.concatenate([edges, 3.0 * philox(12).standard_normal(500)])
        assert deriv(act(z)).tobytes() == oracle(z).tobytes()

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("depth", [0, 1, 15])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_logits_give_the_bits_of_the_evaluate_loss(self, activation, depth, n):
        """``metrics``' loss, from the logits alone, has the bits of the
        full-data ``evaluate`` loss."""
        x, y = self.batch(n=n)
        problem = problem_on(x, y, 4, (5,) * depth, activation=activation)
        params = problem.init_params(philox(14))
        loss, _ = problem.evaluate(params)
        assert np.float64(problem.metrics(params)[0]).tobytes() == np.float64(loss).tobytes()

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "full"])
    @pytest.mark.parametrize("hidden", [(), (5,), (5,) * 15], ids=["h0", "h1", "h15"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_problem_evaluate_gives_the_bits_of_mlp_eval(self, activation, hidden, batched):
        problem = BlobsMLPProblem(
            **BLOBS, hidden=hidden, batch_size=9, activation=activation
        )
        params = problem.init_params(philox(0))
        batch = problem.sample_batch(philox(1)) if batched else np.arange(40)
        loss, grads = problem.evaluate(params, batch if batched else None)
        x, y = problem.data
        _, expected_loss, expected = reference_of(params, x[batch], y[batch], activation)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert [g.values.tobytes() for g in grads] == [e.tobytes() for e in expected]

    @staticmethod
    def filled(layers):
        """MLP params from ``(out, in, weight fill, bias fill)`` per layer."""
        params = []
        for i, (fan_out, fan_in, w, b) in enumerate(layers):
            w = np.broadcast_to(np.asarray(w, dtype=np.float64), (fan_out, fan_in))
            params.append(ParamTensor(f"w{i}", (fan_out, fan_in), w))
            params.append(ParamTensor(f"b{i}", (fan_out,), np.full(fan_out, b)))
        return params

    def test_non_finite_gradient_names_its_tensor(self):
        cases = [
            # w0 and b0 zero keep the forward pass finite; the backward pass
            # carries 1e308-sized terms into w0's gradient, which overflows.
            ("tanh", [(4, 3, 0.0, 0.0), (2, 4, 1e308, 0.0)], 1e308, [0, 1, 0, 1, 0], "w0"),
            # Two layers overflow: ±1.7e308 output weights and unsaturated
            # tanh units push w1's and w0's gradients (and b1's) past the
            # float range. The backward pass writes w1 first, so w1 is named,
            # not w0, the first of them in registration order.
            (
                "tanh",
                [(4, 3, 0.0, 1.5), (1, 4, 1e-10, 0.55), (2, 1, [[1.7e308], [-1.7e308]], 0.0)],
                1e300,
                [1] * 5,
                "w1",
            ),
            # The same with relu: activations up to 1.5e299 and output
            # weights of ±1e9 overflow w1's and w0's gradients; b1's stays finite.
            (
                "relu",
                [(4, 3, 0.05, 0.0), (4, 4, 0.03, 0.0), (2, 4, [[1e9] * 4, [-1e9] * 4], 0.0)],
                1e300,
                [1] * 5,
                "w1",
            ),
        ]
        for activation, layers, x, y, named in cases:
            params = self.filled(layers)
            x = np.full((len(y), layers[0][1]), x)
            hidden = tuple(fan_out for fan_out, *_ in layers[:-1])
            problem = problem_on(x, y, layers[-1][0], hidden, activation=activation)
            with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as excinfo:
                problem.evaluate(params)
            assert str(excinfo.value) == f"{named}: non-finite values rejected", (activation, named)

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "full"])
    def test_evaluate_wraps_its_gradients_without_a_copy(self, monkeypatch, batched):
        problem = BlobsMLPProblem(**BLOBS, hidden=(5, 5), batch_size=9)
        params = problem.init_params(philox(0))
        batch = problem.sample_batch(philox(1)) if batched else None
        held = [p.values for p in params] + list(problem.data)  # drawn before counting
        constructed = []
        init = ParamTensor.__init__

        def counting_init(tensor, *args, **kwargs):
            constructed.append(args[0])
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(ParamTensor, "__init__", counting_init)
        _, grads = problem.evaluate(params, batch)
        monkeypatch.undo()
        assert constructed == []
        assert [(g.name, g.shape) for g in grads] == [(p.name, p.shape) for p in params]
        for g in grads:
            assert not g.values.flags.writeable
        for i, g in enumerate(grads):
            others = held + [h.values for h in grads[:i] + grads[i + 1 :]]
            assert not any(np.shares_memory(g.values, other) for other in others), g.name

    def test_gradients_are_a_tuple(self):
        problem = BlobsMLPProblem(**BLOBS, hidden=(5,), batch_size=9)
        _, grads = problem.evaluate(problem.init_params(philox(0)))
        assert type(grads) is tuple
        with pytest.raises(AttributeError):
            grads.pop()

    def test_gradients_and_params_are_views_of_unfrozen_buffers(self):
        problem = BlobsMLPProblem(**BLOBS, hidden=(5, 5), batch_size=9)
        params = problem.init_params(philox(0))
        _, grads = problem.evaluate(params, problem.sample_batch(philox(1)))
        flat = grads[0].values.base
        spans = []
        for g in grads:
            assert g.values.base is flat and not g.values.flags.writeable
            lo = (g.values.ctypes.data - flat.ctypes.data) // flat.itemsize
            spans.append((lo, lo + g.size))
        spans.sort()
        assert all(hi <= next_lo for (_, hi), (next_lo, _) in zip(spans, spans[1:]))
        held = [p.values for p in params] + list(problem.data)
        assert not any(np.shares_memory(flat, other) for other in held)

        # the state's buffers stay writeable under the read-only views taken of them
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=40)
        rng = philox(2)
        for _ in range(6):  # the fifth step syncs lookahead
            opt.step(problem.evaluate(opt.params, problem.sample_batch(rng))[1])
        assert not any(p.values.flags.writeable for p in opt.params)
        assert opt.state.flat_theta.flags.writeable and opt.state.flat_slow.flags.writeable

    def test_init_respects_fan_in_bound(self):
        params = mlp_init((100, 50, 10), philox(6))
        w0 = params[0]
        assert np.all(np.abs(w0.values) <= 1.0 / math.sqrt(100))
        assert np.all(params[1].values == 0.0)

    def test_mismatched_layer_shapes_rejected(self):
        bad = [
            ParamTensor("w0", (4, 6), np.zeros(24)),
            ParamTensor("b0", (3,), np.zeros(3)),
        ]
        with pytest.raises(ValueError):
            problem_on(np.zeros((2, 6)), [0, 1], 4).metrics(bad)


class TestFiniteDiff:
    def test_quadratic_exact(self):
        x = ParamTensor("x", (2,), [1.0, 2.0])

        def f(params):
            return QuadraticProblem((1.0, 1.0), (1.0, 2.0)).metrics(params)[0]

        (grad,) = finite_diff_grad(f, [x])
        np.testing.assert_allclose(grad.values, [1.0, 2.0], atol=1e-8)

    def test_rosenbrock_at_origin(self):
        x = ParamTensor("x", (2,), [0.0, 0.0])

        def f(params):
            return rosenbrock(params[0].values)[0]

        (grad,) = finite_diff_grad(f, [x])
        np.testing.assert_allclose(grad.values, [-2.0, 0.0], atol=1e-6)

    def test_constant_function(self):
        x = ParamTensor("x", (3,), [1.0, 2.0, 3.0])
        (grad,) = finite_diff_grad(lambda ps: 4.5, [x])
        np.testing.assert_array_equal(grad.values, np.zeros(3))


class TestMakeBlobs:
    def test_deterministic(self):
        a_inputs, a_labels = make_blobs(11, 100, 5, 3, 4.0)
        b_inputs, b_labels = make_blobs(11, 100, 5, 3, 4.0)
        assert a_inputs.tobytes() == b_inputs.tobytes()
        assert a_labels.tobytes() == b_labels.tobytes()

    def test_balanced_labels(self):
        _, labels = make_blobs(1, 103, 4, 4, 1.0)
        counts = np.bincount(labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_zero_separation_shares_mean(self):
        inputs, labels = make_blobs(2, 4000, 5, 4, 0.0)
        class_means = [inputs[labels == c].mean(axis=0) for c in range(4)]
        for a in class_means:
            for b in class_means:
                assert float(np.linalg.norm(a - b)) < 0.5

    def test_large_separation_is_linearly_separable(self):
        # a linear softmax model fit with the plain preset reaches 100%
        # train accuracy
        problem = BlobsMLPProblem(
            data_seed=3, n=400, d=8, classes=4, separation=10.0, hidden=(), batch_size=400
        )
        params = problem.init_params(philox(0))
        opt = Optimizer.adamw(params, eta=5e-2, weight_decay=0.0)
        for _ in range(300):
            _, grads = problem.evaluate(opt.params)
            opt.step(grads)
        _, accuracy = problem.metrics(opt.params)
        assert accuracy == 1.0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(0, 1, 3, 2, 1.0)


class TestBenchmarkProblems:
    def test_rosenbrock_problem_wraps_surface(self):
        problem = RosenbrockProblem()
        params = problem.init_params(philox(0))
        assert params[0].values.tolist() == [-1.5, 2.0]
        loss, grads = problem.evaluate(params)
        expected_loss, expected_grad = rosenbrock([-1.5, 2.0])
        assert loss == expected_loss
        np.testing.assert_array_equal(grads[0].values, expected_grad)

    def test_quadratic_problem(self):
        problem = QuadraticProblem(spectrum=(1.0, 10.0), start=(1.0, 1.0))
        params = problem.init_params(philox(0))
        loss, _ = problem.evaluate(params)
        assert loss == pytest.approx(5.5)

    def test_blobs_problem_batches_are_deterministic(self):
        problem = BlobsMLPProblem(
            data_seed=5, n=50, d=4, classes=2, separation=3.0, hidden=(8,), batch_size=16
        )
        b1 = problem.sample_batch(philox((1, 2)))
        b2 = problem.sample_batch(philox((1, 2)))
        np.testing.assert_array_equal(b1, b2)

    def test_blobs_problem_draws_its_data_on_first_evaluate(self):
        problem = BlobsMLPProblem(
            data_seed=5, n=50, d=4, classes=2, separation=3.0, hidden=(8,), batch_size=16
        )
        params = problem.init_params(philox(0))
        batch = problem.sample_batch(philox(1))
        assert "data" not in vars(problem)
        problem.evaluate(params, batch)
        inputs, labels = make_blobs(5, 50, 4, 2, 3.0)
        assert problem.data[0].tobytes() == inputs.tobytes()
        assert problem.data[1].tobytes() == labels.tobytes()

    @pytest.mark.parametrize(
        "n, classes, message",
        [(1, 2, "n: must be >= classes = 2, got 1"), (4, 1, "classes: must be >= 2, got 1")],
        ids=["n_below_classes", "one_class"],
    )
    def test_blobs_problem_rejects_what_make_blobs_rejects(self, n, classes, message):
        with pytest.raises(ValueError) as drawn:
            make_blobs(0, n, 3, classes, 1.0)
        with pytest.raises(ValueError) as built:
            BlobsMLPProblem(n=n, d=3, classes=classes, hidden=(4,), batch_size=1)
        assert str(drawn.value) == str(built.value) == message

    @pytest.mark.parametrize("alpha", [1.5, 1.0, -0.1, math.nan])
    def test_blobs_problem_rejects_what_smoothed_targets_rejects(self, alpha):
        with pytest.raises(ValueError) as smoothed:
            smoothed_targets(np.array([0]), 4, alpha)
        with pytest.raises(ValueError) as built:
            BlobsMLPProblem(n=40, d=6, classes=4, hidden=(5,), batch_size=9, alpha=alpha)
        rule = (
            "expected a finite number" if math.isnan(alpha)
            else "must be >= 0.0" if alpha < 0 else "must be < 1.0"
        )
        assert str(smoothed.value) == str(built.value) == f"alpha: {rule}, got {alpha}"

    @pytest.mark.parametrize(
        "spectrum, message",
        [((-1.0,), "spectrum[0]: must be > 0.0, got -1.0"),
         ((), "spectrum: expected a non-empty list"),
         ((1.0, math.nan), "spectrum[1]: expected a finite number, got nan")],
    )
    def test_quadratic_problem_rejects_a_bad_spectrum(self, spectrum, message):
        with pytest.raises(ValueError) as built:
            QuadraticProblem(spectrum, (1.0,) * len(spectrum))
        assert str(built.value) == message

    def test_rosenbrock_problem_rejects_a_start_of_other_length(self):
        with pytest.raises(ValueError, match=r"^start: expected 2 entries, got 3$"):
            RosenbrockProblem((1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "make, entry",
        [
            (lambda: RosenbrockProblem((math.nan, 1.0)), "[0]: expected a finite number, got nan"),
            (lambda: RosenbrockProblem((1.0, -math.inf)),
             "[1]: expected a finite number, got -inf"),
            (lambda: QuadraticProblem((1.0,), (math.inf,)),
             "[0]: expected a finite number, got inf"),
            (lambda: QuadraticProblem((1.0, 2.0), (0.5, math.nan)),
             "[1]: expected a finite number, got nan"),
        ],
        ids=["rosenbrock_nan", "rosenbrock_minus_inf", "quadratic_inf", "quadratic_nan"],
    )
    def test_non_finite_start_rejected_when_built(self, make, entry):
        with pytest.raises(ValueError) as built:
            make()
        assert str(built.value) == f"start{entry}"

    @pytest.mark.parametrize("separation", [math.nan, math.inf, -math.inf])
    def test_blobs_problem_rejects_a_non_finite_separation(self, separation):
        with pytest.raises(ValueError) as built:
            BlobsMLPProblem(n=4, d=2, classes=2, separation=separation, hidden=(3,), batch_size=1)
        assert str(built.value) == f"separation: expected a finite number, got {separation}"

    @pytest.mark.parametrize("d, hidden", [(0, (4,)), (3, (4, 0))])
    def test_blobs_problem_rejects_what_mlp_init_rejects(self, d, hidden):
        widths = (d, *hidden, 2)
        with pytest.raises(ValueError) as initialised:
            mlp_init(widths, philox(0))
        with pytest.raises(ValueError) as built:
            BlobsMLPProblem(n=4, d=d, classes=2, hidden=hidden, batch_size=1)
        # the same rule on the same entry: widths are (d, *hidden, classes)
        at, field = (0, "d") if d == 0 else (2, "hidden[1]")
        assert str(initialised.value) == f"widths[{at}]: must be >= 1, got 0"
        assert str(built.value) == f"{field}: must be >= 1, got 0"

    @pytest.mark.parametrize(
        "cls, name",
        [(RosenbrockProblem, "rosenbrock"), (QuadraticProblem, "quadratic"),
         (BlobsMLPProblem, "blobs_mlp")],
    )
    def test_name_is_a_class_constant(self, cls, name):
        assert cls.name == name
        assert "name" not in {f.name for f in dataclasses.fields(cls)}

    def test_metrics_memory_does_not_grow_with_depth(self):
        peaks = []
        for layers in (4, 15):
            problem = BlobsMLPProblem(
                n=2000, d=20, classes=4, separation=8.0, hidden=(16,) * layers, batch_size=1
            )
            params = problem.init_params(philox(0))
            problem.metrics(params)  # draws the data
            tracemalloc.start()
            try:
                problem.metrics(params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one 2000 x 16 float64 layer is 256 KB; holding all 15 would need 3.8 MB
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("depth", [0, 1, 15])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("separation", [10.0, 8.0], ids=["blobs_mlp", "deep_mlp"])
    def test_metrics_loss_has_the_bits_of_label_smoothed_ce(self, separation, activation, depth):
        problem = BlobsMLPProblem(
            n=2000, d=20, classes=4, separation=separation, hidden=(16,) * depth,
            batch_size=128, activation=activation,
        )
        params = problem.init_params(philox(3))
        loss, accuracy = problem.metrics(params)
        x, y = problem.data
        logits = reference_of(params, x, y, activation)[0]
        expected = label_smoothed_ce(logits, y, 0.1)[0]
        assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
        assert accuracy == float(np.mean(logits.argmax(axis=1) == y))

    def test_layout_and_targets_are_built_once(self, monkeypatch):
        calls = {"_layout": 0, "smoothed_targets": 0}
        for name in calls:
            raw = getattr(problems, name)

            def counting(*args, _raw=raw, _name=name, **kwargs):
                calls[_name] += 1
                return _raw(*args, **kwargs)

            monkeypatch.setattr(problems, name, counting)
        problem = BlobsMLPProblem(**BLOBS, hidden=(5, 5), batch_size=9)
        params = problem.init_params(philox(0))
        rng = philox(1)
        for i in range(10):
            problem.evaluate(params, problem.sample_batch(rng) if i % 2 else None)
        problem.metrics(params)
        problem.metrics(params)
        monkeypatch.undo()
        assert calls == {"_layout": 1, "smoothed_targets": 1}, calls
        assert problem.targets.tobytes() == smoothed_targets(problem.data[1], 4, 0.1).tobytes()

    @pytest.mark.parametrize("call", ["evaluate", "metrics"])
    @pytest.mark.parametrize(
        "widths, keep, message",
        [
            ((6, 4, 4), None, "w0: widths (6, 5, 5, 4) need shape (5, 6), got (4, 6)"),
            ((6, 5, 3, 4), None, "w1: widths (6, 5, 5, 4) need shape (5, 5), got (3, 5)"),
            ((6, 5, 5, 3), None, "w2: widths (6, 5, 5, 4) need shape (4, 5), got (3, 5)"),
            ((6, 5, 5, 4), 4, "widths (6, 5, 5, 4) need 6 params, got 4"),
        ],
        ids=["w0", "w1", "w2", "count"],
    )
    def test_params_of_other_shapes_rejected(self, call, widths, keep, message):
        problem = BlobsMLPProblem(**BLOBS, hidden=(5, 5), batch_size=9)
        params = mlp_init(widths, philox(0))[:keep]
        with pytest.raises(ValueError) as excinfo:
            getattr(problem, call)(params)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RosenbrockProblem(start=(0.3, -0.7)),
            lambda: QuadraticProblem(spectrum=(1.0, 25.0, 100.0), start=(1.0, -1.0, 0.5)),
            lambda: BlobsMLPProblem(
                data_seed=8, n=12, d=3, classes=2, separation=2.0, hidden=(4,), batch_size=12
            ),
            lambda: BlobsMLPProblem(
                data_seed=8, n=12, d=3, classes=2, separation=2.0, hidden=(4,), batch_size=12,
                activation="relu",
            ),
        ],
        ids=["rosenbrock", "quadratic", "blobs_mlp", "blobs_mlp_relu"],
    )
    def test_analytic_gradients_match_finite_differences(self, make):
        problem = make()
        rng = philox(21)
        for _ in range(5):
            params = [
                p.with_values(p.values + 0.1 * rng.standard_normal(p.size))
                for p in problem.init_params(rng)
            ]
            _, grads = problem.evaluate(params)

            def f(ps):
                return problem.evaluate(ps)[0]

            fd = finite_diff_grad(f, params)
            for g, g_fd in zip(grads, fd):
                np.testing.assert_allclose(g.values, g_fd.values, rtol=1e-5, atol=1e-8)
