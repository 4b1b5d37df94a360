"""Tape construction, backward rules against the gradient suite's checker,
and error cases."""

import numpy as np
import pytest

from tvconv import autograd as ag
from tvconv import models
from tvconv.autograd import GradError, Node, backward
from tvconv.gradsuite import finite_diff_grad, grad_check, max_rel_err, run_suite, weighted_sum


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        g = finite_diff_grad(lambda a: float((a**2).sum()), x, eps=1e-6)
        np.testing.assert_allclose(g, 2 * x, atol=1e-8)


class TestGradCheck:
    def test_rel_err_formula(self):
        err = grad_check(np.array([1.0]), np.array([1.0 + 2e-5]))
        assert abs(err - 2e-5 / (1.0 + 2e-5)) < 1e-12
        assert grad_check(np.array([1.0]), np.array([1.0 + 5e-6])) < 1e-5

    def test_tiny_values_use_floor(self):
        # Denominator floor 1e-8 keeps zero-vs-zero comparisons finite.
        assert grad_check(np.zeros(3), np.zeros(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grad_check(np.zeros(3), np.zeros(4))


class TestBackwardContract:
    def test_grad_of_loss_wrt_itself(self):
        x = ag.leaf(np.array(3.0), param=True)
        loss = ag.reshape(x, (1, 1))
        backward(loss)
        np.testing.assert_array_equal(loss.grad, 1.0)

    @pytest.mark.parametrize("op", ["tvconv", "depthwise"])
    def test_rules_never_write_into_their_gradient(self, op, monkeypatch):
        # backward hands a gradient on without copying it, so a layer norm
        # gives its residual the array its own rule reads, and `reshape` a
        # view of its child's.
        def read_only(rule):
            def wrapped(n, g):
                g.flags.writeable = False
                return rule(n, g)
            return wrapped

        for name, rule in list(ag._RULES.items()):
            monkeypatch.setitem(ag._RULES, name, read_only(rule))
        assert all(r.passed for r in run_suite(seed=1, instances=2))
        model = models.LayoutModel.create(models.default_model_spec(op), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 32, 32))
        grads = backward(model.loss(x, [0, 1]))
        assert len(grads) == len(model.params)

    def test_non_scalar_loss_rejected(self):
        x = ag.leaf(np.ones(3), param=True)
        with pytest.raises(GradError, match="scalar"):
            backward(ag.reshape(x, (3, 1)))

    def test_unregistered_op_rejected(self):
        x = ag.leaf(np.ones(3), param=True)
        bogus = Node("warp", np.array(1.0), (x,), {})
        with pytest.raises(GradError, match="warp"):
            backward(bogus)

    def test_fanout_accumulates(self):
        # One leaf is both the norm's input and its residual: its gradient is
        # the sum over both uses.
        rng = np.random.default_rng(3)
        r = rng.uniform(0.5, 1.5, (2, 3, 3, 4))
        params = {"x": rng.standard_normal((2, 3, 3, 4)),
                  "g": rng.uniform(0.5, 1.5, 3), "b": rng.standard_normal(3)}
        assert max_rel_err(params, lambda n: ag.layer_norm(n["x"], n["g"], n["b"],
                                                           residual=n["x"]), r) < 1e-5

    def test_relu_subgradient_zero_at_zero(self):
        # x = [-1, 0, 1] has mean 0, so the middle pre-activation is exactly
        # 0; only the last position passes a gradient.
        x = ag.leaf(np.array([-1.0, 0.0, 1.0]).reshape(1, 1, 1, 3), param=True)
        gamma, beta = ag.leaf(np.ones(1)), ag.leaf(np.zeros(1), param=True)
        res = ag.leaf(np.zeros((1, 1, 1, 3)), param=True)
        y = ag.layer_norm(x, gamma, beta, relu=True)
        assert y.value[0, 0, 0, 1] == 0.0
        np.testing.assert_array_equal(backward(weighted_sum(y, np.ones(3)))[beta], [1.0])
        y = ag.layer_norm(x, gamma, beta, relu=True, residual=res)
        np.testing.assert_array_equal(backward(weighted_sum(y, np.ones(3)))[res].ravel(),
                                      [0.0, 0.0, 1.0])

    def test_param_map_contains_only_params(self):
        x = ag.leaf(np.ones((1, 2)), param=True)
        w, b = ag.constant(np.full((2, 1), 5.0)), ag.constant(np.zeros(1))
        grads = backward(ag.linear(x, w, b))
        assert x in grads and w not in grads and b not in grads


class TestNoTape:
    def test_nodes_record_nothing(self):
        x = ag.leaf(np.array([[-1.0, 2.0]]), param=True)
        w = ag.leaf(np.ones((2, 1)), param=True)
        b = ag.leaf(np.zeros(1), param=True)
        with ag.no_tape():
            y = ag.softmax_xent(ag.linear(x, w, b), np.array([0]))
        assert y.parents == () and y.saved == {}
        taped = ag.softmax_xent(ag.linear(x, w, b), np.array([0]))
        assert taped.parents and taped.saved
        assert y.value == taped.value

    def test_recording_resumes_after_block(self):
        x = ag.leaf(np.ones(2), param=True)
        with ag.no_tape():
            assert not ag.recording()
        y = ag.reshape(x, (2, 1))
        assert ag.recording() and y.parents == (x,)

    def test_recording_resumes_after_raise(self):
        x = ag.leaf(np.ones((1, 2, 2, 2)), param=True)
        g, b = ag.leaf(np.ones(2)), ag.leaf(np.zeros(2))
        with pytest.raises(ValueError, match="residual"):
            with ag.no_tape():
                ag.layer_norm(x, g, b, residual=ag.leaf(np.ones((1, 2, 1, 1))))
        y = ag.reshape(x, (1, 8))
        assert ag.recording() and y.parents == (x,)
        assert x in backward(weighted_sum(y, np.ones(8)))


class TestOpGradients:
    """Each registered op against central differences on small instances."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def test_dwconv(self):
        x = self.rng.standard_normal((2, 3, 4, 5))
        w = self.rng.standard_normal((3, 3, 3))
        r = self.rng.uniform(0.5, 1.5, (2, 3, 4, 5))
        assert max_rel_err({"x": x, "w": w}, lambda n: ag.dwconv(n["x"], n["w"]), r) < 1e-5

    def test_conv(self):
        x = self.rng.standard_normal((2, 2, 4, 4))
        w = self.rng.standard_normal((3, 2, 3, 3))
        r = self.rng.uniform(0.5, 1.5, (2, 3, 4, 4))
        assert max_rel_err({"x": x, "w": w}, lambda n: ag.conv(n["x"], n["w"]), r) < 1e-5

    def test_tvconv(self):
        x = self.rng.standard_normal((2, 2, 3, 4))
        wf = self.rng.standard_normal((2, 3, 3, 3, 4))
        r = self.rng.uniform(0.5, 1.5, (2, 2, 3, 4))
        assert max_rel_err({"x": x, "wf": wf}, lambda n: ag.tvconv(n["x"], n["wf"]), r) < 1e-5

    def test_layer_norm(self):
        x = self.rng.standard_normal((2, 3, 3, 3)) * 2 + 1
        gamma = self.rng.uniform(0.5, 1.5, 3)
        beta = self.rng.standard_normal(3)
        r = self.rng.uniform(0.5, 1.5, (2, 3, 3, 3))
        assert max_rel_err({"x": x, "g": gamma, "b": beta},
                           lambda n: ag.layer_norm(n["x"], n["g"], n["b"]), r) < 1e-5

    @pytest.mark.parametrize("shape, relu, residual, stride", [
        ((2, 3, 4, 4), True, False, 2),
        ((2, 3, 3, 3), False, True, 1),
        ((2, 3, 4, 6), False, True, 2),
        ((2, 2, 5, 7), True, True, 2),  # an odd map keeps rows and columns 0, 2, 4, ...
    ], ids=["relu-stride", "residual", "residual-stride", "odd-relu-residual-stride"])
    def test_layer_norm_epilogue(self, shape, relu, residual, stride):
        n, c, h, w = shape
        params = {"x": self.rng.standard_normal(shape) * 2 + 1,
                  "g": self.rng.uniform(0.5, 1.5, c), "b": self.rng.standard_normal(c)}
        if residual:
            params["res"] = self.rng.standard_normal(shape)
        r = self.rng.uniform(0.5, 1.5, (n, c, -(-h // stride), -(-w // stride)))

        def norm(nodes, relu=relu):
            return ag.layer_norm(nodes["x"], nodes["g"], nodes["b"], relu=relu,
                                 residual=nodes.get("res"), stride=stride)

        if relu:  # the differences must not cross the kink
            pre = norm({k: ag.leaf(v) for k, v in params.items()}, relu=False).value
            assert np.abs(pre).min() > 1e-4 and (pre < 0).any()
        assert max_rel_err(params, norm, r) < 1e-5

    def test_layer_norm_residual_must_match(self):
        x, g, b = ag.leaf(np.ones((2, 3, 4, 4))), ag.leaf(np.ones(3)), ag.leaf(np.zeros(3))
        with pytest.raises(ValueError, match=r"residual of shape \(2, 3, 2, 2\) does not "
                                             r"match input of shape \(2, 3, 4, 4\)"):
            ag.layer_norm(x, g, b, residual=ag.leaf(np.ones((2, 3, 2, 2))))

    def test_linear(self):
        x = self.rng.standard_normal((4, 5))
        w = self.rng.standard_normal((5, 3))
        b = self.rng.standard_normal(3)
        r = self.rng.uniform(0.5, 1.5, (4, 3))
        assert max_rel_err({"x": x, "w": w, "b": b},
                           lambda n: ag.linear(n["x"], n["w"], n["b"]), r) < 1e-5

    def test_pool_mean(self):
        x = self.rng.standard_normal((2, 3, 4, 4))
        r = self.rng.uniform(0.5, 1.5, (2, 3))
        assert max_rel_err({"x": x}, lambda n: ag.pool_mean(n["x"]), r) < 1e-5

    def test_reshape(self):
        x = self.rng.standard_normal((2, 3, 4))
        r = self.rng.uniform(0.5, 1.5, (6, 4))
        assert max_rel_err({"x": x}, lambda n: ag.reshape(n["x"], (6, 4)), r) < 1e-5

    def test_softmax_xent(self):
        logits = self.rng.standard_normal((5, 4)) * 2
        labels = np.array([0, 3, 1, 2, 3])
        assert max_rel_err({"z": logits}, lambda n: ag.softmax_xent(n["z"], labels), 1.0) < 1e-5

    def test_softmax_xent_value(self):
        # Uniform logits give loss log(K) exactly.
        z = ag.leaf(np.zeros((2, 4)))
        loss = ag.softmax_xent(z, np.array([1, 2]))
        assert abs(float(loss.value) - np.log(4.0)) < 1e-12
