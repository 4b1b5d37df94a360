"""Tape construction, backward rules vs central differences, and error cases."""

import numpy as np
import pytest

from tvconv import autograd as ag
from tvconv import models
from tvconv.autograd import GradError, Node, backward, finite_diff_grad, grad_check
from tvconv.gradsuite import run_suite


def fd_loss(build, params, name, eps=1e-6):
    """Central-difference gradient of build(params) wrt params[name]."""

    def f(arr):
        vals = dict(params)
        vals[name] = arr
        nodes = {k: ag.leaf(v, name=k, param=True) for k, v in vals.items()}
        return float(build(nodes).value)

    return finite_diff_grad(f, params[name], eps=eps)


def check_op(build, params, tol=1e-5):
    nodes = {k: ag.leaf(v, name=k, param=True) for k, v in params.items()}
    loss = build(nodes)
    grads = backward(loss)
    for name in params:
        num = fd_loss(build, params, name)
        rep = grad_check(grads[nodes[name]], num, tol=tol)
        assert rep.passed, f"{name}: max_rel_err={rep.max_rel_err:.3e}"


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        g = finite_diff_grad(lambda a: float((a**2).sum()), x, eps=1e-6)
        np.testing.assert_allclose(g, 2 * x, atol=1e-8)


class TestGradCheck:
    def test_rel_err_formula(self):
        rep = grad_check(np.array([1.0]), np.array([1.0 + 2e-5]), tol=1e-5)
        assert not rep.passed
        assert abs(rep.max_rel_err - 2e-5 / (1.0 + 2e-5)) < 1e-12
        rep = grad_check(np.array([1.0]), np.array([1.0 + 5e-6]), tol=1e-5)
        assert rep.passed

    def test_tiny_values_use_floor(self):
        # Denominator floor 1e-8 keeps zero-vs-zero comparisons finite.
        rep = grad_check(np.zeros(3), np.zeros(3), tol=1e-5)
        assert rep.passed and rep.max_rel_err == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grad_check(np.zeros(3), np.zeros(4))


class TestBackwardContract:
    def test_grad_of_loss_wrt_itself(self):
        x = ag.leaf(np.array(3.0), param=True)
        loss = ag.ssum(x)
        backward(loss)
        np.testing.assert_array_equal(loss.grad, 1.0)

    @pytest.mark.parametrize("op", ["tvconv", "depthwise"])
    def test_rules_never_write_into_their_gradient(self, op, monkeypatch):
        # backward hands a gradient on without copying it, so a layer norm
        # gives its residual the array its own rule reads, and `reshape` a
        # view of its child's.
        def read_only(rule):
            def wrapped(n, g):
                if isinstance(g, np.ndarray):  # mul_const of a 0-d value: a numpy scalar
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
            backward(ag.mul_const(x, 2.0))

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
        check_op(lambda n: ag.ssum(ag.mul_const(
            ag.layer_norm(n["x"], n["g"], n["b"], residual=n["x"]), r)), params)

    def test_relu_subgradient_zero_at_zero(self):
        # x = [-1, 0, 1] has mean 0, so the middle pre-activation is exactly
        # 0; only the last position passes a gradient.
        x = ag.leaf(np.array([-1.0, 0.0, 1.0]).reshape(1, 1, 1, 3), param=True)
        gamma, beta = ag.leaf(np.ones(1)), ag.leaf(np.zeros(1), param=True)
        res = ag.leaf(np.zeros((1, 1, 1, 3)), param=True)
        y = ag.layer_norm(x, gamma, beta, relu=True)
        assert y.value[0, 0, 0, 1] == 0.0
        np.testing.assert_array_equal(backward(ag.ssum(y))[beta], [1.0])
        y = ag.layer_norm(x, gamma, beta, relu=True, residual=res)
        np.testing.assert_array_equal(backward(ag.ssum(y))[res].ravel(), [0.0, 0.0, 1.0])

    def test_param_map_contains_only_params(self):
        x = ag.leaf(np.ones((1, 2)), param=True)
        w, b = ag.constant(np.full((2, 1), 5.0)), ag.constant(np.zeros(1))
        grads = backward(ag.ssum(ag.linear(x, w, b)))
        assert x in grads and w not in grads and b not in grads


class TestNoTape:
    def test_nodes_record_nothing(self):
        x = ag.leaf(np.array([[-1.0, 2.0]]), param=True)
        w = ag.leaf(np.ones((2, 1)), param=True)
        b = ag.leaf(np.zeros(1), param=True)
        with ag.no_tape():
            y = ag.softmax_xent(ag.linear(ag.mul_const(x, 2.0), w, b), np.array([0]))
        assert y.parents == () and y.saved == {}
        taped = ag.softmax_xent(ag.linear(ag.mul_const(x, 2.0), w, b), np.array([0]))
        assert taped.parents and taped.saved
        assert y.value == taped.value

    def test_recording_resumes_after_block(self):
        x = ag.leaf(np.ones(2), param=True)
        with ag.no_tape():
            assert not ag.recording()
        y = ag.mul_const(x, 2.0)
        assert ag.recording() and y.parents == (x,)

    def test_recording_resumes_after_raise(self):
        x = ag.leaf(np.ones((1, 2, 2, 2)), param=True)
        g, b = ag.leaf(np.ones(2)), ag.leaf(np.zeros(2))
        with pytest.raises(ValueError, match="residual"):
            with ag.no_tape():
                ag.layer_norm(x, g, b, residual=ag.leaf(np.ones((1, 2, 1, 1))))
        y = ag.mul_const(x, 2.0)
        assert ag.recording() and y.parents == (x,)
        assert x in backward(ag.ssum(y))


class TestOpGradients:
    """Each registered op against central differences on small instances."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def test_dwconv(self):
        x = self.rng.standard_normal((2, 3, 4, 5))
        w = self.rng.standard_normal((3, 3, 3))
        r = self.rng.uniform(0.5, 1.5, (2, 3, 4, 5))
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.dwconv(n["x"], n["w"]), r)),
            {"x": x, "w": w},
        )

    def test_conv(self):
        x = self.rng.standard_normal((2, 2, 4, 4))
        w = self.rng.standard_normal((3, 2, 3, 3))
        r = self.rng.uniform(0.5, 1.5, (2, 3, 4, 4))
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.conv(n["x"], n["w"]), r)),
            {"x": x, "w": w},
        )

    def test_tvconv(self):
        x = self.rng.standard_normal((2, 2, 3, 4))
        wf = self.rng.standard_normal((2, 3, 3, 3, 4))
        r = self.rng.uniform(0.5, 1.5, (2, 2, 3, 4))
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.tvconv(n["x"], n["wf"]), r)),
            {"x": x, "wf": wf},
        )

    def test_layer_norm(self):
        x = self.rng.standard_normal((2, 3, 3, 3)) * 2 + 1
        gamma = self.rng.uniform(0.5, 1.5, 3)
        beta = self.rng.standard_normal(3)
        r = self.rng.uniform(0.5, 1.5, (2, 3, 3, 3))
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.layer_norm(n["x"], n["g"], n["b"]), r)),
            {"x": x, "g": gamma, "b": beta},
        )

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
        check_op(lambda nodes: ag.ssum(ag.mul_const(norm(nodes), r)), params)

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
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.linear(n["x"], n["w"], n["b"]), r)),
            {"x": x, "w": w, "b": b},
        )

    def test_pool_mean(self):
        x = self.rng.standard_normal((2, 3, 4, 4))
        r = self.rng.uniform(0.5, 1.5, (2, 3))
        check_op(lambda n: ag.ssum(ag.mul_const(ag.pool_mean(n["x"]), r)), {"x": x})

    def test_reshape(self):
        x = self.rng.standard_normal((2, 3, 4))
        r = self.rng.uniform(0.5, 1.5, (6, 4))
        check_op(lambda n: ag.ssum(ag.mul_const(ag.reshape(n["x"], (6, 4)), r)), {"x": x})

    def test_softmax_xent(self):
        logits = self.rng.standard_normal((5, 4)) * 2
        labels = np.array([0, 3, 1, 2, 3])
        check_op(lambda n: ag.softmax_xent(n["z"], labels), {"z": logits})

    def test_softmax_xent_value(self):
        # Uniform logits give loss log(K) exactly.
        z = ag.leaf(np.zeros((2, 4)))
        loss = ag.softmax_xent(z, np.array([1, 2]))
        assert abs(float(loss.value) - np.log(4.0)) < 1e-12
