"""Tape construction, backward rules vs central differences, and error cases."""

import numpy as np
import pytest

from tvconv import autograd as ag
from tvconv import models
from tvconv.autograd import GradError, Node, backward, finite_diff_grad, grad_check
from tvconv.gradsuite import run_suite
from tvconv.tensor import Tensor


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

    def test_tensor_in_tensor_out(self):
        x = Tensor([2.0, 3.0])
        g = finite_diff_grad(lambda t: float((t.data**3).sum()), x)
        assert isinstance(g, Tensor)
        np.testing.assert_allclose(g.data, 3 * x.data**2, atol=1e-6)


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
        # backward hands a gradient on without copying it, so `add` gives
        # both parents one array and `reshape` a view of its child's.
        def read_only(rule):
            def wrapped(n, g):
                if isinstance(g, np.ndarray):  # scale, mul_const: numpy scalars
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
            backward(ag.relu(x))

    def test_unregistered_op_rejected(self):
        x = ag.leaf(np.ones(3), param=True)
        bogus = Node("warp", np.array(1.0), (x,), {})
        with pytest.raises(GradError, match="warp"):
            backward(bogus)

    def test_fanout_accumulates(self):
        x = ag.leaf(np.array([1.0, 2.0]), param=True)
        loss = ag.add(ag.ssum(x), ag.ssum(ag.scale(x, 3.0)))
        grads = backward(loss)
        np.testing.assert_allclose(grads[x], [4.0, 4.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = ag.leaf(np.array([0.0, -1.0, 2.0]), param=True)
        grads = backward(ag.ssum(ag.relu(x)))
        np.testing.assert_array_equal(grads[x], [0.0, 0.0, 1.0])

    def test_param_map_contains_only_params(self):
        x = ag.leaf(np.ones(2), param=True)
        c = ag.constant(np.full(2, 5.0))
        grads = backward(ag.ssum(ag.add(x, c)))
        assert x in grads and c not in grads


class TestNoTape:
    def test_nodes_record_nothing(self):
        x = ag.leaf(np.array([[-1.0, 2.0]]), param=True)
        w = ag.leaf(np.ones((2, 1)), param=True)
        b = ag.leaf(np.zeros(1), param=True)
        with ag.no_tape():
            y = ag.softmax_xent(ag.linear(ag.relu(x), w, b), np.array([0]))
        assert y.parents == () and y.saved == {}
        taped = ag.softmax_xent(ag.linear(ag.relu(x), w, b), np.array([0]))
        assert taped.parents and taped.saved
        assert y.value == taped.value

    def test_recording_resumes_after_block(self):
        x = ag.leaf(np.ones(2), param=True)
        with ag.no_tape():
            assert not ag.recording()
        y = ag.relu(x)
        assert ag.recording() and y.parents == (x,)

    def test_recording_resumes_after_raise(self):
        x = ag.leaf(np.ones(2), param=True)
        with pytest.raises(ValueError):
            with ag.no_tape():
                ag.add(x, ag.leaf(np.ones(3)))
        y = ag.relu(x)
        assert ag.recording() and y.parents == (x,)
        assert x in backward(ag.ssum(y))


class TestOpGradients:
    """Each registered op against central differences on small instances."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def test_relu(self):
        # Keep preactivations away from the kink.
        x = self.rng.standard_normal((2, 3, 4, 4))
        x = np.where(np.abs(x) < 1e-3, x + 0.1, x)
        w = self.rng.uniform(0.5, 1.5, x.shape)
        check_op(lambda n: ag.ssum(ag.mul_const(ag.relu(n["x"]), w)), {"x": x})

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
        wf = self.rng.standard_normal((2 * 9, 3, 4))
        r = self.rng.uniform(0.5, 1.5, (2, 2, 3, 4))
        check_op(
            lambda n: ag.ssum(ag.mul_const(ag.tvconv(n["x"], n["wf"], k=3), r)),
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

    def test_subsample(self):
        x = self.rng.standard_normal((2, 2, 6, 6))
        r = self.rng.uniform(0.5, 1.5, (2, 2, 3, 3))
        check_op(lambda n: ag.ssum(ag.mul_const(ag.subsample(n["x"], 2), r)), {"x": x})

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
