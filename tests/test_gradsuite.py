"""The randomized per-op gradient suite (small instance counts here; the
acceptance test runs the full 100-instance sweep)."""

import numpy as np
import pytest

from tvconv import autograd as ag
from tvconv import gradsuite, models
from tvconv.gradsuite import GENERATORS, run_suite
from tvconv.operator import GeneratorParams, generator_field


def test_every_registered_op_has_a_generator():
    # Both ways: a generator cannot outlive its op. `tvconv_layer` checks the
    # whole operator, not one op.
    ops = set(ag._RULES) - {"leaf"}
    assert ops - set(GENERATORS) == set()
    assert set(GENERATORS) - {"tvconv_layer"} - ops == set()


def test_every_registered_op_runs_in_a_desk_model():
    # The tape holds no op that only the suite would use: the suite forms its
    # weighted-sum losses from ops the model runs.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 1, 32, 32))
    used = set()
    for op in models.OPERATORS:
        m = models.LayoutModel.create(models.default_model_spec(op), seed=0)
        used |= {n.op for n in ag._topo(m.loss(x, [0, 1]))}
    assert sorted(set(ag._RULES) - {"leaf"} - used) == []


def signature(n):
    """An op, and for a layer norm which parts of its epilogue run."""
    if n.op != "layer_norm":
        return (n.op,)
    return (n.op, n.saved["relu"], len(n.parents) == 4, n.saved["stride"] > 1)


@pytest.fixture(scope="module")
def drawn():
    """Every signature on the loss tapes of 50 seeded draws per generator."""
    rng = np.random.default_rng(0)
    seen = set()
    for gen in GENERATORS.values():
        for _ in range(50):
            loss, _ = gradsuite._build_loss(rng, *gen(rng))
            seen |= {signature(n) for n in ag._topo(loss)}
    return seen


@pytest.mark.parametrize("op", models.OPERATORS)
def test_suite_draws_what_the_model_trains_with(op, drawn):
    m = models.LayoutModel.create(models.default_model_spec(op), seed=0)
    x = np.random.default_rng(1).standard_normal((2, 1, 32, 32))
    used = {signature(n) for n in ag._topo(m.loss(x, [0, 1]))}
    assert used - drawn == set()


def test_suite_passes_on_small_sample():
    results = run_suite(seed=1234, instances=5)
    bad = [r for r in results if not r.passed]
    assert bad == [], f"failing ops: {[(r.op, r.max_rel_err) for r in bad]}"


def test_full_layer_entry_present():
    result = gradsuite.check_op("tvconv_layer", np.random.default_rng(5), instances=3)
    assert result.passed
    assert result.instances == 3


def test_deterministic_for_seed():
    def errors():
        rng = np.random.default_rng(7)
        return [gradsuite.check_op(op, rng, instances=3).max_rel_err
                for op in ("conv", "layer_norm")]
    assert errors() == errors()


def test_zero_instances_rejected():
    with pytest.raises(ValueError, match="instances must be >= 1, got 0"):
        run_suite(instances=0)


def test_nan_error_fails_the_op(monkeypatch):
    # a nan error fails its op, although max(0.0, nan) is 0.0
    monkeypatch.setattr(gradsuite, "finite_diff_grad",
                        lambda f, x: np.full(np.shape(x), np.nan))
    result = gradsuite.check_op("reshape", np.random.default_rng(0), instances=2)
    assert np.isnan(result.max_rel_err) and not result.passed


def test_fused_relu_inputs_are_checked_for_kinks():
    # A ReLU fused into a layer norm leaves no `relu` node on the tape; the
    # kink check reruns the norm's forward, residual and stride included,
    # without the ReLU, so it sees the exact values the ReLU clamps.
    gen = GeneratorParams.create(2, 4, 5, 3, affinity_channels=2, depth=2, width=3, seed=0)
    nodes = {name: ag.leaf(arr) for name, arr in gen.arrays()}
    rng = np.random.default_rng(0)
    nodes["aff"] = ag.leaf(rng.standard_normal((2, 4, 5)))
    tape = ag._topo(generator_field(nodes, gen))
    fused = [n for n in tape if n.op == "layer_norm" and n.saved["relu"]]
    assert len(fused) == gen.depth and not any(n.op == "relu" for n in tape)
    x, res = (ag.leaf(rng.standard_normal((2, 3, 5, 4))) for _ in range(2))
    fused.append(ag.layer_norm(x, ag.leaf(rng.uniform(0.5, 1.5, 3)),
                               ag.leaf(rng.standard_normal(3)), relu=True,
                               residual=res, stride=2))
    for n in fused:
        x, gamma, beta, *res = n.parents
        linear = ag.layer_norm(x, gamma, beta, residual=res[0] if res else None,
                               stride=n.saved["stride"]).value
        assert np.array_equal(gradsuite._relu_input(n), linear)
        assert np.array_equal(n.value, np.maximum(linear, 0))
