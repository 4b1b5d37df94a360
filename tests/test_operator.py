"""The per-position conv operator: generation, apply, degeneracy, caching.

tvconv_apply is checked against a five-loop naive oracle; weight generation is
checked against a straight-line composition of the batched kernels; the
factorized form and the constant-affinity degeneracy get their own oracles.
"""

import numpy as np
import pytest

from tvconv.operator import (
    AffinityMaps,
    GeneratorParams,
    StaleCacheError,
    StateError,
    TVConvLayer,
    WeightField,
    export_affinity,
    factorized_weights,
    generate_weights,
    init_affinity_constant,
    init_affinity_from_stats,
    param_count_factorized,
    param_count_naive,
    reduction_ratio,
    tvconv_apply,
    tvconv_naive_oracle,
)
from tvconv import kernels
from tvconv.tensor import Tensor, load_tensor


def rand_field(rng, c, k, h, w):
    return WeightField(rng.standard_normal((c * k * k, h, w)), c=c, k=k)


class TestWeightField:
    def test_row_count_enforced(self):
        with pytest.raises(ValueError):
            WeightField(np.zeros((7, 2, 2)), c=2, k=2)

    def test_five_d_view(self):
        rng = np.random.default_rng(0)
        wf = rand_field(rng, 2, 3, 4, 5)
        v = wf.as5d()
        assert v.shape == (2, 3, 3, 4, 5)
        # Row (ch*k + u)*k + v holds tap (u, v) of channel ch.
        np.testing.assert_array_equal(v[1, 2, 0], wf.values[(1 * 3 + 2) * 3 + 0])


class TestApply:
    def test_identity_field(self):
        # Only the center tap set to 1: output equals input everywhere.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4))
        vals = np.zeros((2 * 9, 4, 4))
        for ch in range(2):
            vals[(ch * 3 + 1) * 3 + 1] = 1.0
        out = tvconv_apply(Tensor(x), WeightField(vals, c=2, k=3))
        np.testing.assert_array_equal(out.data, x)

    def test_k1_field_is_pixelwise_gain(self):
        x = np.ones((1, 2, 2))
        wf = WeightField(np.array([[[2.0, 3.0], [4.0, 5.0]]]), c=1, k=1)
        out = tvconv_apply(Tensor(x), wf)
        np.testing.assert_array_equal(out.data, [[[2.0, 3.0], [4.0, 5.0]]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            x = Tensor(rng.standard_normal((c, h, w)))
            wf = rand_field(rng, c, k, h, w)
            got = tvconv_apply(x, wf)
            ref = tvconv_naive_oracle(x, wf)
            np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        wf = rand_field(rng, 2, 3, 4, 4)
        with pytest.raises(ValueError):
            tvconv_apply(Tensor(np.ones((2, 5, 4))), wf)
        with pytest.raises(ValueError):
            tvconv_apply(Tensor(np.ones((3, 4, 4))), wf)


class TestGenerate:
    def test_matches_straightline_composition(self):
        rng = np.random.default_rng(4)
        for depth in (0, 1, 2, 3):
            gen = GeneratorParams.create(
                channels=2, k=3, affinity_channels=3, depth=depth, width=5, k_gen=3, seed=44
            )
            for hl in gen.hidden:
                hl.gamma[:] = rng.uniform(0.5, 1.5, hl.gamma.shape)
                hl.beta[:] = rng.standard_normal(hl.beta.shape)
            aff = AffinityMaps(rng.standard_normal((3, 6, 7)))
            wf = generate_weights(aff, gen)

            a = aff.values[None]
            for hl in gen.hidden:
                a = kernels.layer_norm_fwd(kernels.conv(a, hl.w), hl.gamma, hl.beta, 1e-5)[0]
                a = np.maximum(a, 0.0)
            ref = kernels.conv(a, gen.w_out)[0]
            assert wf.values.shape == (2 * 9, 6, 7)
            np.testing.assert_allclose(wf.values, ref, rtol=0, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        gen = GeneratorParams.create(channels=2, k=3, affinity_channels=4, seed=0)
        with pytest.raises(ValueError, match="affinity channels"):
            generate_weights(AffinityMaps(np.ones((3, 4, 4))), gen)

    def test_default_hyperparams(self):
        gen = GeneratorParams.create(channels=2, k=3, seed=0)
        assert len(gen.hidden) == 3
        assert gen.hidden[0].w.shape == (64, 4, 3, 3)
        assert gen.hidden[1].w.shape == (64, 64, 3, 3)
        assert gen.w_out.shape == (18, 64, 3, 3)

    def test_init_scale_fan_in(self):
        gen = GeneratorParams.create(channels=4, k=3, affinity_channels=4, seed=7)
        fan_in = 4 * 9
        sd = gen.hidden[0].w.std()
        assert 0.7 * np.sqrt(2 / fan_in) < sd < 1.3 * np.sqrt(2 / fan_in)
        np.testing.assert_array_equal(gen.hidden[0].gamma, 1.0)
        np.testing.assert_array_equal(gen.hidden[0].beta, 0.0)


class TestDegeneracy:
    def test_pointwise_generator_constant_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            depth = int(rng.integers(0, 4))
            gen = GeneratorParams.create(
                channels=c,
                k=k,
                affinity_channels=int(rng.integers(1, 4)),
                depth=depth,
                width=int(rng.integers(2, 6)),
                k_gen=1,
                seed=int(rng.integers(0, 2**31)),
            )
            for hl in gen.hidden:
                hl.gamma[:] = rng.uniform(0.5, 1.5, hl.gamma.shape)
                hl.beta[:] = rng.standard_normal(hl.beta.shape)
            aff = init_affinity_constant(
                gen.affinity_channels, 5, 6, value=float(rng.uniform(-2, 2))
            )
            wf = generate_weights(aff, gen)
            # Every spatial position carries the same filter.
            assert np.ptp(wf.values.reshape(c * k * k, -1), axis=1).max() < 1e-12

            x = Tensor(rng.standard_normal((c, 5, 6)))
            static = np.ascontiguousarray(wf.as5d()[:, :, :, 0, 0])
            got = tvconv_apply(x, wf)
            ref = kernels.dwconv(x.data[None], static)[0]
            np.testing.assert_allclose(got.data, ref, rtol=0, atol=1e-12)

    def test_k3_generator_constant_on_interior(self):
        # Zero-same padding contaminates a border ring of width
        # (depth+1)*(k_gen//2); inside it the field must be constant.
        rng = np.random.default_rng(6)
        for depth in (1, 2):
            margin = (depth + 1) * 1
            h = w = 2 * margin + 3
            gen = GeneratorParams.create(
                channels=2, k=3, affinity_channels=2, depth=depth, width=4, k_gen=3, seed=9
            )
            for hl in gen.hidden:
                hl.beta[:] = rng.standard_normal(hl.beta.shape)
            aff = init_affinity_constant(2, h, w, value=1.0)
            wf = generate_weights(aff, gen)
            interior = wf.values[:, margin : h - margin, margin : w - margin]
            assert np.ptp(interior.reshape(wf.values.shape[0], -1), axis=1).max() < 1e-12
            # And the border genuinely differs, otherwise the margin test is vacuous.
            assert np.ptp(wf.values.reshape(wf.values.shape[0], -1), axis=1).max() > 1e-6


class TestFactorized:
    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((4, 2))  # c*k*k = 4 rows (c=1, k=2 invalid; use c=4,k=1)
        coeff = rng.standard_normal((2, 6))
        wf = factorized_weights(basis, coeff, c=4, k=1, h=2, w=3)
        expect = (basis @ coeff).reshape(4, 2, 3)
        np.testing.assert_allclose(wf.values, expect, atol=1e-15)
        assert wf.c == 4 and wf.k == 1

    def test_inner_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            factorized_weights(np.zeros((4, 3)), np.zeros((2, 6)), c=4, k=1, h=2, w=3)

    def test_equals_depth0_pointwise_generator(self):
        # A depth-0 generator with 1x1 kernel is exactly the rank-c_A product.
        rng = np.random.default_rng(8)
        gen = GeneratorParams.create(
            channels=3, k=3, affinity_channels=2, depth=0, width=4, k_gen=1, seed=10
        )
        aff = AffinityMaps(rng.standard_normal((2, 4, 5)))
        wf = generate_weights(aff, gen)
        basis = gen.w_out[:, :, 0, 0]
        coeff = aff.values.reshape(2, -1)
        ref = factorized_weights(basis, coeff, c=3, k=3, h=4, w=5)
        np.testing.assert_allclose(wf.values, ref.values, atol=1e-12)


class TestParamCounts:
    def test_frozen_arithmetic(self):
        assert param_count_naive(8, 3, 4, 4) == 1152
        assert param_count_factorized(8, 3, 4, 4, affinity_channels=1) == 88
        assert abs(reduction_ratio(8, 3, 4, 4, affinity_channels=1) - 13.0909) < 1e-3

    def test_reference_resolution_ratio(self):
        # c=32, k=3, 56x56 maps, c_A=1: reduction approaches c*k*k = 288.
        r = reduction_ratio(32, 3, 56, 56, affinity_channels=1)
        assert abs(r - 288) / 288 < 0.10


class TestLayerCache:
    def make_layer(self, seed=11):
        return TVConvLayer.create(
            channels=2, h=5, w=5, k=3, affinity_channels=2, depth=1, width=4, k_gen=3, seed=seed
        )

    def test_freeze_then_cached_matches_eager(self):
        layer = self.make_layer()
        rng = np.random.default_rng(12)
        xs = [Tensor(rng.standard_normal((2, 5, 5))) for _ in range(10)]
        eager = [tvconv_apply(x, layer.weights()) for x in xs]
        layer.freeze()
        for x, e in zip(xs, eager):
            got = layer.infer_cached(x)
            assert np.array_equal(got.data, e.data)

    def test_freeze_twice_rejected(self):
        layer = self.make_layer()
        layer.freeze()
        with pytest.raises(StateError):
            layer.freeze()

    def test_weights_in_frozen_mode_rejected(self):
        layer = self.make_layer()
        layer.freeze()
        with pytest.raises(StateError, match="frozen"):
            layer.weights()

    def test_infer_cached_requires_freeze(self):
        layer = self.make_layer()
        with pytest.raises(StateError, match="training"):
            layer.infer_cached(Tensor(np.ones((2, 5, 5))))

    def test_stale_cache_detected(self):
        layer = self.make_layer()
        layer.freeze()
        layer.affinity[0, 0, 0] += 1.0
        with pytest.raises(StaleCacheError):
            layer.infer_cached(Tensor(np.ones((2, 5, 5))))

    def test_generator_mutation_also_detected(self):
        layer = self.make_layer()
        layer.freeze()
        layer.gen.w_out[0, 0, 0, 0] *= 2.0
        with pytest.raises(StaleCacheError):
            layer.infer_cached(Tensor(np.ones((2, 5, 5))))

    def test_cached_field_accessor(self):
        layer = self.make_layer()
        expected = layer.weights().values
        layer.freeze()
        field = layer.cached_field()
        assert np.array_equal(field.values, expected)
        layer.affinity[0, 0, 0] += 1.0
        with pytest.raises(StaleCacheError):
            layer.cached_field()

    def test_cached_field_requires_freeze(self):
        with pytest.raises(StateError, match="training"):
            self.make_layer().cached_field()


class TestAffinityInit:
    def test_constant(self):
        aff = init_affinity_constant(3, 4, 5)
        assert aff.values.shape == (3, 4, 5)
        np.testing.assert_array_equal(aff.values, 1.0)

    def test_from_stats_two_image_case(self):
        imgs = np.stack([np.zeros((1, 4, 4)), np.full((1, 4, 4), 2.0)])
        aff = init_affinity_from_stats(imgs, affinity_channels=2, h=4, w=4)
        np.testing.assert_allclose(aff.values[0], 1.0, atol=1e-12)  # mean
        np.testing.assert_allclose(aff.values[1], 1.0, atol=1e-12)  # population std

    def test_from_stats_downsamples(self):
        rng = np.random.default_rng(13)
        imgs = rng.standard_normal((6, 1, 8, 8))
        aff = init_affinity_from_stats(imgs, affinity_channels=1, h=4, w=4)
        assert aff.values.shape == (1, 4, 4)
        mean_full = imgs.mean(axis=0)[0]
        expect = mean_full.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(aff.values[0], expect, atol=1e-12)


class TestExport:
    def test_pgm_bytes_frozen(self, tmp_path):
        aff = AffinityMaps(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        paths = export_affinity(aff, tmp_path, basename="aff")
        pgm = (tmp_path / "aff_ch0.pgm").read_bytes()
        assert pgm == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        raw = load_tensor(tmp_path / "aff.tvt")
        np.testing.assert_array_equal(raw.data, aff.values)
        assert set(paths) == {tmp_path / "aff_ch0.pgm", tmp_path / "aff.tvt"}

    def test_constant_channel_is_midgray(self, tmp_path):
        aff = AffinityMaps(np.full((2, 3, 3), 4.5))
        export_affinity(aff, tmp_path)
        for ch in range(2):
            pgm = (tmp_path / f"affinity_ch{ch}.pgm").read_bytes()
            assert pgm.endswith(bytes([128] * 9))
