"""The per-position conv operator: generation, apply, degeneracy, caching.

tvconv_apply is checked against a five-loop naive oracle; weight generation is
checked against a straight-line composition of the batched kernels; the
factorized form and the constant-affinity degeneracy get their own oracles.
"""

from dataclasses import replace

import numpy as np
import pytest

from tvconv.operator import (
    GeneratorParams,
    StaleCacheError,
    StateError,
    TVConvLayer,
    export_affinity,
    generate_weights,
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
    return rng.standard_normal((c, k, k, h, w))


class TestWeightField:
    def test_row_count_enforced(self):
        # A field must carry c*k*k planes laid out [c, k, k, h, w]; kernels.tvconv
        # refuses a wrong channel count, unequal tap axes, an even k, or a flat
        # row array, naming both shapes.
        x = np.ones((1, 2, 2, 2))
        for bad in ((3, 3, 3, 2, 2), (2, 3, 1, 2, 2), (2, 2, 2, 2, 2), (18, 2, 2)):
            with pytest.raises(ValueError, match=r"\(1, 2, 2, 2\)"):
                kernels.tvconv(x, np.zeros(bad))

    def test_five_d_view(self):
        # The generator's output rows reshape, as a view, into the field:
        # row (ch*k + u)*k + v holds tap (u, v) of channel ch.
        gen = GeneratorParams.create(channels=2, h=4, w=5, k=3, affinity_channels=3,
                                     depth=0, seed=5)
        aff = np.random.default_rng(0).standard_normal((3, 4, 5))
        gen.aff[...] = aff
        field = generate_weights(gen)
        assert field.shape == (2, 3, 3, 4, 5)
        rows = kernels.conv(aff[None], gen.w_out)[0]
        np.testing.assert_allclose(field[1, 2, 0], rows[(1 * 3 + 2) * 3 + 0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(field.reshape(18, 4, 5), rows, rtol=0, atol=1e-12)


class TestApply:
    def test_identity_field(self):
        # Only the center tap set to 1: output equals input everywhere.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4))
        field = np.zeros((2, 3, 3, 4, 4))
        field[:, 1, 1] = 1.0
        out = tvconv_apply(Tensor(x), field)
        np.testing.assert_array_equal(out.data, x)

    def test_k1_field_is_pixelwise_gain(self):
        x = np.ones((1, 2, 2))
        field = np.array([[[2.0, 3.0], [4.0, 5.0]]]).reshape(1, 1, 1, 2, 2)
        out = tvconv_apply(Tensor(x), field)
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
        # a field made for 2 channels, applied to 3
        with pytest.raises(ValueError, match=r"\(2, 3, 3, 4, 4\).*\(1, 3, 4, 4\)"):
            tvconv_apply(Tensor(np.ones((3, 4, 4))), wf)
        with pytest.raises(ValueError, match=r"\(2, 5, 4\).*\(2, 3, 3, 4, 4\)"):
            tvconv_naive_oracle(Tensor(np.ones((2, 5, 4))), wf)
        with pytest.raises(ValueError, match=r"input must be \[c, h, w\], got \(4, 4\)"):
            tvconv_naive_oracle(Tensor(np.ones((4, 4))), wf)


class TestGenerate:
    def test_matches_straightline_composition(self):
        rng = np.random.default_rng(4)
        for depth in (0, 1, 2, 3):
            gen = GeneratorParams.create(
                channels=2, h=6, w=7, k=3, affinity_channels=3, depth=depth, width=5,
                k_gen=3, seed=44
            )
            for hl in gen.hidden:
                hl.gamma[:] = rng.uniform(0.5, 1.5, hl.gamma.shape)
                hl.beta[:] = rng.standard_normal(hl.beta.shape)
            aff = rng.standard_normal((3, 6, 7))
            gen.aff[...] = aff
            wf = generate_weights(gen)

            a = aff[None]
            for hl in gen.hidden:
                a = kernels.layer_norm_fwd(kernels.conv(a, hl.w), hl.gamma, hl.beta)[0]
                a = np.maximum(a, 0.0)
            ref = kernels.conv(a, gen.w_out)[0]
            assert wf.shape == (2, 3, 3, 6, 7)
            # Tap (u, v) of channel ch is row (ch*k + u)*k + v of the output conv.
            for ch, u, v in np.ndindex(2, 3, 3):
                np.testing.assert_allclose(wf[ch, u, v], ref[(ch * 3 + u) * 3 + v],
                                           rtol=0, atol=1e-12)

    BAD_SIZES = [("depth", -1, ">= 0"), ("width", 0, ">= 1"),
                 ("affinity_channels", 0, ">= 1"), ("channels", 0, ">= 1"),
                 ("h", 0, ">= 1"), ("w", -3, ">= 1"), ("k", -1, ">= 1"),
                 ("k", 2, "odd"), ("k_gen", 4, "odd")]

    @pytest.mark.parametrize("name, value, rule", BAD_SIZES,
                             ids=[f"{n}={v}" for n, v, _ in BAD_SIZES])
    def test_create_refuses_bad_sizes(self, name, value, rule):
        # refused by name, in check_arch's wording, before the generator draws
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        sizes = dict(channels=2, h=4, w=5, k=3, affinity_channels=2, depth=1, width=4,
                     k_gen=3)
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
            TVConvLayer.create(**{**sizes, name: value}, rng=rng)
        assert rng.bit_generator.state == state

    def test_default_hyperparams(self):
        gen = GeneratorParams.create(channels=2, h=4, w=4, k=3, seed=0)
        assert gen.aff.shape == (4, 4, 4)
        assert len(gen.hidden) == 3
        assert gen.hidden[0].w.shape == (64, 4, 3, 3)
        assert gen.hidden[1].w.shape == (64, 64, 3, 3)
        assert gen.w_out.shape == (18, 64, 3, 3)

    def test_init_scale_fan_in(self):
        gen = GeneratorParams.create(channels=4, h=4, w=4, k=3, affinity_channels=4, seed=7)
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
                h=5,
                w=6,
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
            gen.aff[...] = float(rng.uniform(-2, 2))
            wf = generate_weights(gen)
            # Every spatial position carries the same filter.
            assert np.ptp(wf.reshape(c * k * k, -1), axis=1).max() < 1e-12

            x = Tensor(rng.standard_normal((c, 5, 6)))
            static = np.ascontiguousarray(wf[:, :, :, 0, 0])
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
                channels=2, h=h, w=w, k=3, affinity_channels=2, depth=depth, width=4,
                k_gen=3, seed=9
            )
            for hl in gen.hidden:
                hl.beta[:] = rng.standard_normal(hl.beta.shape)
            wf = generate_weights(gen)
            interior = wf[..., margin : h - margin, margin : w - margin]
            assert np.ptp(interior.reshape(2 * 9, -1), axis=1).max() < 1e-12
            # And the border genuinely differs, otherwise the margin test is vacuous.
            assert np.ptp(wf.reshape(2 * 9, -1), axis=1).max() > 1e-6


class TestFactorized:
    def test_equals_depth0_pointwise_generator(self):
        # A depth-0 generator with 1x1 kernel is exactly the rank-c_A product
        # basis [c*k*k, c_A] @ coeff [c_A, h*w].
        rng = np.random.default_rng(8)
        gen = GeneratorParams.create(
            channels=3, h=4, w=5, k=3, affinity_channels=2, depth=0, width=4, k_gen=1,
            seed=10
        )
        aff = rng.standard_normal((2, 4, 5))
        gen.aff[...] = aff
        wf = generate_weights(gen)
        basis = gen.w_out[:, :, 0, 0]
        coeff = aff.reshape(2, -1)
        ref = (basis @ coeff).reshape(3, 3, 3, 4, 5)
        np.testing.assert_allclose(wf, ref, atol=1e-12)


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

    @pytest.mark.parametrize("shape", [(3, 5, 5), (2, 5), (1, 2, 5, 5)],
                             ids=["channels", "two_axes", "four_axes"])
    def test_mis_shaped_affinity_rejected(self, shape):
        gen = self.make_layer().gen
        with pytest.raises(ValueError, match=r"affinity shape .* does not match \[2, h, w\]"):
            replace(gen, aff=np.ones(shape))

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
        layer.gen.aff[0, 0, 0] += 1.0
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
        expected = layer.weights()
        layer.freeze()
        field = layer.cached_field()
        assert np.array_equal(field, expected)
        layer.gen.aff[0, 0, 0] += 1.0
        with pytest.raises(StaleCacheError):
            layer.cached_field()

    def test_cached_field_requires_freeze(self):
        with pytest.raises(StateError, match="training"):
            self.make_layer().cached_field()

    @pytest.mark.parametrize("which", ["gamma", "beta"])
    def test_negative_zero_detected(self, which):
        # -0.0 == 0.0, so a value comparison would serve the stale field
        layer = self.make_layer()
        arr = getattr(layer.gen.hidden[0], which)
        arr[0] = 0.0
        layer.freeze()
        before = arr.copy()
        arr[0] = -0.0
        assert np.array_equal(arr, before)
        with pytest.raises(StaleCacheError, match=f"'h0.{which}'"):
            layer.cached_field()

    def test_nan_written_after_freeze_detected(self):
        layer = self.make_layer()
        layer.freeze()
        layer.gen.w_out[0, 0, 0, 0] = np.nan
        with pytest.raises(StaleCacheError, match="'out.w'"):
            layer.cached_field()

    def test_nan_present_at_freeze_still_serves(self):
        layer = self.make_layer()
        layer.gen.w_out[-1, 0, 0, 0] = np.nan
        layer.freeze()
        field = layer.cached_field()
        assert np.isnan(field).any()
        assert layer.cached_field() is field

    def test_error_names_the_changed_array(self):
        names = [name for name, _ in self.make_layer().arrays()]
        assert names == ["aff", "h0.w", "h0.gamma", "h0.beta", "out.w"]
        for name in names:
            layer = self.make_layer()
            layer.freeze()
            dict(layer.arrays())[name].flat[-1] += 1.0
            with pytest.raises(StaleCacheError, match=f"^parameter '{name}' changed"):
                layer.cached_field()

    def test_fingerprint_called_once_per_cached_field(self, monkeypatch):
        layer = self.make_layer()
        layer.freeze()
        calls = []
        original = TVConvLayer.fingerprint
        monkeypatch.setattr(TVConvLayer, "fingerprint",
                            lambda self: calls.append(1) or original(self))
        layer.infer_cached(Tensor(np.ones((2, 5, 5))))
        layer.cached_field()
        assert len(calls) == 2


class TestAffinityInit:
    def test_layer_create_fills_constant(self):
        layer = TVConvLayer.create(channels=2, h=4, w=5, affinity_channels=3, depth=0,
                                   seed=0)
        assert layer.gen.aff.shape == (3, 4, 5)
        np.testing.assert_array_equal(layer.gen.aff, 1.0)

    def test_from_stats_two_image_case(self):
        imgs = np.stack([np.zeros((1, 4, 4)), np.full((1, 4, 4), 2.0)])
        aff = init_affinity_from_stats(imgs, affinity_channels=2, h=4, w=4)
        np.testing.assert_allclose(aff[0], 1.0, atol=1e-12)  # mean
        np.testing.assert_allclose(aff[1], 1.0, atol=1e-12)  # population std

    def test_from_stats_downsamples(self):
        rng = np.random.default_rng(13)
        imgs = rng.standard_normal((6, 1, 8, 8))
        aff = init_affinity_from_stats(imgs, affinity_channels=1, h=4, w=4)
        assert aff.shape == (1, 4, 4)
        mean_full = imgs.mean(axis=0)[0]
        expect = mean_full.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(aff[0], expect, atol=1e-12)


class TestExport:
    def test_pgm_bytes_frozen(self, tmp_path):
        aff = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        paths = export_affinity(aff, tmp_path, basename="aff")
        pgm = (tmp_path / "aff_ch0.pgm").read_bytes()
        assert pgm == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        raw = load_tensor(tmp_path / "aff.tvt")
        np.testing.assert_array_equal(raw.data, aff)
        assert set(paths) == {tmp_path / "aff_ch0.pgm", tmp_path / "aff.tvt"}

    def test_constant_channel_is_midgray(self, tmp_path):
        export_affinity(np.full((2, 3, 3), 4.5), tmp_path)
        for ch in range(2):
            pgm = (tmp_path / f"affinity_ch{ch}.pgm").read_bytes()
            assert pgm.endswith(bytes([128] * 9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_refused(self, tmp_path, bad):
        aff = np.zeros((3, 2, 2))
        aff[1, 0, 1] = bad
        with pytest.raises(ValueError, match="affinity channel 1 has a non-finite value"):
            export_affinity(aff, tmp_path / "out")
        assert not (tmp_path / "out").exists()
