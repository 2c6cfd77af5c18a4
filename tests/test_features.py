import numpy as np
import pytest

import anmf.features
from anmf.features import StftConfig, apply_gain, apply_mask, istft, istft_blocks, stft


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.n_fft == 512 and cfg.hop == 128
        assert cfg.n_bins == 257

    def test_validation(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=500)
        with pytest.raises(ValueError):
            StftConfig(hop=0)
        with pytest.raises(ValueError):
            StftConfig(n_fft=512, hop=100)
        # a hop of n_fft leaves no overlap, and the window's zero first sample is lost
        with pytest.raises(ValueError, match=r"^hop must lie in \(0, n_fft\)$"):
            StftConfig(n_fft=64, hop=64)

    @pytest.mark.parametrize("n_fft, hop", [(128, 32), (64, 16), (4, 1), (2, 1)])
    def test_hop_defaults_to_quarter_n_fft(self, n_fft, hop):
        assert StftConfig(n_fft=n_fft).hop == hop

    def test_window_cola(self):
        # the periodic Hann squared window sums to a constant at 75% overlap
        cfg = StftConfig(n_fft=64, hop=16)
        w2 = cfg.window_samples() ** 2
        acc = np.zeros(64)
        for k in range(0, 64, 16):
            acc += np.roll(w2, k)
        assert np.allclose(acc, acc[0])


class TestRoundTrip:
    @pytest.mark.parametrize("n", [512, 2048, 3968, 4096, 16077, 16127])
    def test_exact_inverse(self, n):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n) * 0.3
        cfg = StftConfig()
        spec = stft(x, cfg)
        assert spec.shape[1] == -(-n // cfg.hop) + 1
        y = istft(spec, cfg, length=n)
        assert len(y) == n
        assert np.max(np.abs(y - x)) < 1e-9

    def test_small_config(self):
        x = np.random.default_rng(1).standard_normal(320)
        cfg = StftConfig(n_fft=64, hop=16)
        y = istft(stft(x, cfg), cfg, length=320)
        assert np.max(np.abs(y - x)) < 1e-10

    def test_default_length(self):
        x = np.random.default_rng(2).standard_normal(1024)
        spec = stft(x)
        y = istft(spec)
        assert len(y) == (spec.shape[1] - 1) * StftConfig().hop

    def test_longer_length_zero_pads(self):
        x = np.random.default_rng(3).standard_normal(1024)
        spec = stft(x)
        y = istft(spec, length=1500)
        assert np.array_equal(y[:1024], istft(spec)) and not np.any(y[1024:])

    def test_negative_length_rejected(self):
        # a slice end of -5 would drop the last 5 samples without a word
        spec = stft(np.random.default_rng(4).standard_normal(1024))
        with pytest.raises(ValueError, match="length must be >= 0, not -5"):
            istft(spec, length=-5)
        assert len(istft(spec, length=0)) == 0

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(np.zeros(100), StftConfig())

    def test_row_count_must_match_n_fft(self):
        # irfft would zero-pad a short spectrum to n_fft without a word
        spec = stft(np.random.default_rng(8).standard_normal(1024), StftConfig(n_fft=256, hop=64))
        with pytest.raises(ValueError, match="129 rows; n_fft 512 needs 257"):
            istft(spec)
        with pytest.raises(ValueError):
            istft(spec[:-1], StftConfig(n_fft=256, hop=64))


def istft_loop(spec, cfg):
    """Reference inverse: the per-frame overlap-add loop, default length."""
    window = cfg.window_samples()
    frames = np.fft.irfft(spec.T, n=cfg.n_fft, axis=1) * window
    t = frames.shape[0]
    total = (t - 1) * cfg.hop + cfg.n_fft
    out = np.zeros(total)
    wsum = np.zeros(total)
    for k in range(t):
        start = k * cfg.hop
        out[start : start + cfg.n_fft] += frames[k]
        wsum[start : start + cfg.n_fft] += window**2
    nonzero = wsum > 1e-15
    out[nonzero] /= wsum[nonzero]
    pad = cfg.n_fft // 2
    return out[pad : total - pad]


class TestOverlapAdd:
    @pytest.mark.parametrize("n_fft,hop", [(512, 128), (256, 64), (64, 32), (8, 4)])
    @pytest.mark.parametrize("extra", [0, 1, 37])
    def test_bitwise_equal_to_frame_loop(self, n_fft, hop, extra):
        rng = np.random.default_rng(n_fft + extra)
        cfg = StftConfig(n_fft=n_fft, hop=hop)
        spec = stft(rng.standard_normal(5 * n_fft + extra), cfg)
        # a random real gain, so the spectrum is no longer an exact transform
        spec = spec * rng.random(spec.shape)
        assert np.array_equal(istft(spec, cfg), istft_loop(spec, cfg))

    @pytest.mark.parametrize("t", [1, 3, 4, 5])
    def test_short_spectrum_equal_to_frame_loop(self, t):
        # up to n_fft/hop = 4 frames, no output row sums the windows of a full n_fft/hop frames
        cfg = StftConfig(n_fft=512, hop=128)
        spec = stft(np.random.default_rng(t).standard_normal(4096), cfg)[:, :t]
        assert np.array_equal(istft(spec, cfg), istft_loop(spec, cfg))


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 7, 64, 10**6])
    def test_result_does_not_depend_on_block_size(self, block, monkeypatch):
        # 601 frames: several blocks at every size below the frame count
        rng = np.random.default_rng(12)
        x = rng.standard_normal(599 * 128 + 37)
        gain = rng.random((257, 601))
        # the single-block results, and those at this block size
        results = []
        for size in (10**6, block):
            monkeypatch.setattr(anmf.features, "BLOCK_FRAMES", size)
            spec = stft(x)
            masked = spec * gain
            results.append([spec, istft(spec), istft(masked), istft(masked, length=len(x)), istft(masked, length=10**5)])
        for want, got in zip(*results):
            assert np.array_equal(got, want)
        assert results[1][0].flags.f_contiguous

    def test_blocks_must_hold_the_frames(self):
        spec = stft(np.random.default_rng(13).standard_normal(4096))
        blocks = [spec[:, :10], spec[:, 10:]]
        assert np.array_equal(istft_blocks(iter(blocks), spec.shape[1]), istft(spec))
        with pytest.raises(ValueError, match="the blocks hold 33 frames, not 34"):
            istft_blocks(iter(blocks), 34)
        with pytest.raises(ValueError, match="more than 32 frames"):
            istft_blocks(iter(blocks), 32)


class TestSpectrogram:
    def test_shapes(self):
        x = np.random.default_rng(3).standard_normal(1024)
        spec = stft(x)
        assert spec.shape == (257, 9)
        assert np.iscomplexobj(spec)
        assert spec.flags.f_contiguous

    def test_complex_spectrum_consistent(self):
        x = np.random.default_rng(4).standard_normal(1024)
        spec = stft(x)
        assert np.allclose(np.abs(spec) * np.exp(1j * np.angle(spec)), spec)

    def test_pure_tone_peak_bin(self):
        cfg = StftConfig(n_fft=256, hop=64)
        t = np.arange(4000) / 8000.0
        x = np.sin(2 * np.pi * 1000.0 * t)
        spec = stft(x, cfg)
        # 1 kHz at 8 kHz with 256 bins -> bin 32
        peak = np.argmax(np.mean(np.abs(spec), axis=1))
        assert peak == 32


class TestApplyGain:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_product_in_place(self, order):
        rng = np.random.default_rng(9)
        spec = stft(rng.standard_normal(2048), StftConfig(n_fft=128, hop=32))
        gain = np.asarray(rng.random(spec.shape), order=order)
        want = spec * gain
        apply_gain(spec, gain)
        assert np.array_equal(spec, want)
        assert spec.flags.f_contiguous


class TestApplyMask:
    def test_masks_sum_to_mix(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2048) * 0.2
        cfg = StftConfig(n_fft=128, hop=32)
        spec = stft(x, cfg)
        mags = [rng.random(spec.shape) + 0.01 for _ in range(3)]
        parts = apply_mask(spec, mags, cfg, length=2048)
        assert np.max(np.abs(sum(parts) - x)) < 1e-9
        for part, m in zip(parts, mags):
            assert np.array_equal(part, istft(spec * (m / sum(mags)), cfg, length=2048))

    def test_degenerate_mask_gets_equal_split(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(512)
        cfg = StftConfig(n_fft=128, hop=32)
        spec = stft(x, cfg)
        zeros = np.zeros(spec.shape)
        parts = apply_mask(spec, [zeros, zeros], cfg, length=512)
        half = istft(spec * 0.5, cfg, length=512)
        assert np.array_equal(parts[0], half)
        assert np.array_equal(parts[1], half)
        assert np.max(np.abs(parts[0] + parts[1] - x)) < 1e-9

    def test_dominant_source_takes_all(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(512)
        cfg = StftConfig(n_fft=128, hop=32)
        spec = stft(x, cfg)
        big = np.ones(spec.shape)
        small = np.zeros(spec.shape)
        parts = apply_mask(spec, [big, small], cfg, length=512)
        assert np.max(np.abs(parts[0] - x)) < 1e-9
        assert np.max(np.abs(parts[1])) < 1e-12

    def test_shape_mismatch_rejected(self):
        spec = stft(np.zeros(512) + 0.1, StftConfig(n_fft=128, hop=32))
        with pytest.raises(ValueError):
            apply_mask(spec, [np.ones((3, 3))], StftConfig(n_fft=128, hop=32))
