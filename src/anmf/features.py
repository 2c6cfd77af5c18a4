"""STFT analysis and synthesis for the audio pipeline.

Magnitude/phase spectrograms with centered Hann-windowed frames, exact
overlap-add inversion, and soft-mask synthesis that reapplies the mixture
phase to per-source magnitude estimates.
"""

from dataclasses import dataclass

import numpy as np

from .separation import wiener_filter


@dataclass
class StftConfig:
    """Transform parameters. Defaults: 512-sample FFT, 75% overlap, Hann."""

    n_fft: int = 512
    hop: int = 128
    window: str = "hann"
    sample_rate: int = 16000

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two")
        if not 0 < self.hop <= self.n_fft:
            raise ValueError("hop must lie in (0, n_fft]")
        if self.n_fft % self.hop:
            raise ValueError("hop must divide n_fft for exact reconstruction")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")

    @property
    def n_bins(self):
        return self.n_fft // 2 + 1

    def window_samples(self):
        # periodic Hann
        n = np.arange(self.n_fft)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.n_fft)


@dataclass
class Spectrogram:
    """One-sided magnitude and phase, (n_fft/2 + 1) x T."""

    magnitude: np.ndarray
    phase: np.ndarray
    config: StftConfig

    @property
    def n_frames(self):
        return self.magnitude.shape[1]

    def complex_spectrum(self):
        return self.magnitude * np.exp(1j * self.phase)


def stft(signal, cfg=None):
    """Short-time Fourier transform with centered reflection-padded frames."""
    cfg = cfg or StftConfig()
    x = np.asarray(signal, dtype=float).ravel()
    if len(x) < cfg.n_fft:
        raise ValueError(f"signal of length {len(x)} is shorter than one window ({cfg.n_fft})")
    pad = cfg.n_fft // 2
    xp = np.pad(x, pad, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]
    spec = np.fft.rfft(frames * cfg.window_samples(), axis=1).T
    return Spectrogram(np.abs(spec), np.angle(spec), cfg)


def istft(spec, length=None):
    """Inverse transform via overlap-add with window-square normalization.

    With the default configuration this inverts stft exactly. length trims
    or zero-pads the output; the default is (T - 1) * hop, the original
    length for signals divisible by the hop.
    """
    cfg = spec.config
    frames = np.fft.irfft(spec.complex_spectrum().T, n=cfg.n_fft, axis=1)
    window = cfg.window_samples()
    frames = frames * window
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
    out = out[pad : total - pad]
    if length is None:
        length = (t - 1) * cfg.hop
    if length <= len(out):
        return out[:length]
    return np.pad(out, (0, length - len(out)))


def apply_mask(mix_spec, source_mags, eps=1e-12, length=None):
    """Soft-mask the mix spectrum and synthesize per-source signals.

    The masked magnitudes are wiener_filter(mix magnitude, mags, eps):
    mask_i = mag_i / sum_j mag_j, an equal split where the denominator is
    <= eps. Each masked spectrum keeps the mixture phase and is inverted
    separately. The masked spectra sum to the mix spectrum wherever the
    denominator exceeds eps.
    """
    mags = [np.asarray(m, dtype=float) for m in source_mags]
    for m in mags:
        if m.shape != mix_spec.magnitude.shape:
            raise ValueError(f"mask shape {m.shape} does not match spectrogram {mix_spec.magnitude.shape}")
    masked = wiener_filter(mix_spec.magnitude, mags, eps)
    return [istft(Spectrogram(u, mix_spec.phase, mix_spec.config), length) for u in masked]
