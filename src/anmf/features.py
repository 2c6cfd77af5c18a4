"""STFT analysis and synthesis for the audio pipeline.

A spectrum is a plain complex one-sided (n_fft/2 + 1) x T array from
centered Hann-windowed frames; callers take np.abs or np.angle of it. istft
inverts it by exact overlap-add, and soft-mask synthesis multiplies a real
Wiener mask per source into the complex mix spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .separation import wiener_mask


@dataclass
class StftConfig:
    """Transform parameters. Defaults: 512-sample FFT, 75% overlap."""

    n_fft: int = 512
    hop: int = 128

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two")
        if not 0 < self.hop <= self.n_fft:
            raise ValueError("hop must lie in (0, n_fft]")
        if self.n_fft % self.hop:
            raise ValueError("hop must divide n_fft for exact reconstruction")

    @property
    def n_bins(self):
        return self.n_fft // 2 + 1

    def window_samples(self):
        # periodic Hann
        n = np.arange(self.n_fft)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.n_fft)


def stft(signal, cfg=None):
    """Short-time Fourier transform with centered reflection-padded frames.

    Returns the complex one-sided spectrum, column-major. The end is padded
    so that the last frame reaches past the last sample: a signal of n
    samples gives ceil(n / hop) + 1 frames.
    """
    cfg = cfg or StftConfig()
    x = np.asarray(signal, dtype=float).ravel()
    if len(x) < cfg.n_fft:
        raise ValueError(f"signal of length {len(x)} is shorter than one window ({cfg.n_fft})")
    pad = cfg.n_fft // 2
    xp = np.pad(x, (pad, pad + (-len(x)) % cfg.hop), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]
    return np.fft.rfft(frames * cfg.window_samples(), axis=1).T


def apply_gain(spectrum, gain):
    """Multiply a real gain, such as a soft mask, into spectrum in place."""
    # stft stores the spectrum column-major; a gain in the same layout
    # is multiplied in without strided reads
    spectrum *= np.asarray(gain, order="F" if spectrum.flags.f_contiguous else "C")


def _overlap_add(segments, t):
    # segments: r x hop blocks of each frame, shape (t, r, hop) or (r, hop)
    # for one block set shared by all t frames. Block j of frame k lands in
    # output block k + j; adding j from last to first gives every output
    # sample its frames in ascending order, as a loop over frames would.
    r, hop = segments.shape[-2:]
    out = np.zeros((t + r - 1, hop))
    for j in reversed(range(r)):
        out[j : j + t] += segments[..., j, :]
    return out.ravel()


def istft(spectrum, cfg=None, length=None):
    """Inverse transform via overlap-add with window-square normalization.

    This inverts stft with the same cfg exactly. length trims or zero-pads
    the output; the default is (T - 1) * hop, the original length for
    signals divisible by the hop. A negative length is a ValueError.
    """
    cfg = cfg or StftConfig()
    if length is not None and length < 0:
        raise ValueError(f"length must be >= 0, not {length}")
    if spectrum.shape[0] != cfg.n_bins:
        raise ValueError(f"spectrum has {spectrum.shape[0]} rows; n_fft {cfg.n_fft} needs {cfg.n_bins}")
    r = cfg.n_fft // cfg.hop
    window = cfg.window_samples()
    frames = np.fft.irfft(spectrum.T, n=cfg.n_fft, axis=1)
    frames *= window
    t = frames.shape[0]
    out = _overlap_add(frames.reshape(t, r, cfg.hop), t)
    wsum = _overlap_add((window**2).reshape(r, cfg.hop), t)
    np.divide(out, wsum, out=out, where=wsum > 1e-15)
    pad = cfg.n_fft // 2
    out = out[pad : len(out) - pad]
    if length is None:
        length = (t - 1) * cfg.hop
    if length <= len(out):
        return out[:length]
    return np.pad(out, (0, length - len(out)))


def apply_mask(mix_spectrum, source_mags, cfg=None, eps=1e-12, length=None):
    """Soft-mask the mix spectrum and synthesize per-source signals.

    Source i gets the real mask wiener_mask(mag_i, sum_j mag_j, S, eps):
    mag_i / sum_j mag_j, an equal split 1/S where the denominator is
    <= eps. Each mask multiplies the complex mix spectrum, and each masked
    spectrum is inverted separately with cfg. The masked spectra sum to the
    mix spectrum wherever the denominator exceeds eps.
    """
    mags = [np.asarray(m, dtype=float) for m in source_mags]
    for m in mags:
        if m.shape != mix_spectrum.shape:
            raise ValueError(f"mask shape {m.shape} does not match spectrogram {mix_spectrum.shape}")
    total = sum(mags)
    parts = []
    for m in mags:
        # np.copy keeps stft's column-major layout for apply_gain
        part = np.copy(mix_spectrum)
        apply_gain(part, wiener_mask(m, total, len(mags), eps))
        parts.append(istft(part, cfg, length))
    return parts
