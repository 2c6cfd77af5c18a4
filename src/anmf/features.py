"""STFT analysis and synthesis for the audio pipeline.

Complex one-sided spectrograms with centered Hann-windowed frames, exact
overlap-add inversion, and soft-mask synthesis that multiplies a real
Wiener mask per source into the complex mix spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .separation import wiener_mask


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
    """One-sided complex spectrum and its magnitude, (n_fft/2 + 1) x T.

    istft inverts spectrum; magnitude stays equal to |spectrum| up to
    rounding, so a gain applied in place goes to both (apply_gain).
    """

    spectrum: np.ndarray
    magnitude: np.ndarray
    config: StftConfig

    @property
    def n_frames(self):
        return self.magnitude.shape[1]

    @property
    def phase(self):
        return np.angle(self.spectrum)

    def apply_gain(self, gain):
        """Multiply a real gain, such as a soft mask, into both arrays in place."""
        # stft stores the spectrum column-major; a gain in the same layout
        # is multiplied in without strided reads
        gain = np.asarray(gain, order="F" if self.spectrum.flags.f_contiguous else "C")
        self.spectrum *= gain
        self.magnitude *= gain


def stft(signal, cfg=None):
    """Short-time Fourier transform with centered reflection-padded frames.

    The end is padded so that the last frame reaches past the last sample:
    a signal of n samples gives ceil(n / hop) + 1 frames.
    """
    cfg = cfg or StftConfig()
    x = np.asarray(signal, dtype=float).ravel()
    if len(x) < cfg.n_fft:
        raise ValueError(f"signal of length {len(x)} is shorter than one window ({cfg.n_fft})")
    pad = cfg.n_fft // 2
    xp = np.pad(x, (pad, pad + (-len(x)) % cfg.hop), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]
    spec = np.fft.rfft(frames * cfg.window_samples(), axis=1).T
    return Spectrogram(spec, np.abs(spec), cfg)


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


def istft(spec, length=None):
    """Inverse transform via overlap-add with window-square normalization.

    With the default configuration this inverts stft exactly. length trims
    or zero-pads the output; the default is (T - 1) * hop, the original
    length for signals divisible by the hop.
    """
    cfg = spec.config
    r = cfg.n_fft // cfg.hop
    window = cfg.window_samples()
    frames = np.fft.irfft(spec.spectrum.T, n=cfg.n_fft, axis=1)
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


def apply_mask(mix_spec, source_mags, eps=1e-12, length=None):
    """Soft-mask the mix spectrum and synthesize per-source signals.

    Source i gets the real mask wiener_mask(mag_i, sum_j mag_j, S, eps):
    mag_i / sum_j mag_j, an equal split 1/S where the denominator is
    <= eps. Each mask multiplies the complex mix spectrum, and each masked
    spectrum is inverted separately. The masked spectra sum to the mix
    spectrum wherever the denominator exceeds eps.
    """
    mags = [np.asarray(m, dtype=float) for m in source_mags]
    for m in mags:
        if m.shape != mix_spec.magnitude.shape:
            raise ValueError(f"mask shape {m.shape} does not match spectrogram {mix_spec.magnitude.shape}")
    total = sum(mags)
    parts = []
    for m in mags:
        # np.copy keeps stft's column-major layout for apply_gain
        part = Spectrogram(np.copy(mix_spec.spectrum), np.copy(mix_spec.magnitude), mix_spec.config)
        part.apply_gain(wiener_mask(m, total, len(mags), eps))
        parts.append(istft(part, length))
    return parts
