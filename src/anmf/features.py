"""STFT analysis and synthesis for the audio pipeline.

A spectrum is a plain complex one-sided (n_fft/2 + 1) x T array from
centered Hann-windowed frames; callers take np.abs or np.angle of it. istft
inverts it by exact overlap-add, and soft-mask synthesis inverts the
Wiener-filtered mix spectrum of each source.

Both directions work on blocks of BLOCK_FRAMES frames: stft_blocks yields
the spectrum block by block, and istft_blocks overlap-adds blocks into the
signal, so a caller that handles one block at a time holds the signal-length
arrays and one block, never the whole spectrum. stft and istft are the
whole-spectrum cases of the two.
"""

from dataclasses import dataclass

import numpy as np

from .separation import wiener_filter

BLOCK_FRAMES = 512  # STFT frames per block


@dataclass
class StftConfig:
    """Transform parameters. Defaults: 512-sample FFT and a hop of n_fft // 4
    (75% overlap; 1 for n_fft 2). The hop must be below n_fft: the periodic
    Hann window is 0 at each frame's first sample, which only an overlapping
    frame can restore."""

    n_fft: int = 512
    hop: int | None = None

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two")
        if self.hop is None:
            self.hop = max(1, self.n_fft // 4)
        if not 0 < self.hop < self.n_fft:
            raise ValueError("hop must lie in (0, n_fft)")
        if self.n_fft % self.hop:
            raise ValueError("hop must divide n_fft for exact reconstruction")

    @property
    def n_bins(self):
        return self.n_fft // 2 + 1

    def n_frames(self, n_samples):
        """Frames of a signal of n_samples: ceil(n_samples / hop) + 1."""
        return -(-n_samples // self.hop) + 1

    def window_samples(self):
        # periodic Hann
        n = np.arange(self.n_fft)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.n_fft)


def stft_blocks(signal, cfg=None):
    """The columns of stft(signal, cfg), BLOCK_FRAMES frames at a time.

    Returns an iterator of complex column-major blocks of n_bins rows, in
    frame order; a signal shorter than one window is a ValueError here,
    before any block. The padded signal is framed without a copy, and only
    the block being transformed is windowed.
    """
    cfg = cfg or StftConfig()
    x = np.asarray(signal, dtype=float).ravel()
    if len(x) < cfg.n_fft:
        raise ValueError(f"signal of length {len(x)} is shorter than one window ({cfg.n_fft})")
    pad = cfg.n_fft // 2
    xp = np.pad(x, (pad, pad + (-len(x)) % cfg.hop), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]
    window = cfg.window_samples()
    return (np.fft.rfft(frames[t0 : t0 + BLOCK_FRAMES] * window, axis=1).T
            for t0 in range(0, len(frames), BLOCK_FRAMES))


def stft(signal, cfg=None):
    """Short-time Fourier transform with centered reflection-padded frames.

    Returns the complex one-sided spectrum, column-major. The end is padded
    so that the last frame reaches past the last sample: a signal of n
    samples gives ceil(n / hop) + 1 frames.
    """
    cfg = cfg or StftConfig()
    blocks = stft_blocks(signal, cfg)
    out = np.empty((cfg.n_bins, cfg.n_frames(np.size(signal))), dtype=complex, order="F")
    t0 = 0
    for block in blocks:
        out[:, t0 : t0 + block.shape[1]] = block
        t0 += block.shape[1]
    return out


def apply_gain(spectrum, gain):
    """Multiply a real gain, such as a soft mask, into spectrum in place."""
    # stft stores the spectrum column-major; a gain in the same layout
    # is multiplied in without strided reads
    spectrum *= np.asarray(gain, order="F" if spectrum.flags.f_contiguous else "C")


def _overlap_add(segments, out):
    # segments: r x hop blocks of each frame, shape (t, r, hop), or (r, hop)
    # for one block set shared by all t frames; out: the t + r - 1 rows of
    # hop samples that the t frames cover. Block j of frame k lands in row
    # k + j; adding j from last to first gives every row its frames in
    # ascending order, as a loop over frames would, and so does adding
    # consecutive frame blocks in ascending order into overlapping rows.
    r = segments.shape[-2]
    t = len(out) - r + 1
    for j in reversed(range(r)):
        out[j : j + t] += segments[..., j, :]


def istft_blocks(blocks, n_frames, cfg=None, length=None):
    """Inverse transform of a spectrum given as consecutive column blocks.

    blocks yields complex blocks of n_bins rows that together hold the
    n_frames columns of the spectrum in order, as stft_blocks yields them;
    each block is inverted and overlap-added once it arrives, so only one
    block's frames are held at a time. The result is bitwise that of istft
    on the whole spectrum, whatever the blocks' widths. A block of another
    row count, or blocks of other than n_frames columns in total, is a
    ValueError; so is a negative length.
    """
    cfg = cfg or StftConfig()
    if length is not None and length < 0:
        raise ValueError(f"length must be >= 0, not {length}")
    r = cfg.n_fft // cfg.hop
    window = cfg.window_samples()
    out = np.zeros((n_frames + r - 1, cfg.hop))
    t0 = 0
    for block in blocks:
        if block.shape[0] != cfg.n_bins:
            raise ValueError(f"spectrum has {block.shape[0]} rows; n_fft {cfg.n_fft} needs {cfg.n_bins}")
        t = block.shape[1]
        if t0 + t > n_frames:
            raise ValueError(f"the blocks hold more than {n_frames} frames")
        frames = np.fft.irfft(block.T, n=cfg.n_fft, axis=1)
        frames *= window
        _overlap_add(frames.reshape(t, r, cfg.hop), out[t0 : t0 + t + r - 1])
        t0 += t
        del block, frames  # neither is held while the next block is made
    if t0 != n_frames:
        raise ValueError(f"the blocks hold {t0} frames, not {n_frames}")
    # the window-square sums of min(n_frames, r) frames: the first r - 1 rows,
    # the one row shared by all rows that r frames cover, and the last r - 1
    wsum = np.zeros((min(n_frames, r) + r - 1, cfg.hop))
    _overlap_add((window**2).reshape(r, cfg.hop), wsum)
    parts = [(out, wsum)]
    if n_frames > r:
        parts = [(out[: r - 1], wsum[: r - 1]), (out[r - 1 : n_frames], wsum[r - 1]), (out[n_frames:], wsum[r:])]
    for rows, sums in parts:
        np.divide(rows, sums, out=rows, where=sums > 1e-15)
    pad = cfg.n_fft // 2
    out = out.ravel()[pad : out.size - pad]
    if length is None:
        length = (n_frames - 1) * cfg.hop
    if length <= len(out):
        return out[:length]
    return np.pad(out, (0, length - len(out)))


def istft(spectrum, cfg=None, length=None):
    """Inverse transform via overlap-add with window-square normalization.

    This inverts stft with the same cfg exactly. length trims or zero-pads
    the output; the default is (T - 1) * hop, the original length for
    signals divisible by the hop. A spectrum whose row count is not
    n_fft/2 + 1, or a negative length, is a ValueError. The spectrum is
    inverted BLOCK_FRAMES columns at a time (istft_blocks).
    """
    t = spectrum.shape[1]
    # an empty spectrum is one empty block, so its rows are checked too
    blocks = (spectrum[:, t0 : t0 + BLOCK_FRAMES] for t0 in range(0, max(t, 1), BLOCK_FRAMES))
    return istft_blocks(blocks, t, cfg, length)


def apply_mask(mix_spectrum, source_mags, cfg=None, eps=1e-12, length=None):
    """Soft-mask the mix spectrum and synthesize per-source signals: the
    complex spectra of separation.wiener_filter(mix_spectrum, source_mags,
    eps), each inverted with cfg and length. They sum to the mix spectrum
    wherever sum_j mag_j exceeds eps.
    """
    return [istft(u, cfg, length) for u in wiener_filter(mix_spectrum, source_mags, eps)]
