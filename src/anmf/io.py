"""File formats and dataset plumbing.

Binary matrix container, IDX image ingestion, PCM16 WAV read/write,
synthetic mixing, and model bundle persistence.
"""

import json
import struct
import wave
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .adversarial import WeightModel
from .core import Basis, _check_nonneg, as_array

MATRIX_MAGIC = b"ANMF"
MATRIX_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803


class FormatError(ValueError):
    """Raised on malformed or truncated input files."""


def write_matrix(path, matrix):
    """Write a matrix file: 'ANMF' magic, u32 version, u64 rows/cols
    (little-endian), then column-major little-endian float64 payload."""
    a = np.ascontiguousarray(as_array(matrix))
    if a.ndim != 2:
        raise ValueError("matrix files hold 2-d matrices")
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<IQQ", MATRIX_VERSION, a.shape[0], a.shape[1]))
        f.write(np.asarray(a, dtype="<f8").tobytes(order="F"))


def read_matrix(path):
    """Read a matrix file written by write_matrix; bit-exact round trip.
    NaN or inf entries are a FormatError naming the file."""
    data = Path(path).read_bytes()
    if len(data) < 24 or data[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: not a matrix file (bad magic)")
    version, rows, cols = struct.unpack("<IQQ", data[4:24])
    if version != MATRIX_VERSION:
        raise FormatError(f"{path}: unsupported matrix file version {version}")
    expected = 24 + rows * cols * 8
    if len(data) != expected:
        raise FormatError(f"{path}: payload truncated ({len(data)} bytes, expected {expected})")
    payload = np.frombuffer(data[24:], dtype="<f8")
    bad = np.count_nonzero(~np.isfinite(payload))
    if bad:
        raise FormatError(f"{path}: {bad} non-finite (NaN or inf) entries")
    return payload.reshape((rows, cols), order="F").astype(float)


def load_idx_images(path):
    """Load an IDX image file into an m x N matrix.

    Each image is flattened column-wise into one column and scaled from
    [0, 255] to [0, 1].
    """
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise FormatError(f"{path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}")
    expected = 16 + count * rows * cols
    if len(data) < expected:
        raise FormatError(f"{path}: truncated IDX payload ({len(data)} bytes, expected {expected})")
    pixels = np.frombuffer(data[16:expected], dtype=np.uint8).reshape(count, rows, cols)
    return pixels.transpose(2, 1, 0).reshape(rows * cols, count).astype(float) / 255.0


def load_wav(path):
    """Read a PCM16 mono WAV file.

    Returns:
        (samples, sample_rate) with samples in [-1, 1).
    """
    with wave.open(str(path), "rb") as f:
        if f.getcomptype() != "NONE":
            raise FormatError(f"{path}: compressed WAV is not supported")
        if f.getsampwidth() != 2:
            raise FormatError(f"{path}: only 16-bit PCM is supported")
        if f.getnchannels() != 1:
            raise FormatError(f"{path}: only mono WAV is supported")
        rate = f.getframerate()
        raw = f.readframes(f.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return samples, rate


def write_wav(path, samples, sample_rate):
    """Write samples in [-1, 1) as PCM16 mono WAV."""
    x = np.clip(np.asarray(samples, dtype=float), -1.0, 32767.0 / 32768.0)
    pcm = np.round(x * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(int(sample_rate))
        f.writeframes(pcm.tobytes())


def load_data_matrix(path, clamp_negatives=False):
    """Load a data matrix, dispatching on extension (.anmf or .idx).

    NaN or inf entries are a FormatError; so are negative entries, unless
    clamp_negatives sets them to 0.
    """
    path = Path(path)
    mat = load_idx_images(path) if path.suffix == ".idx" else read_matrix(path)
    if mat.size and np.min(mat) < 0:
        if not clamp_negatives:
            raise FormatError(f"{path}: negative entries (pass --clamp-negatives to clamp to 0)")
        mat = np.maximum(mat, 0.0)
    return mat


def mix_synthetic(sources, wm=None, snr_db=None, seed=0):
    """Mix per-column paired source samples synthetically.

    Weight mode (snr_db None): column k of the mix is sum_i a_i U_i[:, k]
    with a drawn from the weight model (per column in the Dirichlet
    case). SNR mode (two sources): the second source is rescaled per
    column so that 10 log10(||signal||^2 / ||noise||^2) = snr_db, then
    the columns are summed.

    Returns:
        (mix, ground_truth, weights): the mixed matrix, the list of
        weighted per-source contributions, and the S x N weight matrix.
    """
    arrays = [as_array(u) for u in sources]
    cols = {a.shape[1] for a in arrays}
    if len(cols) != 1:
        raise ValueError(f"sources must have equal column counts, got {sorted(cols)}")
    n = cols.pop()
    s = len(arrays)
    if snr_db is not None:
        if s != 2:
            raise ValueError("SNR mixing needs exactly two sources (signal, noise)")
        signal, noise = arrays
        sig_e = np.sum(signal**2, axis=0)
        noi_e = np.sum(noise**2, axis=0)
        factor = np.zeros(n)
        ok = noi_e > 0
        factor[ok] = np.sqrt(sig_e[ok] / (noi_e[ok] * 10.0 ** (snr_db / 10.0)))
        scaled = noise * factor
        weights = np.vstack([np.ones(n), factor])
        truth = [signal.copy(), scaled]
        return signal + scaled, truth, weights
    wm = wm or WeightModel.equal(s)
    rng = np.random.default_rng(seed)
    weights = wm.sample(rng, size=n).T  # S x N
    truth = [arrays[i] * weights[i] for i in range(s)]
    return sum(truth), truth, weights


@dataclass
class ModelBundle:
    """A trained model on disk: manifest plus per-source basis files."""

    bases: list
    manifest: dict = field(default_factory=dict)


def save_bundle(directory, bases, train_spec=None, history=None, metadata=None):
    """Persist bases and a JSON manifest into a directory; a NaN, inf or
    negative basis raises a ValueError before anything is written."""
    arrays = [as_array(b) for b in bases]
    for i, a in enumerate(arrays):
        _check_nonneg(a, f"basis {i}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": 1,
        "n_sources": len(arrays),
        "m": arrays[0].shape[0] if arrays else 0,
        "d": [a.shape[1] for a in arrays],
        "train_spec": train_spec or {},
        "history": list(history or []),
        "metadata": {"created": datetime.now(timezone.utc).isoformat(), **(metadata or {})},
    }
    for i, a in enumerate(arrays):
        write_matrix(directory / f"basis_{i:03d}.anmf", a)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_bundle(directory):
    """Load a bundle, checking basis files for finite entries and against
    the manifest dimensions."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    bases = []
    for i in range(manifest["n_sources"]):
        a = read_matrix(directory / f"basis_{i:03d}.anmf")
        if a.shape != (manifest["m"], manifest["d"][i]):
            raise FormatError(
                f"basis {i} shape {a.shape} does not match manifest "
                f"({manifest['m']}, {manifest['d'][i]})"
            )
        bases.append(Basis(a))
    return ModelBundle(bases, manifest)
