"""File formats and dataset plumbing.

Binary matrix container, IDX image ingestion, PCM16 WAV read/write, JSON
reading, synthetic mixing, and model bundle persistence.
"""

import json
import math
import os
import struct
import sys
import wave
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .adversarial import WeightModel
from .core import Basis, _check_entries, as_array

MATRIX_MAGIC = b"ANMF"
MATRIX_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803


def _finite(literal):
    # json's parse_float and parse_constant hook: NaN, Infinity, -Infinity and a
    # literal beyond float range, such as 1e400, are no finite numbers
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"{literal} is not a finite number")
    return x


def read_json(path):
    """The JSON value in the file at path; text that is not JSON, including a
    number that is not finite (RFC 8259 has none), is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError for a binary file, or _finite's
        raise ValueError(f"{path}: not a JSON file ({e})") from None


@contextmanager
def matrix_writer(path, rows, cols):
    """Write a rows x cols matrix file one block of columns at a time.

    Yields write(block), which appends the columns of a block of rows rows.
    The file is the one write_matrix writes: 'ANMF' magic, u32 version, u64
    rows/cols (little-endian), then the column-major little-endian float64
    payload. A block of another row count or with a NaN or inf entry, or
    blocks of other than cols columns in total, is a ValueError. Whatever
    error ends the writing, the file is removed: none is left half-written.
    """
    written = 0
    f = open(path, "wb")
    try:
        with f:
            f.write(MATRIX_MAGIC)
            f.write(struct.pack("<IQQ", MATRIX_VERSION, rows, cols))

            def write(block):
                nonlocal written
                a = np.asfortranarray(block, dtype="<f8")
                if a.ndim != 2 or a.shape[0] != rows or written + a.shape[1] > cols:
                    raise ValueError(f"{path}: a block of shape {a.shape} does not fit the {rows} x {cols} "
                                     f"matrix after {written} columns")
                _check_entries(a, path, nonneg=False)
                # the transpose is the same memory in C order: written with no copy
                f.write(a.T.data)
                written += a.shape[1]

            yield write
        if written != cols:
            raise ValueError(f"{path}: {written} of {cols} columns written")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_matrix(path, matrix):
    """Write a matrix file in one block (matrix_writer)."""
    a = as_array(matrix)
    if a.ndim != 2:
        raise ValueError("matrix files hold 2-d matrices")
    with matrix_writer(path, *a.shape) as write:
        write(a)


def _matrix_header(f, path):
    # the (rows, cols) of the open matrix file f, once its header and size are checked
    head = f.read(24)
    if len(head) < 24 or head[:4] != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a matrix file (bad magic)")
    version, rows, cols = struct.unpack("<IQQ", head[4:])
    if version != MATRIX_VERSION:
        raise ValueError(f"{path}: unsupported matrix file version {version}")
    size = os.fstat(f.fileno()).st_size
    expected = 24 + rows * cols * 8
    if size != expected:
        raise ValueError(f"{path}: payload truncated ({size} bytes, expected {expected})")
    return rows, cols


def read_matrix(path, out=None):
    """Read a matrix file written by write_matrix; bit-exact round trip.

    The header and the file size are checked before anything is allocated,
    so a corrupt header cannot request a huge array; the payload is then
    read straight into the result, with no second copy of the file. The
    result is out, an F-contiguous float64 array (such as a column block of
    a column-major matrix) of the file's shape, or else a new writable,
    native float64 array in the file's column-major layout that owns its
    memory. NaN or inf entries are a ValueError naming the file; the sign
    is left to the caller (DataFile.load, load_bundle).
    """
    with open(path, "rb") as f:
        rows, cols = _matrix_header(f, path)
        if out is None:
            out = np.empty((rows, cols), order="F")
        elif out.shape != (rows, cols) or out.dtype != np.float64 or not out.flags.f_contiguous:
            raise ValueError(f"{path}: a {rows} x {cols} matrix is read into an F-contiguous float64 array "
                             f"of its shape, not {out.dtype} {out.shape}")
        # the transpose is the same memory in C order, which readinto needs
        got = f.readinto(out.T)
        if got != rows * cols * 8:
            raise ValueError(f"{path}: payload truncated ({24 + got} bytes read, expected {24 + rows * cols * 8})")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    _check_entries(out, path, nonneg=False)
    return out


def _idx_header(data, path):
    # (count, rows, cols) of an IDX image file's bytes data, once its header is checked
    if len(data) < 16:
        raise ValueError(f"{path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    return count, rows, cols


def load_idx_images(path):
    """Load an IDX image file into an m x N matrix.

    Each image is flattened column-wise into one column and scaled from
    [0, 255] to [0, 1].
    """
    data = Path(path).read_bytes()
    count, rows, cols = _idx_header(data, path)
    expected = 16 + count * rows * cols
    if len(data) < expected:
        raise ValueError(f"{path}: truncated IDX payload ({len(data)} bytes, expected {expected})")
    pixels = np.frombuffer(data[16:expected], dtype=np.uint8).reshape(count, rows, cols)
    return pixels.transpose(2, 1, 0).reshape(rows * cols, count).astype(float) / 255.0


def load_wav(path):
    """Read a PCM16 mono WAV file; any other file is a ValueError naming it.

    Returns:
        (samples, sample_rate) with samples in [-1, 1).
    """
    try:
        with wave.open(str(path), "rb") as f:
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: only 16-bit PCM is supported")
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: only mono WAV is supported")
            rate = f.getframerate()
            raw = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as e:
        raise ValueError(f"{path}: not a PCM WAV file ({str(e) or 'truncated'})") from None
    samples = np.frombuffer(raw, dtype="<i2").astype(float)
    samples /= 32768.0
    return samples, rate


def write_wav(path, samples, sample_rate):
    """Write samples in [-1, 1) as PCM16 mono WAV; a NaN or inf sample, or a
    sample_rate outside [1, 2**31 - 1], is an error before the file is opened."""
    rate = int(sample_rate)
    if not 1 <= rate <= 2**31 - 1:
        raise ValueError(f"{path}: sample_rate must be in [1, 2147483647], not {rate}")
    x = np.asarray(samples, dtype=float)
    _check_entries(x, path, nonneg=False, what="samples")
    # one float copy, scaled and rounded in place
    x = np.clip(x, -1.0, 32767.0 / 32768.0)
    x *= 32768.0
    pcm = np.round(x, out=x).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())


class DataFile:
    """A data matrix file (.anmf or .idx) known by its header until load
    reads its payload.

    The header is read and checked at construction, as read_matrix and
    load_idx_images check it, and gives shape, (rows, cols).
    """

    def __init__(self, path, clamp_negatives=False):
        self.path, self.clamp_negatives = Path(path), clamp_negatives
        with open(self.path, "rb") as f:
            if self.path.suffix == ".idx":
                count, rows, cols = _idx_header(f.read(16), self.path)
                self.shape = (rows * cols, count)
            else:
                self.shape = _matrix_header(f, self.path)

    def load(self, out=None):
        """The payload, read into out, an F-contiguous block of the file's
        shape (see read_matrix), or into a new array. NaN or inf entries are
        a ValueError naming the file; so are negative entries, unless
        clamp_negatives sets them to 0."""
        if self.path.suffix != ".idx":
            mat = read_matrix(self.path, out)
        elif out is None:
            mat = load_idx_images(self.path)
        else:
            out[...] = load_idx_images(self.path)
            mat = out
        if mat.size and np.min(mat) < 0:
            if not self.clamp_negatives:
                raise ValueError(f"{self.path}: negative entries (pass --clamp-negatives to clamp to 0)")
            np.maximum(mat, 0.0, out=mat)
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
    for axis, what in enumerate(("row", "column")):
        counts = {a.shape[axis] for a in arrays}
        if len(counts) != 1:
            raise ValueError(f"sources must have equal {what} counts, got {sorted(counts)}")
    n = arrays[0].shape[1]
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
    if wm.n_sources != s:
        raise ValueError(f"weight model has {wm.n_sources} sources, the data {s}")
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
    """Persist bases and a JSON manifest into a directory; no basis, a basis
    that is not 2-D, bases of different row counts, a NaN, inf or negative
    basis, or a non-finite number in the manifest (such as a history entry),
    raises a ValueError before anything is written."""
    arrays = [as_array(b) for b in bases]
    if not arrays:
        raise ValueError(f"{directory}: a bundle needs at least one basis")
    for i, a in enumerate(arrays):
        if a.ndim != 2:
            raise ValueError(f"{directory}: basis {i} must be a matrix, not {a.ndim}-D")
        _check_entries(a, f"{directory}: basis {i}")
        if a.shape[0] != arrays[0].shape[0]:
            raise ValueError(f"{directory}: basis {i} has {a.shape[0]} rows, but basis 0 has {arrays[0].shape[0]}")
    directory = Path(directory)
    manifest = {
        "format_version": 1,
        "n_sources": len(arrays),
        "m": arrays[0].shape[0],
        "d": [a.shape[1] for a in arrays],
        "train_spec": train_spec or {},
        "history": list(history or []),
        "metadata": {"created": datetime.now(timezone.utc).isoformat(), **(metadata or {})},
    }
    # strict JSON, as read_json reads it: a bundle that could not be loaded is never written
    try:
        text = json.dumps(manifest, indent=2, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"{directory}: the manifest holds a non-finite number ({e})") from None
    directory.mkdir(parents=True, exist_ok=True)
    for i, a in enumerate(arrays):
        write_matrix(directory / f"basis_{i:03d}.anmf", a)
    (directory / "manifest.json").write_text(text)


def load_bundle(directory):
    """Load a bundle, checking basis files for finite entries and against
    the manifest dimensions. A manifest that is not JSON, or not a JSON
    object with n_sources >= 1 and one d entry per source, is a ValueError;
    so is a format_version other than 1 or an m that is not a positive int."""
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json(path)
    n = manifest.get("n_sources") if isinstance(manifest, dict) else None
    if not (type(n) is int and n >= 1 and isinstance(manifest.get("d"), list) and len(manifest["d"]) == n):
        raise ValueError(f"{path}: need a JSON object with n_sources >= 1 and one d entry per source")
    if manifest.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported format_version {manifest.get('format_version')!r} (need 1)")
    m = manifest.get("m")
    if not (type(m) is int and m >= 1):
        raise ValueError(f"{path}: m must be a positive int, got {m!r}")
    bases = []
    for i in range(n):
        basis_path = directory / f"basis_{i:03d}.anmf"
        a = read_matrix(basis_path)
        if a.shape != (m, manifest["d"][i]):
            raise ValueError(f"{basis_path}: shape {a.shape} does not match the manifest's ({m}, {manifest['d'][i]})")
        _check_entries(a, basis_path)
        bases.append(Basis(a))
    return ModelBundle(bases, manifest)
