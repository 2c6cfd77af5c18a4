"""The three benchmark workloads: seeded inputs, CLI arguments, output checks.

Each workload runs one ``anmf`` CLI command. ``setup`` makes every input
from the seed, trains the model the command needs and returns a digest of
the inputs; ``argv`` is the command line that is timed, ``check``
validates what one invocation wrote, ``digest`` fingerprints it, and
``quality_db`` scores it without being timed.

The data are synthetic but paper-shaped: m = 257 rows, the one-sided bins
of a 512-point STFT. Source 0 is built from harmonic-comb atoms, source 1
from smooth formant-like bumps, so the two sources overlap in frequency
but have different structure, as speech and noise do. The seed draws every
column, note, noise burst and training seed of the timed command; the atom
sets and the denoising voice model are fixed parts of each workload, so
that quality_db varies little from seed to seed.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from anmf import io as aio
from anmf.core import SparsityParams
from anmf.metrics import psnr
from anmf.separation import separate

M = 257
RATE = 16000
BLOCK_S = 0.5
SCALE_HZ = 110.0 * 2.0 ** (np.array([0, 2, 4, 5, 7, 9, 11, 12]) / 12)


@dataclass(frozen=True)
class Sizes:
    train_cols: int  # columns per source for the train workload
    train_mix_cols: int  # unpaired mix columns (adversarial data)
    train_sup_cols: int  # paired supervised columns
    train_d: int
    train_epochs: int
    heldout_cols: int  # held-out paired mix scored for train's quality_db
    sep_model_cols: int  # columns per source used to train separate's bundle
    sep_model_epochs: int
    sep_cols: int  # columns of the mix that separate is timed on
    sep_d: int
    audio_s: float  # length of the noisy input that denoise is timed on
    voice_train_s: float  # clean audio the denoise basis is trained on
    denoise_d: int
    denoise_epochs: int


FULL = Sizes(
    train_cols=4000, train_mix_cols=1000, train_sup_cols=1000, train_d=64, train_epochs=2,
    heldout_cols=200, sep_model_cols=1000, sep_model_epochs=10, sep_cols=200, sep_d=64,
    audio_s=20.0, voice_train_s=20.0, denoise_d=32, denoise_epochs=20,
)
SMOKE = Sizes(
    train_cols=60, train_mix_cols=20, train_sup_cols=20, train_d=4, train_epochs=2,
    heldout_cols=10, sep_model_cols=40, sep_model_epochs=3, sep_cols=12, sep_d=4,
    audio_s=4.0, voice_train_s=2.0, denoise_d=4, denoise_epochs=3,
)


# ---------------------------------------------------------------- matrices


def _atoms(rng, kind, k):
    """k unit-norm spectral shapes of length M: harmonic combs or bumps."""
    f = np.arange(M)
    out = np.zeros((M, k))
    for j in range(k):
        if kind == 0:
            f0 = rng.uniform(6.0, 30.0)
            centres = f0 * np.arange(1, int(M / f0) + 1)
            amps = rng.uniform(0.3, 1.0, len(centres)) * np.arange(1, len(centres) + 1) ** -0.7
            widths = np.full(len(centres), 1.2)
        else:
            centres = rng.uniform(0, M, 3)
            amps = rng.uniform(0.3, 1.0, 3)
            widths = rng.uniform(10.0, 60.0, 3)
        for a, c, w in zip(amps, centres, widths):
            out[:, j] += a * np.exp(-0.5 * ((f - c) / w) ** 2)
    return out / np.linalg.norm(out, axis=0)


def _columns(rng, atoms, n):
    """n dense non-negative columns with peak 1: sparse atom mixtures plus a noise floor."""
    k = atoms.shape[1]
    act = rng.gamma(0.5, 1.0, (k, n)) * (rng.random((k, n)) < 0.15)
    cols = atoms @ act + 0.01 * rng.random((M, n))
    return cols / cols.max(axis=0)


class _Dataset:
    """Two sources whose columns the seed draws from fixed atom sets.

    The atoms are part of the workload's definition, like a fixed set of
    speakers, so that quality_db measures the program rather than how
    separable one seed's atoms happen to be.
    """

    def __init__(self, seed):
        atoms_rng = np.random.default_rng(2305)
        self.atoms = [_atoms(atoms_rng, 0, 40), _atoms(atoms_rng, 1, 40)]
        self.rng = np.random.default_rng([seed, 2305])

    def sources(self, n):
        return [_columns(self.rng, a, n) for a in self.atoms]

    def paired(self, n):
        """Equal-weight mix of n columns and its two weighted ground truths."""
        truth = [0.5 * u for u in self.sources(n)]
        return truth[0] + truth[1], truth


def _write(path, matrix):
    aio.write_matrix(path, matrix)
    return str(path)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _median_psnr(estimates, references):
    return float(np.median([
        min(psnr(e[:, k], r[:, k]), 100.0)
        for e, r in zip(estimates, references) for k in range(e.shape[1])
    ]))


# ---------------------------------------------------------------- workloads


class Train:
    name = "train"
    why = ("anmf train, method danmf, 2 sources x 4000 columns, d = 64: all three objective "
           "terms and every gradient part; separation and features do no work")
    item = "training column-epochs"
    audio_s = 0.0

    def setup(self, work, seed, sizes, run_cli):
        data = _Dataset(seed)
        src = data.sources(sizes.train_cols)
        mix, _ = data.paired(sizes.train_mix_cols)
        sup_mix, sup_truth = data.paired(sizes.train_sup_cols)
        self.heldout_mix, self.heldout_truth = data.paired(sizes.heldout_cols)
        inputs = [
            _write(work / "source_0.anmf", src[0]), _write(work / "source_1.anmf", src[1]),
            _write(work / "mix.anmf", mix), _write(work / "sup_0.anmf", sup_truth[0]),
            _write(work / "sup_1.anmf", sup_truth[1]), _write(work / "sup_mix.anmf", sup_mix),
        ]
        self.epochs = sizes.train_epochs
        self.d = sizes.train_d
        self.model = work / "model"
        config = {
            "method": "danmf",
            "data": {
                "sources": inputs[:2],
                "mixes": inputs[2],
                "supervised": {"sources": inputs[3:5], "mix": inputs[5]},
            },
            "train": {"d": sizes.train_d, "tau_A": 0.1, "tau_S": 0.5,
                      "epochs": sizes.train_epochs, "batch_size": 100},
            "output": str(self.model),
        }
        (work / "train.json").write_text(json.dumps(config, indent=2))
        self.argv = ["train", "--config", str(work / "train.json"), "--seed", str(seed)]
        self.items = 2 * sizes.train_cols * sizes.train_epochs
        return file_digest(inputs)

    def check(self):
        bundle = aio.load_bundle(self.model)
        errors = []
        if len(bundle.bases) != 2:
            errors.append(f"bundle holds {len(bundle.bases)} bases, expected 2")
        for i, b in enumerate(bundle.bases):
            w = b.entries
            if w.shape != (M, self.d):
                errors.append(f"basis {i} has shape {w.shape}")
            elif not np.all(np.isfinite(w)) or np.min(w) < 0:
                errors.append(f"basis {i} is not finite and non-negative")
            elif np.max(np.abs(np.linalg.norm(w, axis=0) - 1.0)) > 1e-9:
                errors.append(f"basis {i} columns are not unit-norm")
        history = bundle.manifest["history"]
        if len(history) != self.epochs or not all(math.isfinite(h) for h in history):
            errors.append(f"history {history} is not {self.epochs} finite values")
        return errors

    def digest(self):
        manifest = json.loads((self.model / "manifest.json").read_text())
        del manifest["metadata"]["created"]
        bases = sorted(self.model.glob("basis_*.anmf"))
        return file_digest(bases) + hashlib.sha256(json.dumps(manifest).encode()).hexdigest()

    def quality_db(self):
        """Median PSNR of the trained bundle separating a held-out paired mix."""
        bundle = aio.load_bundle(self.model)
        result = separate(self.heldout_mix, bundle.bases, SparsityParams(mu_H=1e-10), max_iter=200)
        return _median_psnr(result.filtered, self.heldout_truth)


class Separate:
    name = "separate"
    why = ("anmf separate --references, 2-source d = 64 bundle on a dense 257 x N mix at "
           "max-iter 500: NNLS solver, Wiener filter and 2N psnr calls; no training")
    item = "mix columns"
    audio_s = 0.0

    def setup(self, work, seed, sizes, run_cli):
        data = _Dataset(seed)
        src = data.sources(sizes.sep_model_cols)
        model = work / "model"
        config = {
            "method": "anmf",
            "data": {"sources": [_write(work / f"train_{i}.anmf", u) for i, u in enumerate(src)]},
            "train": {"d": sizes.sep_d, "tau_A": 0.1, "epochs": sizes.sep_model_epochs},
            "output": str(model),
        }
        (work / "train.json").write_text(json.dumps(config, indent=2))
        if run_cli(["train", "--config", str(work / "train.json"), "--seed", str(seed)]) != 0:
            raise RuntimeError("training the separation model failed")
        self.mix, truth = data.paired(sizes.sep_cols)
        self.out = work / "out"
        refs = [_write(work / f"truth_{i}.anmf", t) for i, t in enumerate(truth)]
        inputs = [_write(work / "mix.anmf", self.mix)] + refs
        self.argv = ["separate", "--model", str(model), "--input", inputs[0],
                     "--output-dir", str(self.out), "--references", *refs]
        self.items = sizes.sep_cols
        return file_digest(inputs + sorted(model.glob("basis_*.anmf")))

    def _scores(self):
        with open(self.out / "metrics.csv", newline="") as f:
            return [float(row["value"]) for row in csv.DictReader(f)]

    def check(self):
        errors = []
        est = [aio.read_matrix(self.out / f"source_{i:03d}.anmf") for i in range(2)]
        scale = float(np.max(np.abs(self.mix)))
        gap = float(np.max(np.abs(est[0] + est[1] - self.mix)))
        if not gap <= 1e-9 * scale:
            errors.append(f"estimates miss the mix by {gap:.3g} (Wiener conservation)")
        n_rows = len(self._scores())
        if n_rows != 2 * self.mix.shape[1]:
            errors.append(f"metrics.csv has {n_rows} rows, expected {2 * self.mix.shape[1]}")
        return errors

    def digest(self):
        return file_digest(sorted(self.out.iterdir()))

    def quality_db(self):
        """Median PSNR over the rows of metrics.csv."""
        return float(np.median(self._scores()))


# ---------------------------------------------------------------- audio


def _timbres():
    """Fixed harmonic amplitudes of each scale note: the workload's one voice."""
    rng = np.random.default_rng(2306)
    return [rng.uniform(0.2, 1.0, int(4000.0 / f0)) / np.arange(1, int(4000.0 / f0) + 1)
            for f0 in SCALE_HZ]


def _voice(rng, n_blocks, voiced):
    """Harmonic notes of a major scale, one per 0.5 s block; unvoiced blocks are exact zeros."""
    n = int(BLOCK_S * RATE)
    t = np.arange(n) / RATE
    ramp = np.minimum(1.0, np.minimum(np.arange(n), np.arange(n)[::-1]) / (0.02 * RATE))
    timbres = _timbres()
    out = np.zeros(n_blocks * n)
    notes = rng.permutation(np.arange(n_blocks) % len(SCALE_HZ))  # every note equally often
    for b in np.flatnonzero(voiced):
        f0 = SCALE_HZ[notes[b]]
        harmonics = np.arange(1, int(4000.0 / f0) + 1)
        amps = timbres[notes[b]] * rng.uniform(0.5, 1.0)
        phases = rng.uniform(0.0, 2 * np.pi, len(harmonics))
        tone = sum(a * np.sin(2 * np.pi * h * f0 * t + p) for h, a, p in zip(harmonics, amps, phases))
        out[b * n:(b + 1) * n] = tone * ramp
    return out


def _noise(rng, n_blocks, gate):
    """White noise bursts, switched on and off in 0.5 s blocks."""
    return rng.standard_normal(n_blocks * int(BLOCK_S * RATE)) * np.repeat(gate, int(BLOCK_S * RATE))


def _audio_blocks(rng, n_blocks):
    """Voiced/noisy block pattern: ~30 % unvoiced, ~10 % with neither."""
    kind = rng.permutation(np.arange(n_blocks) % 10)
    voiced = kind >= 3  # 3 of 10 blocks are pauses
    noisy = (kind >= 1) & (kind != 3) & (kind != 4)  # 1 of 10 is silent throughout
    return voiced, noisy


class Denoise:
    name = "denoise"
    why = ("anmf denoise --mode project --max-iter 100 on 16 kHz voice with 0 dB noise bursts: "
           "stft/istft dominate; ~10 % of frames are digitally silent")
    item = "audio seconds"

    def setup(self, work, seed, sizes, run_cli):
        # the voice model is part of the workload: its training audio and
        # training seed are fixed, and the seed draws only the noisy input
        n_train = max(1, round(sizes.voice_train_s / BLOCK_S))
        clean_train = _voice(np.random.default_rng(2307), n_train, np.ones(n_train, dtype=bool))
        rng = np.random.default_rng([seed, 2306])
        n_blocks = max(1, round(sizes.audio_s / BLOCK_S))
        voiced, noisy = _audio_blocks(rng, n_blocks)
        clean = _voice(rng, n_blocks, voiced)
        noise = _noise(rng, n_blocks, noisy)
        noise *= math.sqrt(np.sum(clean**2) / np.sum(noise**2))  # 0 dB SNR
        peak = np.max(np.abs(clean + noise)) / 0.9
        train_wav, clean_wav, noisy_wav = work / "voice_train.wav", work / "clean.wav", work / "noisy.wav"
        aio.write_wav(train_wav, clean_train / np.max(np.abs(clean_train)) * 0.9, RATE)
        aio.write_wav(clean_wav, clean / peak, RATE)
        aio.write_wav(noisy_wav, (clean + noise) / peak, RATE)

        feats = str(work / "voice_train")
        model = work / "model"
        config = {
            "method": "nmf",
            "data": {"sources": [feats + ".mag.anmf"]},
            "train": {"d": sizes.denoise_d, "epochs": sizes.denoise_epochs},
            "output": str(model),
        }
        (work / "train.json").write_text(json.dumps(config, indent=2))
        for argv in (["features", "--input", str(train_wav), "--output-prefix", feats],
                     ["train", "--config", str(work / "train.json"), "--seed", "0"]):
            if run_cli(argv) != 0:
                raise RuntimeError(f"denoise setup step {argv[0]} failed")
        self.input_len = n_blocks * int(BLOCK_S * RATE)
        self.output = work / "denoised.wav"
        self.argv = ["denoise", "--model", str(model), "--input", str(noisy_wav),
                     "--output", str(self.output), "--mode", "project", "--max-iter", "100",
                     "--reference", str(clean_wav)]
        self.items = self.audio_s = self.input_len / RATE
        return file_digest([train_wav, clean_wav, noisy_wav] + sorted(model.glob("basis_*.anmf")))

    def _scores(self):
        with open(self.output.with_suffix(".csv"), newline="") as f:
            return {row["source"]: float(row["value"]) for row in csv.DictReader(f)}

    def check(self):
        samples, rate = aio.load_wav(self.output)
        errors = []
        if rate != RATE or len(samples) != self.input_len:
            errors.append(f"output has {len(samples)} samples at {rate} Hz, expected "
                          f"{self.input_len} at {RATE} Hz")
        if not np.all(np.isfinite(samples)):
            errors.append("output audio is not finite")
        if set(self._scores()) != {"0", "input"}:
            errors.append("score file lacks the output or input SI-SDR row")
        return errors

    def digest(self):
        return file_digest([self.output, self.output.with_suffix(".csv")])

    def quality_db(self):
        """SI-SDR gain of the denoised output over the noisy input."""
        scores = self._scores()
        return scores["0"] - scores["input"]


WORKLOADS = {w.name: w for w in (Train, Separate, Denoise)}
