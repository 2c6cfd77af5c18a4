import struct

import numpy as np
import pytest

from anmf.adversarial import WeightModel
from anmf.io import (
    FormatError,
    load_bundle,
    load_data_matrix,
    load_idx_images,
    load_wav,
    mix_synthetic,
    read_matrix,
    save_bundle,
    write_matrix,
    write_wav,
)


class TestMatrixFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.random((7, 5))
        p = tmp_path / "m.anmf"
        write_matrix(p, mat)
        assert np.array_equal(read_matrix(p), mat)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.zeros((2, 3)))
        data = p.read_bytes()
        assert data[:4] == b"ANMF"
        version, rows, cols = struct.unpack("<IQQ", data[4:24])
        assert (version, rows, cols) == (1, 2, 3)
        assert len(data) == 24 + 2 * 3 * 8

    def test_column_major_payload(self, tmp_path):
        p = tmp_path / "m.anmf"
        mat = np.array([[1.0, 3.0], [2.0, 4.0]])
        write_matrix(p, mat)
        payload = np.frombuffer(p.read_bytes()[24:], dtype="<f8")
        assert list(payload) == [1.0, 2.0, 3.0, 4.0]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.anmf"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bad.anmf"
        p.write_bytes(b"ANMF" + struct.pack("<IQQ", 9, 1, 1) + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_matrix(p)


class TestIdx:
    def make_idx(self, tmp_path, count=3, rows=4, cols=2):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
        p = tmp_path / "imgs.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes())
        return p, pixels

    def test_load(self, tmp_path):
        p, pixels = self.make_idx(tmp_path)
        mat = load_idx_images(p)
        assert mat.shape == (8, 3)
        assert np.all((0 <= mat) & (mat <= 1))
        # column-wise flattening of each image
        for k, img in enumerate(pixels):
            assert np.array_equal(mat[:, k], img.flatten(order="F") / 255.0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(FormatError):
            load_idx_images(p)

    def test_truncated(self, tmp_path):
        p, _ = self.make_idx(tmp_path)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_idx_images(p)


class TestWav:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.9, 0.9, size=800)
        p = tmp_path / "x.wav"
        write_wav(p, x, 16000)
        y, rate = load_wav(p)
        assert rate == 16000
        assert len(y) == 800
        # quantized to 16 bits
        assert np.max(np.abs(y - x)) <= 0.5 / 32768.0 + 1e-12

    def test_clipping(self, tmp_path):
        p = tmp_path / "c.wav"
        write_wav(p, np.array([2.0, -2.0]), 8000)
        y, _ = load_wav(p)
        assert y[0] == 32767 / 32768.0
        assert y[1] == -1.0

    def test_stereo_rejected(self, tmp_path):
        import wave

        p = tmp_path / "s.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00" * 8)
        with pytest.raises(FormatError):
            load_wav(p)


class TestLoadDataMatrix:
    def test_dispatch_by_extension(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((2, 2)))
        assert load_data_matrix(p).shape == (2, 2)

    def test_negative_entries(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, -0.5]]))
        with pytest.raises(FormatError):
            load_data_matrix(p)
        mat = load_data_matrix(p, clamp_negatives=True)
        assert np.array_equal(mat, [[1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, tmp_path, bad):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, bad]]))
        for clamp in (False, True):
            with pytest.raises(FormatError, match="non-finite"):
                load_data_matrix(p, clamp_negatives=clamp)


class TestMixSynthetic:
    def test_weight_mode_reconstructs(self):
        rng = np.random.default_rng(3)
        sources = [rng.random((4, 6)), rng.random((4, 6))]
        mix, truth, weights = mix_synthetic(sources, WeightModel(values=[0.3, 0.7]))
        assert np.allclose(mix, 0.3 * sources[0] + 0.7 * sources[1])
        assert np.allclose(sum(truth), mix)
        assert weights.shape == (2, 6)

    def test_dirichlet_mode_deterministic(self):
        rng = np.random.default_rng(4)
        sources = [rng.random((3, 5)), rng.random((3, 5))]
        wm = WeightModel(mode="dirichlet", concentration=[1.0, 1.0])
        a = mix_synthetic(sources, wm, seed=9)
        b = mix_synthetic(sources, wm, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.allclose(a[2].sum(axis=0), 1.0)

    def test_snr_mode(self):
        rng = np.random.default_rng(5)
        signal = rng.random((8, 10)) + 0.1
        noise = rng.random((8, 10)) + 0.1
        mix, truth, weights = mix_synthetic([signal, noise], snr_db=6.0)
        sig_e = np.sum(truth[0] ** 2, axis=0)
        noi_e = np.sum(truth[1] ** 2, axis=0)
        snr = 10 * np.log10(sig_e / noi_e)
        assert np.allclose(snr, 6.0, atol=1e-9)
        assert np.allclose(mix, truth[0] + truth[1])

    def test_snr_needs_two_sources(self):
        with pytest.raises(ValueError):
            mix_synthetic([np.ones((2, 2))] * 3, snr_db=0.0)

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            mix_synthetic([np.ones((2, 3)), np.ones((2, 4))])


class TestBundle:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        bases = [rng.random((5, 2)), rng.random((5, 3))]
        save_bundle(tmp_path / "model", bases, train_spec={"d": [2, 3]}, history=[1.0, 0.5])
        bundle = load_bundle(tmp_path / "model")
        assert bundle.manifest["n_sources"] == 2
        assert bundle.manifest["d"] == [2, 3]
        assert bundle.manifest["history"] == [1.0, 0.5]
        for a, b in zip(bundle.bases, bases):
            assert np.array_equal(a.entries, b)

    @pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
    def test_bad_basis_rejected_before_writing(self, tmp_path, bad):
        worse = np.ones((4, 2))
        worse[1, 1] = bad
        with pytest.raises(ValueError, match="basis 1"):
            save_bundle(tmp_path / "model", [np.ones((4, 2)), worse])
        assert not (tmp_path / "model").exists()

    def test_dimension_check(self, tmp_path):
        save_bundle(tmp_path / "model", [np.random.default_rng(7).random((4, 2))])
        write_matrix(tmp_path / "model" / "basis_000.anmf", np.ones((4, 3)))
        with pytest.raises(FormatError):
            load_bundle(tmp_path / "model")

    def test_non_finite_basis_rejected(self, tmp_path):
        save_bundle(tmp_path / "model", [np.ones((4, 2))])
        write_matrix(tmp_path / "model" / "basis_000.anmf", np.array([[1.0, np.nan]] * 4))
        with pytest.raises(FormatError, match="basis_000.anmf"):
            load_bundle(tmp_path / "model")
