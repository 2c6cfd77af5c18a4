import re
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from anmf.adversarial import WeightModel
from anmf.io import (
    DataFile,
    load_bundle,
    load_data_matrix,
    load_idx_images,
    load_wav,
    matrix_writer,
    mix_synthetic,
    read_json,
    read_matrix,
    save_bundle,
    write_matrix,
    write_wav,
)
from oracles import float32_wav_bytes


class TestReadJson:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        # json reads the three constants, and a literal beyond float range as inf
        p = tmp_path / "c.json"
        p.write_text(f'{{"train": {{"eps": {literal}}}}}')
        with pytest.raises(ValueError, match=f"^{p}: not a JSON file \\({literal} is not a finite number\\)$"):
            read_json(p)

    def test_numbers_read_as_json_reads_them(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"a": 0.1, "b": [1e-300, -2.5e10, 3], "c": 5e-324}')
        assert read_json(p) == {"a": 0.1, "b": [1e-300, -2.5e10, 3], "c": 5e-324}
        assert type(read_json(p)["b"][2]) is int

    def test_not_json_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match=f"^{p}: not a JSON file \\("):
            read_json(p)


class TestMatrixFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.random((7, 5))
        p = tmp_path / "m.anmf"
        write_matrix(p, mat)
        assert np.array_equal(read_matrix(p), mat)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
    def test_empty_round_trip(self, tmp_path, shape):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones(shape))
        mat = read_matrix(p)
        assert mat.shape == shape and mat.flags.f_contiguous and mat.flags.owndata

    def test_read_is_writable_and_column_major(self, tmp_path):
        # training's bitwise results depend on the input layout, so the file's
        # column-major order is kept
        p = tmp_path / "m.anmf"
        write_matrix(p, np.random.default_rng(1).random((60, 400)))
        tracemalloc.start()
        try:
            mat = read_matrix(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.flags.writeable and mat.flags.f_contiguous and mat.flags.owndata
        assert mat.dtype == np.float64 and mat.dtype.isnative
        # the payload is read straight into the one array it fills
        assert peak < 1.5 * mat.nbytes

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

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "big_endian", "integer"])
    def test_payload_is_column_major_little_endian(self, tmp_path, layout):
        rng = np.random.default_rng(2)
        mat = {
            "C": rng.random((9, 7)),
            "F": np.asfortranarray(rng.random((9, 7))),
            "strided": rng.random((18, 21))[::2, ::3],
            "big_endian": rng.random((9, 7)).astype(">f8"),
            "integer": rng.integers(-50, 50, (9, 7)),
        }[layout]
        p = tmp_path / "m.anmf"
        write_matrix(p, mat)
        assert p.read_bytes()[24:] == np.asarray(mat, dtype="<f8").tobytes(order="F")

    def test_column_major_write_copies_nothing(self, tmp_path):
        # a column-major float64 matrix, as read_matrix returns, is written
        # from its own memory
        mat = np.asfortranarray(np.random.default_rng(3).random((257, 1000)))
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "m.anmf", mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * mat.nbytes

    def test_blocks_write_the_matrix_file(self, tmp_path):
        mat = np.random.default_rng(4).random((5, 9))
        write_matrix(tmp_path / "one.anmf", mat)
        with matrix_writer(tmp_path / "blocks.anmf", 5, 9) as write:
            # an empty block writes nothing
            for a, b in ((0, 4), (4, 4), (4, 8), (8, 9)):
                write(mat[:, a:b])
        assert (tmp_path / "blocks.anmf").read_bytes() == (tmp_path / "one.anmf").read_bytes()

    @pytest.mark.parametrize("blocks, message", [
        ([np.ones((5, 2))], "2 of 3 columns written"),
        ([np.ones((5, 2)), np.ones((5, 2))], "a block of shape \\(5, 2\\) does not fit the 5 x 3 matrix after 2 columns"),
        ([np.ones((4, 3))], "a block of shape \\(4, 3\\) does not fit"),
    ])
    def test_blocks_must_fill_the_matrix(self, tmp_path, blocks, message):
        with pytest.raises(ValueError, match=message):
            with matrix_writer(tmp_path / "m.anmf", 5, 3) as write:
                for block in blocks:
                    write(block)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.anmf"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match=f"^{p}: not a matrix file \\(bad magic\\)$"):
            read_matrix(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bad.anmf"
        p.write_bytes(b"ANMF" + struct.pack("<IQQ", 9, 1, 1) + b"\x00" * 8)
        with pytest.raises(ValueError, match=f"^{p}: unsupported matrix file version 9$"):
            read_matrix(p)

    def test_one_dimensional_array_rejected(self, tmp_path):
        p = tmp_path / "v.anmf"
        with pytest.raises(ValueError, match="matrix files hold 2-d matrices"):
            write_matrix(p, np.ones(3))
        assert not p.exists()

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match=f"^{p}: payload truncated \\(88 bytes, expected 96\\)$"):
            read_matrix(p)

    def test_oversized_header_checked_before_reading(self, tmp_path):
        # a header claiming far more columns than the file holds is rejected
        # from the file size, before the payload is read or an array allocated
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((257, 500)))
        data = bytearray(p.read_bytes())
        data[4:24] = struct.pack("<IQQ", 1, 257, 10**12)
        p.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{p}: payload truncated "):
                read_matrix(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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
        with pytest.raises(ValueError, match=f"^{p}: bad IDX magic 0x00000801$"):
            load_idx_images(p)

    def test_truncated(self, tmp_path):
        p, _ = self.make_idx(tmp_path)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"^{p}: truncated IDX payload \\(37 bytes, expected 40\\)$"):
            load_idx_images(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">II", 0x00000803, 3))
        with pytest.raises(ValueError, match=f"^{p}: truncated IDX header$"):
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

    @pytest.mark.parametrize("rate", [0, -1, 2**31])
    def test_rate_outside_header_rejected_before_writing(self, tmp_path, rate):
        # wave fails on these only after it has created the file
        p = tmp_path / "r.wav"
        with pytest.raises(ValueError) as err:
            write_wav(p, np.zeros(4), rate)
        assert str(err.value) == f"{p}: sample_rate must be in [1, 2147483647], not {rate}"
        assert not p.exists()

    def test_largest_rate_round_trips(self, tmp_path):
        p = tmp_path / "r.wav"
        write_wav(p, np.zeros(4), 2**31 - 1)
        assert load_wav(p)[1] == 2**31 - 1

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "s.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00" * 8)
        with pytest.raises(ValueError, match=f"^{p}: only mono WAV is supported$"):
            load_wav(p)

    @pytest.mark.parametrize("name, message", [
        ("float.wav", "not a PCM WAV file (unknown format: 3)"),
        ("short.wav", "not a PCM WAV file (truncated)"),
        ("pcm8.wav", "only 16-bit PCM is supported"),
    ])
    def test_other_files_named(self, tmp_path, name, message):
        # the standard library raises its own errors on a non-PCM format
        # and a truncated header; each is a ValueError naming the file
        p = tmp_path / name
        if name == "pcm8.wav":
            with wave.open(str(p), "wb") as f:
                f.setnchannels(1)
                f.setsampwidth(1)
                f.setframerate(8000)
                f.writeframes(b"\x80" * 8)
        else:
            p.write_bytes(float32_wav_bytes([0.0, 0.5], 8000) if name == "float.wav" else b"RIFF\x00")
        with pytest.raises(ValueError) as err:
            load_wav(p)
        assert str(err.value) == f"{p}: {message}"


class TestLoadDataMatrix:
    def test_dispatch_by_extension(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((2, 2)))
        assert load_data_matrix(p).shape == (2, 2)

    def test_negative_entries(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError, match=f"^{p}: negative entries \\(pass --clamp-negatives to clamp to 0\\)$"):
            load_data_matrix(p)
        mat = load_data_matrix(p, clamp_negatives=True)
        assert np.array_equal(mat, [[1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, tmp_path, bad):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, bad]]))
        for clamp in (False, True):
            with pytest.raises(ValueError, match=f"^{p}: 1 non-finite \\(NaN or inf\\) entries$"):
                load_data_matrix(p, clamp_negatives=clamp)


class TestReadInto:
    """read_matrix and load_data_matrix fill a given column block, with the checks of a new read."""

    def test_column_block_filled_in_place(self, tmp_path):
        rng = np.random.default_rng(4)
        mat = rng.random((6, 5))
        p = tmp_path / "m.anmf"
        write_matrix(p, mat)
        whole = np.zeros((6, 9), order="F")
        block = whole[:, 2:7]
        assert read_matrix(p, out=block) is block
        assert np.array_equal(whole[:, 2:7], mat)
        assert not whole[:, :2].any() and not whole[:, 7:].any()

    @pytest.mark.parametrize("out", [np.zeros((6, 4), order="F"), np.zeros((6, 5), order="C"),
                                     np.zeros((6, 5), dtype=np.float32, order="F")], ids=["shape", "layout", "dtype"])
    def test_unfit_block_rejected(self, tmp_path, out):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((6, 5)))
        with pytest.raises(ValueError, match=f"^{p}: a 6 x 5 matrix is read into an F-contiguous float64 array"):
            read_matrix(p, out=out)
        assert not out.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, tmp_path, bad):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, bad]]))
        with pytest.raises(ValueError, match=f"^{p}: 1 non-finite \\(NaN or inf\\) entries$"):
            read_matrix(p, out=np.empty((1, 2), order="F"))

    def test_sign_check_and_clamp_on_the_block(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError, match=f"^{p}: negative entries"):
            load_data_matrix(p, False, np.empty((1, 2), order="F"))
        whole = np.full((1, 3), 7.0, order="F")
        assert load_data_matrix(p, True, whole[:, 1:]).base is whole
        assert np.array_equal(whole, [[7.0, 1.0, 0.0]])

    def test_data_file_reads_header_only(self, tmp_path):
        p = tmp_path / "m.anmf"
        mat = np.random.default_rng(5).random((4, 3))
        write_matrix(p, mat)
        f = DataFile(p)
        assert f.shape == (4, 3)
        out = np.empty((4, 3), order="F")
        assert f.load(out) is out and np.array_equal(out, mat)
        assert np.array_equal(f.load(), mat)

    def test_data_file_header_errors(self, tmp_path):
        p = tmp_path / "m.anmf"
        write_matrix(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match=f"^{p}: payload truncated \\(88 bytes, expected 96\\)$"):
            DataFile(p)
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match=f"^{p}: not a matrix file \\(bad magic\\)$"):
            DataFile(p)

    def test_idx_data_file(self, tmp_path):
        p, _ = TestIdx().make_idx(tmp_path)
        f = DataFile(p)
        assert f.shape == (8, 3)
        whole = np.zeros((8, 4), order="F")
        f.load(whole[:, 1:])
        assert np.array_equal(whole[:, 1:], load_idx_images(p))
        p.write_bytes(struct.pack(">IIII", 0x00000801, 1, 1, 1))
        with pytest.raises(ValueError, match=f"^{p}: bad IDX magic 0x00000801$"):
            DataFile(p)


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

    @pytest.mark.parametrize("snr_db", [None, 0.0])
    def test_row_count_mismatch(self, snr_db):
        # numpy would otherwise fail to broadcast the weighted sources
        with pytest.raises(ValueError, match=r"^sources must have equal row counts, got \[2, 3\]$"):
            mix_synthetic([np.ones((3, 4)), np.ones((2, 4))], snr_db=snr_db)


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

    @pytest.mark.parametrize("bases, message", [
        ([], "a bundle needs at least one basis"),
        ([np.ones((4, 2)), np.ones((5, 2))], "basis 1 has 5 rows, but basis 0 has 4"),
        ([np.ones(4)], "basis 0 must be a matrix, not 1-D"),
        ([np.ones((4, 2)), np.ones((4, 2, 1))], "basis 1 must be a matrix, not 3-D"),
    ], ids=["none", "other_rows", "vector", "three_d"])
    def test_unloadable_bundle_not_written(self, tmp_path, bases, message):
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'model'))}: {message}$"):
            save_bundle(tmp_path / "model", bases)
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_history_rejected_before_writing(self, tmp_path, bad):
        # read_json rejects a manifest with NaN or Infinity, so none is written
        with pytest.raises(ValueError, match=f"^{tmp_path / 'model'}: the manifest holds a non-finite number"):
            save_bundle(tmp_path / "model", [np.ones((4, 2))], history=[1.0, bad])
        assert not (tmp_path / "model").exists()

    def test_dimension_check(self, tmp_path):
        save_bundle(tmp_path / "model", [np.random.default_rng(7).random((4, 2))])
        write_matrix(tmp_path / "model" / "basis_000.anmf", np.ones((4, 3)))
        path = re.escape(str(tmp_path / "model" / "basis_000.anmf"))
        with pytest.raises(ValueError, match=rf"^{path}: shape \(4, 3\) does not match the manifest's \(4, 2\)$"):
            load_bundle(tmp_path / "model")

    def test_dimension_check_names_the_basis_file(self, tmp_path):
        # the second of two bases is the one that does not fit
        save_bundle(tmp_path / "model", [np.ones((4, 2)), np.ones((4, 3))])
        write_matrix(tmp_path / "model" / "basis_001.anmf", np.ones((5, 3)))
        path = re.escape(str(tmp_path / "model" / "basis_001.anmf"))
        with pytest.raises(ValueError, match=rf"^{path}: shape \(5, 3\) does not match the manifest's \(4, 3\)$"):
            load_bundle(tmp_path / "model")

    def test_non_finite_basis_rejected(self, tmp_path):
        save_bundle(tmp_path / "model", [np.ones((4, 2))])
        write_matrix(tmp_path / "model" / "basis_000.anmf", np.array([[1.0, np.nan]] * 4))
        with pytest.raises(ValueError, match=f"^{tmp_path / 'model' / 'basis_000.anmf'}: 4 non-finite "):
            load_bundle(tmp_path / "model")
