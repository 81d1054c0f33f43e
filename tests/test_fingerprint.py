import errno
import io
import os
import re
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rfdna import fingerprint
from rfdna.errors import InvalidValue
from rfdna.fingerprint import (
    GRID_SHAPE,
    N_FEATURES,
    Fingerprint,
    FingerprintStore,
    gen_fingerprint,
    load_arrays,
    save_arrays,
)
from rfdna.gabor import dgt, normalize_tf
from rfdna.harness import Verifier, default_cohort
from rfdna.svm import SvmModel
from rfdna.signals import ComplexBurst, add_awgn, butterworth_filter, synth_burst

from oracles import (block_stats_masked, moments_extended, moments_scalar,
                     patch_layout)

RNG = np.random.default_rng(77)


class TestBlockStats:
    @pytest.mark.parametrize("shape", [(50, 150), (1, 22_500)])
    def test_matches_masked_oracle_bitwise(self, shape):
        rng = np.random.default_rng(shape[0])
        for trial in range(20):
            blocks = rng.random(shape) ** rng.uniform(1.0, 4.0)
            # Constant rows (zero, the grid peak, any level) mixed in; the
            # one-row input alternates between constant and not.
            const = rng.random(shape[0]) < 0.3 if shape[0] > 1 else (
                np.array([trial % 2 == 1]))
            blocks[const] = rng.choice([0.0, 1.0, rng.random()])
            got = fingerprint._block_stats(blocks)
            assert np.array_equal(got, block_stats_masked(blocks))
            assert np.all(got[const] == 0.0)

    def test_matches_extended_precision_oracle(self):
        blocks = RNG.random((20, 150)) ** 2
        for row, got in zip(blocks, fingerprint._block_stats(blocks)):
            assert np.max(np.abs(got - moments_extended(row))) <= 1e-12

    def test_known_values(self):
        # Symmetric two-point mass: sd = 1, skew = 0, kurtosis = 1.
        got = fingerprint._block_stats(np.array([[1.0, -1.0]]))
        assert np.allclose(got, [[1.0, 1.0, 0.0, 1.0]])


class TestGenFingerprint:
    def test_shape_and_patch_agreement(self):
        tf = RNG.random(GRID_SHAPE)
        fp = gen_fingerprint(tf)
        assert fp.features.shape == (N_FEATURES,)
        for p, (t0, t1, f0, f1) in enumerate(patch_layout()):
            cells = tf[t0:t1, f0:f1]
            got = fp.features[4 * p:4 * p + 4]
            assert np.array_equal(
                got, fingerprint._block_stats(cells.reshape(1, -1))[0])
            assert np.allclose(got, moments_extended(cells), rtol=0,
                               atol=1e-12)
        assert np.allclose(fp.features[-4:], moments_extended(tf), rtol=0,
                           atol=1e-12)

    def test_global_moments_match_scalar_float64(self):
        # Array and scalar powers may round sd**3 differently (numpy's SIMD
        # pow against libm's), so the two agree to a few ulps, not bitwise.
        for _ in range(40):
            tf = RNG.random(GRID_SHAPE) ** 3
            np.testing.assert_allclose(gen_fingerprint(tf).features[-4:],
                                       moments_scalar(tf), rtol=1e-15, atol=0)

    def test_constant_region_yields_zero_block(self):
        vals = RNG.random(GRID_SHAPE)
        vals[0:15, 50:60] = 0.5
        fp = gen_fingerprint(vals)
        assert np.array_equal(fp.features[0:4], np.zeros(4))
        assert not np.any(gen_fingerprint(np.full(GRID_SHAPE, 0.37)).features)

    def test_rejects_bad_grid(self):
        for shape in [(10, 10), (100, 150)]:
            with pytest.raises(InvalidValue,
                               match=r"expected \(150, 150\) grid"):
                gen_fingerprint(np.zeros(shape))
        for value in (np.nan, np.inf):
            bad = RNG.random(GRID_SHAPE)
            bad[3, 3] = value
            with pytest.raises(InvalidValue):
                gen_fingerprint(bad)

    def test_fingerprint_length_enforced(self):
        with pytest.raises(InvalidValue, match="must have 204 features"):
            Fingerprint(features=np.zeros(203))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        feats = RNG.random(N_FEATURES)
        feats[17] = value
        with pytest.raises(InvalidValue):
            Fingerprint(features=feats)

    @pytest.mark.parametrize("z", [-1, 2**32, 2.5, 1.0, "1", None, True])
    def test_realization_outside_u32_rejected(self, z):
        # The store's u32 column would wrap -1 and 2**32 and truncate 2.5.
        with pytest.raises(InvalidValue):
            Fingerprint(features=np.zeros(N_FEATURES), realization=z)

    @pytest.mark.parametrize("rid", [7, None, b"R01"])
    def test_radio_id_that_is_not_a_string_rejected(self, rid):
        # The store writes radio ids as text.
        with pytest.raises(InvalidValue):
            Fingerprint(features=np.zeros(N_FEATURES), radio_id=rid)


def small_store():
    store = FingerprintStore()
    for rid in ("R01", "R02"):
        for z in range(2):
            for b in range(3):
                feats = RNG.random(N_FEATURES)
                store.add(Fingerprint(features=feats, radio_id=rid,
                                      snr_db=None if rid == "R02" else 21.0,
                                      realization=z))
    return store


def small_verifier(method="relieff"):
    """A verifier over 6 features with a ranking cut (``relieff``) or a
    projection cut (``pca``); only its file layout matters here."""
    rng = np.random.default_rng(18)
    n_r, n_sv = 6, 9
    cut = ({"indices": rng.permutation(N_FEATURES)[:n_r]}
           if method == "relieff" else
           {"basis": rng.standard_normal((N_FEATURES, n_r)),
            "mean": rng.standard_normal(N_FEATURES)})
    model = SvmModel(support_vectors=rng.standard_normal((n_sv, n_r)),
                     dual_coeffs=rng.standard_normal(n_sv), bias=0.25,
                     kernel_zeta=0.5, cost_c=10.0,
                     feature_indices=cut.get("indices"),
                     scaler_mean=rng.standard_normal(n_r),
                     scaler_scale=rng.random(n_r) + 0.5)
    return Verifier("R01", method, 21.0, n_r, cut, model,
                    {"gate_fallback": False, "pool_underfilled": True})


SAVERS = {"store": lambda path: small_store().save(path),
          "verifier": lambda path: small_verifier().save(path)}


class TestScaleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
           radio=st.integers(0, 17))
    def test_scaled_burst_gives_same_fingerprint(self, c, seed, radio):
        burst = butterworth_filter(
            synth_burst(default_cohort()[radio], 200, seed=seed), 6, 0.4)
        burst = add_awgn(burst, 15.0, filter_spec=(6, 0.4), seed=seed + 1)
        want = gen_fingerprint(normalize_tf(dgt(burst))).features
        got = gen_fingerprint(normalize_tf(dgt(
            ComplexBurst(c * burst.samples)))).features
        # Relative to the largest feature: a near-zero skewness keeps only
        # the absolute rounding error of the others.
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStore:
    def test_select_filters_and_orders(self):
        store = small_store()
        assert len(store) == 12
        assert store.radio_ids() == ["R01", "R02"]
        rows = store.select("R01", [0])
        assert rows.shape == (3, N_FEATURES)
        assert store.select("R01").shape == (6, N_FEATURES)
        assert store.select("missing").shape == (0, N_FEATURES)

    def test_access_log(self):
        store = small_store()
        store.select("R01", [0])
        store.select("R02")
        assert store.access_log == ["R01", "R02"]

    def test_binary_roundtrip_is_exact(self, tmp_path):
        store = small_store()
        path = tmp_path / "store.rfdn"
        store.save(path)
        back = FingerprintStore.load(path)
        assert len(back) == len(store)
        assert back.radio_ids() == store.radio_ids()
        # R02's rows, added with no SNR, load like R01's.
        for rid in store.radio_ids():
            for z in (None, [0], [1]):
                assert np.array_equal(store.select(rid, z),
                                      back.select(rid, z))

    def test_load_adds_little_beyond_the_features(self, tmp_path):
        # Members are streamed from the file: loading 20,000 rows allocates
        # at most 1.5x their feature bytes at its peak, not a whole-file
        # copy, a member copy and the arrays (about 3x).
        n = 20_000
        rng = np.random.default_rng(5)
        features = rng.standard_normal((n, N_FEATURES))
        path = tmp_path / "big.rfdn"
        FingerprintStore(["R01", "R02"], np.arange(n) % 2, np.arange(n) % 10,
                         features).save(path)
        tracemalloc.start()
        try:
            back = FingerprintStore.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back._features, features)
        assert peak <= 1.5 * features.nbytes

    @pytest.mark.parametrize("z", [0, 2**32 - 1, np.uint32(2**32 - 1)])
    def test_realization_range_ends_roundtrip(self, tmp_path, z):
        store = FingerprintStore()
        store.add(Fingerprint(np.zeros(N_FEATURES), radio_id="R01",
                              realization=z))
        store.save(tmp_path / "store.rfdn")
        back = FingerprintStore.load(tmp_path / "store.rfdn")
        assert back._realization.tolist() == [int(z)]
        assert back.select("R01", [z]).shape == (1, N_FEATURES)

    def test_save_replaces_the_old_store(self, tmp_path):
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        store = small_store()
        store.save(path)
        assert np.array_equal(FingerprintStore.load(path).select("R01"),
                              store.select("R01"))
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("saver, old", [
        ("store", True), ("store", False), ("verifier", True),
        ("verifier", False)],
        ids=["old", "none", "verifier-old", "verifier-none"])
    def test_interrupted_save_leaves_the_old_store(self, tmp_path,
                                                   monkeypatch, saver, old):
        path = tmp_path / "saved"
        if old:
            SAVERS[saver](path)
        before = path.read_bytes() if old else None
        savez = np.savez

        def fail_partway(file, **arrays):
            buf = io.BytesIO()
            savez(buf, **arrays)
            file.write(buf.getvalue()[:buf.tell() // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", fail_partway)
        with pytest.raises(OSError):
            SAVERS[saver](path)
        monkeypatch.undo()
        assert (path.read_bytes() if old else None) == before
        assert list(tmp_path.iterdir()) == ([path] if old else [])

    def test_save_syncs_the_file_then_renames_then_syncs_the_directory(
            self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, st.st_size))
            fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        monkeypatch.undo()
        file, folder = path.stat(), tmp_path.stat()
        # The file is synced whole, under its temporary name, before the
        # rename; the directory that holds the rename is synced after it.
        want = [("fsync", file.st_ino, file.st_size),
                ("replace", f".store.rfdn.{os.getpid()}.tmp", "store.rfdn")]
        if os.name == "posix":
            want.append(("fsync", folder.st_ino, folder.st_size))
        assert events == want
        assert list(tmp_path.iterdir()) == [path]

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.rfdn"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(InvalidValue):
            FingerprintStore.load(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        store = FingerprintStore()
        for i in range(60):
            store.add(Fingerprint(features=RNG.random(N_FEATURES),
                                  radio_id=f"R{i % 3:02d}", snr_db=21.0,
                                  realization=i % 2))
        path = tmp_path / "store.rfdn"
        store.save(path)
        buf = path.read_bytes()
        path.write_bytes(buf[:len(buf) // 2])
        with pytest.raises(InvalidValue):
            FingerprintStore.load(path)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(InvalidValue):
            FingerprintStore.load(path)

    def test_load_rejects_non_finite_features(self, tmp_path):
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        # A well-formed file, every CRC intact, that holds one NaN feature.
        arrays = load_arrays(path)
        arrays["features"][-1, -1] = np.nan
        save_arrays(path, **arrays)
        with pytest.raises(InvalidValue):
            FingerprintStore.load(path)

    def test_load_rejects_version_1(self, tmp_path):
        # The header of a store of formats 1 and 2, before the zip container:
        # magic, then version, feature count, row count and id count as u32.
        path = tmp_path / "store.rfdn"
        for version in (1, 2):
            path.write_bytes(b"RFDN" + b"".join(
                n.to_bytes(4, "little") for n in (version, N_FEATURES, 0, 0)))
            with pytest.raises(InvalidValue,
                               match="offset 0.*re-run `rfdna fingerprint`"):
                FingerprintStore.load(path)
        # A format-3 store held one more member, a per-row SNR.
        small_store().save(path)
        arrays = load_arrays(path)
        assert sorted(arrays) == sorted(["version", "radio_ids", "id_code",
                                         "realization", "features"])
        arrays["version"] = 3
        save_arrays(path, **arrays,
                    snr_db=np.full(len(arrays["id_code"]), 21.0))
        with pytest.raises(InvalidValue, match=r"fails version 4\); "
                                               r"re-run `rfdna fingerprint`"):
            FingerprintStore.load(path)

    def test_add_after_load_appends(self, tmp_path):
        store = small_store()
        path = tmp_path / "store.rfdn"
        store.save(path)
        back = FingerprintStore.load(path)
        rows = RNG.random((3, N_FEATURES))
        back.add(Fingerprint(features=rows[0], radio_id="R03",
                             realization=1))
        back.add(Fingerprint(features=rows[1], radio_id="R01", snr_db=9.0,
                             realization=0))
        back.add(Fingerprint(features=rows[2], radio_id="R03",
                             realization=2))
        assert len(back) == len(store) + 3
        assert back.radio_ids() == ["R01", "R02", "R03"]
        # The loaded rows stay first and the added ones follow, in the
        # order they were added.
        assert np.array_equal(back._features[:-3], store._features)
        assert np.array_equal(back._features[-3:], rows)
        assert back._id_code[-3:].tolist() == [2, 0, 2]
        assert back._realization[-3:].tolist() == [1, 0, 2]
        assert np.array_equal(back.select("R03"), rows[[0, 2]])
        assert np.array_equal(back.select("R03", [2]), rows[[2]])
        assert np.array_equal(back.select("R01", [0])[-1], rows[1])


@st.composite
def stores(draw):
    """Stores of up to 8 rows over up to 4 unicode ids (the empty id and the
    empty store included), with any SNR (None, NaN, infinities and
    non-numbers included), which a store does not keep, and any realization
    the u32 column holds."""
    ids = draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=6),
                        min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ids),
        st.none() | st.floats() | st.text(max_size=3) | st.just([1, 2]),
        st.integers(0, 2**32 - 1),
        hnp.arrays(np.float64, N_FEATURES, elements=st.floats(
            allow_nan=False, allow_infinity=False))), max_size=8))
    store = FingerprintStore()
    for rid, snr, z, x in rows:
        store.add(Fingerprint(x, radio_id=rid, snr_db=snr, realization=z))
    return store


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestStoreRoundtripProperty:
    @settings(max_examples=25, deadline=None)
    @given(store=stores())
    def test_save_load_is_bitwise(self, tmp_path_factory, store):
        path = tmp_path_factory.mktemp("store") / "store.rfdn"
        store.save(path)
        back = FingerprintStore.load(path)
        assert back.radio_ids() == store.radio_ids()
        assert len(back) == len(store)
        for column in ("_features", "_id_code", "_realization"):
            assert same_bits(getattr(back, column), getattr(store, column))
        for rid in store.radio_ids() + ["not in the store"]:
            assert same_bits(back.select(rid), store.select(rid))
            for z in set(store._realization.tolist()):
                assert same_bits(back.select(rid, [z]),
                                 store.select(rid, [z]))


def verifier_fields(v):
    """Everything a loaded verifier holds, arrays as (dtype, shape, bytes)."""
    def bits(a):
        a = np.asarray(a)
        return a.dtype, a.shape, a.tobytes()
    model = {k: bits(getattr(v.model, k)) for k in (
        "support_vectors", "dual_coeffs", "scaler_mean", "scaler_scale",
        "bias", "kernel_zeta", "cost_c")}
    return (v.claimed_id, v.method, v.snr_db, v.n_r, v.flags, model,
            {k: bits(a) for k, a in v.cut.items()})


def store_fields(store):
    return (store.radio_ids(),) + tuple(
        (a.dtype, a.shape, a.tobytes()) for a in (
            store._features, store._id_code, store._realization))


class TestCorruption:
    """A saved store or verifier with one flipped bit, or cut short, is
    refused with InvalidValue or loads exactly what was saved, and one with
    a byte prepended is refused; no other exception escapes."""

    FLIPS, STRIDE = 1000, 97

    def outcomes(self, path, load, fields):
        """Counts by (kind, outcome), and each refusal's message by
        (kind, position)."""
        data = path.read_bytes()
        want = fields(load(path))
        rng = np.random.default_rng(2018)
        bits = rng.integers(0, 8 * len(data), self.FLIPS)
        corrupt = ([("flip", bit) for bit in bits]
                   + [("cut", end) for end in range(0, len(data), self.STRIDE)]
                   + [("prepend", 1)])
        seen, why = Counter(), {}
        for kind, at in corrupt:
            bad = bytearray({"flip": data, "cut": data[:at],
                             "prepend": bytes(at) + data}[kind])
            if kind == "flip":
                bad[at // 8] ^= 1 << (at % 8)
            path.write_bytes(bytes(bad))
            try:
                got = fields(load(path))
            except InvalidValue as exc:
                seen[kind, "refused"] += 1
                why[kind, at] = str(exc)
                continue
            assert got == want, f"{kind} at {at} loaded changed content"
            seen[kind, "equal"] += 1
        return seen, why

    def test_store(self, tmp_path):
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        # The features member is written last: its data ends where the
        # central directory starts.
        with zipfile.ZipFile(path) as z:
            end = z.start_dir
            start = end - z.getinfo("features.npy").compress_size
        seen, why = self.outcomes(path, FingerprintStore.load, store_fields)
        assert seen["flip", "refused"] + seen["flip", "equal"] == self.FLIPS
        assert seen["cut", "equal"] == 0
        assert seen["prepend", "refused"] == 1
        # Every refusal names its reason, and a flip in the features data
        # names the CRC fault.
        assert all(re.search(r"store \(.+\); re-run", m) for m in why.values())
        in_features = [m for (kind, at), m in why.items()
                       if kind == "flip" and start <= at // 8 < end]
        assert in_features and all(
            "Bad CRC-32 for file 'features.npy'" in m for m in in_features)
        assert "offset 0" in why["prepend", 1]

    @pytest.mark.parametrize("method", ["relieff", "pca"])
    def test_verifier(self, tmp_path, method):
        path = tmp_path / "verifier.npz"
        small_verifier(method).save(path)
        seen, why = self.outcomes(path, Verifier.load, verifier_fields)
        assert seen["flip", "refused"] + seen["flip", "equal"] == self.FLIPS
        assert seen["cut", "equal"] == 0
        assert seen["prepend", "refused"] == 1
        # Every refusal names its reason and the command that remakes it.
        assert all(re.search(r"verifier \(.+\); re-run", m)
                   for m in why.values())
        assert "offset 0" in why["prepend", 1]


class TestArrayFile:
    """load_arrays on files whose every CRC holds but whose content is not
    a save_arrays file, and on one member flagged as encrypted."""

    def test_refuses_pickled_objects(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, x=np.array([{"a": 1}], dtype=object))
        with pytest.raises(InvalidValue, match="allow_pickle"):
            load_arrays(path)

    def test_refuses_unparsable_header(self, tmp_path):
        # A version-1.0 .npy header cut inside its shape tuple; numpy's
        # fallback parser raises tokenize.TokenError on it.
        head = b"{'descr': '<f8', 'fortran_order': False, 'shape': (3,"
        head += b" " * (53 - len(head)) + b"\n"
        path = tmp_path / "x.npz"
        with zipfile.ZipFile(path, "w") as z:
            z.writestr("x.npy", b"\x93NUMPY\x01\x00" + len(head).to_bytes(
                2, "little") + head + bytes(24))
        with pytest.raises(InvalidValue, match="TokenError"):
            load_arrays(path)

    def test_refuses_encrypted_member(self, tmp_path):
        path = tmp_path / "x.npz"
        save_arrays(path, x=np.arange(3))
        data = bytearray(path.read_bytes())
        data[data.index(b"PK\x01\x02") + 8] |= 1    # general-purpose flags
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidValue, match="encrypted"):
            load_arrays(path)

    def test_refuses_bytes_before_the_archive(self, tmp_path):
        # zipfile finds the members from the end record, so the prepended
        # byte alone would not stop it; the offset-0 header check does.
        path = tmp_path / "x.npz"
        save_arrays(path, x=np.arange(3))
        path.write_bytes(b"\0" + path.read_bytes())
        with pytest.raises(InvalidValue, match="no local file header at off"):
            load_arrays(path)

    @pytest.mark.parametrize("kind", ["arrays", "store", "verifier"])
    def test_refuses_a_local_header_before_the_archive(self, tmp_path, kind):
        # These bytes pass the offset-0 check, and zipfile shifts every
        # member offset by them, so only the central-directory offset in
        # the end record shows them.
        path = tmp_path / "x.npz"
        save, load = {
            "arrays": (lambda p: save_arrays(p, x=np.arange(3)), load_arrays),
            "store": (small_store().save, FingerprintStore.load),
            "verifier": (small_verifier().save, Verifier.load),
        }[kind]
        save(path)
        load(path)
        path.write_bytes(b"PK\x03\x04" + path.read_bytes())
        with pytest.raises(InvalidValue, match="central directory at"):
            load(path)

    def test_reads_the_zip64_end_record(self, tmp_path, monkeypatch):
        # An end record whose offset field is 0xFFFFFFFF defers to the zip64
        # end record; zipfile writes one past ZIP64_LIMIT.
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 10)
        path = tmp_path / "x.npz"
        save_arrays(path, x=np.arange(3))
        data = bytearray(path.read_bytes())
        assert data[-42:-38] == b"PK\x06\x07"       # zip64 locator
        data[-6:-2] = b"\xff" * 4
        path.write_bytes(bytes(data))
        assert np.array_equal(load_arrays(path)["x"], np.arange(3))
        path.write_bytes(b"PK\x03\x04" + data)
        with pytest.raises(InvalidValue, match="central directory at"):
            load_arrays(path)
