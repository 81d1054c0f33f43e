import numpy as np
import pytest

from rfdna.errors import InvalidShape, InvalidValue
from rfdna.fingerprint import (
    FREQ_HI,
    FREQ_LO,
    GRID_SHAPE,
    N_FEATURES,
    N_PATCHES,
    Fingerprint,
    FingerprintStore,
    gen_fingerprint,
    patch_stats,
    tile_patches,
)
from rfdna.gabor import TimeFrequencyMatrix

from oracles import moments_extended

RNG = np.random.default_rng(77)


def random_tf():
    return TimeFrequencyMatrix(values=RNG.random(GRID_SHAPE))


class TestTiling:
    def test_fifty_disjoint_covering_patches(self):
        grid = tile_patches(random_tf())
        assert len(grid.patches) == N_PATCHES == 50
        cover = np.zeros(GRID_SHAPE, dtype=int)
        for t0, t1, f0, f1 in grid.patches:
            assert (t1 - t0) * (f1 - f0) == 150
            cover[t0:t1, f0:f1] += 1
        assert np.all(cover[:, FREQ_LO:FREQ_HI] == 1)
        assert np.all(cover[:, :FREQ_LO] == 0)
        assert np.all(cover[:, FREQ_HI:] == 0)

    def test_order_time_major_within_freq_rows(self):
        patches = tile_patches(random_tf()).patches
        assert patches[0] == (0, 15, 50, 60)
        assert patches[1] == (15, 30, 50, 60)
        assert patches[10] == (0, 15, 60, 70)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidShape):
            tile_patches(TimeFrequencyMatrix(values=np.zeros((100, 150))))


class TestPatchStats:
    def test_matches_extended_precision_oracle(self):
        for _ in range(20):
            x = RNG.random(150) ** 2
            got = np.array(patch_stats(x))
            want = np.array(moments_extended(x))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_constant_patch_is_all_zero(self):
        assert patch_stats(np.full(150, 0.37)) == (0.0, 0.0, 0.0, 0.0)

    def test_known_values(self):
        # Symmetric two-point mass: sd = 1, skew = 0, kurtosis = 1.
        assert np.allclose(patch_stats([1.0, -1.0]), (1.0, 1.0, 0.0, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidValue):
            patch_stats([1.0, np.nan])


class TestGenFingerprint:
    def test_shape_and_patch_agreement(self):
        tf = random_tf()
        fp = gen_fingerprint(tf, radio_id="R01", snr_db=21.0, realization=3)
        assert fp.features.shape == (N_FEATURES,)
        assert (fp.radio_id, fp.snr_db, fp.realization) == ("R01", 21.0, 3)
        for p, (t0, t1, f0, f1) in enumerate(tile_patches(tf).patches):
            want = patch_stats(tf.values[t0:t1, f0:f1])
            assert np.allclose(fp.features[4 * p:4 * p + 4], want,
                               rtol=0, atol=1e-12)
        assert np.allclose(fp.features[-4:], patch_stats(tf.values),
                           rtol=0, atol=1e-12)

    def test_constant_region_yields_zero_block(self):
        vals = RNG.random(GRID_SHAPE)
        vals[0:15, 50:60] = 0.5
        fp = gen_fingerprint(TimeFrequencyMatrix(values=vals))
        assert np.array_equal(fp.features[0:4], np.zeros(4))

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidShape):
            gen_fingerprint(TimeFrequencyMatrix(values=np.zeros((10, 10))))
        bad = RNG.random(GRID_SHAPE)
        bad[3, 3] = np.inf
        with pytest.raises(InvalidValue):
            gen_fingerprint(TimeFrequencyMatrix(values=bad))

    def test_fingerprint_length_enforced(self):
        with pytest.raises(InvalidShape):
            Fingerprint(features=np.zeros(203))


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
        for rid in store.radio_ids():
            assert np.array_equal(store.select(rid), back.select(rid))
        assert back.radio_ids() == store.radio_ids()
        # SNR None round-trips through the NaN sentinel of the SNR column.
        assert np.array_equal(back._snr_db[:6], [21.0] * 6)
        assert np.isnan(back._snr_db[6:]).all()

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

    def test_load_rejects_version_1(self, tmp_path):
        path = tmp_path / "store.rfdn"
        small_store().save(path)
        buf = bytearray(path.read_bytes())
        buf[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(buf))
        with pytest.raises(InvalidValue):
            FingerprintStore.load(path)

    def test_add_after_load_appends(self, tmp_path):
        store = small_store()
        path = tmp_path / "store.rfdn"
        store.save(path)
        back = FingerprintStore.load(path)
        row = RNG.random(N_FEATURES)
        back.add(Fingerprint(features=row, radio_id="R03", realization=1))
        back.add(Fingerprint(features=row, radio_id="R01", realization=0))
        assert len(back) == len(store) + 2
        assert back.radio_ids() == ["R01", "R02", "R03"]
        assert np.array_equal(back.select("R03"), row[None, :])
        assert np.array_equal(back.select("R01", [0])[-1], row)
