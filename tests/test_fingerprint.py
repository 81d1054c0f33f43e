import errno
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rfdna import fingerprint
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
from rfdna.gabor import TimeFrequencyMatrix, dgt, normalize_tf
from rfdna.harness import default_cohort
from rfdna.signals import ComplexBurst, add_awgn, butterworth_filter, synth_burst

from oracles import block_stats_masked, moments_extended, moments_scalar

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

    def test_matches_scalar_float64_moments(self):
        # Array and scalar powers may round sd**3 differently (numpy's SIMD
        # pow against libm's), so the two agree to a few ulps, not bitwise.
        for _ in range(40):
            x = RNG.random(GRID_SHAPE) ** 3
            np.testing.assert_allclose(patch_stats(x), moments_scalar(x),
                                       rtol=1e-15, atol=0)

    def test_constant_patch_is_all_zero(self):
        assert patch_stats(np.full(150, 0.37)) == (0.0, 0.0, 0.0, 0.0)
        assert patch_stats([]) == (0.0, 0.0, 0.0, 0.0)

    def test_known_values(self):
        # Symmetric two-point mass: sd = 1, skew = 0, kurtosis = 1.
        assert np.allclose(patch_stats([1.0, -1.0]), (1.0, 1.0, 0.0, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidValue):
            patch_stats([1.0, np.nan])


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
        assert np.array_equal(fp.features[-4:], patch_stats(tf.values))

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
        for rid in store.radio_ids():
            assert np.array_equal(store.select(rid), back.select(rid))
        assert back.radio_ids() == store.radio_ids()
        # SNR None round-trips through the NaN sentinel of the SNR column.
        assert np.array_equal(back._snr_db[:6], [21.0] * 6)
        assert np.isnan(back._snr_db[6:]).all()

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

    @pytest.mark.parametrize("old", [True, False], ids=["old", "none"])
    def test_interrupted_save_leaves_the_old_store(self, tmp_path,
                                                   monkeypatch, old):
        path = tmp_path / "store.rfdn"
        if old:
            small_store().save(path)
        before = path.read_bytes() if old else None
        write_bytes = Path.write_bytes

        def fail_partway(self, data):
            write_bytes(self, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", fail_partway)
        with pytest.raises(OSError):
            small_store().save(path)
        monkeypatch.undo()
        assert (path.read_bytes() if old else None) == before
        assert list(tmp_path.iterdir()) == ([path] if old else [])

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
        buf = path.read_bytes()
        # The features block ends the file: make the last feature NaN.
        path.write_bytes(buf[:-8] + np.array([np.nan], "<f8").tobytes())
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


@st.composite
def stores(draw):
    """Stores of up to 8 rows over up to 4 unicode ids (the empty id and the
    empty store included), with any SNR (None, NaN and infinities
    included) and any realization the u32 column holds."""
    ids = draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=6),
                        min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.none() | st.floats(),
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
        for column in ("_features", "_id_code", "_snr_db", "_realization"):
            assert same_bits(getattr(back, column), getattr(store, column))
        for rid in store.radio_ids() + ["not in the store"]:
            assert same_bits(back.select(rid), store.select(rid))
            for z in set(store._realization.tolist()):
                assert same_bits(back.select(rid, [z]),
                                 store.select(rid, [z]))
