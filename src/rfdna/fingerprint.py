"""RF-DNA fingerprint assembly and storage.

A fingerprint is 204 features: four statistics (standard deviation, variance,
skewness, kurtosis) for each of 50 time-frequency patches, plus the same four
computed over the whole normalized grid. Patches tile the centered 50
frequency columns of the 150 x 150 surface: 10 time blocks of 15 by 5
frequency blocks of 10.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidShape, InvalidValue
from .gabor import TimeFrequencyMatrix

N_FEATURES = 204
GRID_SHAPE = (150, 150)
FREQ_LO, FREQ_HI = 50, 100   # centered occupied band
N_TIME_BLOCKS, N_FREQ_BLOCKS = 10, 5
PATCH_T, PATCH_F = 15, 10
N_PATCHES = N_TIME_BLOCKS * N_FREQ_BLOCKS

_MAGIC = b"RFDN"
_VERSION = 2


@dataclass
class PatchGrid:
    """Ordered list of (t0, t1, f0, f1) half-open index regions."""

    patches: list[tuple[int, int, int, int]]


@dataclass
class Fingerprint:
    features: np.ndarray
    radio_id: str = ""
    snr_db: float | None = None
    realization: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (N_FEATURES,):
            raise InvalidShape(
                f"fingerprint must have {N_FEATURES} features"
            )
        if not np.all(np.isfinite(self.features)):
            raise InvalidValue("non-finite fingerprint features")
        if not isinstance(self.radio_id, str):
            raise InvalidValue(f"radio_id must be a string, got "
                               f"{self.radio_id!r}")
        # A store keeps realizations as u32.
        z = self.realization
        if (not isinstance(z, numbers.Integral) or isinstance(z, bool)
                or not 0 <= z < 2**32):
            raise InvalidValue(f"realization must be an integer in "
                               f"[0, 2**32), got {z!r}")


def tile_patches(tf: TimeFrequencyMatrix) -> PatchGrid:
    """Tile the centered occupied band into 50 disjoint 15 x 10 patches.

    Patch order is time-major within each frequency block row (scan time
    left to right, then step up in frequency)."""
    if tf.values.shape != GRID_SHAPE:
        raise InvalidShape(f"expected {GRID_SHAPE} grid, got {tf.values.shape}")
    patches = []
    for fb in range(N_FREQ_BLOCKS):
        f0 = FREQ_LO + fb * PATCH_F
        for tb in range(N_TIME_BLOCKS):
            t0 = tb * PATCH_T
            patches.append((t0, t0 + PATCH_T, f0, f0 + PATCH_F))
    return PatchGrid(patches=patches)


def patch_stats(cells) -> tuple[float, float, float, float]:
    """Population moments of one cell vector: (sigma, variance, skewness,
    kurtosis). Kurtosis is non-excess. A constant vector maps to all zeros."""
    x = np.asarray(cells, dtype=np.float64).ravel()
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite cell values")
    if x.size == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return tuple(float(v) for v in _block_stats(x[None])[0])


def _block_stats(blocks: np.ndarray) -> np.ndarray:
    """(sigma, var, skew, kurt) of each row of an (n, cells) array; a
    constant row maps to all zeros."""
    mu = blocks.mean(axis=1, keepdims=True)
    d = blocks - mu
    var = np.mean(d**2, axis=1)
    nz = (var > 0.0) & ~np.all(blocks == blocks[:, :1], axis=1)
    sd = np.sqrt(var)
    # Every row's moments, then zeros on the constant rows (whose 0/0 the
    # mask discards), so no row is copied out.
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(nz, np.mean(d**3, axis=1) / sd**3, 0.0)
        kurt = np.where(nz, np.mean(d**4, axis=1) / var**2, 0.0)
    sd = np.where(nz, sd, 0.0)
    var = np.where(nz, var, 0.0)
    return np.column_stack([sd, var, skew, kurt])


def gen_fingerprint(tf: TimeFrequencyMatrix, radio_id: str = "",
                    snr_db: float | None = None,
                    realization: int = 0) -> Fingerprint:
    if tf.values.shape != GRID_SHAPE:
        raise InvalidShape(f"expected {GRID_SHAPE} grid, got {tf.values.shape}")
    vals = tf.values
    if not np.all(np.isfinite(vals)):
        raise InvalidValue("non-finite grid values")
    region = vals[:, FREQ_LO:FREQ_HI]
    # (time_block, t, freq_block, f) -> (freq_block, time_block, cells)
    blocks = region.reshape(N_TIME_BLOCKS, PATCH_T, N_FREQ_BLOCKS, PATCH_F)
    blocks = blocks.transpose(2, 0, 1, 3).reshape(N_PATCHES, PATCH_T * PATCH_F)
    feats = _block_stats(blocks).ravel()
    global_feats = _block_stats(vals.reshape(1, -1))[0]
    return Fingerprint(
        features=np.concatenate([feats, global_feats]),
        radio_id=radio_id, snr_db=snr_db, realization=realization,
    )


class FingerprintStore:
    """In-memory columnar fingerprint collection with binary persistence.

    Rows live in four columns (features, radio-id code, SNR, realization);
    :meth:`add` queues rows that the next read appends to the columns. Reads
    through :meth:`select` are logged in ``access_log`` so a harness audit can
    prove no rogue-labeled rows were touched during training.
    """

    def __init__(self):
        self._code_of: dict[str, int] = {}     # radio id -> code, first seen
        self._pending: list[Fingerprint] = []
        self._features = np.empty((0, N_FEATURES))
        self._id_code = np.empty(0, dtype=np.int64)
        self._snr_db = np.empty(0)              # NaN: no SNR recorded
        self._realization = np.empty(0, dtype=np.int64)
        self.access_log: list[str] = []

    def __len__(self):
        return len(self._id_code) + len(self._pending)

    def add(self, fp: Fingerprint) -> None:
        self._code_of.setdefault(fp.radio_id, len(self._code_of))
        self._pending.append(fp)

    def _flush(self) -> None:
        if not self._pending:
            return
        new, self._pending = self._pending, []
        self._features = np.concatenate(
            [self._features, [fp.features for fp in new]])
        self._id_code = np.concatenate(
            [self._id_code, [self._code_of[fp.radio_id] for fp in new]])
        self._snr_db = np.concatenate([self._snr_db, [
            np.nan if fp.snr_db is None else float(fp.snr_db) for fp in new]])
        self._realization = np.concatenate(
            [self._realization, [int(fp.realization) for fp in new]])

    def select(self, radio_id: str, realizations=None) -> np.ndarray:
        """Feature rows of one radio, optionally limited to realizations.
        Rows come back in insertion order."""
        self.access_log.append(radio_id)
        self._flush()
        mask = self._id_code == self._code_of.get(radio_id, -1)
        if realizations is not None:
            mask &= np.isin(self._realization, list(realizations))
        return self._features[mask]

    def radio_ids(self) -> list[str]:
        return list(self._code_of)

    # -- persistence --------------------------------------------------------
    #
    # Layout (little-endian): magic, then version, feature count, row count
    # and radio-id count as u32, then the radio-id table (u32 byte length +
    # UTF-8 per id, in code order), then one block per column: id code (u32),
    # SNR (f8, NaN when none), realization (u32), features (f8, row-major).

    def save(self, path) -> None:
        self._flush()
        out = [_MAGIC, struct.pack("<IIII", _VERSION, N_FEATURES, len(self),
                                   len(self._code_of))]
        for rid in self._code_of:
            raw = rid.encode("utf-8")
            out += [struct.pack("<I", len(raw)), raw]
        out += [self._id_code.astype("<u4").tobytes(),
                self._snr_db.astype("<f8").tobytes(),
                self._realization.astype("<u4").tobytes(),
                self._features.astype("<f8").tobytes()]
        # A temporary file beside the target is moved onto it, so an
        # interrupted save leaves the old store or none, never part of one.
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(b"".join(out))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "FingerprintStore":
        buf = Path(path).read_bytes()
        if buf[:4] != _MAGIC or len(buf) < 20:
            raise InvalidValue("not a fingerprint store file")
        version, n_f, count, n_ids = struct.unpack_from("<IIII", buf, 4)
        if version != _VERSION or n_f != N_FEATURES:
            raise InvalidValue("unsupported store version or feature count")
        off, ids = 20, []
        try:
            for _ in range(n_ids):
                (size,) = struct.unpack_from("<I", buf, off)
                ids.append(buf[off + 4:off + 4 + size].decode("utf-8"))
                off += 4 + size
        except (struct.error, UnicodeDecodeError):
            raise InvalidValue("unreadable radio-id table") from None
        expected = off + count * (16 + 8 * N_FEATURES)
        if len(buf) != expected:
            raise InvalidValue(f"store file has {len(buf)} bytes, its header "
                               f"implies {expected}")
        columns = []
        for dtype, width in (("<u4", 1), ("<f8", 1), ("<u4", 1),
                             ("<f8", N_FEATURES)):
            col = np.frombuffer(buf, dtype=dtype, count=count * width,
                                offset=off)
            columns.append(col)
            off += col.nbytes
        code, snr, realization, features = columns
        if len(set(ids)) != n_ids or np.any(code >= n_ids):
            raise InvalidValue("radio-id table does not match the id column")
        if not np.all(np.isfinite(features)):
            raise InvalidValue("non-finite features in the store")
        store = cls()
        store._code_of = {rid: i for i, rid in enumerate(ids)}
        store._id_code = code.astype(np.int64)
        store._snr_db = snr.astype(np.float64)
        store._realization = realization.astype(np.int64)
        store._features = features.reshape(count, N_FEATURES).astype(
            np.float64)
        return store
