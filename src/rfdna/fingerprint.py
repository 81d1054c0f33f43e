"""RF-DNA fingerprint assembly and storage.

A fingerprint is 204 features: four statistics (standard deviation, variance,
skewness, kurtosis) for each of 50 time-frequency patches, plus the same four
computed over the whole normalized grid. Patches tile the centered 50
frequency columns of the 150 x 150 surface: 10 time blocks of 15 by 5
frequency blocks of 10.
"""

from __future__ import annotations

import itertools
import json
import os
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidValue, check_count

N_FEATURES = 204
GRID_SHAPE = (150, 150)
FREQ_LO, FREQ_HI = 50, 100   # centered occupied band
N_TIME_BLOCKS, N_FREQ_BLOCKS = 10, 5
PATCH_T, PATCH_F = 15, 10
N_PATCHES = N_TIME_BLOCKS * N_FREQ_BLOCKS

_VERSION = 4    # store file format


@dataclass
class Fingerprint:
    """One fingerprint row. Its SNR is not read, as a store holds one SNR,
    its maker's; the field stays only until the bench stops passing it."""

    features: np.ndarray
    radio_id: str = ""
    snr_db: float | None = None
    realization: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (N_FEATURES,):
            raise InvalidValue(f"fingerprint must have {N_FEATURES} features")
        if not np.all(np.isfinite(self.features)):
            raise InvalidValue("non-finite fingerprint features")
        if not isinstance(self.radio_id, str):
            raise InvalidValue(f"radio_id must be a string, got "
                               f"{self.radio_id!r}")
        # A store keeps realizations as u32.
        check_count("realization", self.realization, 0)
        if self.realization >= 2**32:
            raise InvalidValue(f"realization must be < 2**32, got "
                               f"{self.realization!r}")


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


def gen_fingerprint(tf: np.ndarray) -> Fingerprint:
    """Fingerprint of one :func:`rfdna.gabor.normalize_tf` grid: each
    patch's four moments in patch order, then the whole grid's."""
    vals = np.asarray(tf, dtype=np.float64)
    if vals.shape != GRID_SHAPE:
        raise InvalidValue(f"expected {GRID_SHAPE} grid, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise InvalidValue("non-finite grid values")
    region = vals[:, FREQ_LO:FREQ_HI]
    # (time_block, t, freq_block, f) -> (freq_block, time_block, cells)
    blocks = region.reshape(N_TIME_BLOCKS, PATCH_T, N_FREQ_BLOCKS, PATCH_F)
    blocks = blocks.transpose(2, 0, 1, 3).reshape(N_PATCHES, PATCH_T * PATCH_F)
    feats = _block_stats(blocks).ravel()
    global_feats = _block_stats(vals.reshape(1, -1))[0]
    return Fingerprint(np.concatenate([feats, global_feats]))


class FingerprintStore:
    """In-memory columnar fingerprint collection with binary persistence.

    Rows live in three whole columns (radio-id code, realization,
    features). A store holds one cohort at one SNR, its maker's (the SNR
    given to :func:`rfdna.harness.generate_dataset`; the CLI puts it in the
    file name), so no row records it. Reads through :meth:`select` are
    logged in ``access_log`` so a harness audit can prove no rogue-labeled
    rows were touched during training.
    """

    def __init__(self, radio_ids=(), id_code=(), realization=(),
                 features=()):
        """A store of whole columns: row ``i`` is ``features[i]`` of radio
        ``radio_ids[id_code[i]]`` at noise realization ``realization[i]``,
        all at the SNR of the store's maker. A column already of the store's
        dtype is kept, not copied."""
        self._code_of = {rid: i for i, rid in enumerate(radio_ids)}
        self._id_code = np.asarray(id_code, dtype=np.int64)
        self._realization = np.asarray(realization, dtype=np.int64)
        self._features = np.asarray(features, dtype=np.float64).reshape(
            -1, N_FEATURES)
        self.access_log: list[str] = []

    def __len__(self):
        return len(self._id_code)

    def add(self, fp: Fingerprint) -> None:
        """Append one row. Each call copies every column, so build more
        than a few rows as whole columns."""
        code = self._code_of.setdefault(fp.radio_id, len(self._code_of))
        self._features = np.concatenate([self._features, [fp.features]])
        self._id_code = np.append(self._id_code, code)
        self._realization = np.append(self._realization, int(fp.realization))

    def select(self, radio_id: str, realizations=None) -> np.ndarray:
        """Feature rows of one radio, optionally limited to realizations.
        Rows come back in insertion order."""
        self.access_log.append(radio_id)
        mask = self._id_code == self._code_of.get(radio_id, -1)
        if realizations is not None:
            mask &= np.isin(self._realization, list(realizations))
        return self._features[mask]

    def radio_ids(self) -> list[str]:
        return list(self._code_of)

    # -- persistence; ids go as JSON text, as `<U` arrays drop trailing NULs

    def save(self, path) -> None:
        save_arrays(path, version=_VERSION,
                    radio_ids=json.dumps(list(self._code_of)),
                    id_code=self._id_code.astype("<u4"),
                    realization=self._realization.astype("<u4"),
                    features=self._features.astype("<f8", copy=False))

    @classmethod
    def load(cls, path) -> "FingerprintStore":
        """The store at ``path``; :func:`load_checked` refuses a file that
        is not an intact version-4 store, an older store included."""
        def checks(d):
            ids = json.loads(d["radio_ids"].item())
            yield "distinct string ids", ids == [*dict.fromkeys(map(str, ids))]
            code, z, x = d["id_code"], d["realization"], d["features"]
            yield "column shapes", (code.shape == z.shape == (len(code),)
                                    and x.shape == (len(code), N_FEATURES))
            yield "u32 columns", code.dtype == z.dtype == np.uint32
            yield "known id codes", np.all(code < len(ids))
            yield "finite features", np.all(np.isfinite(x))

        return load_checked(path, "store", _VERSION, "fingerprint", checks,
                            lambda d: cls(json.loads(d["radio_ids"].item()),
                                          d["id_code"], d["realization"],
                                          d["features"]))


def save_arrays(path, **arrays) -> None:
    """Write ``arrays`` as one ``np.savez`` archive to a file beside ``path``,
    sync it to disk and move it onto ``path``: an interrupted save or a crash
    leaves the old file or the new one, never a truncated one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if os.name == "posix":      # make the rename itself durable
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_arrays(path) -> dict:
    """The arrays of a :func:`save_arrays` file by name, each member streamed
    from the file, its CRC-32 checked before numpy parses it. The file must
    hold nothing but the archive; any fault raises :class:`InvalidValue`."""
    try:
        with open(path, "rb") as f:
            head = f.read(4)
            f.seek(max(f.seek(0, os.SEEK_END) - 50, 0))
            tail = f.read()
            # zipfile skips bytes before the first member and after the end
            # record (written last, no comment); save_arrays writes neither
            if head != b"PK\x03\x04":
                raise zipfile.BadZipFile("no local file header at offset 0")
            if tail[-22:-18] != b"PK\x05\x06" or tail[-2:] != b"\0\0":
                raise zipfile.BadZipFile("bytes after the end record")
            # zipfile shifts offsets by bytes before the archive; 0xFFFFFFFF
            # defers to the zip64 end record, which ends at the 20-byte locator
            offset = int.from_bytes(tail[-6:-2], "little")
            if offset == 0xFFFFFFFF:
                offset = int.from_bytes(tail[-50:-42], "little")
            with zipfile.ZipFile(f) as z:
                if z.start_dir != offset:
                    raise zipfile.BadZipFile(f"central directory at "
                                             f"{z.start_dir}, end record "
                                             f"says {offset}")
                # zipfile checks a member's CRC at its last byte, which numpy
                # may never read: read every member to its end first
                for m in z.infolist():
                    with z.open(m) as member:
                        while member.read(1 << 20):
                            pass
                arrays = {}
                for m in z.infolist():
                    with z.open(m) as member:
                        arrays[m.filename.removesuffix(".npy")] = (
                            np.lib.format.read_array(member,
                                                     allow_pickle=False))
                return arrays
    except (OSError, EOFError, ValueError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile, zlib.error, tokenize.TokenError) as exc:
        raise InvalidValue(f"{path}: not a readable array file, {exc!r}"
                           ) from None


def load_checked(path, what: str, version: int, command: str, checks, build):
    """``build(arrays)`` of the :func:`save_arrays` file at ``path`` if it is
    an intact version-``version`` ``what``: its ``version`` member is read
    first, then ``checks(arrays)`` yields the format's named checks as
    ``(name, ok)``, in order. Any fault raises one :class:`InvalidValue`
    naming it and ``rfdna <command>``, which remakes the file."""
    try:
        d = load_arrays(path)
        v = d.get("version", np.empty(0))
        why = next((f"fails {name}" for name, ok in itertools.chain(
            [(f"version {version}", v.shape == () and v.item() == version)],
            checks(d)) if not ok), None)
        if why is None:
            return build(d)
    except InvalidValue as exc:
        why = str(exc).removeprefix(f"{path}: ")
    except (KeyError, TypeError, ValueError) as exc:
        why = repr(exc)
    raise InvalidValue(f"{path} is not an intact version-{version} {what} "
                       f"({why}); re-run `rfdna {command}`")
