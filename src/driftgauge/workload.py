"""Embedding-set storage, subsampling and moment summaries.

All workload data enters the descriptor kernels through this module.  Sets
are stored on disk as ``.fsemb`` files: a fixed binary header followed by the
row-major float32 payload.  Saving also writes a ``.fsemb.json`` sidecar for
people and other tools: the shape and dtype, written from the array, plus
how the rows were pooled and where they came from.  Loading never reads it;
the header alone defines the set.

File layout (little-endian):

    magic   8 bytes  b"FSEMB\\0\\0\\0"
    version u32      currently 1
    count   u64      number of rows
    dim     u32      embedding dimension
    dtype   u8       1 = float32
    payload count * dim * 4 bytes of float32, row-major
"""

from __future__ import annotations

import json
import os
import stat
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    IoFailure,
    MissingFile,
    NonFiniteValue,
    SizeExceedsPopulation,
    TruncatedPayload,
)
from .seeding import rng_for

MAGIC = b"FSEMB\x00\x00\x00"
VERSION = 1
_F32_CODE = 1  # the header's dtype byte; float32 is the only dtype
_HEADER = struct.Struct("<8sIQIB")

# The sidecar's created_at: a fixed placeholder keeps artifact bytes
# reproducible.
EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

DEFAULT_VARIANCE_FLOOR = 1e-8

# Kernels work on blocks of about 256 KiB (float64 rows, float32 rows in the
# centred projection, or raw bytes when comparing sets): big enough that
# per-block overhead vanishes, small enough that no kernel holds an n x D
# float64 copy, and that a block, its float32 rows and the GEMM's packed
# copy of it stay in L2.  On a 2-core Xeon with 2 MiB of L2 per core,
# projecting 20000 x 1024 rows onto 8 slices in float64 took 35 ms in
# 256-512 KiB blocks against 53 ms in 1 MiB ones.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class EmbeddingSet:
    """An n x D matrix of pooled representation vectors; the array is the
    whole set, shape (``n``, ``dim``) included.

    Immutable after construction; safe for concurrent reads.  Values
    derived from the set are memoized on it (see ``_memo``), so a source
    kept resident across many targets pays for them once.
    ``data`` is held as a C-contiguous, aligned float32 array, so BLAS can
    take it as is.  Such an array is not copied, only made read-only; any
    other array (another dtype, a strided view, a misaligned buffer) is
    copied once.  The caller must not write to an array it handed over
    (say, after setting the write flag again): the memo trusts it.
    Values must be finite; NaN or Inf raises ``NonFiniteValue`` at its
    first cell, while any finite float32, up to +-3.4e38, is accepted.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.require(np.asarray(self.data, np.float32), requirements=["C", "A"])
        if data.ndim != 2:
            raise ValueError("data must be a 2-D matrix")
        if data.size == 0:
            raise ValueError("need at least one row and one column")
        # Two cheap reductions screen for NaN/Inf (NaN propagates through
        # both); only on failure is the full scan run to locate the cell.
        # They are tested apart: the sum of two finite extremes can overflow.
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            bad = np.argwhere(~np.isfinite(data))
            raise NonFiniteValue(int(bad[0, 0]), int(bad[0, 1]))
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MomentSummary:
    """Element-wise mean and floored population variance of one set."""

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        var = np.asarray(self.var, dtype=np.float64)
        if mean.ndim != 1 or var.shape != mean.shape:
            raise ValueError("mean/var must be equal-length vectors")
        if self.count < 1:
            raise ValueError("count must be positive")
        if np.any(var <= 0):
            raise ValueError("variances must be positive (floor applied at construction)")
        mean.setflags(write=False)
        var.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)


def save_embedding_set(es: EmbeddingSet, path: str | os.PathLike,
                       pooling: str = "unspecified", source_id: str = "") -> None:
    """Write the binary file plus its JSON sidecar, atomically.

    ``load_embedding_set(save path)`` reproduces the payload bit-exactly.
    The header and the sidecar's ``count``, ``dim`` and ``dtype`` come from
    the array; ``pooling`` and ``source_id`` only describe the rows, and
    ``created_at`` is always ``EPOCH_TIMESTAMP``.  Nothing reads them back.
    """
    path = os.fspath(path)
    header = _HEADER.pack(MAGIC, VERSION, es.n, es.dim, _F32_CODE)
    payload = es.data.astype("<f4", copy=False).tobytes(order="C")
    side = {"count": es.n, "dim": es.dim, "dtype": "f32", "pooling": pooling,
            "source_id": source_id, "created_at": EPOCH_TIMESTAMP}
    sidecar = json.dumps(side, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, header + payload)
    _atomic_write(path + ".json", sidecar.encode("utf-8"))


def load_embedding_set(path: str | os.PathLike) -> EmbeddingSet:
    """Read a ``.fsemb`` file, verifying header, length, and finiteness.

    The header is checked first: magic, version, dtype, at least one row
    and one column, and a payload size that matches the file's.  Only then
    is the (count, dim) array allocated, so a header that claims more rows
    than the file holds fails without allocating.  The payload is read
    straight into that array, which is aligned, unlike a view at the
    25-byte header offset, so BLAS kernels take it without a copy.  The
    sidecar is not opened.  Every bad file raises a ``DriftGaugeError``.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise BadMagic(f"{path}: file shorter than header")
            magic, version, count, dim, code = _HEADER.unpack(head)
            if magic != MAGIC:
                raise BadMagic(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise BadMagic(f"{path}: unsupported version {version}")
            if code != _F32_CODE:
                raise BadMagic(f"{path}: unknown dtype code {code}")
            if count < 1 or dim < 1:
                raise BadMagic(f"{path}: header claims an empty {count}x{dim} set")
            expected = count * dim * 4
            got = os.fstat(fh.fileno()).st_size - _HEADER.size
            if got != expected:
                raise TruncatedPayload(f"{path}: payload {got} bytes, expected {expected}")
            data = np.empty((count, dim), dtype="<f4")
            read = fh.readinto(memoryview(data).cast("B"))
    except OSError as exc:
        raise _read_failure(path, exc) from exc
    if read != expected:
        raise TruncatedPayload(f"{path}: read {read} payload bytes, expected {expected}")
    return EmbeddingSet(data)


def _read_file(path: str) -> bytes:
    """The bytes of the regular file at ``path``.  Anything else there is
    MissingFile, tested on the file as opened, without blocking, so that the
    test cannot race with the open: a device such as /dev/zero would be read
    without end, and opening a FIFO would wait for a writer.  An OSError is
    mapped by :func:`_read_failure`."""
    try:
        with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return fh.read()
    except OSError as exc:
        raise _read_failure(path, exc) from exc
    raise MissingFile(path)


def _read_failure(path: str, exc: OSError) -> MissingFile | IoFailure:
    """The typed error for an OSError met opening or reading ``path``: no
    file to read there (not found, a directory, or a path under a file) is
    MissingFile; any other, such as EIO, is IoFailure."""
    if isinstance(exc, (FileNotFoundError, IsADirectoryError, NotADirectoryError)):
        return MissingFile(path)
    return IoFailure(f"cannot read {path}: {exc}")


def _atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` to a temp file beside ``path``, then rename it over
    ``path``.  Any OSError, such as a missing directory or a ``path`` that is
    a directory, is IoFailure, and leaves no temp file behind."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def moments(es: EmbeddingSet, variance_floor: float = DEFAULT_VARIANCE_FLOOR) -> MomentSummary:
    """Element-wise mean and population variance (divide by n), floored.

    The floor guards downstream whitening against zero-variance coordinates.
    Two passes over float64 row blocks: the mean, then the centered sum of
    squares.  The summary is memoized on ``es`` per floor (see ``_memo``),
    so a later call on the same set returns the same object.
    """
    if variance_floor <= 0:
        raise ValueError("variance_floor must be positive")
    return _moments(es, variance_floor)


def _moments(es: EmbeddingSet, variance_floor: float) -> MomentSummary:
    """``moments`` for a floor already checked: the memo lookup and the two
    passes.  ``descriptors.compute_delta`` calls it from its second thread,
    where no public function may run."""
    memo = _memo(es)
    key = ("moments", variance_floor)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = np.zeros(es.dim)
    for block in _float64_blocks(es.data):
        total += block.sum(axis=0)
    mean = total / es.n
    sq = np.zeros(es.dim)
    for block in _float64_blocks(es.data):
        block -= mean
        block *= block
        sq += block.sum(axis=0)
    var = np.maximum(sq / es.n, variance_floor)
    return memo.setdefault(key, MomentSummary(mean=mean, var=var, count=es.n))


def _memo(es: EmbeddingSet) -> dict:
    """The set's memo of values derived from its data, one dict per set.

    It lives in the instance dict, outside the dataclass fields, so
    equality, repr and construction are unchanged, every new set (a
    subsample, a reload, a second set over the same array) starts empty,
    and the memo is freed with the set.  Entries hold no reference to any
    set.  It trusts that ``data`` is never written.  Concurrent readers are
    safe: two threads may both compute a missing entry, and both get equal
    values.  Two writers can run at once on one target:
    ``descriptors.compute_delta``'s second thread adds the target's
    moments through ``_moments`` while the calling thread adds its basis
    through ``hybrid_swd``; each ``setdefault`` and item assignment is one
    atomic dict operation, and the two write different keys.  Keys:

    * ``("moments", floor)``: the ``MomentSummary`` from ``moments``;
    * ``("curves", fixed-row bytes, Q)``: ``(centre, curves)``, the set's
      mean cast to float32 and its (l, Q) quantile curves on a basis's
      fixed slices, from ``descriptors._source_curves``;
    * ``("basis", cfg)``: ``(source array, basis)``, the slice basis that
      ``descriptors.hybrid_swd`` built with this set as the target, valid
      while the source is that very array.
    """
    return es.__dict__.setdefault("_memo", {})


def _float64_blocks(x: np.ndarray):
    """Consecutive row blocks of a 2-D float32 matrix, each a fresh float64
    copy of at most ``_BLOCK_BYTES`` (at least one row) that callers may
    overwrite."""
    rows = max(1, _BLOCK_BYTES // (8 * x.shape[1]))
    for start in range(0, x.shape[0], rows):
        yield x[start : start + rows].astype(np.float64)


def subsample(es: EmbeddingSet, size: int, seed: int) -> EmbeddingSet:
    """Draw ``size`` rows without replacement, deterministically per seed."""
    if not 1 <= size <= es.n:
        raise SizeExceedsPopulation(f"requested {size} rows from a set of {es.n}")
    idx = rng_for(seed).choice(es.n, size=size, replace=False)
    return EmbeddingSet(es.data[idx])


def check_same_dim(a_dim: int, b_dim: int, what: str) -> None:
    if a_dim != b_dim:
        raise DimensionMismatch(f"{what}: {a_dim} vs {b_dim}")
