"""Version-independent vectorized 64-bit hashing.

``stages/exchange.py`` buckets every keyed exchange (joins, keyed dedup,
windows, group aggregates) with ``hash64``, and HLL register merges use
it too: every worker MUST compute the same hash for the same key, or
keyed reduces silently drop/duplicate rows with no error. Library
hashes (polars ``Series.hash``, pandas ``hash_array``) are documented
as unstable across library versions and may be absent on a
misconfigured worker — so the hash is pinned here to a pure-numpy
implementation defined entirely by this file:

  - bytes/strings: polynomial byte hash (FNV-prime base, arithmetic mod
    2^64 via natural uint64 wraparound) + length mix + splitmix64
    finalizer. Fully vectorized over the Arrow offsets/data buffers —
    no per-row Python, no object-array round trip.
  - integers: splitmix64 of the 64-bit pattern.

No optional dependency, no version drift, identical on every worker by
construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM1 = np.uint64(0xBF58476D1CE4E5B9)
_SM2 = np.uint64(0x94D049BB133111EB)
_BASE = np.uint64(0x100000001B3)          # FNV-1a prime as polynomial base
_NULL_SENTINEL = np.uint64(0x9E6C63D0876A9A47)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (full avalanche on uint64)."""
    x = np.asarray(x, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _SM1
        x ^= x >> np.uint64(27)
        x *= _SM2
        x ^= x >> np.uint64(31)
    return x


def _hash_large_binary(arr: pa.Array) -> np.ndarray:
    """(n,) uint64 polynomial hash of a large_binary Array, vectorized.

    h(row) = splitmix64( sum_i byte[i] * BASE^(len-1-i)  ^  len*GOLDEN )
    with all arithmetic mod 2^64 (uint64 wraparound).
    """
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                         count=n + 1, offset=arr.offset * 8)
    lengths = np.diff(offs)
    total = int(offs[-1] - offs[0])
    if total:
        # the rows' bytes are one contiguous run of the data buffer
        b = np.frombuffer(arr.buffers()[2], dtype=np.uint8, count=total,
                          offset=int(offs[0])).astype(np.uint64)
        maxlen = int(lengths.max())
        pows = np.empty(maxlen, dtype=np.uint64)
        pows[0] = 1
        if maxlen > 1:
            with np.errstate(over="ignore"):
                np.cumprod(np.full(maxlen - 1, _BASE, dtype=np.uint64),
                           out=pows[1:])
        # byte p of a row ending at e (exclusive) weighs BASE^(e-1-p)
        exp = (np.repeat(offs[1:] - offs[0] - 1, lengths)
               - np.arange(total, dtype=np.int64))
        with np.errstate(over="ignore"):
            terms = b * pows[exp]
        # reduceat quirk: an index pair (i, i) returns a[i], and an index
        # == len(a) is invalid — clamp, then zero out empty rows after.
        idx = np.minimum(offs[:-1] - offs[0], total - 1)
        sums = np.add.reduceat(terms, idx)
        sums[lengths == 0] = 0
    else:
        sums = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = sums ^ (lengths.astype(np.uint64) * _GOLDEN)
    out = splitmix64(mixed)
    if arr.null_count:
        mask = arr.is_null().to_numpy(zero_copy_only=False)
        out[mask] = splitmix64(np.array([_NULL_SENTINEL]))[0]
    return out


def hash64(values) -> np.ndarray:
    """Stable uint64 hash of a pyarrow Array/ChunkedArray, numpy array or
    list of ints/strings/bytes. Identical in every process and library
    version — defined entirely by this module."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        t = values.type
        if pa.types.is_integer(t):
            nulls = values.null_count
            filled = values.fill_null(0) if nulls else values
            v = filled.to_numpy(zero_copy_only=False)
            if v.dtype.kind == "u":
                h = splitmix64(v.astype(np.uint64))
            else:
                h = splitmix64(v.astype(np.int64).view(np.uint64))
            if nulls:
                mask = values.is_null().to_numpy(zero_copy_only=False)
                h[mask] = splitmix64(np.array([_NULL_SENTINEL]))[0]
            return h
        if (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)
                or pa.types.is_fixed_size_binary(t)):
            return _hash_large_binary(values.cast(pa.large_binary()))
        return _hash_large_binary(
            values.cast(pa.string()).cast(pa.large_binary()))
    a = np.asarray(values)
    if a.dtype.kind == "u":
        return splitmix64(a.astype(np.uint64))
    if a.dtype.kind == "i":
        return splitmix64(a.astype(np.int64).view(np.uint64))
    return hash64(pa.array(values))


def md5_hex(values: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Lowercase md5 hex digest per string/binary element — the
    ORACLE-pinned content hash (DuckDB ``md5(text)``). Digests hash the
    utf-8 bytes straight off the Arrow offsets/data buffers via
    memoryview slices (hashlib is C; no per-row str materialization).
    Null in -> null out, matching SQL md5(NULL)."""
    import hashlib

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    col = values.cast(pa.large_binary())
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64,
                         count=len(col) + 1, offset=col.offset * 8)
    data = memoryview(col.buffers()[2]) if col.buffers()[2] else memoryview(b"")
    out = [hashlib.md5(data[offs[i]:offs[i + 1]]).hexdigest()
           for i in range(len(col))]
    if col.null_count:
        mask = col.is_null().to_pylist()
        out = [None if m else h for h, m in zip(out, mask)]
    return pa.array(out, pa.string())
