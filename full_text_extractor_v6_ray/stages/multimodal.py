"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video travel as ``binary`` columns with a ``media_type``
string and a metadata struct; decode / feature-extract / resize /
frame-sample run as task ``map_batches`` stages with SMALL batch
sizes (binary rows are wide — SURVEY.md §4.2).

Image decode is REAL for PNG and uncompressed BMP (and WAV for audio)
via the in-repo pure-stdlib codecs (``extractor/codecs.py`` — zlib
inflate + unfilter, RIFF walk; no PIL/ffmpeg needed). The deterministic
FAKEIMG/FAKEVID/FAKEAUD containers remain as the synthetic-fixture path
(and stand in for formats whose codecs the sandbox genuinely lacks:
JPEG, compressed video). Anything undecodable lands on the error column
(degradation principle, same as the extractor).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from ..extractor import codecs as _codecs

FAKEIMG_MAGIC = b"FAKEIMG1"


def make_fake_image(width: int, height: int, channels: int = 3,
                    seed: int = 0) -> bytes:
    """Deterministic synthetic image payload in the FAKEIMG container."""
    rng = np.random.RandomState(seed & 0x7FFFFFFF)
    body = rng.randint(0, 256, size=width * height * channels,
                       dtype=np.int64).astype(np.uint8).tobytes()
    return FAKEIMG_MAGIC + struct.pack("<HHB", width, height, channels) + body


def _decode_fake(payload: bytes):
    if not payload.startswith(FAKEIMG_MAGIC):
        raise ValueError("not a FAKEIMG payload")
    w, h, c = struct.unpack_from("<HHB", payload, len(FAKEIMG_MAGIC))
    body = np.frombuffer(payload, dtype=np.uint8,
                         offset=len(FAKEIMG_MAGIC) + 5)
    expected = w * h * c
    if len(body) < expected:
        raise ValueError("truncated FAKEIMG body")
    return body[:expected].reshape(h, w, c)


# ---------------------------------------------------------------------------
# Native-codec seam (round-4 verdict item 6). The pure-Python JPEG
# kernel is the honest 100 TB bottleneck (~0.24-2.3 MPix/s/core); the
# day the environment gains libjpeg-turbo/PIL/cv2, registering a
# native decoder here swaps the hot kernel WITHOUT touching any stage:
# ``decode_image_payload`` consults the registry first and falls back
# to the in-repo codecs on any native error. Registration is always
# explicit: a decoder must return the same pixels as the pure codec
# (RGB/RGBA, not palette indices), and JPEG IDCT rounding is not
# bit-specified across decoders while the repo's oracles pin exact
# pixel stats.
# ---------------------------------------------------------------------------

_NATIVE_DECODERS: dict = {}


def register_native_decoder(fmt: str, fn) -> None:
    """Register ``fn(payload) -> uint8 ndarray`` as the preferred
    decoder for ``fmt`` in {'png','bmp','gif','jpeg'}."""
    _NATIVE_DECODERS[fmt] = fn


def unregister_native_decoder(fmt: str) -> None:
    _NATIVE_DECODERS.pop(fmt, None)


_PURE_DECODERS = {
    "png": lambda p: _codecs.png_decode(p),
    "bmp": lambda p: _codecs.bmp_decode(p),
    "gif": lambda p: _codecs.gif_decode(p),
    "jpeg": lambda p: _codecs.jpeg_decode(p),
}


def _sniff_image_format(payload: bytes) -> str | None:
    if payload.startswith(_codecs.PNG_SIG):
        return "png"
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:4] == b"GIF8":
        return "gif"
    if payload[:3] == b"\xff\xd8\xff":
        return "jpeg"
    return None


def decode_image_payload(payload: bytes) -> np.ndarray:
    """Container-sniffing image decode: FAKEIMG / PNG / BMP / GIF /
    baseline JPEG. A registered native decoder is preferred per format
    (pure-codec fallback on native error). Returns uint8 (h, w) gray or
    (h, w, c).
    Raises on anything undecodable."""
    if payload.startswith(FAKEIMG_MAGIC):
        return _decode_fake(payload)
    fmt = _sniff_image_format(payload)
    if fmt is not None:
        native = _NATIVE_DECODERS.get(fmt)
        if native is not None:
            try:
                arr = np.asarray(native(payload))
                if arr.dtype == np.uint8 and arr.ndim in (2, 3):
                    return arr
            except Exception:
                pass            # degrade to the in-repo codec
        return _PURE_DECODERS[fmt](payload)
    raise ValueError("unsupported image container")


MEDIA_META_TYPE = pa.struct([
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("channels", pa.int32()),
    ("mean_intensity", pa.float64()),
    ("payload_sha1", pa.string()),
])


def decode_image_batch(batch: pa.Table) -> pa.Table:
    """(id, media, media_type) -> + decoded metadata.

    PNG/BMP decode for real via the in-repo codecs; FAKEIMG via the
    container header; undecodable payloads land on the error column
    (degradation principle, same as the extractor).
    """
    metas, errors = [], []
    for payload in batch.column("media").to_pylist():
        try:
            arr = decode_image_payload(payload or b"")
            metas.append({
                "width": int(arr.shape[1]),
                "height": int(arr.shape[0]),
                "channels": int(arr.shape[2]) if arr.ndim == 3 else 1,
                "mean_intensity": round(float(arr.mean()), 6),
                "payload_sha1": hashlib.sha1(payload).hexdigest(),
            })
            errors.append("")
        except Exception as exc:
            metas.append({"width": 0, "height": 0, "channels": 0,
                          "mean_intensity": 0.0, "payload_sha1": ""})
            errors.append(f"decode_error:{type(exc).__name__}")
    batch = batch.append_column("media_meta",
                                pa.array(metas, MEDIA_META_TYPE))
    batch = batch.append_column("decode_error",
                                pa.array(errors, pa.string()))
    return batch


class ResizeImageBatch:
    """Nearest-neighbor resize of decodable payloads. Real containers
    (PNG/BMP) re-encode as real PNG thumbnails; FAKEIMG stays FAKEIMG
    (synthetic-fixture path). Undecodable rows -> null media."""

    def __init__(self, target_w: int = 64, target_h: int = 64):
        self.tw, self.th = target_w, target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for payload in batch.column("media").to_pylist():
            try:
                p = payload or b""
                arr = decode_image_payload(p)
                if arr.ndim == 2:
                    arr = arr[:, :, None]
                ys = (np.arange(self.th) * arr.shape[0] // self.th)
                xs = (np.arange(self.tw) * arr.shape[1] // self.tw)
                resized = np.ascontiguousarray(arr[ys][:, xs])
                if p.startswith(FAKEIMG_MAGIC):
                    out.append(FAKEIMG_MAGIC
                               + struct.pack("<HHB", self.tw, self.th,
                                             resized.shape[2])
                               + resized.tobytes())
                else:
                    out.append(_codecs.png_encode(resized))
            except Exception:
                out.append(None)
        return batch.set_column(batch.column_names.index("media"),
                                "media", pa.array(out, pa.binary()))


# ---------------------------------------------------------------------------
# video: frame-sample; audio: feature-extract — same stub discipline
# (FAKEVID/FAKEAUD containers; a real ffmpeg/soundfile swap is one
# function, the Ray plumbing is real)
# ---------------------------------------------------------------------------

FAKEVID_MAGIC = b"FAKEVID1"
FAKEAUD_MAGIC = b"FAKEAUD1"


def make_fake_video(n_frames: int, width: int, height: int,
                    seed: int = 0) -> bytes:
    """FAKEVID container: magic + u16 n_frames, then length-prefixed
    FAKEIMG frames."""
    parts = [FAKEVID_MAGIC, struct.pack("<H", n_frames)]
    for f in range(n_frames):
        frame = make_fake_image(width, height, 3, seed * 131 + f)
        parts.append(struct.pack("<I", len(frame)))
        parts.append(frame)
    return b"".join(parts)


def _iter_fake_frames(payload: bytes):
    if not payload.startswith(FAKEVID_MAGIC):
        raise ValueError("not a FAKEVID payload")
    (n,) = struct.unpack_from("<H", payload, len(FAKEVID_MAGIC))
    off = len(FAKEVID_MAGIC) + 2
    for _ in range(n):
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        yield payload[off:off + ln]
        off += ln


def make_fake_audio(sample_rate: int, n_samples: int, seed: int = 0) -> bytes:
    """FAKEAUD container: magic + u32 rate + u32 n, then int16 PCM."""
    rng = np.random.RandomState(seed & 0x7FFFFFFF)
    pcm = (rng.standard_normal(n_samples) * 8000).astype(np.int16)
    return (FAKEAUD_MAGIC + struct.pack("<II", sample_rate, n_samples)
            + pcm.tobytes())


class FrameSampleBatch:
    """Frame-sample stage: one video row -> one row PER SAMPLED frame
    (every ``stride``-th) — the row-explosion shape a real video
    pipeline needs (small batches: wide binary rows). MJPEG AVI
    payloads (``extractor/codecs.avi_mjpeg_frames``) yield real JPEG
    frames; FAKEVID remains the fixture container for codecs the
    sandbox genuinely lacks (H.264 etc.)."""

    def __init__(self, stride: int = 2):
        self.stride = max(1, stride)

    @staticmethod
    def _frames(payload: bytes):
        if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
            for i, jpeg in _codecs.avi_mjpeg_frames(payload):
                yield i, jpeg, "image/jpeg"
        else:
            for i, frame in enumerate(_iter_fake_frames(payload)):
                yield i, frame, "image/fake"

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, media, mtype = [], [], [], []
        for vid, payload in zip(batch.column("id").to_pylist(),
                                batch.column("media").to_pylist()):
            try:
                for i, frame, mt in self._frames(payload or b""):
                    if i % self.stride:
                        continue
                    ids.append(vid)
                    fidx.append(i)
                    media.append(frame)
                    mtype.append(mt)
            except Exception:
                continue  # undecodable video: contributes no frames
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "frame_idx": pa.array(fidx, pa.int32()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})


def audio_feature_batch(batch: pa.Table) -> pa.Table:
    """Audio feature-extract: duration, RMS, zero-crossing rate — numpy
    vectorized per row over the PCM body. Real RIFF/WAVE PCM decodes via
    the in-repo codec; FAKEAUD remains the synthetic-fixture container.
    Multichannel WAV is downmixed (channel mean) before features."""
    durs, rmss, zcrs, errors = [], [], [], []
    for payload in batch.column("media").to_pylist():
        try:
            p = payload or b""
            if p.startswith(b"RIFF"):
                rate, pcm = _codecs.wav_decode(p)
                pcm = pcm.astype(np.float64)
                if pcm.ndim == 2:
                    pcm = pcm.mean(axis=1)
                n = len(pcm)
            elif p.startswith(FAKEAUD_MAGIC):
                rate, n = struct.unpack_from("<II", p,
                                             len(FAKEAUD_MAGIC))
                pcm = np.frombuffer(p, dtype=np.int16,
                                    offset=len(FAKEAUD_MAGIC) + 8,
                                    count=n).astype(np.float64)
            else:
                raise ValueError("unsupported audio container")
            durs.append(round(n / max(1, rate), 6))
            rmss.append(round(float(np.sqrt(np.mean(pcm ** 2))), 6))
            zcrs.append(round(float(np.mean(np.signbit(pcm[1:])
                                            != np.signbit(pcm[:-1]))), 6))
            errors.append("")
        except Exception as exc:
            durs.append(0.0)
            rmss.append(0.0)
            zcrs.append(0.0)
            errors.append(f"audio_error:{type(exc).__name__}")
    batch = batch.append_column("duration_s", pa.array(durs, pa.float64()))
    batch = batch.append_column("rms", pa.array(rmss, pa.float64()))
    batch = batch.append_column("zcr", pa.array(zcrs, pa.float64()))
    return batch.append_column("audio_error",
                               pa.array(errors, pa.string()))


def video_dataset_from_documents(sf_dir: str, seed: int = 42):
    """Deterministic FAKEVID per 10th document (videos are rarer/wider)."""
    import os
    import ray.data

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 10:
                continue
            ids.append(d)
            media.append(make_fake_video(4 + d % 5, 16 + d % 16,
                                         16 + (d * 3) % 16,
                                         seed * 1_000_003 + d))
            mtype.append("video/fake")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow", batch_size=32)


def audio_dataset_from_documents(sf_dir: str, seed: int = 42):
    """Deterministic FAKEAUD per 5th document."""
    import os
    import ray.data

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 5:
                continue
            ids.append(d)
            media.append(make_fake_audio(8000, 4000 + (d % 7) * 1000,
                                         seed * 1_000_003 + d))
            mtype.append("audio/fake")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow", batch_size=64)


def real_media_dataset_from_documents(sf_dir: str):
    """Deterministic REAL image payloads (PNG / BMP / GIF bytes, not the
    FAKEIMG container) for every 3rd document, cycling containers by
    (doc_id // 3) % 3. Solid-color fills keep every pixel statistic
    arithmetic in doc_id, so the full decode paths (zlib inflate +
    unfilter / BMP row walk / GIF LZW) are DuckDB-oracle-checkable
    end to end."""
    import os
    import ray.data

    from ..extractor import codecs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 3:
                continue
            w = 8 + (d % 24)
            h = 8 + ((d * 5) % 24)
            rgb = np.empty((h, w, 3), dtype=np.uint8)
            rgb[:, :, 0] = (d * 7) % 256
            rgb[:, :, 1] = (d * 13) % 256
            rgb[:, :, 2] = (d * 29) % 256
            ids.append(d)
            kind = (d // 3) % 3
            if kind == 0:
                media.append(codecs.png_encode(rgb))
                mtype.append("image/png")
            elif kind == 1:
                media.append(codecs.bmp_encode(rgb))
                mtype.append("image/bmp")
            else:
                media.append(codecs.gif_encode(rgb))
                mtype.append("image/gif")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow", batch_size=64)


def jpeg_dataset_from_documents(sf_dir: str, varied_quality: bool = False):
    """Deterministic REAL baseline-JPEG payloads for every 9th document
    (alternating 4:4:4 and 4:2:0). Dimensions decode exactly (oracled);
    pixel values are lossy by nature, so intensity accuracy is pinned in
    pytest with tolerance instead of a SQL hash.

    ``varied_quality=True`` encodes at ``35 + (doc_id % 13) * 5``
    instead of the fixed 90 — the quality-estimation oracle recomputes
    that arithmetic in SQL and compares it against what
    ``jpeg_quality_estimate`` recovers from the bytes alone."""
    import os
    import ray.data

    from ..extractor import codecs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 9:
                continue
            w = 16 + (d % 17)
            h = 16 + ((d * 3) % 17)
            rgb = np.empty((h, w, 3), dtype=np.uint8)
            rgb[:, :, 0] = (d * 11) % 256
            rgb[:, :, 1] = (d * 17) % 256
            rgb[:, :, 2] = (d * 23) % 256
            ids.append(d)
            q = 35 + (d % 13) * 5 if varied_quality else 90
            media.append(codecs.jpeg_encode(
                rgb, quality=q, subsample=bool(d % 2)))
            mtype.append("image/jpeg")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow", batch_size=64)


def jpeg_quality_batch(batch: pa.Table) -> pa.Table:
    """Header-only JPEG quality estimation (extractor/codecs.py
    jpeg_quality_estimate): reads only the marker stream up to SOS —
    no entropy decode, no pixel materialization — so the stage runs at
    I/O speed over 100 TB of thumbnails."""
    from ..extractor.codecs import jpeg_quality_estimate

    quals, exact = [], []
    for payload in batch.column("media").to_pylist():
        try:
            q, ex = jpeg_quality_estimate(payload)
        except Exception:
            q, ex = None, False
        quals.append(q)
        exact.append(ex)
    return pa.table({
        "doc_id": batch.column("id"),
        "quality": pa.array(quals, pa.int64()),
        "std_tables": pa.array(exact, pa.bool_()),
    })


def wav_dataset_from_documents(sf_dir: str):
    """Deterministic REAL RIFF/WAVE payloads for every 4th document:
    a square wave (period 8: four samples +A, four -A) at 8 kHz with
    n = 4096 + (doc_id % 5) * 512 samples and A = 1000 + (doc_id % 9)
    * 500 — chosen so duration, RMS (= A exactly) and zero-crossing
    rate (= ((n-1)//4)/(n-1)) are all arithmetic in doc_id for the
    DuckDB oracle."""
    import os
    import ray.data

    from ..extractor import codecs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 4:
                continue
            n = 4096 + (d % 5) * 512
            amp = 1000 + (d % 9) * 500
            pcm = np.where(np.arange(n) % 8 < 4, amp, -amp).astype(np.int16)
            ids.append(d)
            media.append(codecs.wav_encode(pcm, 8000))
            mtype.append("audio/wav")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow", batch_size=64)


def media_dataset_from_documents(sf_dir: str, seed: int = 42):
    """Synthesize a media table from documents (deterministic, per-row):
    one FAKEIMG per doc whose dims derive from doc_id."""
    import os
    import ray.data

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids, media, mtype = [], [], []
        for d in batch.column("doc_id").to_pylist():
            w = 16 + (d % 48)
            h = 16 + ((d * 7) % 48)
            ids.append(d)
            media.append(make_fake_image(w, h, 3, seed * 1_000_003 + d))
            mtype.append("image/fake")
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "media": pa.array(media, pa.binary()),
                         "media_type": pa.array(mtype, pa.string())})

    # small batches: wide binary rows (SURVEY.md §4.2 memory-aware rule)
    return docs.map_batches(gen, batch_format="pyarrow", batch_size=64)
