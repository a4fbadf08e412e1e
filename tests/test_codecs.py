"""Real codec tests: PNG (all filters / color types / low depths),
BMP, WAV — roundtrips pin the decoders against the encoders, plus
corrupt-payload and multimodal-stage integration checks."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from full_text_extractor_v6_ray.extractor import codecs


def _rand(shape, seed):
    return np.random.RandomState(seed).randint(
        0, 256, size=shape, dtype=np.int64).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(13, 7), (13, 7, 1), (9, 16, 2),
                                   (21, 5, 3), (6, 31, 4)])
def test_png_roundtrip_every_filter_and_color_type(filter_type, shape):
    arr = _rand(shape, seed=filter_type * 100 + len(shape))
    data = codecs.png_encode(arr, filter_type=filter_type)
    out = codecs.png_decode(data)
    want = arr.reshape(arr.shape[0], arr.shape[1]) \
        if arr.ndim == 3 and arr.shape[2] == 1 else arr
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, want)


def test_png_single_pixel_and_single_row():
    for shape in [(1, 1), (1, 40, 3), (40, 1, 4)]:
        arr = _rand(shape, seed=7)
        np.testing.assert_array_equal(
            codecs.png_decode(codecs.png_encode(arr, filter_type=4)), arr)


def test_png_encode_deterministic():
    arr = _rand((20, 20, 3), seed=3)
    assert codecs.png_encode(arr) == codecs.png_encode(arr)


def test_png_palette_roundtrip_with_trns():
    pal = _rand((16, 3), seed=5)
    idx = _rand((11, 13), seed=6) % 16
    trns = bytes(range(0, 160, 10))  # alpha for all 16 entries
    data = codecs.png_encode_palette(idx, pal, trns=trns)
    out = codecs.png_decode(data)
    assert out.shape == (11, 13, 4)
    np.testing.assert_array_equal(out[:, :, :3], pal[idx])
    np.testing.assert_array_equal(
        out[:, :, 3], np.frombuffer(trns, np.uint8)[idx])


def test_png_palette_no_trns_gives_rgb():
    pal = _rand((8, 3), seed=8)
    idx = _rand((5, 9), seed=9) % 8
    out = codecs.png_decode(codecs.png_encode_palette(idx, pal))
    assert out.shape == (5, 9, 3)
    np.testing.assert_array_equal(out, pal[idx])


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_png_palette_low_bit_depths(depth):
    n = 1 << depth
    pal = _rand((n, 3), seed=depth)
    idx = _rand((7, 10), seed=depth + 50) % n
    out = codecs.png_decode(
        codecs.png_encode_palette(idx, pal, bit_depth=depth))
    np.testing.assert_array_equal(out, pal[idx])


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_png_low_depth_gray(depth):
    """Hand-build a low-depth grayscale PNG; decode scales to 8-bit."""
    w, h = 10, 3
    maxv = (1 << depth) - 1
    samples = (np.arange(w * h).reshape(h, w) % (maxv + 1)).astype(np.uint8)
    rows = []
    for y in range(h):
        bits = np.unpackbits(samples[y][:, None], axis=1)[:, 8 - depth:]
        rows.append(b"\x00" + np.packbits(bits.reshape(-1)).tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, depth, 0, 0, 0, 0)
    data = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + codecs._chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + codecs._chunk(b"IEND", b""))
    out = codecs.png_decode(data)
    np.testing.assert_array_equal(
        out, (samples.astype(np.uint16) * (255 // maxv)).astype(np.uint8))


def test_png_rejects_corruption():
    arr = _rand((8, 8, 3), seed=1)
    good = codecs.png_encode(arr)
    with pytest.raises(ValueError):
        codecs.png_decode(b"NOTAPNG" + good)
    # flip one pixel byte inside IDAT -> CRC mismatch
    bad = bytearray(good)
    idat_at = good.index(b"IDAT")
    bad[idat_at + 20] ^= 0xFF
    with pytest.raises(ValueError):
        codecs.png_decode(bytes(bad))
    with pytest.raises(ValueError):
        codecs.png_decode(good[:40])  # truncated mid-chunk
    # unknown interlace method rejected
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 2)
    bad_il = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
              + codecs._chunk(b"IDAT", zlib.compress(b"\x00" * 52))
              + codecs._chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="interlace"):
        codecs.png_decode(bad_il)


@pytest.mark.parametrize("shape", [(13, 7, 3), (8, 8), (9, 16, 4),
                                   (1, 1), (7, 1, 2), (1, 9, 3)])
@pytest.mark.parametrize("filter_type", [0, 4])
def test_png_adam7_interlace_roundtrip(shape, filter_type):
    arr = _rand(shape, seed=sum(shape))
    data = codecs.png_encode(arr, filter_type=filter_type, interlace=True)
    want = arr.reshape(arr.shape[0], arr.shape[1]) \
        if arr.ndim == 3 and arr.shape[2] == 1 else arr
    np.testing.assert_array_equal(codecs.png_decode(data), want)


def test_png_16bit_high_byte_conversion():
    """Hand-build a 16-bit RGB PNG; decode takes the high byte."""
    h, w = 5, 6
    hi = _rand((h, w, 3), seed=44)
    samples = (hi.astype(np.uint16) << 8) | 0x37  # low byte is noise
    raw = b"".join(
        b"\x00" + samples[y].astype(">u2").tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    data = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + codecs._chunk(b"IDAT", zlib.compress(raw))
            + codecs._chunk(b"IEND", b""))
    np.testing.assert_array_equal(codecs.png_decode(data), hi)


def test_png_16bit_filtered_roundtrip():
    """16-bit + Paeth filtering: filter bytes operate on raw bytes, so
    build filtered scanlines with the encoder's own byte filter."""
    h, w = 4, 5
    hi = _rand((h, w, 1), seed=45)
    samples = (hi.reshape(h, w).astype(np.uint16) << 8) | 0x11
    flat = np.frombuffer(
        samples.astype(">u2").tobytes(), np.uint8).reshape(h, w * 2)
    raw = codecs._filter_rows(flat.astype(np.int16), ch=2, ft=4)
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    data = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + codecs._chunk(b"IDAT", zlib.compress(raw))
            + codecs._chunk(b"IEND", b""))
    np.testing.assert_array_equal(codecs.png_decode(data),
                                  hi.reshape(h, w))


def test_png_multiple_idat_chunks():
    """Decoders must concatenate split IDAT streams."""
    arr = _rand((6, 6, 3), seed=11)
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(6))
    comp = zlib.compress(raw)
    ihdr = struct.pack(">IIBBBBB", 6, 6, 8, 2, 0, 0, 0)
    data = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + codecs._chunk(b"IDAT", comp[:10])
            + codecs._chunk(b"IDAT", comp[10:])
            + codecs._chunk(b"IEND", b""))
    np.testing.assert_array_equal(codecs.png_decode(data), arr)


# ---------------------------------------------------------------------------
# BMP
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])  # every padding residue
def test_bmp_roundtrip_padding(w):
    arr = _rand((7, w, 3), seed=w)
    np.testing.assert_array_equal(
        codecs.bmp_decode(codecs.bmp_encode(arr)), arr)


def test_bmp_topdown_and_32bit():
    arr = _rand((4, 3, 3), seed=2)
    data = bytearray(codecs.bmp_encode(arr))
    # negate height -> top-down: decoded rows are the bottom-up flip
    struct.pack_into("<i", data, 22, -4)
    np.testing.assert_array_equal(codecs.bmp_decode(bytes(data)), arr[::-1])
    # hand-build a 32-bit BGRA top-down BMP
    rgba = _rand((3, 2, 4), seed=4)
    bgra = rgba[:, :, [2, 1, 0, 3]]
    off = 54
    hdr = (b"BM" + struct.pack("<IHHI", off + bgra.size, 0, 0, off)
           + struct.pack("<IiiHHIIiiII", 40, 2, -3, 1, 32, 0,
                         bgra.size, 0, 0, 0, 0))
    np.testing.assert_array_equal(
        codecs.bmp_decode(hdr + bgra.tobytes()), rgba)


def test_bmp_rejects_bad():
    with pytest.raises(ValueError):
        codecs.bmp_decode(b"XX" + b"\x00" * 60)
    arr = _rand((4, 4, 3), seed=3)
    with pytest.raises(ValueError):
        codecs.bmp_decode(codecs.bmp_encode(arr)[:30])
    compressed = bytearray(codecs.bmp_encode(arr))
    struct.pack_into("<I", compressed, 30, 1)  # BI_RLE8
    with pytest.raises(ValueError):
        codecs.bmp_decode(bytes(compressed))


# ---------------------------------------------------------------------------
# GIF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (7, 11), (16, 5)])
def test_gif_roundtrip_small_palettes(shape):
    arr = (_rand((*shape, 3), seed=shape[0]) // 64) * 64  # <= 64 colors
    np.testing.assert_array_equal(
        codecs.gif_decode(codecs.gif_encode(arr)), arr)


def test_gif_roundtrip_full_256_palette_forces_code_growth():
    """A 256-color noise image grows the LZW table through several code
    widths (and with enough pixels, to the 4096 reset)."""
    arr = _rand((64, 64, 3), seed=12)
    # quantize to exactly 256 distinct colors: gray ramp by byte value
    v = _rand((64, 64), seed=13)
    arr = np.dstack([v, v, v])
    np.testing.assert_array_equal(
        codecs.gif_decode(codecs.gif_encode(arr)), arr)


def test_gif_lzw_table_reset_roundtrip():
    """Enough unique pixel transitions to overflow the 4096-entry table
    and exercise the mid-stream CLEAR/reset path both ways."""
    rng = np.random.RandomState(99)
    v = rng.randint(0, 256, size=(150, 150), dtype=np.int64).astype(np.uint8)
    arr = np.dstack([v, (v * 3).astype(np.uint8), (v * 7).astype(np.uint8)])
    np.testing.assert_array_equal(
        codecs.gif_decode(codecs.gif_encode(arr)), arr)


def test_gif_interlaced_roundtrip():
    arr = (_rand((13, 9, 3), seed=21) // 32) * 32
    data = codecs.gif_encode(arr, interlace=True)
    np.testing.assert_array_equal(codecs.gif_decode(data), arr)


def test_gif_transparency_yields_rgba():
    """Hand-add a graphic-control extension marking palette index of the
    darkest color transparent."""
    arr = np.zeros((4, 6, 3), np.uint8)
    arr[1:, 2:] = 200
    data = codecs.gif_encode(arr)
    # palette index 0 is the lexicographically-smallest color (black)
    gce = b"\x21\xf9\x04\x01\x00\x00\x00\x00"
    at = data.index(b"\x2c")
    out = codecs.gif_decode(data[:at] + gce + data[at:])
    assert out.shape == (4, 6, 4)
    np.testing.assert_array_equal(out[:, :, :3], arr)
    np.testing.assert_array_equal(out[:, :, 3] == 0,
                                  (arr == 0).all(axis=2))


def test_gif_rejects_bad():
    with pytest.raises(ValueError):
        codecs.gif_decode(b"GIF90a" + b"\x00" * 20)
    arr = (_rand((5, 5, 3), seed=30) // 64) * 64
    good = codecs.gif_encode(arr)
    with pytest.raises(ValueError):
        codecs.gif_decode(good[:15])  # truncated before image block
    # too many distinct colors for the encoder: 17 x 16 = 272 (r, g) pairs
    big = np.zeros((17, 16, 3), np.uint8)
    big[:, :, 0] = np.arange(17)[:, None]
    big[:, :, 1] = np.arange(16)[None, :]
    with pytest.raises(ValueError):
        codecs.gif_encode(big)


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------


def test_wav_roundtrip_mono_and_stereo():
    mono = (np.random.RandomState(0).standard_normal(500)
            * 12000).astype(np.int16)
    rate, out = codecs.wav_decode(codecs.wav_encode(mono, 44100))
    assert rate == 44100
    np.testing.assert_array_equal(out, mono)
    stereo = (np.random.RandomState(1).standard_normal((300, 2))
              * 9000).astype(np.int16)
    rate, out = codecs.wav_decode(codecs.wav_encode(stereo, 16000))
    assert rate == 16000 and out.shape == (300, 2)
    np.testing.assert_array_equal(out, stereo)


def test_wav_8bit_and_odd_chunk_padding():
    body = bytes([0, 128, 255, 64, 200])  # odd length -> pad byte
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    payload = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(body)) + body + b"\x00")
    rate, pcm = codecs.wav_decode(
        b"RIFF" + struct.pack("<I", len(payload)) + payload)
    assert rate == 8000
    np.testing.assert_array_equal(
        pcm, ((np.frombuffer(body, np.uint8).astype(np.int16) - 128) << 8))


def test_wav_rejects_bad():
    with pytest.raises(ValueError):
        codecs.wav_decode(b"RIFX" + b"\x00" * 40)
    good = codecs.wav_encode(np.zeros(10, np.int16), 8000)
    with pytest.raises(ValueError):
        codecs.wav_decode(good[:20])
    # non-PCM format code
    bad = bytearray(good)
    struct.pack_into("<H", bad, 20, 3)  # IEEE float
    with pytest.raises(ValueError):
        codecs.wav_decode(bytes(bad))


# ---------------------------------------------------------------------------
# multimodal stage integration (no Ray needed: stages are plain callables)
# ---------------------------------------------------------------------------


def _media_batch(payloads):
    return pa.table({
        "id": pa.array(range(len(payloads)), pa.int64()),
        "media": pa.array(payloads, pa.binary()),
        "media_type": pa.array(["?"] * len(payloads), pa.string()),
    })


def test_decode_stage_mixed_real_and_fake():
    from full_text_extractor_v6_ray.stages.multimodal import (
        decode_image_batch, make_fake_image)

    png = codecs.png_encode(np.full((5, 9, 3), 100, np.uint8))
    bmp = codecs.bmp_encode(np.full((4, 6, 3), 30, np.uint8))
    gray = codecs.png_encode(np.full((3, 3), 7, np.uint8))
    out = decode_image_batch(_media_batch(
        [png, bmp, gray, make_fake_image(8, 8, 3, 1), b"JUNK"]))
    metas = out.column("media_meta").to_pylist()
    errs = out.column("decode_error").to_pylist()
    assert [(m["width"], m["height"], m["channels"]) for m in metas[:4]] \
        == [(9, 5, 3), (6, 4, 3), (3, 3, 1), (8, 8, 3)]
    assert metas[0]["mean_intensity"] == 100.0
    assert metas[1]["mean_intensity"] == 30.0
    assert errs[:4] == [""] * 4 and errs[4].startswith("decode_error")


def test_resize_stage_real_payload_reencodes_png():
    from full_text_extractor_v6_ray.stages.multimodal import (
        ResizeImageBatch, decode_image_payload)

    src = np.zeros((20, 20, 3), np.uint8)
    src[:, :, 0] = 200
    out = ResizeImageBatch(target_w=8, target_h=8)(
        _media_batch([codecs.bmp_encode(src)]))
    thumb = out.column("media").to_pylist()[0]
    assert thumb.startswith(codecs.PNG_SIG)
    arr = decode_image_payload(thumb)
    assert arr.shape == (8, 8, 3)
    assert arr[:, :, 0].mean() == 200.0 and arr[:, :, 1].max() == 0


def test_audio_stage_real_wav_square_wave():
    from full_text_extractor_v6_ray.stages.multimodal import (
        audio_feature_batch)

    n, amp = 4096, 1500
    pcm = np.where(np.arange(n) % 8 < 4, amp, -amp).astype(np.int16)
    out = audio_feature_batch(_media_batch([codecs.wav_encode(pcm, 8000)]))
    assert out.column("audio_error").to_pylist() == [""]
    assert out.column("duration_s").to_pylist() == [round(n / 8000, 6)]
    assert out.column("rms").to_pylist() == [float(amp)]
    assert out.column("zcr").to_pylist() == [round(((n - 1) // 4)
                                                   / (n - 1), 6)]


def test_png_inflate_bomb_capped():
    """A crafted IDAT inflating far beyond the IHDR-implied pixel bytes
    must not balloon memory: the decompressor is capped at the exact
    expected stream size and the image still decodes from the prefix."""
    arr = _rand((4, 4, 3), seed=77)
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(4))
    bomb = zlib.compress(raw + b"\x00" * 50_000_000)  # 50 MB of padding
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    data = (codecs.PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + codecs._chunk(b"IDAT", bomb)
            + codecs._chunk(b"IEND", b""))
    np.testing.assert_array_equal(codecs.png_decode(data), arr)


# ---------------------------------------------------------------------------
# JPEG
# ---------------------------------------------------------------------------


def test_jpeg_flat_color_exact_roundtrip():
    """A flat color is DC-only: quantization loses nothing, so the
    roundtrip must be EXACT — pins level shift, DC prediction, zigzag,
    quant/dequant, huffman DC and the color transform end to end."""
    for color in [(0, 0, 0), (255, 255, 255), (200, 30, 90), (128, 128, 128)]:
        arr = np.zeros((24, 17, 3), np.uint8)
        arr[:] = color
        out = codecs.jpeg_decode(codecs.jpeg_encode(arr, quality=90))
        assert out.shape == arr.shape
        assert int(np.abs(out.astype(int) - arr.astype(int)).max()) <= 1


def test_jpeg_gray_flat_exact():
    arr = np.full((10, 30), 77, np.uint8)
    out = codecs.jpeg_decode(codecs.jpeg_encode(arr, quality=90))
    assert out.shape == (10, 30)
    assert int(np.abs(out.astype(int) - 77).max()) <= 1


def test_jpeg_decoder_against_spec_formula():
    """Hand-build the entropy stream for ONE 8x8 gray block with known
    quantized coefficients and check the decoder against an
    independently-written IDCT formula (not the encoder's matrix)."""
    qtab = np.ones(64, np.int64)  # identity quantization
    coeffs = np.zeros(64, np.int64)
    coeffs[0] = 16          # DC
    coeffs[1] = -7          # AC raster (0,1)
    coeffs[8] = 5           # AC raster (1,0)

    bw = codecs._BitWriter()
    dc_tab = codecs._huff_encode_table(*codecs._HT_DC_LUMA)
    ac_tab = codecs._huff_encode_table(*codecs._HT_AC_LUMA)
    codecs._encode_block(bw, coeffs, 0, dc_tab, ac_tab)
    bw.flush()

    def seg(marker, body):
        return bytes([0xFF, marker]) + struct.pack(">H", len(body) + 2) + body

    data = (b"\xff\xd8"
            + seg(0xDB, bytes([0x00])
                  + bytes(qtab[codecs._ZIGZAG].astype(np.uint8)))
            + seg(0xC0, bytes([8]) + struct.pack(">HH", 8, 8)
                  + bytes([1, 1, 0x11, 0]))
            + seg(0xC4, bytes([0x00]) + bytes(codecs._HT_DC_LUMA[0])
                  + bytes(codecs._HT_DC_LUMA[1]))
            + seg(0xC4, bytes([0x10]) + bytes(codecs._HT_AC_LUMA[0])
                  + bytes(codecs._HT_AC_LUMA[1]))
            + seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
            + bytes(bw.out) + b"\xff\xd9")
    got = codecs.jpeg_decode(data)

    # independent spec IDCT: f(x,y) = 1/4 sum C(u)C(v) F(u,v) cos terms
    want = np.zeros((8, 8))
    F = coeffs.reshape(8, 8)  # raster: F[v_row, u_col]
    for y in range(8):
        for x in range(8):
            s = 0.0
            for v in range(8):
                for u in range(8):
                    cu = 1 / np.sqrt(2) if u == 0 else 1.0
                    cv = 1 / np.sqrt(2) if v == 0 else 1.0
                    s += (cu * cv * F[v, u]
                          * np.cos((2 * x + 1) * u * np.pi / 16)
                          * np.cos((2 * y + 1) * v * np.pi / 16))
            want[y, x] = s / 4 + 128
    want = np.clip(np.round(want), 0, 255).astype(np.uint8)
    np.testing.assert_array_equal(got, want)


def test_jpeg_smooth_gradient_tolerance():
    """Lossy path sanity: a smooth gradient survives quality 90 within
    a few intensity levels everywhere (no block tearing / misalignment,
    which would show up as large local errors)."""
    h, w = 40, 56
    yy, xx = np.mgrid[0:h, 0:w]
    arr = np.stack([(xx * 3) % 200 + 20, (yy * 2) % 180 + 30,
                    ((xx + yy) * 2) % 160 + 40], axis=2).astype(np.uint8)
    # gradients with wraps are not smooth at the wrap; use true linears
    arr = np.stack([
        (20 + 2 * xx + yy).clip(0, 255),
        (200 - xx - yy).clip(0, 255),
        (60 + xx + 2 * yy).clip(0, 255)], axis=2).astype(np.uint8)
    out = codecs.jpeg_decode(codecs.jpeg_encode(arr, quality=90))
    err = np.abs(out.astype(int) - arr.astype(int))
    assert err.max() <= 12 and err.mean() < 2.5


def test_jpeg_subsample_420_flat_and_gradient():
    arr = np.zeros((19, 22, 3), np.uint8)
    arr[:] = (90, 160, 40)
    out = codecs.jpeg_decode(codecs.jpeg_encode(arr, quality=90,
                                                subsample=True))
    assert out.shape == arr.shape
    assert int(np.abs(out.astype(int) - arr.astype(int)).max()) <= 1
    yy, xx = np.mgrid[0:33, 0:41]
    grad = np.stack([(30 + 3 * xx).clip(0, 255),
                     (40 + 2 * yy).clip(0, 255),
                     (50 + xx + yy).clip(0, 255)],
                    axis=2).astype(np.uint8)
    out = codecs.jpeg_decode(codecs.jpeg_encode(grad, quality=90,
                                                subsample=True))
    err = np.abs(out.astype(int) - grad.astype(int))
    assert err.max() <= 20 and err.mean() < 4.0


def test_jpeg_noise_roundtrip_bounded():
    """Worst case for DCT: white noise. Quality 95 keeps every pixel
    within a moderate bound (catches huffman/zigzag/dequant bugs that
    corrupt whole blocks rather than shaving precision)."""
    arr = _rand((24, 24, 3), seed=55)
    out = codecs.jpeg_decode(codecs.jpeg_encode(arr, quality=95))
    err = np.abs(out.astype(int) - arr.astype(int))
    assert err.max() <= 40 and err.mean() < 8.0


def test_jpeg_restart_markers():
    """DRI/RSTn: encode two single-MCU gray rows as separate entropy
    segments joined by RST0, with DC predictors reset."""
    qtab = np.ones(64, np.int64)
    blockA = np.zeros(64, np.int64); blockA[0] = 24
    blockB = np.zeros(64, np.int64); blockB[0] = -16
    dc_tab = codecs._huff_encode_table(*codecs._HT_DC_LUMA)
    ac_tab = codecs._huff_encode_table(*codecs._HT_AC_LUMA)
    parts = []
    for blk in (blockA, blockB):
        bw = codecs._BitWriter()
        codecs._encode_block(bw, blk, 0, dc_tab, ac_tab)  # pred RESET
        bw.flush()
        parts.append(bytes(bw.out))

    def seg(marker, body):
        return bytes([0xFF, marker]) + struct.pack(">H", len(body) + 2) + body

    data = (b"\xff\xd8"
            + seg(0xDB, bytes([0x00])
                  + bytes(qtab[codecs._ZIGZAG].astype(np.uint8)))
            + seg(0xC0, bytes([8]) + struct.pack(">HH", 16, 8)
                  + bytes([1, 1, 0x11, 0]))
            + seg(0xC4, bytes([0x00]) + bytes(codecs._HT_DC_LUMA[0])
                  + bytes(codecs._HT_DC_LUMA[1]))
            + seg(0xC4, bytes([0x10]) + bytes(codecs._HT_AC_LUMA[0])
                  + bytes(codecs._HT_AC_LUMA[1]))
            + seg(0xDD, struct.pack(">H", 1))  # restart every MCU
            + seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
            + parts[0] + b"\xff\xd0" + parts[1] + b"\xff\xd9")
    got = codecs.jpeg_decode(data)
    assert got.shape == (16, 8)
    # flat blocks: pixel = 128 + DC/8 (orthonormal DCT scaling)
    assert np.all(got[:8] == got[0, 0]) and np.all(got[8:] == got[8, 0])
    assert int(got[0, 0]) == round(128 + 24 / 8)
    assert int(got[8, 0]) == round(128 - 16 / 8)


def test_jpeg_rejects_progressive_and_garbage():
    with pytest.raises(ValueError):
        codecs.jpeg_decode(b"\x89PNG not a jpeg")
    # progressive SOF2 rejected with a clear error
    data = (b"\xff\xd8" + bytes([0xFF, 0xC2]) + struct.pack(">H", 11)
            + bytes([8]) + struct.pack(">HH", 8, 8) + bytes([1, 1, 0x11, 0]))
    with pytest.raises(ValueError, match="progressive"):
        codecs.jpeg_decode(data)
    arr = np.full((8, 8), 100, np.uint8)
    good = codecs.jpeg_encode(arr)
    with pytest.raises(ValueError):
        codecs.jpeg_decode(good[:40])


def test_jpeg_quality_estimate_exact_all_levels():
    img = (np.arange(16 * 16 * 3, dtype=np.uint8).reshape(16, 16, 3) * 7) % 256
    for q in (1, 5, 12, 35, 50, 75, 85, 92, 100):
        est, exact = codecs.jpeg_quality_estimate(codecs.jpeg_encode(img, quality=q))
        assert (est, exact) == (q, True)
    # gray + subsampled variants carry the same luma table
    gray = np.full((8, 8), 77, np.uint8)
    assert codecs.jpeg_quality_estimate(codecs.jpeg_encode(gray, quality=63)) == (63, True)
    rgb = np.full((9, 9, 3), 50, np.uint8)
    assert codecs.jpeg_quality_estimate(
        codecs.jpeg_encode(rgb, quality=40, subsample=True)) == (40, True)


def test_jpeg_quality_estimate_custom_table_not_exact():
    # hand-build a DQT segment with a perturbed (non-IJG) table
    data = codecs.jpeg_encode(np.full((8, 8), 10, np.uint8), quality=80)
    # locate the DQT payload and bump one coefficient
    i = data.find(b"\xff\xdb")
    assert i > 0
    mutated = bytearray(data)
    mutated[i + 5] = min(255, mutated[i + 5] + 3)
    est, exact = codecs.jpeg_quality_estimate(bytes(mutated))
    assert exact is False
    assert abs(est - 80) <= 2  # least-squares stays in the neighborhood


def test_jpeg_marker_fill_bytes_tolerated():
    # ITU T.81 B.1.1.2: markers may be preceded by any number of 0xFF
    # fill bytes; a padded file must still parse (quality estimate AND
    # full decode)
    img = (np.arange(24 * 24 * 3, dtype=np.uint8).reshape(24, 24, 3)
           % 251)
    data = codecs.jpeg_encode(img, quality=77)
    # pad every marker boundary after SOI with fill bytes
    padded = bytearray(data[:2])
    pos, n = 2, len(data)
    padded += b"\xff"  # fill before the first marker
    padded += data[2:]
    padded = bytes(padded)
    assert codecs.jpeg_quality_estimate(padded) == \
        codecs.jpeg_quality_estimate(data)
    assert np.array_equal(codecs.jpeg_decode(padded),
                          codecs.jpeg_decode(data))


def test_jpeg_quality_estimate_rejects_non_jpeg():
    with pytest.raises(ValueError):
        codecs.jpeg_quality_estimate(b"\x89PNG\r\n")


# ---------------------------------------------------------------------------
# native-codec seam (stages/multimodal.py)
# ---------------------------------------------------------------------------

def test_native_decoder_dispatch_and_fallback():
    from full_text_extractor_v6_ray.stages import multimodal as mm

    img = (np.arange(16 * 16 * 3, dtype=np.uint8).reshape(16, 16, 3)
           % 251)
    png = codecs.png_encode(img)
    pure = mm.decode_image_payload(png)
    assert np.array_equal(pure, img)

    calls = []

    def fake_native(payload):
        calls.append(len(payload))
        return img.copy()

    mm.register_native_decoder("png", fake_native)
    try:
        out = mm.decode_image_payload(png)
        assert calls and np.array_equal(out, pure)  # dispatched + equal

        # a native decoder that fails degrades to the pure codec
        def broken(payload):
            raise RuntimeError("native blew up")

        mm.register_native_decoder("png", broken)
        out2 = mm.decode_image_payload(png)
        assert np.array_equal(out2, pure)

        # a native decoder returning garbage shape is rejected too
        mm.register_native_decoder("png", lambda p: np.zeros(3))
        out3 = mm.decode_image_payload(png)
        assert np.array_equal(out3, pure)
    finally:
        mm.unregister_native_decoder("png")
    # unregistered: pure path again, no stale native state
    assert np.array_equal(mm.decode_image_payload(png), pure)


def test_native_seam_covers_all_formats():
    from full_text_extractor_v6_ray.stages import multimodal as mm

    gray = (np.arange(8 * 8, dtype=np.uint8).reshape(8, 8) * 3) % 251
    payloads = {
        "png": codecs.png_encode(gray),
        "bmp": codecs.bmp_encode(np.stack([gray] * 3, axis=-1)),
        "jpeg": codecs.jpeg_encode(gray, quality=90),
    }
    for fmt, payload in payloads.items():
        assert mm._sniff_image_format(payload) == fmt
        pure = mm.decode_image_payload(payload)
        marker = pure.copy()
        mm.register_native_decoder(fmt, lambda p, _m=marker: _m)
        try:
            assert np.array_equal(mm.decode_image_payload(payload), pure)
        finally:
            mm.unregister_native_decoder(fmt)


# ---------------------------------------------------------------------------
# MJPEG-in-AVI
# ---------------------------------------------------------------------------

def test_avi_mjpeg_roundtrip_gray_and_rgb():
    frames = [np.full((16, 24), g, np.uint8) for g in (0, 64, 128, 255)]
    avi = codecs.avi_mjpeg_encode(frames, fps=12, quality=90)
    probe = codecs.avi_mjpeg_probe(avi)
    assert probe == {"width": 24, "height": 16, "n_frames": 4, "fps": 12}
    outs = list(codecs.avi_mjpeg_frames(avi))
    assert [i for i, _ in outs] == [0, 1, 2, 3]
    for (_, jpeg), f in zip(outs, frames):
        np.testing.assert_array_equal(codecs.jpeg_decode(jpeg), f)

    rgb = [_rand((9, 11, 3), seed=i) for i in range(3)]
    avi2 = codecs.avi_mjpeg_encode(rgb, fps=1)
    assert codecs.avi_mjpeg_probe(avi2)["n_frames"] == 3
    for (_, jpeg), f in zip(codecs.avi_mjpeg_frames(avi2), rgb):
        dec = codecs.jpeg_decode(jpeg)
        assert dec.shape == f.shape     # lossy: shape only for noise

    # odd-sized jpeg chunks must keep RIFF 2-byte alignment
    one = codecs.avi_mjpeg_encode([np.full((8, 8), 7, np.uint8)])
    assert len(list(codecs.avi_mjpeg_frames(one))) == 1


def test_avi_mjpeg_rejects_non_avi():
    with pytest.raises(ValueError):
        codecs.avi_mjpeg_probe(b"RIFFxxxxWAVE")
    with pytest.raises(ValueError):
        list(codecs.avi_mjpeg_frames(b"not riff at all"))
    with pytest.raises(ValueError):
        codecs.avi_mjpeg_encode([])


def test_frame_sample_batch_avi(ray_session):
    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.multimodal import (
        FrameSampleBatch,
        decode_image_batch,
    )

    frames = [np.full((8, 8), 10 * i, np.uint8) for i in range(5)]
    avi = codecs.avi_mjpeg_encode(frames, fps=4, quality=90)
    batch = pa.table({
        "id": pa.array([1], pa.int64()),
        "media": pa.array([avi], pa.binary()),
        "media_type": pa.array(["video/avi"], pa.string()),
    })
    sampled = FrameSampleBatch(stride=2)(batch)
    assert sampled.column("frame_idx").to_pylist() == [0, 2, 4]
    assert sampled.column("media_type").to_pylist() == ["image/jpeg"] * 3
    decoded = decode_image_batch(sampled)
    means = [m["mean_intensity"]
             for m in decoded.column("media_meta").to_pylist()]
    assert means == [0.0, 20.0, 40.0]
    assert decoded.column("decode_error").to_pylist() == ["", "", ""]
