"""Router rules of ``extract_document`` per payload kind, and extracted
bytes that do not depend on which optional packages are importable."""

from __future__ import annotations

import gzip
import io
import json
import os
import subprocess
import sys
import zipfile

import pytest

from full_text_extractor_v6_ray.extractor import document
from full_text_extractor_v6_ray.extractor.ole2 import build_doc
from full_text_extractor_v6_ray.extractor.sniff import OLE2_MAGIC
from full_text_extractor_v6_ray.sources.pages_gen import _mk_pdf

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FALLBACK = "Upstream plain text."
LINKED_HTML = (b"<html><body><p>This paragraph has plenty of ordinary words "
               b"around <a href='https://x.com/z'>one link</a> so it stays."
               b"</p></body></html>")


def _zip(members: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def _gz(data: bytes) -> bytes:
    return gzip.compress(data, mtime=0)


def _fields(res, *names) -> dict:
    return {n: getattr(res, n) for n in names}


def _pdf_error_ignores_fallback(_mp):
    res = document.extract_document(b"%PDF-1.7\nbinary stuff", FALLBACK)
    return _fields(res, "method", "error", "extracted_text")


def _ole2_error_uses_fallback(_mp):
    res = document.extract_document(OLE2_MAGIC + b"\x00" * 64, FALLBACK)
    return _fields(res, "method", "error", "extracted_text")


def _pdf_links(_mp):
    res = document.extract_document(
        _mk_pdf(["Para one."], link="https://x.com/p"), FALLBACK)
    return _fields(res, "method", "links")


def _zip_links(_mp):
    res = document.extract_document(_zip({"a.html": LINKED_HTML}))
    return _fields(res, "method", "links")


def _ole2_links(_mp):
    res = document.extract_document(
        build_doc(["Intro."], links=[("Click", "https://x.com/o")]))
    return _fields(res, "method", "links")


def _zip_override_then_restore(_mp):
    payload = _zip({"a.html": LINKED_HTML})
    builtin = document.extract_document(payload)
    document.register_extractor(
        "zip", lambda p, fb, cfg: document.ExtractResult(method="custom"))
    try:
        overridden = document.extract_document(payload).method
    finally:
        document.unregister_extractor("zip")
    restored = document.extract_document(payload)
    return {"overridden": overridden, "method": restored.method,
            "same_as_builtin": restored == builtin}


def _gzip_zip_gzip_depth(mp):
    # gzip@0 > zip@1 > gzip@2 > zip@3: the last zip is one level too deep
    payload = _gz(_zip({"m.gz": _gz(_zip({"a.html": LINKED_HTML}))}))
    calls = []
    real = document.extract_document

    def spy(data, *args, _depth=0, **kwargs):
        res = real(data, *args, _depth=_depth, **kwargs)
        calls.append((_depth, res.error))
        return res

    mp.setattr(document, "extract_document", spy)
    res = document.extract_document(payload)
    return {"method": res.method, "error": res.error,
            "calls": sorted(calls)}


ROUTER_CASES = [
    (_pdf_error_ignores_fallback,
     {"method": "error", "error": "pdf_unsupported", "extracted_text": ""}),
    (_ole2_error_uses_fallback,
     {"method": "fallback_text", "error": "", "extracted_text": FALLBACK}),
    (_pdf_links,
     {"method": "pdf", "links": [("Link on page 1", "https://x.com/p")]}),
    (_zip_links, {"method": "zip", "links": [("one link", "https://x.com/z")]}),
    (_ole2_links, {"method": "doc", "links": [("Click", "https://x.com/o")]}),
    (_zip_override_then_restore,
     {"overridden": "custom", "method": "zip", "same_as_builtin": True}),
    (_gzip_zip_gzip_depth,
     {"method": "gzip>error", "error": "zip_empty",
      "calls": [(0, "zip_empty"), (1, "zip_empty"),
                (2, "container_depth"), (3, "container_depth")]}),
]


@pytest.mark.parametrize("case,expected", ROUTER_CASES,
                         ids=[c.__name__.strip("_") for c, _ in ROUTER_CASES])
def test_router_rules(case, expected, monkeypatch):
    assert case(monkeypatch) == expected


_PROBE = """
import hashlib, importlib.util, json
import numpy as np
from full_text_extractor_v6_ray.extractor import codecs
from full_text_extractor_v6_ray.extractor.pdf import extract_pdf
from full_text_extractor_v6_ray.sources.pages_gen import _mk_pdf
from full_text_extractor_v6_ray.stages.multimodal import decode_image_payload

rgb = np.array([[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [255, 0, 0]]],
               np.uint8)
img = decode_image_payload(codecs.gif_encode(rgb))
print(json.dumps({
    "stubs": [importlib.util.find_spec(m) is not None
              for m in ("fitz", "PIL")],
    "pdf": extract_pdf(_mk_pdf(["First para.", "Second para."],
                               link="https://x.com/ref")),
    "gif": [list(img.shape), hashlib.sha1(img.tobytes()).hexdigest()],
}))
"""

_FITZ_STUB = """
class _Page:
    def get_text(self):
        return "stub text"

    def get_links(self):
        return [{"uri": "https://stub.example/"}]


def open(stream=None, filetype=None):
    return [_Page()]
"""

# what PIL gives for a palette image: a 2-D array of palette indices
_PIL_IMAGE_STUB = """
import numpy as np


def open(fp):
    return np.zeros((2, 2), np.uint8)
"""


def _probe(*path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((*path, REPO)))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=REPO,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_output_does_not_depend_on_importable_packages(tmp_path):
    (tmp_path / "fitz.py").write_text(_FITZ_STUB)
    (tmp_path / "PIL").mkdir()
    (tmp_path / "PIL" / "__init__.py").write_text("")
    (tmp_path / "PIL" / "Image.py").write_text(_PIL_IMAGE_STUB)

    plain = _probe()
    stubbed = _probe(str(tmp_path))
    assert stubbed.pop("stubs") == [True, True]
    plain.pop("stubs")
    assert stubbed == plain
    assert plain["gif"][0] == [2, 2, 3]
