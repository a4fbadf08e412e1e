"""Seeded inputs for the three workloads, and their reference digests.

Every input is a pure function of ``(workload, seed, size)``: the same
arguments give byte-identical files. Generation and the single-process
reference recomputation both run before any timed region; ``run.py``
caches their output per ``(workload, seed, size, program sources)``.

Layout of one input directory:

  pages_parquet/  pages/part-*.parquet            (url, warc_ts, html, text, lang)
  warc_recrawl/   warc/seg-*.warc[.gz]
  cdc_delta/      snap_a/*.parquet, snap_b/*.parquet (url-unique pages)
  every workload: meta.json (counts + reference digest of the output)
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import html as _html
import io
import json
import os
import random
import zipfile

import pyarrow as pa
import pyarrow.parquet as pq

from full_text_extractor_v6_ray.extractor.ole2 import build_doc, build_xls
from full_text_extractor_v6_ray.sources.pages_gen import (
    PAGES_SCHEMA,
    PageGenBatch,
    build_page_row,
)
from full_text_extractor_v6_ray.sources.warc import (
    build_warc_segment,
    gunzip_members,
    iter_warc_records,
)
from full_text_extractor_v6_ray.stages.extract import ExtractBatch

WORKLOADS = ("pages_parquet", "warc_recrawl", "cdc_delta")

# Vocabulary, word-count range, language mix and source count of the
# documents table the repo's test fixtures use; the benchmark draws its
# own documents from them so it needs no data outside the checkout.
_VOCAB = ("a agg batch big column customer data dup fast filter group hash "
          "join key line merge order part query row scan slow small sort "
          "spark stream table the value vector window").split()
_LANGS = ("en", "zh", "es", "fr", "de")
_LANG_WEIGHTS = (41, 15, 15, 15, 14)
_N_SOURCES = 20
_N_FILES = 4              # parquet files per snapshot (read tasks)
_BATCH = 128              # ExtractBatch rows per call in the reference pass
_BASE_TS = datetime.datetime(2025, 3, 1)


def documents(seed: int, n: int, first_id: int = 0) -> pa.Table:
    """``n`` synthetic documents ``(doc_id, text, lang, source)``."""
    rng = random.Random(f"docs:{seed}")
    ids, texts, langs, sources = [], [], [], []
    for i in range(n):
        d = first_id + i
        ids.append(d)
        texts.append(" ".join(rng.choice(_VOCAB)
                              for _ in range(rng.randint(10, 100))))
        langs.append(rng.choices(_LANGS, _LANG_WEIGHTS)[0])
        sources.append(f"src{d % _N_SOURCES}")
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": texts, "lang": langs, "source": sources})


def _write_parts(table: pa.Table, out: str, n_files: int = _N_FILES) -> None:
    os.makedirs(out, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(out, f"part-{i:05d}.parquet"))


def digest_pairs(urls, texts) -> str:
    """sha256 over the sorted ``(url, md5(extracted_text))`` pairs."""
    lines = sorted(f"{u}\t{hashlib.md5((t or '').encode()).hexdigest()}"
                   for u, t in zip(urls, texts))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _extract(pages: pa.Table) -> pa.Table:
    ex = ExtractBatch()
    parts = [ex(pages.slice(i, _BATCH))
             for i in range(0, pages.num_rows, _BATCH)]
    return pa.concat_tables(parts) if parts else None


def _keep_latest(t: pa.Table) -> tuple[list, list, int]:
    """Keep-latest per url with the pipeline's order (warc_ts desc,
    n_chars desc); returns (urls, texts, error rows)."""
    rows = sorted(zip(t.column("url").to_pylist(),
                      t.column("warc_ts").to_pylist(),
                      t.column("n_chars").to_pylist(),
                      t.column("extracted_text").to_pylist(),
                      t.column("error").to_pylist()),
                  key=lambda r: (r[0], -r[1].timestamp(), -r[2]))
    urls, texts, errors, last = [], [], 0, None
    for url, _ts, _n, text, err in rows:
        if url == last:
            continue
        last = url
        urls.append(url)
        texts.append(text)
        errors += bool(err)
    return urls, texts, errors


def _reference(pages: pa.Table) -> dict:
    urls, texts, errors = _keep_latest(_extract(pages))
    return {"rows": len(urls), "errors": errors,
            "digest": digest_pairs(urls, texts)}


# ---------------------------------------------------------------------------
# pages_parquet: PageGenBatch pages over seeded documents
# ---------------------------------------------------------------------------

def _gen_pages_parquet(out: str, seed: int, size: int) -> dict:
    pages = PageGenBatch(seed)(documents(seed, size))
    _write_parts(pages, os.path.join(out, "pages"))
    return {"input_pages": pages.num_rows, **_reference(pages)}


# ---------------------------------------------------------------------------
# warc_recrawl: WARC segments, every url captured three times
# ---------------------------------------------------------------------------

_CAPTURES = 3
_SEGMENTS_PER_CAPTURE = 2


def _docx(paragraphs: list[str]) -> bytes:
    body = "".join(f"<w:p><w:r><w:t>{_html.escape(p)}</w:t></w:r></w:p>"
                   for p in paragraphs)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("word/document.xml",
                    f"<w:document><w:body>{body}</w:body></w:document>")
    return buf.getvalue()


def _warc_payload(i: int, doc_id: int, text: str, lang: str, source: str,
                  capture: int, seed: int) -> bytes:
    """Capture ``capture`` of url ``i``. Half the urls are HTML pages
    (``build_page_row``, which keeps its own PDF / garbage mix); the
    rest cycle through .doc, .xls, OOXML zip, gzip>html and PDF."""
    words = text.split()
    paras = [" ".join(words[j:j + 12]) + f" capture {capture}."
             for j in range(0, len(words), 12)]
    kind = i % 10
    page_seed = seed * _CAPTURES + capture
    if kind < 5:
        return build_page_row(doc_id, text, lang, source, page_seed)[0]["html"]
    if kind == 5:
        return build_doc(paras, links=[(f"Ref {doc_id}",
                                        f"https://ref.example/{doc_id}")])
    if kind == 6:
        return build_xls([(f"S{capture}",
                           [["word", "count"]]
                           + [[w, len(w) * (capture + 1)]
                              for w in words[:8]])])
    if kind == 7:
        return _docx(paras)
    if kind == 8:
        page = build_page_row(doc_id, text, lang, source, page_seed)[0]
        return gzip.compress(page["html"], 6, mtime=0)
    # PDF: build_page_row emits a PDF for doc ids congruent to 3 mod 50
    pdf_id = doc_id - doc_id % 50 + 3
    return build_page_row(pdf_id, text, lang, source, page_seed)[0]["html"]


def _gen_warc_recrawl(out: str, seed: int, size: int) -> dict:
    # first id 3: the HTML half then holds build_page_row's 1% garbage
    # payloads, which have no text fallback here (error "no_content")
    docs = documents(seed, size, first_id=3).to_pylist()
    wdir = os.path.join(out, "warc")
    os.makedirs(wdir)
    rows = []
    for capture in range(_CAPTURES):
        recs = []
        for i, d in enumerate(docs):
            url = f"https://crawl{d['doc_id'] % 97}.example.net/p/{seed}/{i}"
            ts = (_BASE_TS + datetime.timedelta(days=capture,
                                                seconds=7 * i))
            body = _warc_payload(i, d["doc_id"], d["text"], d["lang"],
                                 d["source"], capture, seed)
            recs.append((url, ts, body))
        step = -(-len(recs) // _SEGMENTS_PER_CAPTURE)
        for s in range(_SEGMENTS_PER_CAPTURE):
            gz = (capture * _SEGMENTS_PER_CAPTURE + s) % 2 == 1
            name = f"seg-{capture}-{s}.warc" + (".gz" if gz else "")
            with open(os.path.join(wdir, name), "wb") as f:
                f.write(build_warc_segment(recs[s * step:(s + 1) * step],
                                           gzip_members=gz,
                                           http_envelope_every=5))
    # the reference reads the segments back with the source's own walkers
    for name in sorted(os.listdir(wdir)):
        with open(os.path.join(wdir, name), "rb") as f:
            payload = f.read()
        if name.endswith(".gz"):
            payload = gunzip_members(payload)
        rows += [{"url": u, "warc_ts": t, "html": b, "text": "", "lang": ""}
                 for u, t, b in iter_warc_records(payload)]
    pages = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    return {"input_pages": pages.num_rows, **_reference(pages)}


# ---------------------------------------------------------------------------
# cdc_delta: two url-unique snapshots, 5% changed / 2% new / 1% gone
# ---------------------------------------------------------------------------

def _url_unique_pages(docs: pa.Table, seed: int) -> list[dict]:
    gen = PageGenBatch(seed)
    out, seen = [], set()
    for r in gen(docs).to_pylist():
        if r["url"] not in seen:
            seen.add(r["url"])
            out.append(r)
    return out


def _gen_cdc_delta(out: str, seed: int, size: int) -> dict:
    snap_a = _url_unique_pages(documents(seed, size), seed)
    rng = random.Random(f"cdc:{seed}")
    idx = list(range(len(snap_a)))
    rng.shuffle(idx)
    # at least one url of each kind, so that a small input still has
    # pages to extract and urls to tombstone
    n_changed = max(1, len(snap_a) * 5 // 100)
    n_gone = max(1, len(snap_a) // 100)
    changed = set(idx[:n_changed])
    gone = set(idx[n_changed:n_changed + n_gone])
    snap_b = []
    for j, r in enumerate(snap_a):
        if j in gone:
            continue
        if j in changed:
            r = dict(r, html=r["html"] + f"<!-- rev {seed} -->".encode()
                     + b"<p>Updated paragraph for the recrawl.</p>",
                     warc_ts=r["warc_ts"] + datetime.timedelta(days=30))
        snap_b.append(r)
    new_docs = documents(seed + 1, max(1, size * 2 // 100),
                         first_id=10 * size + 1)
    new = _url_unique_pages(new_docs, seed)
    snap_b += new
    changed_urls = {snap_a[k]["url"] for k in changed}
    work = [r for r in snap_b if r["url"] in changed_urls] + new
    for name, rows in (("snap_a", snap_a), ("snap_b", snap_b)):
        _write_parts(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
                     os.path.join(out, name))
    ref = _reference(pa.Table.from_pylist(work, schema=PAGES_SCHEMA))
    return {"input_pages": len(snap_b),
            "counts": {"n_new": len(new), "n_changed": n_changed,
                       "n_gone": n_gone,
                       "n_unchanged": len(snap_a) - n_changed - n_gone},
            **ref}


_GENERATORS = {"pages_parquet": _gen_pages_parquet,
               "warc_recrawl": _gen_warc_recrawl,
               "cdc_delta": _gen_cdc_delta}


def generate(workload: str, out: str, seed: int, size: int) -> dict:
    """Write the inputs of one workload under ``out`` and return their
    meta (counts and reference digest), also saved as ``meta.json``."""
    os.makedirs(out, exist_ok=True)
    meta = {"workload": workload, "seed": seed, "size": size,
            **_GENERATORS[workload](out, seed, size)}
    with open(os.path.join(out, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    return meta
