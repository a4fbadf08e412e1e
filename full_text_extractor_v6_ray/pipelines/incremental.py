"""Incremental recrawl extraction: extract only what changed (CDC).

The reference reprocesses every input file on every run
(/root/reference/src/core/folder_processor.py walks the whole folder);
at 10^12 urls a recrawl round touches a few percent of the corpus and
re-extracting the rest is the dominant wasted cost. This pipeline makes
the delta the unit of work. A round is dispatched on the previous
manifest's row count ``n_prev`` (the only side held whole; the current
pages stream):

  n_prev ≤ BROADCAST_MAX — the single-scan probe path:

    manifest/round-{k-1} ──▶ SortedKeyIndex(url) + hash, built and
                             ray.put ONCE per round on the driver
                                                         │
    pages_k ──▶ per batch, in the task that read it:     ▼
                md5(html) ──▶ (url, hash) part ──▶ manifest/round-k.tmp
                probe prev: keep new + changed rows only
            ──▶ extract ──▶ out/<state>/delta/round-k/ (+ round col)
    driver: stream the tmp parts' urls into a "seen" bitmap over prev
            ──▶ unseen prev urls ──▶ out/<state>/tombstones/round-k/

  n_prev > BROADCAST_MAX — the exchange path:

    pages_k ──(url, md5(html)) slim rows──▶ manifest/round-k.tmp
    snapshot_diff(prev, cur): ONE bucketed exchange; its blocks write
      the tombstones and keep only the work urls (materialized)
    pages_k ── filter_to_keys(work urls) ──▶ extract ──▶ delta/round-k/

  either way: manifest/round-k.tmp ──rename──▶ manifest/round-k/
              (url → hash, full; the rename is the commit point)

Ray executions per round: 1 on the probe path (bootstrap included: its
prev is empty); 3 on the exchange path (slim write, diff, extract +
delta write), plus ``filter_to_keys``'s one-row schema probe when the
work urls join lazily built pages. With ``slim=`` rows (a CDX index)
the probe runs over the slim rows, writing the manifest parts and
materializing the work urls, and the pages are read once, filtered to
them: 2 executions. The status counts need no pass of their own: they
follow from the manifest, tombstone and delta row counts.

Consumers read base+deltas (``read_current_corpus``) — the standard CDC
contract; unchanged rows are never copied forward, so a round's compute
is O(delta) plus ONE O(corpus) page scan that hashes, diffs and filters
each page where it is read (measured 1.98× vs full re-extraction at
500k×5 KB pages with a 5% delta when the round still scanned the pages
twice, scripts/incremental_bench.py). A WARC source can skip the md5
by trusting the WARC-Payload-Digest record header instead of hashing
payloads. Scale shape: the slim hash rows are ~50 B/url (vs ~KB pages);
the only corpus-wide exchange (above the threshold) moves those slim
rows; pages cross the cluster once, filtered to the work list BEFORE
extraction. Everything is deterministic and a re-run of the same round
is a no-op (idempotence test).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..stages.crawl import snapshot_diff
from ..stages.hashing import md5_hex
from ..stages.joins import BROADCAST_MAX, SortedKeyIndex, filter_to_keys
from .extract_pipeline import extract_pages


def _rounds(state_dir: str) -> list[int]:
    mdir = os.path.join(state_dir, "manifest")
    if not os.path.isdir(mdir):
        return []
    out = []
    for f in os.listdir(mdir):
        if f.startswith("round-") and not f.endswith(".tmp"):
            out.append(int(f[len("round-"):]))
    return sorted(out)


def _manifest_meta(state_dir: str, k: int) -> dict | None:
    """Read the committed round-``k`` manifest's ``_meta.json`` (hash
    kind etc.); None for pre-meta state dirs."""
    p = os.path.join(state_dir, "manifest", f"round-{k}", "_meta.json")
    if not os.path.isfile(p):
        return None
    with open(p) as f:
        return json.load(f)


def _fresh_dir(path: str) -> str:
    """rmtree+makedirs: a re-run after a mid-round crash must not leave
    the crashed attempt's partial uuid-named parquet files beside the
    new ones (write_parquet appends, it never clears)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


_WORK = pa.array(["changed", "new"], pa.string())
_SLIM = pa.schema([("url", pa.string()), ("hash", pa.string())])


def incremental_extraction_round(
    pages: "ray.data.Dataset",
    state_dir: str,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    broadcast_max: int = BROADCAST_MAX,
    hash_col: str | None = None,
    slim: "ray.data.Dataset | None" = None,
    slim_hash_kind: str = "md5",
) -> dict:
    """Run one incremental round over url-unique ``pages`` (url, warc_ts,
    html[, text, lang]); returns the round summary. Writes are atomic:
    the manifest rows, tombstones and delta go into per-round dirs
    first, then ``_meta.json`` and one tmp→rename of the manifest dir
    (the commit record), so a crashed round is invisible and re-runs
    cleanly.

    The diff is dispatched on the previous manifest's row count: at or
    below ``broadcast_max`` its url → hash lookup is built once on the
    driver and broadcast, and every page batch is hashed, written to
    the manifest and filtered to its new and changed rows in the task
    that read it (one execution); above it the slim rows go through one
    bucketed exchange that moves no url row to the driver.

    ``hash_col`` names a crawler-recorded content-hash column (e.g. the
    ``payload_digest`` column ``read_warc_dir(include_digest=True)``
    surfaces from ``WARC-Payload-Digest`` headers) to TRUST instead of
    md5-hashing every payload — at 100 TB that removes the corpus-wide
    md5 work; rows where the column is null fall back to md5(html) per
    row.

    ``slim`` supplies the (url, hash) rows directly — e.g. a CDX
    capture index built at crawl time (``sources/warc.build_cdx_index``
    — its ``digest`` column is md5 of the record body, exactly this
    pipeline's md5 mode), projected to columns ``url`` + ``hash``. The
    round then never hashes ``pages`` at all: pages are read ONCE,
    filtered to the work list. The rows must cover exactly the urls of
    ``pages`` (url-unique); ``slim_hash_kind`` names the hash function
    for the manifest-mode guard ("md5" for CDX digests)."""
    done = _rounds(state_dir)
    k = (done[-1] + 1) if done else 0
    os.makedirs(os.path.join(state_dir, "manifest"), exist_ok=True)

    # Hash-mode guard: a round hashed with md5 diffed against a manifest
    # of WARC digests (or vice versa) silently classifies the WHOLE
    # corpus as 'changed' — refuse instead of wasting a full round.
    if slim is not None:
        hash_kind = slim_hash_kind
    elif hash_col is not None:
        hash_kind = f"col:{hash_col}"
    else:
        hash_kind = "md5"
    if done:
        meta = _manifest_meta(state_dir, done[-1])
        if meta is None:
            warnings.warn(
                f"manifest round-{done[-1]} predates hash-kind metadata; "
                f"cannot verify it was produced with {hash_kind!r}",
                stacklevel=2)
        elif meta.get("hash_kind") != hash_kind:
            raise ValueError(
                f"hash mode mismatch: manifest round-{done[-1]} was built "
                f"with {meta.get('hash_kind')!r} but this round uses "
                f"{hash_kind!r} — diffing across hash functions marks the "
                "entire corpus changed; pass the same hash_col")

    hash_src = "hash" if slim is not None else hash_col

    def content_hash(batch: pa.Table) -> pa.Array:
        if hash_src is None:
            return md5_hex(batch.column("html"))
        given = pc.cast(batch.column(hash_src).combine_chunks(), pa.string())
        if not given.null_count:
            return given
        # md5 only the digest-less payloads (digest coverage in real
        # crawls is ~total, so the fallback touches few rows)
        miss = pc.is_null(given)
        return pc.replace_with_mask(
            given, miss, md5_hex(batch.column("html").filter(miss)))

    # the round's manifest rows go straight into the uncommitted tmp dir
    man_tmp = _fresh_dir(
        os.path.join(state_dir, "manifest", f"round-{k}.tmp"))
    tomb_dir = _fresh_dir(
        os.path.join(state_dir, "tombstones", f"round-{k}"))
    delta_dir = _fresh_dir(os.path.join(state_dir, "delta", f"round-{k}"))
    prev_dir = (os.path.join(state_dir, "manifest", f"round-{done[-1]}")
                if done else None)
    n_prev = _parquet_rows(prev_dir) if done else 0

    if n_prev <= broadcast_max:
        index, prev_hash = _prev_lookup(prev_dir)
        ref = ray.put((index, prev_hash))

        def probe(batch: pa.Table) -> pa.Table:
            urls, h = batch.column("url"), content_hash(batch)
            if len(urls):
                pq.write_table(pa.table({"url": urls, "hash": h}),
                               _part_path(man_tmp, urls))
            return batch.filter(_new_or_changed(ray.get(ref), urls, h))

        if slim is None:
            work_pages = pages.map_batches(probe, batch_format="pyarrow",
                                           zero_copy_batch=True)
        else:
            work = slim.map_batches(
                lambda b: probe(b).select(["url"]),
                batch_format="pyarrow", zero_copy_batch=True).materialize()
            work_pages = filter_to_keys(pages, work, "url", work.count(),
                                        broadcast_max=broadcast_max)
        _write_delta(work_pages, delta_dir, k, cfg)
        _write_gone(index, man_tmp, tomb_dir, k)
    else:
        rows = pages if slim is None else slim
        rows.map_batches(
            lambda b: pa.table({"url": b.column("url"),
                                "hash": content_hash(b)}),
            batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(man_tmp)
        work, n_work = _diff_distributed(prev_dir, man_tmp, tomb_dir, k)
        # the normal recrawl regime: the delta is a few percent of the
        # corpus, so the work urls broadcast once and pages filter
        # map-side — the wide html rows never enter a shuffle (shipping
        # all pages through the semi-join exchange measured 10.6 s vs
        # full extraction's 11.0 s at 500k pages). A mass-change round
        # falls back to the bucketed semi-join (pages cross once).
        _write_delta(filter_to_keys(pages, work, "url", n_work,
                                    broadcast_max=broadcast_max),
                     delta_dir, k, cfg)
    # extraction emits one row per page, so the delta rows are the work
    counts = _counts(n_prev, _parquet_rows(man_tmp),
                     _parquet_rows(delta_dir), _parquet_rows(tomb_dir))

    # the manifest rename is the commit point: until it lands, readers
    # (``_rounds``) see neither this round's delta nor its tombstones.
    # The underscore prefix keeps parquet readers (pyarrow dataset
    # ignore_prefixes) from treating the meta file as data
    with open(os.path.join(man_tmp, "_meta.json"), "w") as f:
        json.dump({"hash_kind": hash_kind, "round": k}, f)
    os.rename(man_tmp, os.path.join(state_dir, "manifest", f"round-{k}"))

    return {
        "round": k,
        "n_new": counts["new"],
        "n_changed": counts["changed"],
        "n_gone": counts["gone"],
        "n_unchanged": counts["unchanged"],
        "extracted_rows": counts["new"] + counts["changed"],
        "state_dir": state_dir,
    }


def _write_delta(work_pages: "ray.data.Dataset", delta_dir: str, k: int,
                 cfg: ExtractConfig) -> None:
    extract_pages(work_pages, cfg=cfg).map_batches(
        lambda b: b.append_column(
            "round", pa.array([k] * b.num_rows, pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(delta_dir)


def _prev_lookup(prev_dir: str | None) -> tuple[SortedKeyIndex, pa.Array]:
    """The previous manifest's url index and the hash of each of its
    keys, in key order (both empty at bootstrap)."""
    # the explicit schema reads a round that wrote no rows as empty
    prev = (pq.read_table(prev_dir, schema=_SLIM) if prev_dir
            else _SLIM.empty_table())
    return (SortedKeyIndex(prev.column("url")),
            prev.column("hash").combine_chunks())


def _new_or_changed(prev: tuple[SortedKeyIndex, pa.Array], urls,
                    h: pa.Array) -> pa.Array:
    """Mask of the (url, hash) rows whose url is not in the previous
    manifest or whose hash differs from the one it recorded."""
    index, prev_hash = prev
    at = index.positions(urls)
    was = pc.take(prev_hash, pa.array(at, mask=at < 0))
    return pc.fill_null(pc.not_equal(was, h), True)


def _write_gone(index: SortedKeyIndex, cur_dir: str, tomb_dir: str,
                k: int) -> None:
    """Tombstone the previous manifest's urls that no current manifest
    part holds: each part's url column is read alone, one file at a
    time, and marks the prev urls it holds in a bitmap."""
    if not len(index):
        return
    seen = np.zeros(len(index), bool)
    for f in _parquet_files(cur_dir):
        at = index.positions(pq.read_table(f, columns=["url"])
                             .column("url"))
        seen[at[at >= 0]] = True
    _write_tombstones(index.keys.filter(pa.array(~seen)), tomb_dir, k)


def _parquet_files(path: str) -> list[str]:
    return [os.path.join(path, f) for f in sorted(os.listdir(path))
            if f.endswith(".parquet")]


def _parquet_rows(path: str) -> int:
    """Row count of a parquet dir, from the file footers alone."""
    return sum(pq.read_metadata(f).num_rows for f in _parquet_files(path))


def _counts(n_prev: int, n_cur: int, n_work: int, n_gone: int) -> dict:
    """The four status counts from row counts alone. Urls are unique on
    each side, so prev = gone + changed + unchanged, cur = new + changed
    + unchanged and work = new + changed."""
    unchanged = n_cur - n_work
    changed = n_prev - n_gone - unchanged
    return {"new": n_work - changed, "changed": changed, "gone": n_gone,
            "unchanged": unchanged}


def _part_path(dirname: str, urls) -> str:
    """A part file named after its first url: a retried task rewrites
    its own file, and two tasks never share one (urls are unique)."""
    name = hashlib.md5(urls[0].as_py().encode()).hexdigest()
    return os.path.join(dirname, f"part-{name}.parquet")


def _write_tombstones(gone, tomb_dir: str, k: int) -> None:
    """Write the gone urls as one tombstone part (no file when none is
    gone)."""
    if len(gone):
        pq.write_table(
            pa.table({"url": gone,
                      "round": pa.array([k] * len(gone), pa.int64())}),
            _part_path(tomb_dir, gone))


def _diff_distributed(prev_dir: str, cur_dir: str, tomb_dir: str, k: int
                      ) -> tuple["ray.data.Dataset", int]:
    """Corpus-scale diff: ONE bucketed exchange (``snapshot_diff``) over
    the slim manifests, in ONE execution: each diff block writes its
    gone urls' tombstones and keeps only its work urls, which
    materialize. No url row visits the driver. Returns the work-url
    Dataset and its row count."""
    def read(path: str, name: str) -> "ray.data.Dataset":
        return ray.data.read_parquet(path).map_batches(
            lambda b: pa.table({"url": b.column("url"),
                                name: b.column("hash")}),
            batch_format="pyarrow", zero_copy_batch=True)

    def settle(diff: pa.Table) -> pa.Table:
        if not diff.num_rows:  # an empty bucket's block may carry no schema
            return pa.table({"url": pa.array([], pa.string())})
        status = diff.column("status")
        _write_tombstones(diff.filter(pc.equal(status, "gone"))
                          .column("url"), tomb_dir, k)
        return pa.table({"url": diff.filter(pc.is_in(
            status, value_set=_WORK)).column("url")})

    work = snapshot_diff(read(prev_dir, "hash_a"), read(cur_dir, "hash_b")
                         ).map_batches(settle, batch_format="pyarrow",
                                       zero_copy_batch=True).materialize()
    return work, work.count()


def _round_files(state_dir: str, sub: str, rounds: list[int]) -> list[str]:
    """Parquet files of COMMITTED rounds only — an uncommitted round dir
    (crash between delta write and manifest rename, or a mid-compaction
    base) must be invisible to readers."""
    root = os.path.join(state_dir, sub)
    files: list[str] = []
    for r in rounds:
        full = os.path.join(root, f"round-{r}")
        if not os.path.isdir(full):
            continue
        files.extend(_parquet_files(full))
    return files


def read_current_corpus(state_dir: str) -> "ray.data.Dataset":
    """Reconstruct the live corpus from base+deltas: per url keep the
    highest-round delta row, then drop urls whose latest tombstone is
    newer — one keyed keep-one exchange over the delta rows plus a
    dimension-over-time tombstone decorate (tombstones accumulate at
    the rate urls die, far below corpus size; read as a Dataset and
    bucket-joined, never driver-materialized). Only rounds with a
    committed manifest are read."""
    from ..stages.dedup import keyed_keep_one
    from ..stages.joins import bucket_hash_join, lookup_hash_join

    done = _rounds(state_dir)
    files = _round_files(state_dir, "delta", done)
    if not files:
        raise ValueError(f"no committed rounds under {state_dir!r}")
    live = keyed_keep_one(ray.data.read_parquet(files), "url",
                          [("round", "descending")])

    tfiles = _round_files(state_dir, "tombstones", done)
    if not tfiles:
        return live
    tombs = keyed_keep_one(ray.data.read_parquet(tfiles), "url",
                           [("round", "descending")])
    tombs = tombs.map_batches(
        lambda b: pa.table({"url": b.column("url"),
                            "tomb_round": b.column("round")}),
        batch_format="pyarrow", zero_copy_batch=True)

    # tombstone resolution on SLIM (url, round) rows only — the wide
    # extracted rows (nested spans/links) never enter a pandas join;
    # survivors re-attach through the all-Arrow lookup join
    live_slim = ray.data.read_parquet(files, columns=["url", "round"])
    live_slim = keyed_keep_one(live_slim, "url", [("round", "descending")])
    joined = bucket_hash_join(live_slim, tombs, "url", "url", how="left")

    def survivors(batch: pa.Table) -> pa.Table:
        tr = batch.column("tomb_round")
        keep = pc.or_kleene(pc.is_null(tr),
                            pc.less(tr, batch.column("round")))
        return pa.table(
            {"url": batch.filter(pc.fill_null(keep, True)).column("url")})

    keep_urls = joined.map_batches(survivors, batch_format="pyarrow",
                                   zero_copy_batch=True)
    from ..stages.extract import EXTRACTED_SCHEMA

    live_schema = pa.schema(list(EXTRACTED_SCHEMA)
                            + [pa.field("round", pa.int64())])
    return lookup_hash_join(live, keep_urls, "url", "url",
                            left_schema=live_schema,
                            right_schema=pa.schema([("url", pa.string())]))


def compact_state(state_dir: str) -> dict:
    """Fold the delta chain + tombstones into a fresh single base round.

    After thousands of CDC rounds ``read_current_corpus`` lists and
    keep-one-reduces EVERY delta round — file count and reduce input
    grow with cumulative churn. Compaction writes the live corpus (the
    exact ``read_current_corpus`` output, ``round`` provenance column
    preserved byte-for-byte) as a NEW round ``k+1`` whose manifest is a
    copy of round ``k``'s (content hashes are unchanged by folding),
    then deletes the superseded rounds. The corpus every reader sees is
    identical before and after.

    Crash safety mirrors a normal round: the manifest rename is the
    commit point; until it lands the new base dir is invisible (readers
    walk committed rounds only). If the cleanup phase crashes midway,
    stale rounds coexist with the new base harmlessly — keep-one on the
    descending ``round`` column already resolves every url to the
    newest row and old tombstones only shadow rows they already
    shadowed — and the next compaction removes them. Re-running
    compaction is idempotent (it just folds the base into another base).
    """
    done = _rounds(state_dir)
    if not done:
        raise ValueError(f"no committed rounds under {state_dir!r}")
    k = done[-1]
    nk = k + 1

    live = read_current_corpus(state_dir)
    base_dir = _fresh_dir(os.path.join(state_dir, "delta", f"round-{nk}"))
    live.write_parquet(base_dir)

    # manifest/round-nk := manifest/round-k (hash map is fold-invariant);
    # copytree keeps _meta.json so the hash-kind guard survives compaction
    man_tmp = os.path.join(state_dir, "manifest", f"round-{nk}.tmp")
    shutil.rmtree(man_tmp, ignore_errors=True)
    shutil.copytree(os.path.join(state_dir, "manifest", f"round-{k}"),
                    man_tmp)
    meta = _manifest_meta(state_dir, k)
    if meta is not None:
        meta["round"] = nk
        with open(os.path.join(man_tmp, "_meta.json"), "w") as f:
            json.dump(meta, f)
    os.rename(man_tmp, os.path.join(state_dir, "manifest", f"round-{nk}"))

    # cleanup (post-commit): manifests first so the committed-round set
    # shrinks to {nk} before any data dir disappears
    for r in done:
        shutil.rmtree(os.path.join(state_dir, "manifest", f"round-{r}"),
                      ignore_errors=True)
    for r in done:
        shutil.rmtree(os.path.join(state_dir, "delta", f"round-{r}"),
                      ignore_errors=True)
        shutil.rmtree(os.path.join(state_dir, "tombstones", f"round-{r}"),
                      ignore_errors=True)

    return {"compacted_into_round": nk, "folded_rounds": done,
            "state_dir": state_dir}
