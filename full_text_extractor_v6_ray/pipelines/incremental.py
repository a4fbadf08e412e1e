"""Incremental recrawl extraction: extract only what changed (CDC).

The reference reprocesses every input file on every run
(/root/reference/src/core/folder_processor.py walks the whole folder);
at 10^12 urls a recrawl round touches a few percent of the corpus and
re-extracting the rest is the dominant wasted cost. This pipeline makes
the delta the unit of work:

  round k:  pages_k ──(url, md5(html)) slim rows──▶ manifest/round-k.tmp
            manifest/round-{k-1} (url → hash) ──────────┤
                                                         ▼
            diff, dispatched on prev + cur slim rows vs BROADCAST_MAX:
              ≤ : one Arrow hash probe on the driver (snapshot_diff_table)
              > : snapshot_diff (ONE bucketed exchange); its blocks
                  write the tombstones and keep only the work urls
                                                         ▼
            new+changed urls ── filter_to_keys ──▶ extract ONLY those
                                                         ▼
            out/<state>/delta/round-k/      (extracted rows, + round col)
            out/<state>/tombstones/round-k/ (gone urls)
            out/<state>/manifest/round-k/   (url → hash, full; the tmp
                                             dir's rename commits)

Ray executions per round: the slim pass (which writes the manifest
rows) and extract + delta write — 2 at or below the threshold and at
bootstrap; above it add the diff, which also writes the tombstones and
materializes the work urls — 3, plus ``filter_to_keys``'s one-row
schema probe when the work urls join lazily built pages. The status
counts need no pass of their own: they follow from the manifest,
tombstone and work row counts.

Consumers read base+deltas (``read_current_corpus``) — the standard CDC
contract; unchanged rows are never copied forward, so a round's compute
is O(delta) plus two O(corpus) page scans (one slim hash pass, one
filtered pass — measured 1.98× vs full re-extraction at 500k×5 KB
pages with a 5% delta, scripts/incremental_bench.py). A WARC source
can skip the first scan by trusting the WARC-Payload-Digest record
header instead of hashing payloads. Scale shape: the slim hash rows are
~50 B/url (vs ~KB pages); the only corpus-wide exchange moves those slim
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

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..stages.crawl import snapshot_diff, snapshot_diff_table
from ..stages.hashing import md5_hex
from ..stages.joins import BROADCAST_MAX, filter_to_keys
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

    The diff is size-dispatched like ``latest_captures``: when the
    previous and current slim rows together are at most
    ``broadcast_max`` it runs on the driver in Arrow, else as one
    bucketed exchange that moves no url row to the driver.

    ``hash_col`` names a crawler-recorded content-hash column (e.g. the
    ``payload_digest`` column ``read_warc_dir(include_digest=True)``
    surfaces from ``WARC-Payload-Digest`` headers) to TRUST instead of
    md5-hashing every payload — at 100 TB that removes the whole
    corpus-wide hash scan; rows where the column is null fall back to
    md5(html) per row.

    ``slim`` supplies the (url, hash) rows directly — e.g. a CDX
    capture index built at crawl time (``sources/warc.build_cdx_index``
    — its ``digest`` column is md5 of the record body, exactly this
    pipeline's md5 mode), projected to columns ``url`` + ``hash``. The
    round then never scans ``pages`` for hashing at all: pages are read
    ONCE, filtered to the work list. The rows must cover exactly the
    urls of ``pages`` (url-unique); ``slim_hash_kind`` names the hash
    function for the manifest-mode guard ("md5" for CDX digests)."""
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

    def _slim(batch: pa.Table) -> pa.Table:
        if hash_col is not None:
            # md5 only the digest-less payloads (digest coverage in real
            # crawls is ~total, so the fallback touches few rows)
            given = pc.cast(batch.column(hash_col).combine_chunks(),
                            pa.string())
            miss = pc.is_null(given)
            h = pc.replace_with_mask(
                given, miss, md5_hex(batch.column("html").filter(miss)))
        else:
            h = md5_hex(batch.column("html"))
        return pa.table({"url": batch.column("url"), "hash": h})

    # the slim pass writes the round's manifest rows straight into the
    # uncommitted tmp dir: the diff reads them back from there, so the
    # wide pages are hashed once and no separate manifest write runs
    man_tmp = _fresh_dir(
        os.path.join(state_dir, "manifest", f"round-{k}.tmp"))
    if slim is not None:
        slim.map_batches(
            lambda b: pa.table({"url": b.column("url"),
                                "hash": pc.cast(b.column("hash"),
                                                pa.string())}),
            batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(man_tmp)
    else:
        pages.map_batches(_slim, batch_format="pyarrow",
                          zero_copy_batch=True).write_parquet(man_tmp)
    n_cur = _parquet_rows(man_tmp)

    tomb_dir = _fresh_dir(
        os.path.join(state_dir, "tombstones", f"round-{k}"))
    if not done:
        # bootstrap: every page is new and is work — no diff, no filter
        counts = {"new": n_cur}
        work_pages = pages
    else:
        prev_dir = os.path.join(state_dir, "manifest", f"round-{done[-1]}")
        n_prev = _parquet_rows(prev_dir)
        diff = (_diff_on_driver if n_prev + n_cur <= broadcast_max
                else _diff_distributed)
        work, n_work = diff(prev_dir, man_tmp, tomb_dir, k)
        counts = _counts(n_prev, n_cur, n_work, _parquet_rows(tomb_dir))
        # the normal recrawl regime: the delta is a few percent of the
        # corpus, so the work urls broadcast once and pages filter
        # map-side — the wide html rows never enter a shuffle (shipping
        # all pages through the semi-join exchange measured 10.6 s vs
        # full extraction's 11.0 s at 500k pages). A mass-change round
        # falls back to the bucketed semi-join (pages cross once).
        work_pages = filter_to_keys(pages, work, "url", n_work,
                                    broadcast_max=broadcast_max)
    delta = extract_pages(work_pages, cfg=cfg)
    delta = delta.map_batches(
        lambda b, _k=k: b.append_column(
            "round", pa.array([_k] * b.num_rows, pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)
    delta_dir = _fresh_dir(os.path.join(state_dir, "delta", f"round-{k}"))
    delta.write_parquet(delta_dir)

    # the manifest rename is the commit point: until it lands, readers
    # (``_rounds``) see neither this round's delta nor its tombstones.
    # The underscore prefix keeps parquet readers (pyarrow dataset
    # ignore_prefixes) from treating the meta file as data
    with open(os.path.join(man_tmp, "_meta.json"), "w") as f:
        json.dump({"hash_kind": hash_kind, "round": k}, f)
    os.rename(man_tmp, os.path.join(state_dir, "manifest", f"round-{k}"))

    return {
        "round": k,
        "n_new": counts.get("new", 0),
        "n_changed": counts.get("changed", 0),
        "n_gone": counts.get("gone", 0),
        "n_unchanged": counts.get("unchanged", 0),
        "extracted_rows": counts.get("new", 0) + counts.get("changed", 0),
        "state_dir": state_dir,
    }


def _parquet_rows(path: str) -> int:
    """Row count of a parquet dir, from the file footers alone."""
    return sum(pq.read_metadata(os.path.join(path, f)).num_rows
               for f in os.listdir(path) if f.endswith(".parquet"))


def _counts(n_prev: int, n_cur: int, n_work: int, n_gone: int) -> dict:
    """The four status counts from row counts alone. Urls are unique on
    each side, so prev = gone + changed + unchanged, cur = new + changed
    + unchanged and work = new + changed."""
    unchanged = n_cur - n_work
    changed = n_prev - n_gone - unchanged
    return {"new": n_work - changed, "changed": changed, "gone": n_gone,
            "unchanged": unchanged}


def _write_tombstones(diff: pa.Table, tomb_dir: str, k: int) -> None:
    """Write the gone urls of (url, status) diff rows as tombstones (no
    file when none is gone). The file is named after its first url, so
    a retried task rewrites its own file and two blocks never share
    one."""
    gone = diff.filter(pc.equal(diff.column("status"), "gone")).column("url")
    if len(gone):
        name = hashlib.md5(gone[0].as_py().encode()).hexdigest()
        pq.write_table(
            pa.table({"url": gone,
                      "round": pa.array([k] * len(gone), pa.int64())}),
            os.path.join(tomb_dir, f"part-{name}.parquet"))


def _work_urls(diff: pa.Table) -> pa.Table:
    return pa.table({"url": diff.filter(pc.is_in(
        diff.column("status"), value_set=_WORK)).column("url")})


_SLIM = pa.schema([("url", pa.string()), ("hash", pa.string())])


def _diff_on_driver(prev_dir: str, cur_dir: str, tomb_dir: str, k: int
                    ) -> tuple[pa.Array, int]:
    """Small-state diff: both slim manifests fit on the driver, so the
    diff is one Arrow hash probe — no Ray execution. Writes the gone
    urls' tombstones; returns the work urls and their count."""
    # the explicit schema reads a round that wrote no rows as empty
    prev, cur = (pq.read_table(d, schema=_SLIM).rename_columns(["url", h])
                 for d, h in ((prev_dir, "hash_a"), (cur_dir, "hash_b")))
    diff = snapshot_diff_table(prev, cur)
    _write_tombstones(diff, tomb_dir, k)
    work = _work_urls(diff).column("url").combine_chunks()
    return work, len(work)


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
        _write_tombstones(diff, tomb_dir, k)
        return _work_urls(diff)

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
        files.extend(os.path.join(full, f) for f in sorted(os.listdir(full))
                     if f.endswith(".parquet"))
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
