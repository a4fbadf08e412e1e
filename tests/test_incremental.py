"""Incremental recrawl extraction (pipelines/incremental.py): only
new+changed pages re-extract; tombstones retire gone urls; the
reconstructed corpus matches a full re-extraction."""

from __future__ import annotations

import datetime
import os
import shutil

import pyarrow as pa
import pytest

from full_text_extractor_v6_ray.pipelines.incremental import (
    compact_state,
    incremental_extraction_round,
    read_current_corpus,
)

_TS = datetime.datetime(2024, 1, 1)


def _html(body: str) -> bytes:
    return (f"<html><head><title>T</title></head><body><p>{body}</p>"
            f"</body></html>").encode()


def _page_table(rows: dict[str, str]) -> pa.Table:
    urls = sorted(rows)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([_TS] * len(urls), pa.timestamp("us")),
        "html": pa.array([_html(rows[u]) for u in urls], pa.binary()),
        "text": pa.array([""] * len(urls), pa.string()),
        "lang": pa.array(["en"] * len(urls), pa.string()),
    })


def _pages(rows: dict[str, str]):
    import ray.data

    return ray.data.from_arrow(_page_table(rows))


@pytest.fixture()
def state_dir(tmp_path):
    d = str(tmp_path / "incr")
    shutil.rmtree(d, ignore_errors=True)
    return d


def test_incremental_rounds(ray_session, state_dir):
    v1 = {f"https://h{i}.ex/p{i}": f"body {i} v1" for i in range(6)}
    s = incremental_extraction_round(_pages(v1), state_dir)
    assert s["round"] == 0
    assert s["n_new"] == 6 and s["extracted_rows"] == 6
    assert s["n_changed"] == s["n_gone"] == s["n_unchanged"] == 0

    # round 2: p1 changed, p2 gone, p9 new, rest unchanged
    v2 = dict(v1)
    v2["https://h1.ex/p1"] = "body 1 v2"
    del v2["https://h2.ex/p2"]
    v2["https://h9.ex/p9"] = "body 9 v1"
    s2 = incremental_extraction_round(_pages(v2), state_dir)
    assert s2["round"] == 1
    assert s2["n_new"] == 1 and s2["n_changed"] == 1
    assert s2["n_gone"] == 1 and s2["n_unchanged"] == 4
    assert s2["extracted_rows"] == 2

    # the round-1 delta parquet holds ONLY the re-extracted rows
    import ray.data

    delta1 = ray.data.read_parquet(
        os.path.join(state_dir, "delta", "round-1"))
    urls1 = sorted(r["url"] for r in delta1.take_all())
    assert urls1 == ["https://h1.ex/p1", "https://h9.ex/p9"]

    # reconstructed corpus == extracting v2 from scratch
    corpus = {r["url"]: r["extracted_text"]
              for r in read_current_corpus(state_dir).take_all()}
    assert set(corpus) == set(v2)
    assert "body 1 v2" in corpus["https://h1.ex/p1"]
    assert "body 0 v1" in corpus["https://h0.ex/p0"]
    assert "https://h2.ex/p2" not in corpus

    # round 3 with identical input: a no-op delta
    s3 = incremental_extraction_round(_pages(v2), state_dir)
    assert s3["round"] == 2
    assert s3["extracted_rows"] == 0 and s3["n_gone"] == 0
    assert s3["n_unchanged"] == 6
    corpus3 = {r["url"] for r in read_current_corpus(state_dir).take_all()}
    assert corpus3 == set(v2)


def test_incremental_resurrected_url(ray_session, state_dir):
    # a url that dies in round 1 and returns in round 2 must be live
    # again (delta round > tombstone round)
    a = {"https://h.ex/a": "alpha v1", "https://h.ex/b": "beta"}
    incremental_extraction_round(_pages(a), state_dir)
    incremental_extraction_round(_pages({"https://h.ex/b": "beta"}),
                                 state_dir)
    s3 = incremental_extraction_round(
        _pages({"https://h.ex/a": "alpha v2",
                "https://h.ex/b": "beta"}), state_dir)
    assert s3["n_new"] == 1
    corpus = {r["url"]: r["extracted_text"]
              for r in read_current_corpus(state_dir).take_all()}
    assert set(corpus) == {"https://h.ex/a", "https://h.ex/b"}
    assert "alpha v2" in corpus["https://h.ex/a"]


def _committed(state_dir, k):
    """Round ``k``'s summary-independent outputs: the delta, tombstone
    and manifest rows, each sorted by url (None when no file holds a
    row)."""
    import pyarrow.parquet as pq

    out = {}
    for sub in ("delta", "tombstones", "manifest"):
        d = os.path.join(state_dir, sub, f"round-{k}")
        parts = [pq.read_table(os.path.join(d, f))
                 for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        parts = [t for t in parts if t.num_rows]
        out[sub] = (pa.concat_tables(parts).sort_by("url")
                    if parts else None)
    return out


def _assert_same_commit(got, want):
    for sub in want:
        assert (got[sub] is None) == (want[sub] is None), sub
        assert want[sub] is None or got[sub].equals(want[sub]), sub


def _summary(s):
    return {k: v for k, v in s.items() if k != "state_dir"}


# v1 -> v2: j3 changes, j5 goes, j9 is new, the rest stay unchanged;
# v2 -> v3: j5 comes back (resurrected), j3 changes again
_EQ_V1 = {f"https://j{i}.ex/p{i}": f"j body {i}" for i in range(8)}
_EQ_V2 = {**{u: b for u, b in _EQ_V1.items() if "j5." not in u},
          "https://j3.ex/p3": "j body 3 CHANGED",
          "https://j9.ex/p9": "j body 9"}
_EQ_V3 = {**_EQ_V2, "https://j5.ex/p5": "j body 5 back",
          "https://j3.ex/p3": "j body 3 AGAIN"}


def _digest_pages(rows):
    # a recorded digest for every page but j1 (md5 fallback row)
    urls = sorted(rows)
    dg = pa.array([None if "j1." in u else f"sha1:{rows[u]}"
                   for u in urls], pa.string())
    return _pages(rows).map_batches(
        lambda b: b.append_column("payload_digest", dg),
        batch_format="pyarrow")


def _slim_rows(rows):
    import ray.data

    from full_text_extractor_v6_ray.stages.hashing import md5_hex

    urls = sorted(rows)
    return ray.data.from_arrow(pa.table({
        "url": pa.array(urls, pa.string()),
        "hash": md5_hex(pa.array([_html(rows[u]) for u in urls]))}))


_EQ_MODES = {
    "md5": lambda v: (_pages(v), {}),
    "hash_col": lambda v: (_digest_pages(v),
                           {"hash_col": "payload_digest"}),
    "slim": lambda v: (_pages(v), {"slim": _slim_rows(v)}),
}


def test_incremental_join_fallback_equivalence(ray_session, tmp_path):
    # broadcast_max=0 forces the bucketed diff and semi-join; the
    # probe path (broadcast_max large) must give the same
    # summaries and the same committed delta, tombstones and manifest,
    # in every hash mode
    want_counts = [(8, 0, 0, 0), (1, 1, 1, 6), (1, 1, 0, 7)]
    for mode, make in _EQ_MODES.items():
        outs = {}
        for branch, bmax in (("driver", 10**9), ("exchange", 0)):
            d = str(tmp_path / f"{mode}_{branch}")
            outs[branch] = []
            for v in (_EQ_V1, _EQ_V2, _EQ_V3):
                pages, kw = make(v)
                s = incremental_extraction_round(
                    pages, d, broadcast_max=bmax, **kw)
                outs[branch].append((_summary(s),
                                     _committed(d, s["round"])))
            assert [(s["n_new"], s["n_changed"], s["n_gone"],
                     s["n_unchanged"]) for s, _ in outs[branch]] == \
                want_counts, (mode, branch)
        for (sd, fd), (se, fe) in zip(outs["driver"], outs["exchange"]):
            assert sd == se, mode
            _assert_same_commit(fe, fd)
        tombs = [f["tombstones"] for _, f in outs["driver"]]
        assert tombs[0] is None and tombs[2] is None
        assert tombs[1].column("url").to_pylist() == ["https://j5.ex/p5"]


@pytest.mark.parametrize("bmax,limit", [(10**9, 2), (12, 3), (0, 3),
                                        (5, 3)])
def test_round_execution_count(ray_session, tmp_path, monkeypatch,
                               count_executions, bmax, limit):
    # a round takes the probe path when the previous manifest (8 rows;
    # none at bootstrap) is at most bmax, else the slim write, the
    # bucketed diff and the extract/delta write, whether the 2 work
    # urls then broadcast (5) or join (0); the branch not taken must
    # never run
    import full_text_extractor_v6_ray.pipelines.incremental as inc
    import full_text_extractor_v6_ray.stages.joins as joins

    def never(*a, **kw):
        raise AssertionError("wrong diff branch")

    d = str(tmp_path / "x")
    for n_prev, v in ((0, _EQ_V1), (len(_EQ_V1), _EQ_V2)):
        count_executions.clear()
        with monkeypatch.context() as m:
            m.setattr(inc, "snapshot_diff" if n_prev <= bmax else
                      "SortedKeyIndex", never)
            if bmax:
                m.setattr(joins, "hash_join", never)
            incremental_extraction_round(_pages(v), d, broadcast_max=bmax)
        assert 0 < len(count_executions) <= limit, count_executions


def _lazy_pages(rows, counter_dir, digests=False):
    """Pages generated inside Ray tasks from ``range``; every generated
    batch drops a file holding its row count into ``counter_dir``."""
    import uuid

    import ray.data

    urls = sorted(rows)
    table = _page_table(rows)
    if digests:
        table = table.append_column("payload_digest", pa.array(
            [None if "j1." in u else f"sha1:{rows[u]}" for u in urls],
            pa.string()))

    def gen(batch: pa.Table) -> pa.Table:
        out = table.take(batch.column("id"))
        with open(os.path.join(counter_dir, uuid.uuid4().hex), "w") as f:
            f.write(str(out.num_rows))
        return out

    return ray.data.range(len(urls), override_num_blocks=3).map_batches(
        gen, batch_format="pyarrow")


@pytest.mark.parametrize("mode", ["md5", "hash_col"])
def test_round_is_one_scan(ray_session, tmp_path, count_executions, mode):
    # at the default threshold both the bootstrap and the recrawl round
    # are ONE Ray execution that generates every page row exactly once
    kw = {"hash_col": "payload_digest"} if mode == "hash_col" else {}
    d = str(tmp_path / "state")
    want = [(8, 0, 0, 0), (1, 1, 1, 6)]
    for i, v in enumerate((_EQ_V1, _EQ_V2)):
        counter = str(tmp_path / f"gen{i}")
        os.makedirs(counter)
        count_executions.clear()
        s = incremental_extraction_round(
            _lazy_pages(v, counter, digests=bool(kw)), d, **kw)
        assert len(count_executions) == 1, count_executions
        generated = sum(int(f.read_text())
                        for f in (tmp_path / f"gen{i}").iterdir())
        assert generated == len(v)
        assert (s["n_new"], s["n_changed"], s["n_gone"],
                s["n_unchanged"]) == want[i]


def test_probe_round_fuses_into_the_read(ray_session, tmp_path,
                                         count_executions):
    """A probe-path round over k parquet files is one execution of ONE
    fused operator, read -> probe -> extract -> write, with one task per
    file: no page block crosses the object store between read and
    extract. Two files per cluster CPU keep Ray from splitting the read
    blocks (a split read never fuses)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    k = 2 * int(ray.cluster_resources()["CPU"])
    files = []
    for f in range(k):
        files.append(str(tmp_path / f"pages-{f}.parquet"))
        pq.write_table(_page_table({f"https://f{f}.ex/p{i}": f"{f} {i}"
                                    for i in range(3)}), files[-1])
    count_executions.clear()
    s = incremental_extraction_round(ray.data.read_parquet(files),
                                     str(tmp_path / "state"))
    assert s["n_new"] == 3 * k
    [run] = count_executions
    assert run.tasks() == [
        ("Input", 0),
        ("ReadParquet->MapBatches(probe)->MapBatches(ExtractBatch)"
         "->MapBatches(<lambda>)->Write", k)], run.tasks()


def test_incremental_trusts_warc_payload_digest(ray_session, tmp_path):
    # segments carry WARC-Payload-Digest; the round must diff on the
    # recorded digests (hash_col) without re-hashing payloads
    import ray.data

    from full_text_extractor_v6_ray.sources.warc import (
        build_warc_segment,
        read_warc_dir,
    )

    def write_round(d, bodies):
        os.makedirs(d, exist_ok=True)
        recs = [(u, _TS, b) for u, b in sorted(bodies.items())]
        with open(os.path.join(d, "seg-00000.warc"), "wb") as f:
            f.write(build_warc_segment(recs, payload_digest=True))

    v1 = {f"https://w{i}.ex/p{i}": _html(f"warc body {i}")
          for i in range(5)}
    v2 = dict(v1)
    v2["https://w2.ex/p2"] = _html("warc body 2 CHANGED")
    del v2["https://w4.ex/p4"]

    d1, d2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    write_round(d1, v1)
    write_round(d2, v2)
    state = str(tmp_path / "state")

    s0 = incremental_extraction_round(
        read_warc_dir(d1, include_digest=True), state,
        hash_col="payload_digest")
    assert s0["n_new"] == 5
    s1 = incremental_extraction_round(
        read_warc_dir(d2, include_digest=True), state,
        hash_col="payload_digest")
    assert s1["n_changed"] == 1 and s1["n_gone"] == 1
    assert s1["n_unchanged"] == 3 and s1["extracted_rows"] == 1
    delta = ray.data.read_parquet(os.path.join(state, "delta", "round-1"))
    rows = delta.take_all()
    assert [r["url"] for r in rows] == ["https://w2.ex/p2"]
    assert "CHANGED" in rows[0]["extracted_text"]


def test_digest_null_rows_fall_back_to_md5(ray_session, tmp_path):
    # pages with a null digest hash via md5; a changed digest-less page
    # is still detected
    import ray.data

    def pages_with_digest(rows, digests):
        urls = sorted(rows)
        return ray.data.from_arrow(pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([_TS] * len(urls), pa.timestamp("us")),
            "html": pa.array([_html(rows[u]) for u in urls], pa.binary()),
            "text": pa.array([""] * len(urls), pa.string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
            "payload_digest": pa.array([digests.get(u) for u in urls],
                                       pa.string()),
        }))

    state = str(tmp_path / "fb")
    v1 = {"https://f.ex/a": "aaa", "https://f.ex/b": "bbb"}
    dg = {"https://f.ex/a": "sha1:AAA"}  # b has no digest
    incremental_extraction_round(pages_with_digest(v1, dg), state,
                                 hash_col="payload_digest")
    v2 = {"https://f.ex/a": "aaa", "https://f.ex/b": "bbb CHANGED"}
    s = incremental_extraction_round(pages_with_digest(v2, dg), state,
                                     hash_col="payload_digest")
    assert s["n_changed"] == 1 and s["n_unchanged"] == 1

def _corpus_table(state_dir):
    batches = list(read_current_corpus(state_dir)
                   .iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(batches).combine_chunks().sort_by("url")


def test_compact_state_preserves_corpus(ray_session, state_dir):
    import ray.data

    v1 = {f"https://c{i}.ex/p{i}": f"c body {i} v1" for i in range(6)}
    incremental_extraction_round(_pages(v1), state_dir)
    v2 = dict(v1)
    v2["https://c1.ex/p1"] = "c body 1 v2"
    del v2["https://c2.ex/p2"]
    v2["https://c9.ex/p9"] = "c body 9"
    incremental_extraction_round(_pages(v2), state_dir)

    before = _corpus_table(state_dir)
    s = compact_state(state_dir)
    assert s["folded_rounds"] == [0, 1]
    after = _corpus_table(state_dir)
    # byte-equal reconstruction, round provenance included
    assert after.equals(before)

    # superseded rounds are gone; exactly one base round remains
    deltas = sorted(os.listdir(os.path.join(state_dir, "delta")))
    assert deltas == ["round-2"]
    assert sorted(os.listdir(os.path.join(state_dir, "manifest"))) == \
        ["round-2"]
    tomb_root = os.path.join(state_dir, "tombstones")
    assert not os.path.isdir(tomb_root) or os.listdir(tomb_root) == []

    # idempotent: compacting a compacted state is a fold of one base
    compact_state(state_dir)
    assert _corpus_table(state_dir).equals(before)

    # a subsequent incremental round diffs against the copied manifest
    v3 = dict(v2)
    v3["https://c3.ex/p3"] = "c body 3 v3"
    s3 = incremental_extraction_round(_pages(v3), state_dir)
    assert s3["n_changed"] == 1 and s3["n_new"] == 0
    assert s3["n_unchanged"] == len(v2) - 1
    corpus = {r["url"]: r["extracted_text"]
              for r in read_current_corpus(state_dir).take_all()}
    assert "c body 3 v3" in corpus["https://c3.ex/p3"]
    assert set(corpus) == set(v3)


def test_hash_kind_mismatch_rejected(ray_session, state_dir):
    v1 = {"https://hk.ex/a": "aaa", "https://hk.ex/b": "bbb"}
    incremental_extraction_round(_pages(v1), state_dir)  # md5 mode
    with pytest.raises(ValueError, match="hash mode mismatch"):
        incremental_extraction_round(
            _pages(v1).map_batches(
                lambda b: b.append_column(
                    "payload_digest",
                    pa.array(["sha1:X"] * b.num_rows, pa.string())),
                batch_format="pyarrow"),
            state_dir, hash_col="payload_digest")
    # same mode still fine
    s = incremental_extraction_round(_pages(v1), state_dir)
    assert s["n_unchanged"] == 2


def test_crashed_round_rerun_leaves_no_partial_files(ray_session, state_dir):
    import ray.data

    v1 = {f"https://r{i}.ex/p{i}": f"r body {i}" for i in range(4)}
    incremental_extraction_round(_pages(v1), state_dir)

    # simulate a round-1 attempt that crashed after partially writing
    # delta/tombstone/manifest-tmp dirs
    junk_delta = os.path.join(state_dir, "delta", "round-1")
    os.makedirs(junk_delta, exist_ok=True)
    stray = pa.table({"url": pa.array(["https://stale.ex/x"]),
                      "round": pa.array([1], pa.int64())})
    import pyarrow.parquet as pq
    pq.write_table(stray, os.path.join(junk_delta, "crashed.parquet"))
    os.makedirs(os.path.join(state_dir, "manifest", "round-1.tmp"),
                exist_ok=True)
    pq.write_table(stray, os.path.join(
        state_dir, "manifest", "round-1.tmp", "crashed.parquet"))

    # an uncommitted round is invisible to readers
    urls = {r["url"] for r in read_current_corpus(state_dir).take_all()}
    assert "https://stale.ex/x" not in urls

    v2 = dict(v1)
    v2["https://r0.ex/p0"] = "r body 0 v2"
    s = incremental_extraction_round(_pages(v2), state_dir)
    assert s["round"] == 1 and s["n_changed"] == 1

    delta = ray.data.read_parquet(os.path.join(state_dir, "delta",
                                               "round-1"))
    assert [r["url"] for r in delta.take_all()] == ["https://r0.ex/p0"]
    man = ray.data.read_parquet(os.path.join(state_dir, "manifest",
                                             "round-1"))
    assert man.count() == len(v2)
    assert "https://stale.ex/x" not in {
        r["url"] for r in man.take_all()}


def test_read_current_corpus_execution_count(ray_session, tmp_path,
                                             count_executions):
    # a tombstone (j5) makes the slim tombstone join run; both its
    # schemas are passed, so the final semi join that consumes
    # everything is the one execution
    d = str(tmp_path / "x")
    for v in (_EQ_V1, _EQ_V2):
        incremental_extraction_round(_pages(v), d)
    count_executions.clear()
    urls = sorted(r["url"] for r in read_current_corpus(d).take_all())
    assert urls == sorted(_EQ_V2)
    assert len(count_executions) == 1, count_executions


@pytest.mark.parametrize("bmax", [10**9, 0])
def test_empty_rounds(ray_session, tmp_path, bmax):
    # a round with no pages writes no manifest file; the next round
    # diffs against that empty manifest (and an empty round against a
    # full one marks everything gone)
    v = {"https://e1.ex/a": "e one", "https://e2.ex/b": "e two"}
    d = str(tmp_path / "e")
    got = [incremental_extraction_round(_pages(rows), d, broadcast_max=bmax)
           for rows in ({}, v, {}, v)]
    assert [(s["round"], s["n_new"], s["n_changed"], s["n_gone"],
             s["n_unchanged"], s["extracted_rows"]) for s in got] == [
        (0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 2), (2, 0, 0, 2, 0, 0),
        (3, 2, 0, 0, 0, 2)]
    assert _committed(d, 2)["tombstones"].column("url").to_pylist() == \
        sorted(v)
    assert sorted(r["url"] for r in read_current_corpus(d).take_all()) == \
        sorted(v)


def _undisturbed_round_1(tmp_path, bmax):
    d = str(tmp_path / f"undisturbed_{bmax}")
    incremental_extraction_round(_pages(_EQ_V1), d, broadcast_max=bmax)
    incremental_extraction_round(_pages(_EQ_V2), d, broadcast_max=bmax)
    return _committed(d, 1), _corpus_table(d)


def test_round_survives_worker_kill_mid_extract(ray_session, tmp_path,
                                                monkeypatch):
    """os._exit a worker inside round 1's extract execution (flag-file
    latch, fires once): Ray retries the task and the round commits the
    same delta, tombstones and manifest as an undisturbed round."""
    import full_text_extractor_v6_ray.pipelines.incremental as inc

    want, want_corpus = _undisturbed_round_1(tmp_path, 10**9)
    d = str(tmp_path / "killed")
    incremental_extraction_round(_pages(_EQ_V1), d)

    flag = str(tmp_path / "killed_once")
    real_extract = inc.extract_pages

    def killing_extract(pages, **kw):
        def maybe_die(batch: pa.Table) -> pa.Table:
            if not os.path.exists(flag):
                with open(flag, "w") as f:
                    f.write("x")
                os._exit(1)
            return batch
        return real_extract(pages, **kw).map_batches(
            maybe_die, batch_format="pyarrow")

    monkeypatch.setattr(inc, "extract_pages", killing_extract)
    s = incremental_extraction_round(_pages(_EQ_V2), d)
    assert os.path.exists(flag)  # the kill really happened
    assert s["round"] == 1 and s["extracted_rows"] == 2
    _assert_same_commit(_committed(d, 1), want)
    assert _corpus_table(d).equals(want_corpus)


def test_round_survives_worker_kill_in_probe(ray_session, tmp_path,
                                             monkeypatch):
    """os._exit a worker inside round 1's probe, after the batch's
    manifest part is written (flag-file latch, fires once): the retried
    task rewrites the same part and the round commits what an
    undisturbed round commits."""
    import full_text_extractor_v6_ray.pipelines.incremental as inc

    want, want_corpus = _undisturbed_round_1(tmp_path, 10**9)
    d = str(tmp_path / "killed")
    incremental_extraction_round(_pages(_EQ_V1), d)

    flag = str(tmp_path / "killed_once")
    real_probe = inc._new_or_changed

    def killing_probe(prev, urls, h):
        if not os.path.exists(flag):
            with open(flag, "w") as f:
                f.write("x")
            os._exit(1)
        return real_probe(prev, urls, h)

    monkeypatch.setattr(inc, "_new_or_changed", killing_probe)
    s = incremental_extraction_round(_pages(_EQ_V2), d)
    assert os.path.exists(flag)  # the kill really happened
    assert s["round"] == 1 and s["extracted_rows"] == 2
    _assert_same_commit(_committed(d, 1), want)
    assert _corpus_table(d).equals(want_corpus)


@pytest.mark.parametrize("bmax", [10**9, 0])
def test_crash_before_manifest_rename_resumes(ray_session, tmp_path,
                                              monkeypatch, bmax):
    """A crash after the manifest tmp dir is complete (rows and
    _meta.json) but before its rename: readers still see round 0 only,
    and the rerun commits what an undisturbed round 1 commits."""
    want, want_corpus = _undisturbed_round_1(tmp_path, bmax)
    d = str(tmp_path / "crashed")
    incremental_extraction_round(_pages(_EQ_V1), d, broadcast_max=bmax)
    round0 = _corpus_table(d)

    real_rename = os.rename

    def crash_on_commit(src, dst):
        if str(src).endswith(".tmp"):
            raise RuntimeError("injected crash before commit")
        real_rename(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "rename", crash_on_commit)
        with pytest.raises(RuntimeError, match="injected crash"):
            incremental_extraction_round(_pages(_EQ_V2), d,
                                         broadcast_max=bmax)
    tmp = os.path.join(d, "manifest", "round-1.tmp")
    assert os.path.isfile(os.path.join(tmp, "_meta.json"))
    assert os.path.isdir(os.path.join(d, "delta", "round-1"))
    assert _corpus_table(d).equals(round0)  # uncommitted = invisible

    s = incremental_extraction_round(_pages(_EQ_V2), d, broadcast_max=bmax)
    assert s["round"] == 1 and not os.path.exists(tmp)
    _assert_same_commit(_committed(d, 1), want)
    assert _corpus_table(d).equals(want_corpus)


def test_cdx_slim_source_equivalence(ray_session, tmp_path):
    # a CDX capture index (md5 digests of record bodies) can drive the
    # diff directly: rounds via slim= must equal rounds via page scan
    import ray.data

    from full_text_extractor_v6_ray.sources.warc import (
        build_cdx_index,
        build_warc_segment,
        read_warc_dir,
    )

    def write_round(d, bodies):
        os.makedirs(d, exist_ok=True)
        recs = [(u, _TS, b) for u, b in sorted(bodies.items())]
        with open(os.path.join(d, "seg-00000.warc"), "wb") as f:
            f.write(build_warc_segment(recs))

    v1 = {f"https://cx{i}.ex/p{i}": _html(f"cdx body {i}")
          for i in range(6)}
    v2 = dict(v1)
    v2["https://cx2.ex/p2"] = _html("cdx body 2 CHANGED")
    del v2["https://cx5.ex/p5"]

    dirs = {}
    for tag, bodies in (("r0", v1), ("r1", v2)):
        d = str(tmp_path / tag)
        write_round(d, bodies)
        dirs[tag] = d

    def cdx_slim(d):
        return build_cdx_index(d).map_batches(
            lambda b: pa.table({"url": b.column("url"),
                                "hash": b.column("digest")}),
            batch_format="pyarrow")

    out = {}
    for mode in ("scan", "cdx"):
        state = str(tmp_path / f"state_{mode}")
        sums = []
        for tag in ("r0", "r1"):
            pages = read_warc_dir(dirs[tag])
            kw = {"slim": cdx_slim(dirs[tag])} if mode == "cdx" else {}
            sums.append(incremental_extraction_round(pages, state, **kw))
        corpus = sorted(
            (r["url"], r["extracted_text"])
            for r in read_current_corpus(state).take_all())
        out[mode] = (sums, corpus)

    (s_scan, c_scan), (s_cdx, c_cdx) = out["scan"], out["cdx"]
    assert [s["extracted_rows"] for s in s_cdx] == \
        [s["extracted_rows"] for s in s_scan] == [6, 1]
    assert s_cdx[1]["n_changed"] == 1 and s_cdx[1]["n_gone"] == 1
    assert c_cdx == c_scan
    # hash kinds interop: a cdx round after a scan round is fine (both
    # are md5 of the body)
    state = str(tmp_path / "state_scan")
    s = incremental_extraction_round(read_warc_dir(dirs["r1"]), state,
                                     slim=cdx_slim(dirs["r1"]))
    assert s["n_unchanged"] == 5 and s["extracted_rows"] == 0
