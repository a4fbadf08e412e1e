"""Fault injection: Ray-level retry semantics the 100-TB deployment
relies on.

A 256-node run WILL lose workers mid-stage; the pipeline contract is
that a killed worker's task is retried and the job's output is
byte-identical to an undisturbed run. These tests kill a real worker
process mid-`map_batches` (os._exit — no Python-level cleanup, the
closest sandbox analog to a node loss) and assert exact recovery.
"""

import os

import pandas as pd
import pytest


def _docs(n=60):
    return pd.DataFrame({
        "doc_id": range(n),
        "text": [f"tok{i} alpha beta gamma delta epsilon tok{i} zeta"
                 for i in range(n)],
    })


def test_task_survives_worker_kill(ray_session, tmp_path):
    """Kill the worker on the FIRST task execution (flag-file latch);
    Ray's task retry must re-run it on a fresh worker and the final
    result must equal the undisturbed run."""
    import pyarrow as pa
    import ray.data

    flag = str(tmp_path / "killed_once")

    def maybe_die(batch: pa.Table) -> pa.Table:
        # latch BEFORE dying so exactly one execution is lost
        if not os.path.exists(flag):
            with open(flag, "w") as f:
                f.write("x")
            os._exit(1)  # simulated node loss: no exception, no cleanup
        return batch

    ds = ray.data.from_pandas(_docs()).repartition(4)
    got = (ds.map_batches(maybe_die, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert os.path.exists(flag)  # the kill really happened
    want = _docs().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_shuffle_stage_survives_worker_kill(ray_session, tmp_path,
                                            bucket_count):
    """Same latch, but the kill lands UPSTREAM of a bucketed groupby —
    the recovery path must reproduce the exact aggregate, proving lost
    map output is recomputed (not silently dropped from the shuffle)."""
    import pyarrow as pa
    import ray.data

    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        contamination_counts,
    )

    flag = str(tmp_path / "killed_once_shuffle")

    def maybe_die(batch: pa.Table) -> pa.Table:
        if not os.path.exists(flag):
            with open(flag, "w") as f:
                f.write("x")
            os._exit(1)
        return batch

    df = _docs()
    train = (ray.data.from_pandas(df).repartition(4)
             .map_batches(maybe_die, batch_format="pyarrow"))
    ev = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [0], "text": ["alpha beta gamma delta epsilon"]}))
    bucket_count(4)
    got = contamination_counts(train, ev, n=5).to_pandas()
    assert os.path.exists(flag)
    # every doc contains that 5-gram exactly once
    assert sorted(got["doc_id"]) == list(range(len(df)))
    assert set(got["n_contaminated"]) == {1}


def test_hot_gram_skew_semi_join_path(ray_session, bucket_count):
    """Planted worst-case skew for the bucketed semi-join dispatch: ONE
    gram shared by EVERY doc (all its rows land in one bucket). The
    per-bucket vectorized isin must stay correct — and the per-doc
    distinct in ngram_doc_rows bounds the hot bucket at one row per doc,
    so the skew is O(docs), never O(occurrences)."""
    import ray.data

    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        contamination_counts,
    )

    n = 400
    hot = "one two three four five"
    df = pd.DataFrame({
        "doc_id": range(n),
        # the hot gram occurs TWICE per doc (occurrence-skew too)
        "text": [f"{hot} filler{i} {hot}" for i in range(n)],
    })
    ev = pd.DataFrame({"doc_id": [0], "text": [hot]})
    bucket_count(8)
    got = contamination_counts(
        ray.data.from_pandas(df), ray.data.from_pandas(ev),
        n=5, max_broadcast=0).to_pandas()
    assert sorted(got["doc_id"]) == list(range(n))
    assert set(got["n_contaminated"]) == {1}


def test_checkpoint_stale_tmp_partition_recovered(ray_session, tmp_path):
    """A crash DURING a partition's write_parquet leaves part-<i>.tmp
    with partial files and no manifest. Resume must treat the partition
    as not-done, clobber the torn tmp dir, and produce output identical
    to an undisturbed single-shot run (and the reader must never see a
    .tmp dir)."""
    import pyarrow.parquet as pq

    from full_text_extractor_v6_ray.pipelines.checkpoint import (
        read_checkpointed_output,
        run_checkpointed_extraction,
    )

    sf = "/root/testdata/sf0.001"
    single = str(tmp_path / "single")
    run_checkpointed_extraction(sf, single, n_partitions=3)

    crashy = str(tmp_path / "crashy")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed_extraction(sf, crashy, n_partitions=3,
                                    fail_after_partition=1)
    # simulate the torn write of the NEXT partition: junk bytes where a
    # parquet file would be (worst case — unreadable, not just partial)
    torn = os.path.join(crashy, "part-00001.tmp")
    os.makedirs(torn, exist_ok=True)
    with open(os.path.join(torn, "0_000000_000000.parquet"), "wb") as f:
        f.write(b"\x00not a parquet file")

    done = run_checkpointed_extraction(sf, crashy, n_partitions=3)
    assert done["skipped"] == 1 and done["newly_written"] == 2
    assert not os.path.exists(torn)

    a = (read_checkpointed_output(single).to_pandas()
         .sort_values(["url", "warc_ts"]).reset_index(drop=True))
    b = (read_checkpointed_output(crashy).to_pandas()
         .sort_values(["url", "warc_ts"]).reset_index(drop=True))
    assert list(a["url"]) == list(b["url"])
    assert list(a["extracted_text"]) == list(b["extracted_text"])


def test_checkpointed_partition_survives_worker_kill(
        ray_session, tmp_path, monkeypatch):
    """os._exit a worker INSIDE a checkpointed partition's extract
    stage: Ray retries the task, the partition completes, and the
    checkpointed output is byte-identical to an undisturbed run —
    worker loss never costs a partition, only a task retry."""
    import pyarrow as pa

    import full_text_extractor_v6_ray.pipelines.checkpoint as cp
    from full_text_extractor_v6_ray.pipelines.checkpoint import (
        read_checkpointed_output,
        run_checkpointed_extraction,
    )

    sf = "/root/testdata/sf0.001"
    single = str(tmp_path / "single")
    run_checkpointed_extraction(sf, single, n_partitions=2)

    flag = str(tmp_path / "killed_once_ckpt")
    real_extract = cp.extract_pages

    def killing_extract(pages, **kw):
        def maybe_die(batch: pa.Table) -> pa.Table:
            if not os.path.exists(flag):
                with open(flag, "w") as f:
                    f.write("x")
                os._exit(1)
            return batch
        return real_extract(pages, **kw).map_batches(
            maybe_die, batch_format="pyarrow")

    monkeypatch.setattr(cp, "extract_pages", killing_extract)
    killed = str(tmp_path / "killed")
    done = run_checkpointed_extraction(sf, killed, n_partitions=2)
    assert done["newly_written"] == 2
    assert os.path.exists(flag)  # the kill really happened

    a = (read_checkpointed_output(single).to_pandas()
         .sort_values(["url", "warc_ts"]).reset_index(drop=True))
    b = (read_checkpointed_output(killed).to_pandas()
         .sort_values(["url", "warc_ts"]).reset_index(drop=True))
    assert list(a["url"]) == list(b["url"])
    assert list(a["extracted_text"]) == list(b["extracted_text"])


def test_url_index_shard_loss_fails_loudly_then_recovers(
        ray_session, tmp_path):
    """ray.kill one UrlIndexShard mid-stream: the next probe that
    touches it must RAISE (max_restarts=0 — a silently-empty restarted
    shard would re-admit seen urls), and the documented recovery
    (fresh index + snapshot restore + post-snapshot tail replay) must
    reproduce the exact committed view."""
    import pyarrow as pa
    import ray
    from ray.exceptions import RayActorError

    from full_text_extractor_v6_ray.state.url_index import StreamUrlDedup

    def pages(rows):
        return pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([pd.Timestamp(r[1]) for r in rows],
                                pa.timestamp("us")),
        })

    idx = StreamUrlDedup(num_shards=2)
    b1 = pages([("a", "2024-01-01"), ("b", "2024-02-01"),
                ("c", "2024-03-01"), ("d", "2024-04-01")])
    idx.commit_batch(b1)
    snap = str(tmp_path / "snap")
    idx.snapshot(snap, through_round=1)
    # round 2 committed AFTER the snapshot (durable, replayable tail)
    b2 = pages([("e", "2024-05-01"), ("a", "2024-06-01")])
    out2 = idx.filter_batch(b2)
    idx.commit_batch(out2)

    ray.kill(idx.shards[0])
    # many keys so both shards are touched — the dead one must raise
    probe_all = pages([(f"u{i}", "2024-01-01") for i in range(16)])
    with pytest.raises(RayActorError):
        idx.filter_batch(probe_all)

    # recovery: fresh actors + snapshot + tail replay of round 2
    fresh = StreamUrlDedup(num_shards=2)
    assert fresh.restore_snapshot(snap) == 1
    fresh.commit_batch(out2)
    assert sum(fresh.sizes()) == 5  # a..e, a at its round-2 ts
    probe = fresh.filter_batch(pages([
        ("a", "2024-06-01"),   # equal to committed round-2 ts -> reject
        ("a", "2024-06-02"),   # strictly newer -> accept
        ("e", "2024-04-30"),   # stale -> reject
        ("f", "2024-01-01"),   # unseen -> accept
    ]))
    assert sorted(probe["url"].to_pylist()) == ["a", "f"]
