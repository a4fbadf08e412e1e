"""Composed corpus-prep capstone: planted exact dup, near dup, garbage."""

import pandas as pd
import pyarrow as pa

GOOD_1 = ("the quick brown fox jumps over the lazy dog while the sun "
          "sets behind the hills and the river flows quietly through "
          "the green valley where children play in the warm afternoon")
NEAR_1 = GOOD_1.replace("quietly", "slowly")  # one token changed
GOOD_2 = ("a completely different story about the old ship that sailed "
          "across the northern sea with a crew of twelve and a cat that "
          "slept on the warm deck during the long summer voyage home")
GARBAGE = "@#$% ^^ !! 123 456 789 000 @@@ ### $$$ %%% ^^^ &&& ***"


def _docs():
    return pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [GOOD_1, GOOD_1, NEAR_1, GARBAGE, GOOD_2],
    })


def test_corpus_prep_planted(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.pipelines.corpus_prep import corpus_prep

    out = (corpus_prep(ray.data.from_pandas(_docs()),
                       neardup_threshold=0.6)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 2 = exact dup of 1 (dropped, min id kept); doc 3 = near dup of 1
    # (dropped); doc 4 = garbage (quality floor); docs 1 and 5 survive
    assert out["doc_id"].tolist() == [1, 5]
    assert (out["lang_pred"] == "en").all()
    assert (out["quality"] >= 0.35).all()
    assert set(out.columns) >= {"doc_id", "text", "text_hash",
                                "lang_pred", "lang_conf", "n_tokens",
                                "quality"}


def test_corpus_prep_idempotent(ray_session):
    """Running prep on an already-prepped corpus changes nothing."""
    import ray.data
    from full_text_extractor_v6_ray.pipelines.corpus_prep import corpus_prep

    once = (corpus_prep(ray.data.from_pandas(_docs()),
                        neardup_threshold=0.6)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    again = (corpus_prep(
        ray.data.from_pandas(once[["doc_id", "text"]]),
        neardup_threshold=0.6)
        .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert once["doc_id"].tolist() == again["doc_id"].tolist()
    assert once["text_hash"].tolist() == again["text_hash"].tolist()


def test_corpus_prep_antijoin_path_same_result(ray_session):
    """Forcing the distributed anti-join path (max_broadcast_drop=0)
    yields the identical cleaned corpus — no driver-side drop array."""
    import ray.data
    from full_text_extractor_v6_ray.pipelines.corpus_prep import corpus_prep

    out = (corpus_prep(ray.data.from_pandas(_docs()),
                       neardup_threshold=0.6, max_broadcast_drop=0)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 5]


def test_remove_neardup_members_dispatch_and_equality(ray_session,
                                                      monkeypatch):
    """50% dup fraction: broadcast and anti-join paths agree exactly,
    and the size dispatch picks the right one (anti-join above the
    cap — the drop set never materializes on the driver there)."""
    import numpy as np
    import ray.data
    from full_text_extractor_v6_ray.stages import fuzzy_dedup as fd
    from full_text_extractor_v6_ray.stages import joins

    n = 1000
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "lang": ["en"] * n})
    # every odd id is a near-dup member of the preceding even id
    comp = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "component": (np.arange(n, dtype=np.int64) // 2) * 2,
    })

    calls = {"anti": 0}
    real_join = joins.hash_join

    def spy(*a, **k):
        calls["anti"] += k.get("how") == "anti"
        return real_join(*a, **k)

    monkeypatch.setattr(joins, "hash_join", spy)

    def run(max_broadcast):
        return (fd.remove_neardup_members(
            ray.data.from_pandas(docs), ray.data.from_pandas(comp),
            key="doc_id", max_broadcast=max_broadcast)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))

    via_broadcast = run(max_broadcast=10**9)
    assert calls["anti"] == 0            # small path: no shuffle join
    via_anti = run(max_broadcast=10)     # 500 drop keys > 10 -> anti-join
    assert calls["anti"] == 1
    pd.testing.assert_frame_equal(via_broadcast, via_anti)
    assert via_anti["doc_id"].tolist() == list(range(0, n, 2))
    # empty drop set short-circuits to the input dataset
    no_dups = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                            "component": pd.array([], dtype="int64")})
    out = fd.remove_neardup_members(
        ray.data.from_pandas(docs), ray.data.from_pandas(no_dups),
        key="doc_id", max_broadcast=0).to_pandas()
    assert len(out) == n and calls["anti"] == 1


def test_doc_variants_structure():
    """Bench corpus generator: R variants per doc with the documented
    exact-dup / near-dup / unique mix (pure Arrow, no Ray)."""
    from full_text_extractor_v6_ray.sources.docs_gen import DocVariantsBatch

    base = " ".join(f"token{i} filler{i}" for i in range(60))
    b = pa.table({"doc_id": pa.array([3], pa.int64()),
                  "text": pa.array([base])})
    out = DocVariantsBatch(20)(b)
    ids = out["doc_id"].to_pylist()
    txt = out["text"].to_pylist()
    assert len(ids) == 20 and len(set(ids)) == 20
    assert txt[1] == base and txt[11] == base          # exact dups of v0
    assert txt[2].startswith(base) and txt[2] != base  # near dup

    def shingles(t):
        w = t.split()
        return {tuple(w[i:i + 5]) for i in range(len(w) - 4)}

    s0 = shingles(base)
    s2 = shingles(txt[2])
    assert len(s0 & s2) / len(s0 | s2) > 0.9           # near-dup: high J
    for v in (3, 4, 5, 6, 7, 8, 9, 13, 19):
        sv = shingles(txt[v])
        assert len(s0 & sv) / len(s0 | sv) < 0.05, v   # unique: J ~ 0


def test_corpus_prep_on_variant_corpus(ray_session):
    """End-to-end: corpus_prep over a DocVariantsBatch expansion drops
    exactly the planted exact and near duplicates."""
    import ray.data
    from full_text_extractor_v6_ray.pipelines.corpus_prep import corpus_prep
    from full_text_extractor_v6_ray.sources.docs_gen import DocVariantsBatch

    R = 20
    base = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "text": pa.array([GOOD_1, GOOD_2])})
    docs = ray.data.from_arrow(DocVariantsBatch(R)(base))
    # neutralize the quality/lang floors to isolate dedup behavior
    out = corpus_prep(docs, neardup_threshold=0.6,
                      quality_min=-1.0, lang_conf_min=-1.0).to_pandas()
    # per root doc: v0 survives; v1/v11 exact-dropped; v2/v12
    # near-dropped; the 16 remaining variants survive -> 16 of 20
    variants_present = set((out["doc_id"] // 10_000_019).tolist())
    assert 0 in variants_present
    assert not variants_present & {1, 11, 2, 12}
    assert len(out) == 2 * 16


def test_corpus_prep_star_mode_equal_output(ray_session):
    """pair_mode='star' (O(k) hub edges per LSH run) must keep the same
    surviving corpus as all-pairs mode on the planted mix — hub edges
    pass signature verification for template-style near-dups, so the
    components (and the drop set) coincide."""
    import ray.data
    from full_text_extractor_v6_ray.pipelines.corpus_prep import corpus_prep

    def run(mode):
        out = corpus_prep(ray.data.from_pandas(_docs()),
                          neardup_threshold=0.6,
                          quality_min=-1.0, lang_conf_min=-1.0,
                          pair_mode=mode).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    a, s = run("all"), run("star")
    assert list(a["doc_id"]) == list(s["doc_id"])
    assert list(a["text"]) == list(s["text"])
