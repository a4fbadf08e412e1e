"""MinHash / SimHash / Jaccard near-dup tests on controlled corpora."""

import numpy as np
import pyarrow as pa
import pytest

from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
    MinHashBatch,
    SimHashBatch,
    dup_components,
    minhash_signature,
    ngram_jaccard,
    _perm_params,
)
from full_text_extractor_v6_ray.stages.text_ops import shingle_hashes

BASE = ("the quick brown fox jumps over the lazy dog while the sun sets "
        "behind the tall mountains and the river flows gently through the "
        "quiet valley toward the distant sea")
NEAR = BASE.replace("quiet valley", "silent valley")   # 1-word change
FAR = ("completely different content about spacecraft propulsion systems "
       "and orbital mechanics calculations for interplanetary transfer "
       "windows using gravitational assists around major planets")


def test_ngram_jaccard_bounds():
    assert ngram_jaccard(BASE, BASE) == 1.0
    assert ngram_jaccard(BASE, FAR) < 0.05
    assert 0.7 < ngram_jaccard(BASE, NEAR) < 1.0
    assert ngram_jaccard("", "") == 1.0
    assert ngram_jaccard(BASE, "") == 0.0


def test_minhash_estimates_jaccard():
    a, b = _perm_params(256, 42)
    sa = minhash_signature(shingle_hashes(BASE), a, b)
    sb = minhash_signature(shingle_hashes(NEAR), a, b)
    sf = minhash_signature(shingle_hashes(FAR), a, b)
    est_near = (sa == sb).mean()
    est_far = (sa == sf).mean()
    true_near = ngram_jaccard(BASE, NEAR)
    assert abs(est_near - true_near) < 0.15
    assert est_far < 0.05


def test_minhash_batch_deterministic():
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([BASE, NEAR], pa.string())})
    s1 = MinHashBatch()(t)["minhash"].to_pylist()
    s2 = MinHashBatch()(t)["minhash"].to_pylist()
    assert s1 == s2


def test_simhash_hamming_tracks_similarity():
    sh = SimHashBatch()
    a, n, f = sh.signature(BASE), sh.signature(NEAR), sh.signature(FAR)
    d_near = bin(a ^ n).count("1")
    d_far = bin(a ^ f).count("1")
    assert d_near < d_far
    assert d_near <= 6


def test_minhash_pipeline_finds_planted_dups(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import minhash_dup_pairs

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(500)]
    texts, ids = [], []
    for i in range(60):
        words = [vocab[rng.randint(500)] for _ in range(80)]
        texts.append(" ".join(words))
        ids.append(i)
    # plant near-dups: 100/101 copy docs 0/1 with one word changed
    for src, nid in [(0, 100), (1, 101)]:
        words = texts[src].split()
        words[5] = "CHANGED"
        texts.append(" ".join(words))
        ids.append(nid)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))
    pairs = minhash_dup_pairs(ds, threshold=0.7).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 100) in found and (1, 101) in found
    assert len(found) == 2  # no false positives on random docs


def test_minhash_spill_dir_flavor_equal_output(ray_session, tmp_path,
                                               bucket_count):
    """Parquet-intermediate rebase (object-store pinning OFF) must produce
    the same pairs and components as the object-store flavor."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        dup_components_ds,
        minhash_dup_pairs,
    )

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(vocab[rng.randint(500)] for _ in range(80))
             for _ in range(40)]
    ids = list(range(40))
    for src, nid in [(0, 100), (1, 101), (0, 102)]:
        words = texts[src].split()
        words[5] = f"CHANGED{nid}"
        texts.append(" ".join(words))
        ids.append(nid)

    def mk():
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string())}))

    base_pairs = minhash_dup_pairs(mk(), threshold=0.7).to_pandas()
    spill_pairs = minhash_dup_pairs(
        mk(), threshold=0.7, spill_dir=str(tmp_path)).to_pandas()
    key = lambda df: sorted(zip(df["doc_a"], df["doc_b"], df["est_jaccard"]))
    assert key(base_pairs) == key(spill_pairs)
    assert any(tmp_path.iterdir())   # the parquet flavor really spilled

    bucket_count(4)
    comp = dup_components_ds(
        minhash_dup_pairs(mk(), threshold=0.7, spill_dir=str(tmp_path)),
        spill_dir=str(tmp_path)).to_pandas()
    by = dict(zip(comp["doc_id"], comp["component"]))
    assert by[100] == by[102] == by[0]


def test_simhash_pipeline_finds_planted_dups(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import simhash_dup_pairs

    rng = np.random.RandomState(11)
    vocab = [f"tok{i}" for i in range(800)]
    texts, ids = [], []
    for i in range(40):
        texts.append(" ".join(vocab[rng.randint(800)] for _ in range(120)))
        ids.append(i)
    words = texts[3].split()
    words[10] = "XYZ"
    texts.append(" ".join(words))
    ids.append(200)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))
    pairs = simhash_dup_pairs(ds, max_hamming=3).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (3, 200) in found


def test_dup_components_union_find():
    import pandas as pd

    pairs = pd.DataFrame({"doc_a": [1, 2, 10], "doc_b": [2, 3, 11]})
    comp = dup_components(pairs)
    by = dict(zip(comp["doc_id"], comp["component"]))
    assert by[1] == by[2] == by[3] == 1
    assert by[10] == by[11] == 10


def test_dup_components_distributed_matches_union_find(ray_session,
                                                       bucket_count):
    """Min-label propagation (scale path) == union-find on a graph with a
    long chain (exercises multi-round convergence) + separate clusters."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import dup_components_ds

    # chain 0-1-2-...-9 (diameter 9), triangle {20,21,22}, pair {30,31}
    a = list(range(9)) + [20, 20, 21, 30]
    b = list(range(1, 10)) + [21, 22, 22, 31]
    pairs_df = pd.DataFrame({"doc_a": a, "doc_b": b})
    expect = dup_components(pairs_df)

    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(a, pa.int64()),
        "doc_b": pa.array(b, pa.int64())}))
    bucket_count(4)
    got = dup_components_ds(pairs).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    exp = expect.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["component"].tolist() == exp["component"].tolist()


def test_neardup_dedup_removes_non_canonical(ray_session):
    """Capstone consistency on sf0.001: survivors == all docs minus the
    non-canonical members of each near-dup component."""
    from full_text_extractor_v6_ray.driver_queries import (
        q_docs_dup_components,
        q_docs_neardup_dedup,
    )

    sf = "/root/testdata/sf0.001"
    comp = q_docs_dup_components(sf).to_pandas()
    expected_drop = {int(d) for d, c in zip(comp["doc_id"], comp["component"])
                     if int(d) != int(c)}
    survivors = set(q_docs_neardup_dedup(sf).to_pandas()["doc_id"])

    import pyarrow.parquet as pq
    all_ids = set(pq.read_table(sf + "/documents.parquet",
                                columns=["doc_id"])["doc_id"].to_pylist())
    assert survivors == all_ids - expected_drop
    assert expected_drop  # the synthetic corpus does contain near-dups


def test_star_components_match_union_find(ray_session, bucket_count):
    """Large-star/small-star contraction == union-find on mixed topology:
    long path (deep chain — the case min-label propagation is slow on),
    star, triangle-with-tail, pair, and random noise edges."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        dup_components_star_ds,
    )

    rng = np.random.RandomState(7)
    a = list(range(100, 140))            # path of 41 nodes, diameter 40
    b = list(range(101, 141))
    a += [200] * 6                        # star center 200
    b += [201 + i for i in range(6)]
    a += [300, 301, 302, 302]             # triangle + tail
    b += [301, 302, 300, 303]
    a += [400]                            # pair
    b += [401]
    ra = rng.randint(500, 560, size=30).tolist()   # random clutter
    rb = rng.randint(500, 560, size=30).tolist()
    keep = [(x, y) for x, y in zip(ra, rb) if x != y]
    a += [x for x, _ in keep]
    b += [y for _, y in keep]

    pairs_df = pd.DataFrame({"doc_a": a, "doc_b": b})
    expect = dup_components(pairs_df).sort_values("doc_id").reset_index(drop=True)

    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(a, pa.int64()),
        "doc_b": pa.array(b, pa.int64())}))
    bucket_count(4)
    got = (dup_components_star_ds(pairs, max_iters=12)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == expect["doc_id"].tolist()
    assert got["component"].tolist() == expect["component"].tolist()


def test_star_components_empty_and_duplicate_edges(ray_session, bucket_count):
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        dup_components_star_ds,
    )

    empty = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64())}))
    bucket_count(2)
    assert dup_components_star_ds(empty).count() == 0

    # duplicate / reversed / self-loop edges collapse to one component
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([5, 6, 5, 7, 7], pa.int64()),
        "doc_b": pa.array([6, 5, 6, 7, 5], pa.int64())}))
    got = dup_components_star_ds(pairs).to_pandas()
    by = dict(zip(got["doc_id"], got["component"]))
    assert by == {5: 5, 6: 5, 7: 5}


def test_star_query_matches_propagation_query(ray_session):
    """Both registered component queries produce the identical map on
    sf0.001 (same pair pipeline, two contraction algorithms)."""
    from full_text_extractor_v6_ray.driver_queries import (
        q_docs_dup_components,
        q_docs_dup_components_star,
    )

    sf = "/root/testdata/sf0.001"
    a = (q_docs_dup_components(sf).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (q_docs_dup_components_star(sf).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["component"].tolist() == b["component"].tolist()


def test_jaccard_verified_pairs_exact_values(ray_session, bucket_count):
    """LSH-candidated exact Jaccard: planted near-dups survive with the
    TRUE set Jaccard (checked against a direct shingle_hashes compute),
    and unrelated docs are absent."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        jaccard_verified_pairs,
    )
    from full_text_extractor_v6_ray.stages.text_ops import shingle_hashes

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(600)]
    texts = [" ".join(vocab[rng.randint(600)] for _ in range(90))
             for _ in range(30)]
    ids = list(range(30))
    for src, nid, edits in [(0, 100, 1), (1, 101, 2), (2, 102, 40)]:
        words = texts[src].split()
        for e in range(edits):
            words[3 + 2 * e] = f"EDIT{nid}_{e}"
        texts.append(" ".join(words))
        ids.append(nid)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))
    bucket_count(4)
    got = jaccard_verified_pairs(ds, threshold=0.6,
                                 candidate_threshold=0.4).to_pandas()
    by = {(a, b): j for a, b, j in
          zip(got["doc_a"], got["doc_b"], got["jaccard"])}

    def true_jac(i, j):
        A = shingle_hashes(texts[ids.index(i)])
        B = shingle_hashes(texts[ids.index(j)])
        inter = len(np.intersect1d(A, B, assume_unique=True))
        return round(inter / (len(A) + len(B) - inter), 6)

    assert by[(0, 100)] == true_jac(0, 100)
    assert by[(1, 101)] == true_jac(1, 101)
    assert (2, 102) not in by          # 40 edits: true jaccard < 0.6
    assert all(j >= 0.6 for j in got["jaccard"])


def test_exact_substring_dedup_rewrite(ray_session, bucket_count):
    """Planted dup spans: cross-doc shared 8-gram removed from BOTH
    docs, a within-doc repeat removed at both positions, overlapping
    dup grams merge into one maximal span, clean docs untouched."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        exact_substring_dedup)

    shared = "a b c d e f g h"          # 8 tokens, appears in docs 1+2
    docs = [
        {"doc_id": 1, "text": f"x1 y1 {shared} z1"},
        {"doc_id": 2, "text": f"{shared} q2 r2"},
        # within-doc repeat: the same 8-gram twice in one doc
        {"doc_id": 3, "text": f"m n o p q r s t u m n o p q r s t"},
        {"doc_id": 4, "text": "totally unique little document here"},
        {"doc_id": 5, "text": ""},
    ]
    bucket_count(4)
    got = (exact_substring_dedup(ray.data.from_items(docs),
                                 "text", "doc_id", n=8)
           .to_pandas().set_index("doc_id").sort_index())
    assert got.loc[1, "clean_text"] == "x1 y1 z1"
    assert got.loc[1, "n_removed"] == 8
    assert got.loc[2, "clean_text"] == "q2 r2"
    assert got.loc[2, "n_removed"] == 8
    # doc 3: tokens = m n o p q r s t u m n o p q r s t (17 tokens);
    # "m n o p q r s t" occurs at pos 0 and pos 9 -> both removed,
    # 'u' (pos 8) survives
    assert got.loc[3, "clean_text"] == "u"
    assert got.loc[3, "n_removed"] == 16
    assert got.loc[4, "clean_text"] == "totally unique little document here"
    assert got.loc[4, "n_removed"] == 0
    assert got.loc[5, "clean_text"] == ""
    assert got.loc[5, "n_removed"] == 0


def test_exact_substring_keepfirst(ray_session, bucket_count):
    """keep_first: the min-(doc,pos) occurrence of each dup gram
    survives — one copy of a repeated span stays in the corpus."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        exact_substring_dedup)

    shared = "a b c d e f g h"
    docs = [
        {"doc_id": 1, "text": f"x1 {shared}"},   # first occurrence wins
        {"doc_id": 2, "text": f"{shared} q2"},
        {"doc_id": 3, "text": f"m n o p q r s t u m n o p q r s t"},
    ]
    bucket_count(4)
    got = (exact_substring_dedup(ray.data.from_items(docs),
                                 "text", "doc_id", n=8,
                                 keep_first=True)
           .to_pandas().set_index("doc_id").sort_index())
    assert got.loc[1, "clean_text"] == f"x1 {shared}"   # kept whole
    assert got.loc[1, "n_removed"] == 0
    assert got.loc[2, "clean_text"] == "q2"             # copy removed
    assert got.loc[2, "n_removed"] == 8
    # within-doc repeat: first occurrence (pos 0) survives, second goes
    assert got.loc[3, "clean_text"] == "m n o p q r s t u"
    assert got.loc[3, "n_removed"] == 8


def test_exact_substring_dedup_of_dup_free_corpus(ray_session, bucket_count):
    """No n-gram repeats: the position lists are empty, so the left join
    has no right rows to carry a column from, and every text comes back
    whole with nothing removed."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        exact_substring_dedup)

    docs = [{"doc_id": i, "text": " ".join(f"w{i}_{j}" for j in range(12))}
            for i in range(4)]
    bucket_count(4)
    got = (exact_substring_dedup(ray.data.from_items(docs), "text",
                                 "doc_id", n=8)
           .to_pandas().set_index("doc_id").sort_index())
    assert got["clean_text"].tolist() == [d["text"] for d in docs]
    assert got["n_removed"].tolist() == [0] * 4


def test_candidate_pairs_star_mode_unit():
    """Star mode emits exactly (run-min -> member) edges, vectorized:
    duplicate doc rows inside a run collapse, singleton runs emit
    nothing, and runs don't bleed into each other."""
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        _candidate_pairs_in_bucket,
    )

    g = pa.table({
        "band_hash": pa.array([10, 10, 10, 10, 11, 12, 12],
                              pa.uint64()),
        # run 10: docs {7, 3, 9, 3} (3 repeated); run 11 singleton;
        # run 12: docs {2, 5}
        "doc_id": pa.array([7, 3, 9, 3, 1, 5, 2], pa.int64()),
    })
    star = _candidate_pairs_in_bucket(g, pair_mode="star")
    got = sorted(zip(star["doc_a"].to_pylist(), star["doc_b"].to_pylist()))
    assert got == [(2, 5), (3, 7), (3, 9)]
    # all mode on the same input: full pairs per run
    allp = _candidate_pairs_in_bucket(g, pair_mode="all")
    gota = sorted(zip(allp["doc_a"].to_pylist(), allp["doc_b"].to_pylist()))
    assert gota == [(2, 5), (3, 7), (3, 9), (7, 9)]
    # empty input stays typed in both modes
    for mode in ("all", "star"):
        e = _candidate_pairs_in_bucket(g.slice(0, 0), pair_mode=mode)
        assert e.num_rows == 0 and e.column_names == ["doc_a", "doc_b"]


def test_star_pair_mode_linear_edges_same_components(ray_session):
    """A planted k-member template clique: star mode emits O(k) edges
    (vs O(k^2) all-pairs) and connected components — the thing dedup
    consumes — are identical."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        dup_components_ds,
        minhash_dup_pairs,
    )

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(vocab[rng.randint(500)] for _ in range(80))
             for _ in range(40)]
    ids = list(range(40))
    k = 8  # template clique: doc 0 with one word changed per variant
    base_words = texts[0].split()
    for v in range(1, k):
        words = list(base_words)
        words[10 + v] = f"VAR{v}"
        texts.append(" ".join(words))
        ids.append(100 + v)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))

    pairs_all = minhash_dup_pairs(ds, threshold=0.7, pair_mode="all")
    pairs_star = minhash_dup_pairs(ds, threshold=0.7, pair_mode="star")
    n_all, n_star = pairs_all.count(), pairs_star.count()
    # clique of 8 -> all-pairs 28; star emits (run-size - 1) edges PER
    # BAND RUN, and borderline variants drop in/out of runs band to
    # band, so the distinct hub-edge count lands between k-1 and a
    # small multiple of it (observed 14 with this seed) — still O(k),
    # never the O(k^2) clique
    assert n_star < n_all
    assert n_star <= 2 * (k - 1)             # ~linear in k
    assert n_all >= (k * (k - 1)) // 2 - 4   # ~quadratic in k
    # hub edges are run-min anchored: the clique min (doc 0) anchors
    # every run it appears in, and every edge points min -> member
    sp = pairs_star.to_pandas()
    assert 0 in set(sp["doc_a"])
    assert (sp["doc_a"] < sp["doc_b"]).all()

    def comp_set(pairs):
        df = dup_components_ds(pairs).to_pandas()
        return set(zip(df["doc_id"], df["component"]))

    assert comp_set(pairs_star) == comp_set(pairs_all)


def test_minhash_pair_mode_validated():
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        minhash_dup_pairs,
    )

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["a b c"], pa.string())}))
    with pytest.raises(ValueError, match="pair_mode"):
        minhash_dup_pairs(ds, pair_mode="ring")


def test_jaccard_pairs_query_runs_no_schema_probe(ray_session,
                                                  count_executions):
    """The ``docs_jaccard_pairs`` query at sf0.001 (LSH candidates, two
    signature joins, exact verify): 7 Ray executions with the one that
    consumes it, none of them a one-row ``limit=1`` schema probe."""
    import __ray_entry__ as entry

    count_executions.clear()
    rows = entry.queries()["docs_jaccard_pairs"]("/root/testdata/sf0.001")
    assert len(rows.take_all()) == 28
    assert [e for e in count_executions if "limit=1" in e] == []
    assert len(count_executions) == 7, count_executions
