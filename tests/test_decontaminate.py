"""contamination_counts: GPT-3-style n-gram benchmark decontamination.

Planted-overlap recovery against a pure-Python reference on both the
broadcast and the bucketed-semi-join dispatch paths, plus empty-eval
and no-overlap guards.
"""

import pandas as pd
import pytest


def _py_contamination(train_texts, eval_texts, n):
    """Pure-Python truth: per train doc, count of its distinct word
    n-grams present in the eval set's gram universe."""
    def grams(t):
        toks = [x for x in t.split(" ") if x]
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    ev = set()
    for t in eval_texts:
        ev |= grams(t)
    out = {}
    for did, t in train_texts.items():
        k = len(grams(t) & ev)
        if k:
            out[did] = k
    return out


TRAIN = {
    0: "the quick brown fox jumps over the lazy dog today",
    1: "a completely different document with no shared content at all",
    2: "the quick brown fox jumps over the lazy dog today again and again",
    3: "short doc",
    4: "one two three four five six seven eight nine ten eleven",
}
EVAL = [
    "xx the quick brown fox jumps over the lazy dog yy",   # hits 0 and 2
    "one two three four five six seven eight nine",        # hits 4
]
N = 5


def _run(ray_session, max_broadcast, bucket_count):
    import ray.data

    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        contamination_counts,
    )

    train = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": list(TRAIN), "text": list(TRAIN.values())}))
    ev = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": range(len(EVAL)), "text": EVAL}))
    bucket_count(4)
    got = contamination_counts(train, ev, n=N,
                               max_broadcast=max_broadcast).to_pandas()
    return dict(zip(got["doc_id"], got["n_contaminated"]))


@pytest.mark.parametrize("max_broadcast", [2_000_000, 0],
                         ids=["broadcast", "semi_join"])
def test_planted_overlap_both_paths(ray_session, max_broadcast,
                                    bucket_count):
    want = _py_contamination(TRAIN, EVAL, N)
    assert want  # the fixture must plant real overlap
    assert _run(ray_session, max_broadcast, bucket_count) == want


def test_empty_eval_returns_typed_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        contamination_counts,
    )

    train = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": list(TRAIN), "text": list(TRAIN.values())}))
    # a sub-N-token eval doc yields zero grams -> empty eval universe
    ev = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [9], "text": ["tiny"]}))
    got = contamination_counts(train, ev, n=N)
    assert got.count() == 0
    s = got.schema()
    assert s.names == ["doc_id", "n_contaminated"]
    assert s.types == [pa.int64(), pa.int64()]


def test_no_overlap_is_empty(ray_session):
    import ray.data

    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        contamination_counts,
    )

    train = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [0], "text": ["alpha beta gamma delta epsilon zeta"]}))
    ev = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1], "text": ["one two three four five six seven"]}))
    assert contamination_counts(train, ev, n=5).count() == 0
