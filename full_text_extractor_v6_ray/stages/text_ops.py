"""Text-analysis stages for training-data pipelines.

Beyond the reference's own operators (SURVEY.md lists word/char counts at
M25), a 100 TB training-data pipeline needs language ID, quality scoring,
token counting and fingerprinting over the ``documents`` table. All are
task ``map_batches`` stages over a callable instance: profiles/regexes
compiled once in ``__init__`` and shipped with the instance, never per
file (the reference's compile-per-file anti-pattern inverted,
powerpoint_processor.py:359-365).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# Language ID: stopword-profile n-gram heuristic
# ---------------------------------------------------------------------------

_STOPWORD_PROFILES: dict[str, frozenset] = {
    "en": frozenset("the and of to in is that it for on with as was at by an "
                    "be this are or from".split()),
    "de": frozenset("der die und das den von zu mit sich des auf ist im dem "
                    "nicht ein eine als auch es".split()),
    "fr": frozenset("le la les et de des en un une du que est pour dans ce "
                    "il qui ne sur se pas".split()),
    "es": frozenset("el la los las y de en un una del que es por con no se "
                    "su para como más".split()),
    "it": frozenset("il la le e di che in un una del per con non sono da si "
                    "dei al anche".split()),
}


class LangIdBatch:
    """Heuristic language ID over a text column.

    Scoring: share of tokens hitting each language's stopword profile;
    CJK-codepoint ratio short-circuits to ``zh``. Deterministic tie-break
    by profile name. Emits ``lang_pred`` and ``lang_conf``.
    """

    def __init__(self, text_col: str = "text", min_tokens: int = 3):
        self.text_col = text_col
        self.min_tokens = min_tokens
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.profiles = sorted(_STOPWORD_PROFILES.items())  # fixed order

    def _predict(self, text: str) -> tuple[str, float]:
        if not text:
            return "und", 0.0
        cjk = sum(1 for ch in text[:2000] if "一" <= ch <= "鿿")
        if cjk and cjk / max(1, len(text[:2000])) > 0.05:
            return "zh", round(min(1.0, cjk / len(text[:2000]) * 4), 6)
        toks = [t.lower() for t in self.word_re.findall(text[:4000])]
        if len(toks) < self.min_tokens:
            return "und", 0.0
        best_lang, best = "und", 0.0
        for lang, prof in self.profiles:
            hits = sum(1 for t in toks if t in prof)
            score = hits / len(toks)
            if score > best:
                best_lang, best = lang, score
        if best == 0.0:
            return "und", 0.0
        return best_lang, round(best, 6)

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, confs = [], []
        for t in batch.column(self.text_col).to_pylist():
            p, c = self._predict(t or "")
            preds.append(p)
            confs.append(c)
        batch = batch.append_column("lang_pred", pa.array(preds, pa.string()))
        batch = batch.append_column("lang_conf", pa.array(confs, pa.float64()))
        return batch


# ---------------------------------------------------------------------------
# Quality scoring: length / punctuation / stopword / repetition heuristics
# ---------------------------------------------------------------------------

class QualityScoreBatch:
    """Gopher/C4-style quality heuristics -> per-doc quality columns.

    Emits: n_tokens, mean_token_len, stop_ratio, punct_ratio, digit_ratio,
    max_repeat_ratio (most frequent token share), quality (composite 0..1).
    All thresholds fixed -> deterministic.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop = _STOPWORD_PROFILES["en"]
        self.punct_re = re.compile(r"[^\w\s]", re.UNICODE)
        self.digit_re = re.compile(r"\d")

    def _score(self, text: str) -> tuple:
        if not text or not text.strip():
            return 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        toks = text.split()
        n = len(toks)
        mean_len = sum(len(t) for t in toks) / n
        lowered = [t.lower().strip(".,;:!?\"'()") for t in toks]
        stop_ratio = sum(1 for t in lowered if t in self.stop) / n
        n_chars = len(text)
        punct_ratio = len(self.punct_re.findall(text)) / n_chars
        digit_ratio = len(self.digit_re.findall(text)) / n_chars
        counts: dict[str, int] = {}
        for t in lowered:
            counts[t] = counts.get(t, 0) + 1
        max_repeat = max(counts.values()) / n if counts else 0.0

        q = 1.0
        if n < 10 or n > 100_000:
            q *= 0.3
        if not (2.0 <= mean_len <= 12.0):
            q *= 0.5
        if max_repeat > 0.2:
            q *= 0.5
        if punct_ratio > 0.3:
            q *= 0.5
        if digit_ratio > 0.3:
            q *= 0.5
        return (n, round(mean_len, 6), round(stop_ratio, 6),
                round(punct_ratio, 6), round(digit_ratio, 6),
                round(max_repeat, 6), round(q, 6))

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = list(zip(*(self._score(t or "")
                          for t in batch.column(self.text_col).to_pylist())))
        names = ["n_tokens", "mean_token_len", "stop_ratio", "punct_ratio",
                 "digit_ratio", "max_repeat_ratio", "quality"]
        types = [pa.int64()] + [pa.float64()] * 6
        for name, typ, vals in zip(names, types, cols):
            batch = batch.append_column(name, pa.array(list(vals), typ))
        return batch


# ---------------------------------------------------------------------------
# Document fingerprinting: content hash + rolling shingle fingerprint
# ---------------------------------------------------------------------------

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a_64(data: bytes) -> int:
    """Pure-python FNV-1a 64 (stable across processes, unlike hash())."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def token_hashes(tokens: list[str]) -> np.ndarray:
    """Stable 64-bit hash per token (md5-low64, vectorizable enough)."""
    return np.array(
        [int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little")
         for t in tokens],
        dtype=np.uint64,
    )


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Rolling k-word shingle fingerprints: polynomial combine of token
    hashes (the rolling-hash document fingerprint)."""
    toks = text.lower().split()
    if len(toks) < k:
        toks = toks + [""] * (k - len(toks))
    th = token_hashes(toks)
    mult = np.uint64(1099511628211)
    out = th[: len(th) - k + 1].copy()
    for i in range(1, k):
        out = out * mult + th[i: len(th) - k + 1 + i]
    return np.unique(out)


class FingerprintBatch:
    """Emits content_md5 (exact-dup key) + fp64 (first shingle fingerprint)."""

    def __init__(self, text_col: str = "text", k: int = 3):
        self.text_col = text_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        # md5 over utf-8 bytes straight off the Arrow buffers (memoryview
        # slices, no per-row encode); the shingle fingerprint still needs
        # the Python str for tokenization.
        col = batch.column(self.text_col).combine_chunks().cast(
            pa.large_binary())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64,
                             count=len(col) + 1, offset=col.offset * 8)
        data = memoryview(col.buffers()[2])
        md5s = [hashlib.md5(data[offs[i]:offs[i + 1]]).hexdigest()
                for i in range(len(col))]
        fps = []
        for t in batch.column(self.text_col).to_pylist():
            sh = shingle_hashes(t or "", self.k)
            fps.append(int(sh.min()) if len(sh) else 0)
        batch = batch.append_column("content_md5", pa.array(md5s, pa.string()))
        batch = batch.append_column("fp64", pa.array(fps, pa.uint64()))
        return batch


# ---------------------------------------------------------------------------
# Corpus vocabulary statistics (tf / df) — the combiner pattern
# ---------------------------------------------------------------------------

def vocab_stats(docs: "ray.data.Dataset",
                text_col: str = "text") -> "ray.data.Dataset":
    """Corpus-wide (token, tf, df): term frequency + document frequency.

    The shuffle moves PRE-AGGREGATED (token, partial_tf, partial_df) rows
    — one row per distinct token per batch, not per occurrence — so the
    all-to-all exchange is bounded by |vocab| x n_batches regardless of
    corpus token count (the map-side combiner rule for wide groupbys).
    Tokenization is the repo-wide RE2 dialect (Arrow ``\\s+`` split,
    empties dropped) — identical to the DuckDB oracle's
    regexp_split_to_array(text, '\\s+') WHERE tok <> '' on every byte
    sequence, and to ``lm.py``'s ``_doc_pairs`` (whose in-vocab-by-
    construction invariant depends on this table using the SAME split).
    df is exact: each doc lives in exactly one batch, so per-batch
    distinct-doc partials sum to the true document frequency.
    """
    from .dedup import bucketed_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch.column(text_col), pa.string())
        toks = pc.split_pattern_regex(text, pattern=r"\s+")
        flat = pc.list_flatten(toks).combine_chunks()
        par = pc.list_parent_indices(toks).combine_chunks()
        keep = pc.not_equal(flat, "")
        t = pa.table({"token": flat.filter(keep),
                      "_doc": par.filter(keep)})
        g = t.group_by("token").aggregate(
            [([], "count_all"), ("_doc", "count_distinct")])
        return g.rename_columns(["token", "tf", "df"])

    # bucketed reduce — Ray's sort-based string-key aggregate is the
    # measured hot stage at corpus scale (see bucketed_group_sum)
    return bucketed_group_sum(
        docs.map_batches(partial, batch_format="pyarrow", batch_size=512,
                         zero_copy_batch=True),
        "token", ["tf", "df"])


# ---------------------------------------------------------------------------
# PII scrub: email / phone / IPv4 redaction (training-data hygiene)
# ---------------------------------------------------------------------------

# Patterns restricted to syntax with IDENTICAL semantics under Python re
# and RE2/DuckDB (no backrefs, no lookaround) so the DuckDB oracle is an
# exact cross-engine check — parity verified on planted PII in
# tests/test_text_ops.py, not just on the (PII-free) driver corpus.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\+?\d[\d\- ]{7,14}\d"
PII_IPV4 = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"


class PiiScrubBatch:
    """Redacts emails/phones/IPv4s -> [EMAIL]/[PHONE]/[IP] and counts
    matches per doc. Regexes compiled once per instance; order matters
    (emails first: their digits must not be half-eaten as phones)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.email = re.compile(PII_EMAIL)
        self.phone = re.compile(PII_PHONE)
        self.ip = re.compile(PII_IPV4)

    def __call__(self, batch: pa.Table) -> pa.Table:
        scrubbed, ne, np_, ni = [], [], [], []
        for s in batch.column(self.text_col).to_pylist():
            s = s or ""
            s1, n1 = self.email.subn("[EMAIL]", s)
            s2, n2 = self.phone.subn("[PHONE]", s1)
            s3, n3 = self.ip.subn("[IP]", s2)
            scrubbed.append(s3)
            ne.append(n1)
            np_.append(n2)
            ni.append(n3)
        batch = batch.append_column("text_scrubbed",
                                    pa.array(scrubbed, pa.string()))
        batch = batch.append_column("n_email", pa.array(ne, pa.int64()))
        batch = batch.append_column("n_phone", pa.array(np_, pa.int64()))
        batch = batch.append_column("n_ip", pa.array(ni, pa.int64()))
        return batch


class RepetitionBatch:
    """Gopher-style repetition signals per document: duplicate-token
    fraction, most-frequent-token fraction, most-frequent-bigram
    fraction (arXiv:2112.11446 §A.1.1 repetition filters, re-derived
    from the public paper).

    Tokenization is the oracle-pinned ``split(' ')`` (DuckDB
    ``string_split(text, ' ')`` — keeps empties on double spaces), so
    the token-level signals are SQL-verifiable; the bigram signal is
    covered by unit tests. Counter loops run per document (C-speed
    dict ops); the stage is map-only — no shuffle.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        n_tok, dup_f, top_f, big_f = [], [], [], []
        for s in batch.column(self.text_col).to_pylist():
            toks = (s or "").split(" ")
            t = len(toks)
            c = Counter(toks)
            n_tok.append(t)
            # IEEE order pinned to the oracle: 1.0 - (distinct / total)
            dup_f.append(1.0 - len(c) / t if t else 0.0)
            top_f.append(max(c.values()) / t if t else 0.0)
            if t >= 2:
                bc = Counter(zip(toks, toks[1:]))
                big_f.append(max(bc.values()) / (t - 1))
            else:
                big_f.append(0.0)
        batch = batch.append_column("n_tok", pa.array(n_tok, pa.int64()))
        batch = batch.append_column("dup_tok_frac",
                                    pa.array(dup_f, pa.float64()))
        batch = batch.append_column("top_tok_frac",
                                    pa.array(top_f, pa.float64()))
        batch = batch.append_column("top_bigram_frac",
                                    pa.array(big_f, pa.float64()))
        return batch


# ---------------------------------------------------------------------------
# Benchmark decontamination: drop docs containing any needle substring
# ---------------------------------------------------------------------------

class DecontaminateBatch:
    """Filter out documents whose text contains ANY benchmark needle.

    The standard eval-decontamination step of a training-data pipeline:
    the benchmark set is tiny (thousands of prompts), the corpus is not —
    so the needles ride inside the instance (Ray ships a stage's callable
    to the object store once per execution) and membership is a pure
    per-batch filter: no shuffle, no state, composes with read-side
    column pruning.

    Matching is vectorized per needle (``pc.match_substring`` over the
    whole batch column, O(needles) kernel launches, not O(rows) Python).
    For needle sets past ~10^4, swap the loop for one Aho-Corasick pass
    per row inside the same callable — the broadcast/filter shape
    (the part that matters at 100 TB) is unchanged.
    """

    def __init__(self, needles, text_col: str = "text"):
        # Dedup + drop empties ('' would match everything); sort so the
        # scan order (and thus timing) is deterministic.
        self.needles = sorted({n for n in needles if n})
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        col = batch.column(self.text_col)
        bad = np.zeros(len(batch), dtype=bool)
        for n in self.needles:
            hit = pc.fill_null(pc.match_substring(col, n), False)
            bad |= hit.to_numpy(zero_copy_only=False).astype(bool)
        return batch.filter(pa.array(~bad))


def decontaminate(docs: "ray.data.Dataset", needles: list,
                  text_col: str = "text") -> "ray.data.Dataset":
    """Drop rows whose ``text_col`` contains any of ``needles``."""
    return docs.map_batches(DecontaminateBatch(needles, text_col),
                            batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Paragraph-level corpus dedup (CCNet-style) + corpus n-gram counts
# ---------------------------------------------------------------------------


def explode_paragraphs(docs: "ray.data.Dataset", id_col: str = "doc_id",
                       text_col: str = "text", sep: str | None = None,
                       chunk_words: int | None = None
                       ) -> "ray.data.Dataset":
    """(doc, text) → (doc, idx, para): one row per paragraph with its
    0-based position. ``sep`` splits on a literal separator (real web
    corpora: ``"\\n\\n"``); ``chunk_words`` instead derives fixed-size
    word-chunk pseudo-paragraphs (the deterministic stand-in for the
    synthetic tables, which carry no paragraph structure). Per-row
    string splitting is inherently per-string work (same regime as
    ``vocab_stats``); everything downstream is columnar."""
    if (sep is None) == (chunk_words is None):
        raise ValueError("exactly one of sep / chunk_words required")

    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "idx": pa.array([], pa.int64()),
        "para": pa.array([], pa.string()),
    })

    def split(batch: pa.Table) -> pa.Table:
        # fully vectorized (measured: the old per-row Python loop was
        # the hot stage at 2M docs): Arrow split -> flatten -> run
        # arithmetic over the (sorted) parent indices; chunk strings
        # reassemble zero-copy via ListArray offsets + binary_join.
        batch = batch.filter(pc.is_valid(batch.column(id_col)))
        text = pc.cast(batch.column(text_col), pa.string())
        if sep is not None:
            lists = pc.split_pattern(text, pattern=sep)
        else:
            lists = pc.split_pattern_regex(text, pattern=r"\s+")
        flat = pc.list_flatten(lists).combine_chunks()
        parents = pc.list_parent_indices(lists).combine_chunks()
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        par = parents.filter(keep).to_numpy(zero_copy_only=False)
        n = len(par)
        if n == 0:
            return empty
        first = np.concatenate(([True], par[1:] != par[:-1]))
        run_starts = np.flatnonzero(first)
        pos = np.arange(n) - run_starts[np.cumsum(first) - 1]
        ids_np = batch.column(id_col).to_numpy(zero_copy_only=False)
        if sep is not None:
            out_par, idx, paras = par, pos, flat
        else:
            starts = np.flatnonzero(pos % chunk_words == 0)
            offsets = pa.array(
                np.concatenate((starts, [n])).astype(np.int32))
            paras = pc.binary_join(
                pa.ListArray.from_arrays(offsets, flat), " ")
            out_par = par[starts]
            idx = pos[starts] // chunk_words
        return pa.table({
            id_col: pa.array(ids_np[out_par].astype(np.int64),
                             pa.int64()),
            "idx": pa.array(idx.astype(np.int64), pa.int64()),
            "para": paras,
        })

    return docs.map_batches(split, batch_format="pyarrow",
                            zero_copy_batch=True)


def paragraph_dedup(docs: "ray.data.Dataset", id_col: str = "doc_id",
                    text_col: str = "text", sep: str | None = None,
                    chunk_words: int | None = None,
                    join_sep: str = " "
                    ) -> "ray.data.Dataset":
    """Corpus-wide paragraph dedup, keep-FIRST occurrence (CCNet's
    paragraph hashing step: boilerplate paragraphs repeated across
    pages survive exactly once, at their globally-first (doc, idx)
    position), then order-preserving reassembly of each doc's
    surviving paragraphs. Docs whose every paragraph was a later
    duplicate disappear.

    Scale shape — TWO shuffles total, no join: the keeper election
    groups on the paragraph TEXT itself — exact identity, zero
    collision risk at any scale (a 64-bit digest has birthday
    collisions at 10^12 paragraphs, and a 128-bit one costs a per-row
    Python md5 loop in the hot path; the raw text is barely wider than
    a 32-hex digest). The winner is MIN(doc_id·2^32 + idx) — one
    packed-int64 argmin through the combiner-compressed election
    shuffle, which moves one (para, packed) row per distinct paragraph
    per block. Because the TEXT is the election key, the keeper output
    rows ARE the surviving (doc, idx, para) rows — no join back to the
    exploded paragraphs is needed at all (the join existed only when a
    digest rode the election; eliminating it removed the single most
    expensive stage, ~half the measured wall time at 2M docs). The
    second shuffle is the per-doc reassembly.

    The pack is computed in uint64 (injective and order-preserving for
    idx < 2^32 per doc and doc_id < 2^32, the documented bounds) then
    mapped to int64 by flipping the sign bit — the standard
    order-preserving bijection — because Ray's Min reduce rebuilds its
    output from Python ints via ``pa.array`` (int64 inference): a raw
    uint64 ≥ 2^63 overflows there into a pickled-object column, while
    every int64 min stays exact (no float round-trip)."""
    from .window import grouped_string_agg

    paras = explode_paragraphs(docs, id_col, text_col, sep=sep,
                               chunk_words=chunk_words)

    def add_packed(batch: pa.Table) -> pa.Table:
        did = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.uint64)
        idx = batch.column("idx").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        packed = ((did << np.uint64(32)) | idx) ^ np.uint64(1 << 63)
        return batch.append_column("packed",
                                   pa.array(packed.view(np.int64),
                                            pa.int64()))

    def elect_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["para", "packed"]).group_by("para").aggregate(
            [("packed", "min")])
        return g.rename_columns(["para", "packed"])

    hashed = paras.map_batches(add_packed, batch_format="pyarrow",
                               zero_copy_batch=True)

    def unpack_winners(batch: pa.Table) -> pa.Table:
        # the keeper rows ARE the surviving paragraphs: the election
        # key is the text, the min-packed value is the winning (doc,
        # idx) — reconstruct them and skip any join entirely
        u = batch.column("keep_packed").to_numpy(
            zero_copy_only=False).view(np.uint64) ^ np.uint64(1 << 63)
        return pa.table({
            id_col: pa.array(
                (u >> np.uint64(32)).astype(np.int64), pa.int64()),
            "idx": pa.array(
                (u & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()),
            "para": batch.column("para"),
        })

    from .dedup import bucketed_group_agg

    kept = (bucketed_group_agg(
                hashed.map_batches(elect_partial, batch_format="pyarrow",
                                   zero_copy_batch=True),
                "para", [("packed", "min")])
            .map_batches(
                lambda b: b.rename_columns(["para", "keep_packed"]),
                batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(unpack_winners, batch_format="pyarrow",
                         zero_copy_batch=True))
    out = grouped_string_agg(kept, id_col, "para", order_cols=["idx"],
                             sep=join_sep, out_col=text_col)
    return out


def top_bigrams(docs: "ray.data.Dataset", text_col: str = "text",
                k: int = 20) -> "ray.data.Dataset":
    """Corpus-wide top-k adjacent word pairs. Map-side combiner: one
    (bigram, n) row per DISTINCT bigram per batch crosses the shuffle
    (never per occurrence); the groupby output is vocab²-bounded and
    the final sort+limit runs on that small table. Deterministic
    tiebreak: count desc, bigram asc. Tokenization: repo-wide RE2
    dialect (``re2_tokens``) so the pairs match the DuckDB oracle's
    regexp split on every byte sequence."""
    from collections import Counter

    from ..functions.text_stats import re2_tokens

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s in batch.column(text_col).to_pylist():
            toks = re2_tokens(s)
            c.update(" ".join(p) for p in zip(toks, toks[1:]))
        keys = list(c.keys())
        return pa.table({
            "bigram": pa.array(keys, pa.string()),
            "n": pa.array([c[b] for b in keys], pa.int64()),
        })

    from .dedup import bucketed_group_sum

    return (bucketed_group_sum(
                docs.map_batches(partial, batch_format="pyarrow",
                                 batch_size=512),
                "bigram", ["n"])
            .sort(["n", "bigram"], descending=[True, False])
            .limit(k))


# ---------------------------------------------------------------------------
# Unigram-LM perplexity bucketing (CCNet's head/middle/tail split)
# ---------------------------------------------------------------------------


def perplexity_buckets(docs: "ray.data.Dataset", id_col: str = "doc_id",
                       text_col: str = "text", n_buckets: int = 3,
                       score_ndigits: int = 6) -> "ray.data.Dataset":
    """CCNet-style LM bucketing with a self-trained unigram LM: score
    every doc by mean token log-probability under the corpus's own
    unigram distribution, then split the corpus into ``n_buckets``
    equal-population quality tiers (head/middle/tail for 3) at exact
    PERCENTILE_DISC cutoffs.

    Pipeline shape (all stages streaming):
      1. unigram tf via ``vocab_stats`` (map-side combiner shuffle);
      2. token→ln(tf/total) table shipped ONCE inside the scoring
         function (Ray puts a stage's callable in the object store once) —
         sound for real-corpus vocabularies (1e6–1e8 entries); beyond
         that swap for a bucketed token join (the tfidf_top_terms
         shape);
      3. per-batch vectorized doc scoring (one Counter pass per doc,
         numpy dot against the lookup);
      4. exact cutoffs via the PERCENTILE_DISC machinery over the slim
         (score) projection — cutoffs are actual data values, so the
         bucket assignment is engine-portable; scores are rounded to
         ``score_ndigits`` BEFORE the cutoff election so both engines
         compare identical doubles;
      5. broadcast the (n_buckets-1) cutoffs, assign
         bucket = 1 + Σ (score > cutoff) per batch.

    Every token of the scored corpus is in-vocab by construction
    (same corpus trains and scores); foreign tokens would score with
    the minimum observed logprob."""
    from ray.data.aggregate import Sum

    from .stats import grouped_quantile_disc

    vocab = vocab_stats(docs, text_col=text_col)
    vt = vocab.select_columns(["token", "tf"]).to_pandas()
    total = float(vt["tf"].sum())
    lp = dict(zip(vt["token"], np.log(vt["tf"].to_numpy() / total)))
    floor_lp = float(min(lp.values())) if lp else 0.0

    def score(batch: pa.Table) -> pa.Table:
        from ..functions.text_stats import re2_tokens

        ids = batch.column(id_col)
        n_toks, scores = [], []
        for s in batch.column(text_col).to_pylist():
            # RE2 dialect — MUST match vocab_stats' Arrow split, or
            # tokens containing \x0b/\xa0/… miss the lp table
            toks = re2_tokens(s)
            n_toks.append(len(toks))
            if toks:
                g = lp.get
                scores.append(sum(g(t, floor_lp) for t in toks) / len(toks))
            else:
                scores.append(floor_lp)
        sc = np.round(np.array(scores, dtype=np.float64), score_ndigits)
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(n_toks, pa.int64()),
            "avg_logprob": pa.array(sc, pa.float64()),
        })

    scored = docs.map_batches(score, batch_format="pyarrow", batch_size=512)

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "_one": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
            "avg_logprob": batch.column("avg_logprob"),
        })

    cuts = []
    slim_ds = scored.map_batches(slim, batch_format="pyarrow",
                                 zero_copy_batch=True)
    for i in range(1, n_buckets):
        q = i / n_buckets
        t = grouped_quantile_disc(slim_ds, "_one", "avg_logprob", q,
                                  out_col="c").to_pandas()
        cuts.append(float(t["c"].iloc[0]))
    cuts_arr = np.array(cuts, dtype=np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        # bucket 1 = head (highest mean logprob / lowest perplexity),
        # bucket n = tail — the CCNet orientation
        s = batch.column("avg_logprob").to_numpy(zero_copy_only=False)
        b = n_buckets - (s[:, None] > cuts_arr[None, :]).sum(axis=1)
        return batch.append_column("bucket",
                                   pa.array(b.astype(np.int64)))

    return scored.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)


def dsir_log_ratio(docs: "ray.data.Dataset", id_col: str = "doc_id",
                   text_col: str = "text",
                   target_col: str = "is_target",
                   ndigits: int = 6) -> "ray.data.Dataset":
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    via Importance Resampling"): weight each document by
    Σ_tokens [ln p̂_target(tok) − ln p̂_raw(tok)] under add-one-smoothed
    unigram LMs — the target LM trained on the rows where
    ``target_col`` is true, the raw LM on the whole corpus. High-weight
    docs look like the target domain; resample by weight to shift the
    corpus mixture. (DSIR proper uses hashed n-gram features; the
    unigram form keeps the weights engine-portable / SQL-oracle-able —
    swap the token stream for hashed n-grams to get the paper's
    estimator.)

    Smoothing is over the RAW corpus vocabulary V (the target is a
    subset, so every scored token is raw-known):
    p̂(t) = (c(t)+1) / (T+V). Scale shape mirrors
    ``perplexity_buckets``: both count tables come from the map-side
    ``vocab_stats`` combiner; the token→log-ratio table ships ONCE
    inside the scoring function (sound for 1e6–1e8-entry real vocabularies;
    beyond that use a bucketed token join, the tfidf_top_terms shape);
    scoring is one streaming Counter pass per batch."""
    raw = vocab_stats(docs, text_col=text_col).select_columns(
        ["token", "tf"]).to_pandas()
    tgt_docs = docs.map_batches(
        lambda b: b.filter(pc.equal(b[target_col], True)),
        batch_format="pyarrow", zero_copy_batch=True)
    tgt = vocab_stats(tgt_docs, text_col=text_col).select_columns(
        ["token", "tf"]).to_pandas()

    v = float(len(raw))
    t_raw = float(raw["tf"].sum())
    t_tgt = float(tgt["tf"].sum())
    tgt_c = dict(zip(tgt["token"], tgt["tf"].astype(float)))
    raw_tok = raw["token"].to_numpy()
    raw_c = raw["tf"].to_numpy(dtype=np.float64)
    tgt_arr = np.array([tgt_c.get(t, 0.0) for t in raw_tok])
    lr = (np.log(tgt_arr + 1.0) - np.log(t_tgt + v)
          - np.log(raw_c + 1.0) + np.log(t_raw + v))
    log_ratio = dict(zip(raw_tok, lr))

    def score(batch: pa.Table) -> pa.Table:
        from ..functions.text_stats import re2_tokens

        ws = []
        g = log_ratio.get
        for s in batch.column(text_col).to_pylist():
            # RE2 dialect — must match the vocab_stats-built tables
            toks = re2_tokens(s)
            ws.append(float(sum(g(t, 0.0) for t in toks)))
        return pa.table({
            id_col: batch.column(id_col),
            "log_ratio": pa.array(
                np.round(np.array(ws, dtype=np.float64), ndigits)),
        })

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=512)


def normalize_for_dedup(col) -> "pa.ChunkedArray":
    """CCNet's pre-hash text normalization: lowercase, every digit → 0,
    punctuation stripped, whitespace collapsed, edges trimmed. All RE2
    kernels — Arrow and DuckDB share RE2 semantics (``\\w`` = ASCII
    word chars in both), so normalized keys are engine-portable."""
    s = pc.utf8_lower(pc.fill_null(pc.cast(col, pa.string()), ""))
    s = pc.replace_substring_regex(s, pattern=r"\d", replacement="0")
    s = pc.replace_substring_regex(s, pattern=r"[^\w\s]", replacement="")
    s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(s)


def normalized_keep_first(docs: "ray.data.Dataset",
                          id_col: str = "doc_id",
                          text_col: str = "text"
                          ) -> "ray.data.Dataset":
    """Exact dedup on the NORMALIZED text (CCNet's hashing key):
    case/digit/punctuation variants of the same content collapse to one
    surviving row — the lowest ``id_col``. Rides ``keyed_keep_one``
    (map-side keep-first combine, one bucketed shuffle); the normalized
    key is dropped from the output."""
    from .dedup import keyed_keep_one

    def add_norm(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_norm", normalize_for_dedup(batch.column(text_col)))

    kept = keyed_keep_one(
        docs.select_columns([id_col, text_col])
        .map_batches(add_norm, batch_format="pyarrow",
                     zero_copy_batch=True),
        "_norm", [(id_col, "ascending")])
    return kept.select_columns([id_col, text_col])


class CompressionRatioBatch:
    """zlib compression ratio per doc — the classic cheap
    repetitiveness/quality signal (near-1 ratios mean boilerplate or
    generated spam; very high ratios mean high-entropy noise like
    base64 blobs; natural prose sits ~2-4x). Used as a filter feature
    alongside the Gopher-style heuristics in QualityScoreBatch.

    Per-batch stateless task stage; the per-doc ``zlib.compress`` IS
    the work (C speed, no Python-loop overhead worth removing). Not
    SQL-expressible — rows-only at the oracle gate, pinned by unit
    tests on texts of known redundancy.
    """

    def __init__(self, text_col: str = "text", level: int = 6):
        import zlib

        self._compress = zlib.compress
        self.text_col = text_col
        self.level = level

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ratios = np.empty(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            raw = (t or "").encode("utf-8", "replace")
            if not raw:
                ratios[i] = 1.0
                continue
            ratios[i] = len(raw) / len(self._compress(raw, self.level))
        return batch.append_column("compression_ratio",
                                   pa.array(np.round(ratios, 4),
                                            pa.float64()))


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021, §A1.1 — the standard web-text
# document-quality rule suite)
# ---------------------------------------------------------------------------

GOPHER_STOP_WORDS = ("the", "be", "to", "of", "and", "that", "have",
                     "with")
_LINE_TRIM = " \t\r"


def gopher_quality_flags(docs: "ray.data.Dataset",
                         id_col: str = "doc_id",
                         text_col: str = "text",
                         min_words: int = 50,
                         max_words: int = 100_000,
                         min_mean_word_len: float = 3.0,
                         max_mean_word_len: float = 10.0,
                         max_symbol_ratio: float = 0.1,
                         max_bullet_frac: float = 0.9,
                         max_ellipsis_frac: float = 0.3,
                         min_alpha_frac: float = 0.8,
                         min_stop_words: int = 2) -> "ray.data.Dataset":
    """Per-document Gopher quality signals + the keep decision.

    Signals (each thresholded per the published rule set): word count,
    mean word length (non-whitespace chars / words), symbol-to-word
    ratio (# and ``...``), fraction of non-empty lines starting with a
    bullet / ending with an ellipsis, fraction of words containing an
    alphabetic character, and stop-word count over the 8-word Gopher
    list. Everything is Arrow-kernel + segment-sum vectorized (split ->
    flatten -> parent-index add.at, the vocab_stats shape); definitions
    are chosen to be DuckDB-mirrorable exactly (RE2 ``\\s+`` split,
    empty tokens filtered, per-line trim set ``' \\t\\r'``).
    """

    def flags(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = pc.fill_null(pc.cast(batch.column(text_col),
                                    pa.string()), "")

        toks = pc.split_pattern_regex(text, pattern=r"\s+")
        flat = pc.list_flatten(toks).combine_chunks()
        par = pc.list_parent_indices(toks).combine_chunks().to_numpy(
            zero_copy_only=False)
        nonempty_w = pc.not_equal(flat, "").to_numpy(
            zero_copy_only=False)

        n_words = np.zeros(n, np.int64)
        np.add.at(n_words, par[nonempty_w], 1)

        is_stop = np.logical_and(
            pc.is_in(pc.utf8_lower(flat),
                     value_set=pa.array(GOPHER_STOP_WORDS)).to_numpy(
                         zero_copy_only=False),
            nonempty_w)
        n_stop = np.zeros(n, np.int64)
        np.add.at(n_stop, par[is_stop], 1)

        is_alpha = np.logical_and(
            pc.match_substring_regex(flat, pattern="[A-Za-z]").to_numpy(
                zero_copy_only=False),
            nonempty_w)
        n_alpha = np.zeros(n, np.int64)
        np.add.at(n_alpha, par[is_alpha], 1)

        nonws = pc.utf8_length(pc.replace_substring_regex(
            text, pattern=r"\s+", replacement="")).to_numpy(
                zero_copy_only=False).astype(np.int64)
        n_sym = (pc.count_substring(text, pattern="#").to_numpy(
                     zero_copy_only=False).astype(np.int64)
                 + pc.count_substring(text, pattern="...").to_numpy(
                     zero_copy_only=False).astype(np.int64))

        lines = pc.split_pattern(text, pattern="\n")
        lflat = pc.utf8_trim(pc.list_flatten(lines).combine_chunks(),
                             characters=_LINE_TRIM)
        lpar = pc.list_parent_indices(lines).combine_chunks().to_numpy(
            zero_copy_only=False)
        l_nonempty = pc.not_equal(lflat, "").to_numpy(
            zero_copy_only=False)
        n_lines = np.zeros(n, np.int64)
        np.add.at(n_lines, lpar[l_nonempty], 1)

        def _starts(ch: str):
            return pc.starts_with(lflat, pattern=ch).to_numpy(
                zero_copy_only=False)

        is_bullet = np.logical_and(
            _starts("•") | _starts("-") | _starts("*"), l_nonempty)
        n_bullet = np.zeros(n, np.int64)
        np.add.at(n_bullet, lpar[is_bullet], 1)

        def _ends(ch: str):
            return pc.ends_with(lflat, pattern=ch).to_numpy(
                zero_copy_only=False)

        is_ell = np.logical_and(_ends("...") | _ends("…"),
                                l_nonempty)
        n_ell_lines = np.zeros(n, np.int64)
        np.add.at(n_ell_lines, lpar[is_ell], 1)

        with np.errstate(divide="ignore", invalid="ignore"):
            mean_wl = np.where(n_words > 0, nonws / np.maximum(n_words, 1),
                               0.0)
            sym_ratio = np.where(n_words > 0,
                                 n_sym / np.maximum(n_words, 1), 0.0)
            alpha_frac = np.where(n_words > 0,
                                  n_alpha / np.maximum(n_words, 1), 0.0)
            bullet_frac = np.where(n_lines > 0,
                                   n_bullet / np.maximum(n_lines, 1), 0.0)
            ell_frac = np.where(n_lines > 0,
                                n_ell_lines / np.maximum(n_lines, 1), 0.0)

        keep = ((n_words >= min_words) & (n_words <= max_words)
                & (mean_wl >= min_mean_word_len)
                & (mean_wl <= max_mean_word_len)
                & (sym_ratio <= max_symbol_ratio)
                & (bullet_frac <= max_bullet_frac)
                & (ell_frac <= max_ellipsis_frac)
                & (alpha_frac >= min_alpha_frac)
                & (n_stop >= min_stop_words))

        return pa.table({
            id_col: batch.column(id_col),
            "n_words": pa.array(n_words),
            "mean_word_len": pa.array(mean_wl, pa.float64()),
            "symbol_ratio": pa.array(sym_ratio, pa.float64()),
            "bullet_frac": pa.array(bullet_frac, pa.float64()),
            "ellipsis_frac": pa.array(ell_frac, pa.float64()),
            "alpha_frac": pa.array(alpha_frac, pa.float64()),
            "n_stop_words": pa.array(n_stop),
            "keep": pa.array(keep),
        })

    return docs.map_batches(flags, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------------------
# C4 cleaning rules (Raffel et al. 2020 §2.2 — the other standard
# web-text rule suite; line-level, complements the Gopher doc rules)
# ---------------------------------------------------------------------------

_C4_TERMINAL = (".", "!", "?", '"', "”")


def c4_quality_flags(docs: "ray.data.Dataset",
                     id_col: str = "doc_id",
                     text_col: str = "text",
                     min_line_words: int = 3,
                     min_kept_lines: int = 3) -> "ray.data.Dataset":
    """Per-document C4 cleaning signals + the keep decision.

    Line rules (a line survives iff it ends in terminal punctuation
    AND has >= ``min_line_words`` words); document rules: any curly
    brace, the phrase "lorem ipsum", or a javascript-warning line kills
    the doc, and >= ``min_kept_lines`` surviving lines are required.
    Output: (id, n_lines, n_kept_lines, kept_chars, has_brace,
    has_lorem, has_javascript, keep). Vectorized with the same
    split/flatten/segment-sum shape as ``gopher_quality_flags`` and
    DuckDB-lambda-mirrorable exactly.
    """

    def flags(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = pc.fill_null(pc.cast(batch.column(text_col),
                                    pa.string()), "")

        lines = pc.split_pattern(text, pattern="\n")
        lflat = pc.utf8_trim(pc.list_flatten(lines).combine_chunks(),
                             characters=_LINE_TRIM)
        lpar = pc.list_parent_indices(lines).combine_chunks().to_numpy(
            zero_copy_only=False)
        l_nonempty = pc.not_equal(lflat, "").to_numpy(
            zero_copy_only=False)
        n_lines = np.zeros(n, np.int64)
        np.add.at(n_lines, lpar[l_nonempty], 1)

        terminal = np.zeros(len(lflat), bool)
        for ch in _C4_TERMINAL:
            terminal |= pc.ends_with(lflat, pattern=ch).to_numpy(
                zero_copy_only=False)

        # words per line: count \s+ runs inside the trimmed line
        lwords = pc.list_value_length(pc.split_pattern_regex(
            lflat, pattern=r"\s+")).to_numpy(zero_copy_only=False)
        enough_words = lwords >= min_line_words

        kept = terminal & enough_words & l_nonempty
        n_kept = np.zeros(n, np.int64)
        np.add.at(n_kept, lpar[kept], 1)
        lchars = pc.utf8_length(lflat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        kept_chars = np.zeros(n, np.int64)
        np.add.at(kept_chars, lpar[kept], lchars[kept])

        lower = pc.utf8_lower(text)
        has_brace = pc.match_substring(text, pattern="{").to_numpy(
            zero_copy_only=False)
        has_lorem = pc.match_substring(lower,
                                       pattern="lorem ipsum").to_numpy(
            zero_copy_only=False)
        has_js = pc.match_substring(lower, pattern="javascript").to_numpy(
            zero_copy_only=False)

        keep = ((n_kept >= min_kept_lines)
                & ~has_brace & ~has_lorem & ~has_js)

        return pa.table({
            id_col: batch.column(id_col),
            "n_lines": pa.array(n_lines),
            "n_kept_lines": pa.array(n_kept),
            "kept_chars": pa.array(kept_chars),
            "has_brace": pa.array(has_brace),
            "has_lorem": pa.array(has_lorem),
            "has_javascript": pa.array(has_js),
            "keep": pa.array(keep),
        })

    return docs.map_batches(flags, batch_format="pyarrow",
                            zero_copy_batch=True)


def line_repetition_flags(docs: "ray.data.Dataset",
                          id_col: str = "doc_id",
                          text_col: str = "text") -> "ray.data.Dataset":
    """Gopher line-level repetition signals (arXiv:2112.11446 §A1.1,
    completing ``RepetitionBatch``'s token-level ones): per document
    the non-empty-line count, the duplicate-line fraction
    (``1 - distinct/total``) and the fraction of line characters
    contained in duplicated lines. Map-only: every doc's lines stay in
    its batch; counting is Arrow ``group_by`` (no Python per line);
    definitions are DuckDB-mirrorable exactly (same line split/trim as
    the quality suites)."""

    def flags(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = pc.fill_null(pc.cast(batch.column(text_col),
                                    pa.string()), "")
        lines = pc.split_pattern(text, pattern="\n")
        lflat = pc.utf8_trim(pc.list_flatten(lines).combine_chunks(),
                             characters=_LINE_TRIM)
        lpar = pc.list_parent_indices(lines).combine_chunks()
        nonempty = pc.not_equal(lflat, "")
        t = pa.table({"d": lpar.filter(nonempty),
                      "ln": lflat.filter(nonempty)})
        g = t.group_by(["d", "ln"]).aggregate([([], "count_all")])
        d = g.column("d").to_numpy(zero_copy_only=False)
        c = g.column("count_all").to_numpy(zero_copy_only=False)
        lc = pc.utf8_length(g.column("ln")).to_numpy(
            zero_copy_only=False).astype(np.int64)

        n_lines = np.zeros(n, np.int64)
        np.add.at(n_lines, d, c)
        n_distinct = np.zeros(n, np.int64)
        np.add.at(n_distinct, d, 1)
        total_chars = np.zeros(n, np.int64)
        np.add.at(total_chars, d, c * lc)
        dup_chars = np.zeros(n, np.int64)
        dup_mask = c > 1
        np.add.at(dup_chars, d[dup_mask], (c * lc)[dup_mask])

        with np.errstate(divide="ignore", invalid="ignore"):
            dup_line_frac = np.where(
                n_lines > 0,
                1.0 - n_distinct / np.maximum(n_lines, 1), 0.0)
            dup_char_frac = np.where(
                total_chars > 0,
                dup_chars / np.maximum(total_chars, 1), 0.0)

        return pa.table({
            id_col: batch.column(id_col),
            "n_lines": pa.array(n_lines),
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(dup_char_frac, pa.float64()),
        })

    return docs.map_batches(flags, batch_format="pyarrow",
                            zero_copy_batch=True)
