"""Corpus-trained bigram language-model scoring (CCNet-style quality
signal).

CCNet (Wenzek et al. 2020, public) ranks Common-Crawl documents by the
perplexity of a language model trained on a reference corpus; fastdup's
analogous signal is the per-image stat table consumed by quality filters
(reference fastdup/definitions.py:30, galleries.py:1637-1640). Here the
model is trained ON the corpus itself with the same distributed shape a
KenLM-backed stage would use:

1. pass 1 — unigram counts: map-side ``value_counts`` per block (shuffle
   traffic = distinct tokens per block, not occurrences), groupby-sum,
   then a top-``vocab_k`` (count desc, token asc — deterministic) vocab;
   everything else maps to ``<unk>``.
2. pass 2 — bigram counts over the vocab-mapped token stream, again
   map-side-combined (per-block ``np.unique`` on integer code pairs)
   before one small groupby-sum. Token codes are fixed by the broadcast
   vocab so partials agree across blocks.
3. score — the count tables (hard-capped at ``max_bigram_types`` rows
   on the driver via a per-partition and a running driver-side top-B
   prune, exact while observed types fit the budget; in practice far
   sparser than the (vocab_k+2)^2 worst case) are ``ray.put`` once and
   read by every scoring actor in ``__init__``; each doc gets its
   add-one smoothed cross-entropy  -mean_i ln p(w_i | w_{i-1}),
   p(w|prev) = (c(prev,w)+1) / (c(prev)+V),  V = vocab_k_kept + 1.

Scale note: the broadcast model is the scale ceiling — at web scale you
bound it with ``vocab_k`` (the tables never exceed the knob, independent
of corpus size), exactly how a shipped KenLM binary would be broadcast.
Both passes stream; nothing data-proportional lands on the driver (the
vocab and count tables are knob-bounded aggregates).

The SQL twin (``sql_lm_cross_entropy``) reproduces tokenization, vocab
tie-break, counts and the smoothing formula exactly; the only float ops
are ``ln`` of identical rational doubles and a mean, so 4-dp rounding on
both sides hash-matches.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

_UNK = "<unk>"
_BOS = "<s>"


def _token_regions(batch: pa.Table):
    """(doc_ids int64[n], offsets int64[n+1] rebased to 0, flat tokens
    object[n_tok]) for the space-split token stream of a docs batch."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.split_pattern(batch["text"], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = toks.values.slice(offs[0], offs[-1] - offs[0])
    offs = offs - offs[0]
    return ids, offs, vals.to_numpy(zero_copy_only=False)


def train_vocab(docs, vocab_k: int) -> list[str]:
    """Top-``vocab_k`` tokens by (count desc, token asc) over the corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        _, _, flat = _token_regions(batch)
        vc = pc.value_counts(pa.array(flat, pa.string()))
        return pa.table({
            "token": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    # hash-partition by token + per-partition (sum, top-k): every token's
    # rows land in exactly one partition, so the global top-k is a subset
    # of the union of per-partition top-ks — the driver merges <= P*k
    # pre-aggregated rows and takes the exact top-k with the same
    # (count desc, token asc) tie-break. Replaces groupby().aggregate()
    # + global sort + limit (three shuffles with seconds of fixed actor
    # overhead each) with ONE partition exchange.
    from fastdup_ray.relational.ops import partitioned_groupby

    def part_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["cnt"].sum()
        g = g.sort_values(["cnt", "token"], ascending=[False, True],
                          kind="mergesort")
        return g.head(vocab_k)

    cand = partitioned_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        "token", part_topk,
    ).take_all()
    cand.sort(key=lambda r: (-r["cnt"], r["token"]))
    return [r["token"] for r in cand[:vocab_k]]


def unigram_counts(docs, cats: list[str]) -> np.ndarray:
    """int64[len(cats)] occurrence counts of each category over the
    space-split token stream of ``docs`` (tokens outside ``cats`` count
    toward the trailing ``<unk>`` slot). Map-side combined: the shuffle
    carries <= len(cats) rows per block, one partition exchange total."""
    ncat = len(cats)

    def partial(batch: pa.Table) -> pa.Table:
        _, _, flat = _token_regions(batch)
        codes = pd.Categorical(flat, categories=cats).codes.astype(np.int64)
        codes[codes < 0] = ncat - 1
        uk, uc = np.unique(codes, return_counts=True)
        return pa.table({
            "k": pa.array(uk, pa.int64()),
            "c": pa.array(uc.astype(np.int64), pa.int64()),
        })

    from fastdup_ray.relational.ops import partitioned_groupby

    rows = partitioned_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        "k",
        lambda df: df.groupby("k", as_index=False, sort=False)["c"].sum(),
    ).take_all()
    out = np.zeros(ncat, np.int64)
    for r in rows:
        out[r["k"]] = r["c"]
    return out


def _code_stream(batch: pa.Table, cats: list[str]):
    """(ids, offs, cur_codes, prev_codes) with codes over cats + BOS.

    cats = vocab + [<unk>]; unseen tokens get the <unk> code; each doc's
    first position gets the BOS code as its context."""
    ids, offs, flat = _token_regions(batch)
    codes = pd.Categorical(flat, categories=cats).codes.astype(np.int64)
    codes[codes < 0] = len(cats) - 1  # <unk>
    prev = np.empty_like(codes)
    if codes.shape[0]:
        prev[1:] = codes[:-1]
    prev[offs[:-1]] = len(cats)  # <s>
    return ids, offs, codes, prev


def _top_bigrams(df: pd.DataFrame, m: int) -> pd.DataFrame:
    """The first `m` rows of `df` by (count desc, key asc)."""
    if len(df) <= m:
        return df
    return df.sort_values(["c", "k"], ascending=[False, True],
                          kind="mergesort").head(m)


def train_bigram_counts(docs, cats: list[str], *,
                        max_bigram_types: int = 2_000_000) -> pd.DataFrame:
    """(k, c) table of bigram counts, k = prev_code * ncur + cur_code:
    the top `max_bigram_types` bigram types by (count desc, key asc).

    Each hash partition holds the EXACT global count for every key it
    owns (a key's rows land in exactly one partition) and keeps its own
    top `max_bigram_types`; the driver streams the partition outputs and
    keeps a running global top `max_bigram_types`, so it never holds
    more than twice the budget and the table does not depend on the
    partition count. Whenever the observed types fit the budget the
    table is exact. Above it only the rarest types are dropped; they
    score as count 0 and add-one smoothing absorbs them, while the
    driver table stays bounded regardless of vocab_k (worst case without
    the cap is (|cats|+1)^2 ~ 16.8M rows at vocab_k=4096)."""
    ncur = len(cats)

    def partial(batch: pa.Table) -> pa.Table:
        _, _, codes, prev = _code_stream(batch, cats)
        uk, uc = np.unique(prev * ncur + codes, return_counts=True)
        return pa.table({
            "k": pa.array(uk, pa.int64()),
            "c": pa.array(uc.astype(np.int64), pa.int64()),
        })

    def part_sum_top(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", as_index=False, sort=False)["c"].sum()
        return _top_bigrams(g, max_bigram_types)

    from fastdup_ray.relational.ops import partitioned_groupby

    big = partitioned_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        "k", part_sum_top,
    )
    top = pd.DataFrame({"k": pd.Series([], dtype=np.int64),
                        "c": pd.Series([], dtype=np.int64)})
    for part in big.iter_batches(batch_size=None, batch_format="pandas"):
        top = _top_bigrams(pd.concat([top, part], ignore_index=True),
                           max_bigram_types)
    return top.reset_index(drop=True)


class LMScoreStage:
    """map_batches actor: docs batch -> (doc_id, n_tokens, cross_entropy).

    Model state (sorted bigram keys + counts, per-context totals, vocab)
    is fetched from the object store once per actor in ``__init__``."""

    def __init__(self, model_ref):
        model = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) \
            else model_ref
        self.cats = model["cats"]
        self.keys = model["keys"]       # sorted int64 bigram keys
        self.c = model["c"]             # counts aligned with keys
        self.ctx = model["ctx"]         # float64[len(cats)+1] context totals
        self.V = float(model["V"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "cross_entropy": pa.array([], pa.float64()),
            })
        ids, offs, codes, prev = _code_stream(batch, self.cats)
        key = prev * len(self.cats) + codes
        # scored docs need not come from the training corpus: clip the
        # insertion point and fall back to count 0 for unseen bigrams
        # (add-one smoothing already handles c=0) instead of reading a
        # neighbor's count / overrunning the key table
        if self.keys.shape[0]:
            idx = np.minimum(
                np.searchsorted(self.keys, key), self.keys.shape[0] - 1
            )
            c = np.where(self.keys[idx] == key, self.c[idx], 0)
        else:
            c = np.zeros(key.shape[0], np.int64)
        cc = self.ctx[prev]
        lp = np.log((c + 1.0) / (cc + self.V))
        sums = np.add.reduceat(lp, offs[:-1])
        n = np.diff(offs)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
            "cross_entropy": pa.array(np.round(-(sums / n), 4), pa.float64()),
        })


def lm_cross_entropy(docs, vocab_k: int = 4096, *, concurrency: int = 4):
    """Train the bigram LM on ``docs`` and score every doc.

    docs: Dataset with (doc_id, text). Returns a Dataset
    (doc_id, n_tokens, cross_entropy[4dp]); every input row scores
    (a space-split of any string, even empty, has >= 1 token)."""
    vocab = train_vocab(docs, vocab_k)
    if _UNK in vocab:  # corpus text containing the literal sentinel
        raise ValueError("corpus contains the reserved <unk> token")
    if _BOS in vocab:
        # a literal '<s>' vocab token would be conflated with the BOS
        # context by the SQL twin's string-typed lag+coalesce, while the
        # Ray side assigns BOS a distinct integer code — reject it like
        # the <unk> sentinel rather than silently diverge
        raise ValueError("corpus contains the reserved <s> token")
    cats = vocab + [_UNK]
    big = train_bigram_counts(docs, cats)
    keys = big["k"].to_numpy().astype(np.int64)
    order = np.argsort(keys)
    keys, c = keys[order], big["c"].to_numpy().astype(np.int64)[order]
    ctx = np.zeros(len(cats) + 1, np.float64)
    np.add.at(ctx, keys // len(cats), c)
    model = {
        "cats": cats, "keys": keys, "c": c, "ctx": ctx,
        "V": len(vocab) + 1,
    }
    model_ref = ray.put(model)
    # strip parquet-written pandas schema metadata before the actor pool:
    # its nested dict makes the block schemas unhashable and defeats
    # Ray's schema dedup ("Failed to hash the schemas" per block)
    docs = docs.map_batches(
        lambda b: b.replace_schema_metadata(None), batch_format="pyarrow"
    )
    # autoscaling pool (1, N): a fixed pool of N reserves N CPUs up
    # front and can starve the upstream read tasks on a small cluster
    # (observed: 4 actors on a 4-CPU test session stalls the pipeline)
    return docs.map_batches(
        LMScoreStage,
        fn_constructor_args=(model_ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
    )


def sql_lm_cross_entropy(vocab_k: int, doc_table: str = "documents") -> str:
    """DuckDB twin: same tokenization (split on single spaces), same
    (cnt desc, token asc) vocab tie-break, same add-one smoothing."""
    return f"""
WITH tl AS (SELECT doc_id, string_split(text, ' ') AS toks FROM {doc_table}),
tok AS (
  SELECT doc_id, r.i AS pos, toks[r.i + 1] AS token
  FROM tl, unnest(range(len(toks))) AS r(i)
),
uni AS (SELECT token, count(*) AS cnt FROM tok GROUP BY token),
vocab AS (SELECT token FROM uni ORDER BY cnt DESC, token LIMIT {vocab_k}),
vsize AS (SELECT count(*) + 1 AS v FROM vocab),
mapped AS (
  SELECT t.doc_id, t.pos,
         CASE WHEN v.token IS NULL THEN '{_UNK}' ELSE t.token END AS cur
  FROM tok t LEFT JOIN vocab v ON t.token = v.token
),
seq AS (
  SELECT doc_id, cur,
         coalesce(lag(cur) OVER (PARTITION BY doc_id ORDER BY pos),
                  '{_BOS}') AS prev
  FROM mapped
),
big AS (SELECT prev, cur, count(*) AS c FROM seq GROUP BY prev, cur),
ctx AS (SELECT prev, sum(c) AS cc FROM big GROUP BY prev),
scored AS (
  SELECT s.doc_id,
         ln((b.c + 1.0) / (x.cc + (SELECT v FROM vsize))) AS lp
  FROM seq s
  JOIN big b ON s.prev = b.prev AND s.cur = b.cur
  JOIN ctx x ON s.prev = x.prev
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       ROUND(-avg(lp), 4) AS cross_entropy
FROM scored GROUP BY doc_id
"""


def pmi_collocations(docs, *, vocab_k: int = 512, min_count: int = 5,
                     k: int = 100) -> pa.Table:
    """Top-k bigram collocations by pointwise mutual information.

    Church & Hanks 1990 (public) association scoring over the corpus's
    adjacent-token bigrams, restricted to the top-``vocab_k`` vocabulary
    (OOV bigrams dropped — the same knob that bounds the LM model keeps
    the candidate table <= (vocab_k+2)^2 regardless of corpus size, so
    the final PMI ranking is a bounded driver-side computation over
    knob-sized aggregates; the counting passes themselves are the
    map-side-combined streaming passes of ``train_vocab`` /
    ``train_bigram_counts`` / ``unigram_counts``).

      pmi(x, y) = ln( (c_xy / N_b) / ((c_x / N_u) * (c_y / N_u)) )

    with N_b = total in-vocab bigrams, N_u = total tokens. Rounded to
    4dp; rows with c_xy < ``min_count`` dropped (the classic guard
    against PMI's rare-pair bias); deterministic (pmi desc, w1 asc,
    w2 asc) top-k. The SQL twin ``sql_pmi_collocations`` reproduces the
    exact expression tree, so the only float divergence is ln-of-
    identical-doubles, absorbed by the rounding."""
    vocab = train_vocab(docs, vocab_k)
    cats = vocab + [_UNK]
    V = len(vocab)
    big = train_bigram_counts(docs, cats)
    uni = unigram_counts(docs, cats).astype(np.float64)
    nu = float(uni.sum())
    keys = big["k"].to_numpy().astype(np.int64)
    c = big["c"].to_numpy().astype(np.int64)
    prev, cur = keys // len(cats), keys % len(cats)
    inv = (prev < V) & (cur < V)
    prev, cur, c = prev[inv], cur[inv], c[inv]
    nb = float(c.sum())
    keep = c >= min_count
    prev, cur, c = prev[keep], cur[keep], c[keep]
    # the exact expression tree of the SQL twin: div, div, div, mul, div
    pmi = np.round(
        np.log((c / nb) / ((uni[prev] / nu) * (uni[cur] / nu))), 4
    ) + 0.0
    order = np.lexsort((
        np.array(cats, dtype=object)[cur],
        np.array(cats, dtype=object)[prev],
        -pmi,
    ))[:k]
    cats_arr = np.array(cats, dtype=object)
    return pa.table({
        "w1": pa.array(cats_arr[prev[order]], pa.string()),
        "w2": pa.array(cats_arr[cur[order]], pa.string()),
        "cnt": pa.array(c[order], pa.int64()),
        "pmi": pa.array(pmi[order], pa.float64()),
    })


def sql_pmi_collocations(vocab_k: int, min_count: int, k: int,
                         doc_table: str = "documents") -> str:
    """DuckDB twin of ``pmi_collocations``: same tokenization, vocab
    tie-break, OOV drop, PMI expression tree, rounding and top-k order."""
    return f"""
WITH tl AS (SELECT doc_id, string_split(text, ' ') AS toks FROM {doc_table}),
tok AS (
  SELECT doc_id, r.i AS pos, toks[r.i + 1] AS token
  FROM tl, unnest(range(len(toks))) AS r(i)
),
uni AS (SELECT token, count(*) AS cnt FROM tok GROUP BY token),
vocab AS (SELECT token, cnt FROM uni ORDER BY cnt DESC, token LIMIT {vocab_k}),
nu AS (SELECT sum(cnt) AS n FROM uni),
seq AS (
  SELECT doc_id, token AS cur,
         lag(token) OVER (PARTITION BY doc_id ORDER BY pos) AS prev
  FROM tok
),
big AS (
  SELECT s.prev AS w1, s.cur AS w2, count(*) AS c
  FROM seq s
  JOIN vocab v1 ON v1.token = s.prev
  JOIN vocab v2 ON v2.token = s.cur
  GROUP BY 1, 2
),
nb AS (SELECT sum(c) AS n FROM big)
SELECT w1, w2, CAST(c AS BIGINT) AS cnt,
       ROUND(ln((c::DOUBLE / (SELECT n FROM nb))
                / ((v1.cnt::DOUBLE / (SELECT n FROM nu))
                   * (v2.cnt::DOUBLE / (SELECT n FROM nu)))), 4) + 0.0 AS pmi
FROM big
JOIN vocab v1 ON v1.token = w1
JOIN vocab v2 ON v2.token = w2
WHERE c >= {min_count}
ORDER BY pmi DESC, w1, w2
LIMIT {k}
"""
