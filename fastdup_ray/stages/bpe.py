"""Distributed BPE tokenizer training + encoding.

Public algorithm: Sennrich, Haddow & Birch 2016 ("Neural Machine
Translation of Rare Words with Subword Units", ACL) — byte-pair
encoding learned from word frequencies; the classic implementation
operates on a (word -> count) table, NOT the raw corpus, which is what
makes it distributable in one exchange:

1. ONE map-side-combined exchange builds the (word, count) table,
   capped at the ``max_word_types`` most frequent types ((count desc,
   word asc) tie-break — the same exact-top-k-by-partition trick as
   ``lm.train_vocab``). The cap is the scale knob: merges learned from
   the top types are the standard practical approximation (rare tails
   cannot win a merge anyway unless they collectively outweigh the cap,
   which the count-mass check below surfaces).
2. Greedy merge loop runs ON THE DRIVER over the knob-bounded table —
   deterministic: highest pair count wins, ties broken by the pair's
   (left, right) lexicographic order. Word types are tokenized as
   character sequences with an end-of-word sentinel.
3. ``bpe_encode`` applies the learned merge ranks per batch: each
   DISTINCT word in the batch is encoded once (dict-cached), then
   scattered back — vectorized factorize + gather, not per-row work.

Correctness oracle: a straightforward sequential reference
implementation (``_reference_bpe``) plus split-invariance pytests
(tests/test_round4b.py); the merge loop is pure deterministic
arithmetic over one exchanged aggregate, so cluster shape cannot
change the result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_EOW = "</w>"


def word_counts(docs, max_word_types: int):
    """(word, cnt) pandas table of the ``max_word_types`` most frequent
    space-split tokens ((cnt desc, word asc) exact top-k, one partition
    exchange — every word's rows land in one partition, so per-partition
    top-k is globally exact)."""
    import pyarrow.compute as pc

    from fastdup_ray.relational.ops import partitioned_groupby

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        # flatten(), not .values: a zero-copy-sliced batch's .values spans
        # the whole parent buffer and would count out-of-slice words
        vc = pc.value_counts(toks.flatten())
        return pa.table({
            "word": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    def part_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", as_index=False, sort=False)["cnt"].sum()
        g = g.sort_values(["cnt", "word"], ascending=[False, True],
                          kind="mergesort")
        return g.head(max_word_types)

    rows = partitioned_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        "word", part_topk,
    ).take_all()
    rows.sort(key=lambda r: (-r["cnt"], r["word"]))
    return pd.DataFrame(rows[:max_word_types])


def _merge_pair(seq: tuple, pair: tuple) -> tuple:
    """One left-to-right pass replacing adjacent `pair` with its fusion."""
    out, i, n = [], 0, len(seq)
    a, b = pair
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def train_bpe(docs, n_merges: int, *, max_word_types: int = 65536):
    """Learn ``n_merges`` BPE merges from the corpus.

    Returns (merges, word_table): merges = list of (left, right, count)
    in learned order; word_table = the (word, cnt) frequency table the
    merges were learned from. Deterministic at any parallelism."""
    wt = word_counts(docs, max_word_types)
    return _bpe_from_counts(
        list(zip(wt["word"], wt["cnt"].astype(int))), n_merges
    ), wt


def _bpe_from_counts(word_cnt: list[tuple[str, int]], n_merges: int):
    """Greedy BPE over a (word, count) list — the driver-side loop, also
    the sequential reference for the tests (it IS the classic algorithm;
    the distributed part of train_bpe is only the count exchange)."""
    seqs: dict[tuple, int] = {}
    for w, c in word_cnt:
        key = tuple(w) + (_EOW,)
        seqs[key] = seqs.get(key, 0) + c
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pairs: dict[tuple, int] = {}
        for seq, c in seqs.items():
            for i in range(len(seq) - 1):
                p = (seq[i], seq[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), cnt = best
        merges.append((a, b, cnt))
        seqs = _apply_merge_table(seqs, (a, b))
    return merges


def _apply_merge_table(seqs: dict, pair: tuple) -> dict:
    out: dict[tuple, int] = {}
    for s, c in seqs.items():
        ns = _merge_pair(s, pair)
        out[ns] = out.get(ns, 0) + c
    return out


def encode_word(word: str, ranks: dict[tuple, int]) -> tuple:
    """Encode one word with the learned merge ranks (lowest rank first —
    the standard BPE inference order)."""
    seq = tuple(word) + (_EOW,)
    while len(seq) > 1:
        best_rank, best_pair = None, None
        for i in range(len(seq) - 1):
            r = ranks.get((seq[i], seq[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (seq[i], seq[i + 1])
        if best_pair is None:
            break
        seq = _merge_pair(seq, best_pair)
    return seq


class BpeEncodeStage:
    """map_batches actor: (doc_id, text) -> (doc_id, n_words, n_subwords).

    The merge-rank table (<= n_merges entries) is fetched once per actor;
    each batch encodes every DISTINCT word once (factorize + cache) and
    scatters subword counts back to docs."""

    def __init__(self, merges_ref):
        import ray

        merges = ray.get(merges_ref) if not isinstance(merges_ref, list) \
            else merges_ref
        self.ranks = {(a, b): i for i, (a, b, _c) in enumerate(merges)}
        self.cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from fastdup_ray.stages.lm import _token_regions

        if batch.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_words": pa.array([], pa.int64()),
                "n_subwords": pa.array([], pa.int64()),
            })
        ids, offs, flat = _token_regions(batch)
        uniq, inv = np.unique(flat.astype(object), return_inverse=True)
        if len(self.cache) > 1_000_000:  # bound actor memory on open vocab
            self.cache.clear()
        lens = np.empty(uniq.shape[0], np.int64)
        for i, w in enumerate(uniq):
            n = self.cache.get(w)
            if n is None:
                n = len(encode_word(w, self.ranks))
                self.cache[w] = n
            lens[i] = n
        per_tok = lens[inv]
        sub = np.add.reduceat(per_tok, offs[:-1])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(np.diff(offs), pa.int64()),
            "n_subwords": pa.array(sub, pa.int64()),
        })


def bpe_subword_counts(docs, *, n_merges: int = 200,
                       max_word_types: int = 65536, concurrency: int = 4):
    """Train BPE on ``docs`` and emit per-doc subword counts — the
    tokenizer-aware length signal shard packing and context chunking
    consume. Returns a Dataset (doc_id, n_words, n_subwords)."""
    import ray

    merges, _wt = train_bpe(docs, n_merges, max_word_types=max_word_types)
    merges_ref = ray.put(merges)
    docs = docs.map_batches(
        lambda b: b.replace_schema_metadata(None), batch_format="pyarrow"
    )
    return docs.map_batches(
        BpeEncodeStage,
        fn_constructor_args=(merges_ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
    )
