"""Multinomial Naive Bayes document classifier.

The quality-classifier shape of GPT-3 / CCNet-style curation (Brown et
al. 2020 train a linear classifier on a trusted corpus vs raw crawl and
keep documents the classifier scores high; public): here the classic
multinomial NB (McCallum & Nigam 1998, public) trained ON the corpus's
own labels — any string column works as the class (the catalog query
uses `source`). Where DSIR (`stages/dsir.py`) scores against ONE target
slice, this classifies across ALL classes with priors — the reference
analog is the zero-shot/cluster label-vote surface (reference
fastdup_controller.py:1380-1458, __init__.py:2634-2679), replaced by a
corpus-trained supervised model.

Distributed shape (all passes bounded, model broadcast once per actor):

1. vocab = top ``vocab_k`` raw-corpus tokens (``lm.train_vocab``);
2. per-class unigram counts in ONE map-side-combined exchange: the
   partial key is ``class_code * ncat + token_code``, so the shuffle
   carries <= n_classes x (vocab_k+1) rows per block;
3. class priors = per-class doc counts (combiner aggregate, no shuffle);
4. score: per doc and class,
     score(d, c) = ln(docs_c / docs) + sum_i ln((cnt_c(w_i)+1) / (N_c+V))
   (add-one smoothing, V = len(vocab)+1), rounded to 4dp; prediction =
   argmax over ROUNDED scores with class-ascending tie-break — the
   float contract the SQL twin reproduces (ln of identical rational
   doubles; the rounding absorbs sum-order effects, as in stages/lm.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from fastdup_ray.stages.lm import (
    _BOS,
    _UNK,
    _token_regions,
    train_vocab,
)


def _class_token_counts(docs, cats: list[str], classes: list[str],
                        label_col: str) -> np.ndarray:
    """int64[n_classes, len(cats)] token counts per class, one exchange."""
    ncat = len(cats)

    def partial(batch: pa.Table) -> pa.Table:
        ids, offs, flat = _token_regions(batch)
        codes = pd.Categorical(flat, categories=cats).codes.astype(np.int64)
        codes[codes < 0] = ncat - 1
        lab = pd.Categorical(
            batch[label_col].to_numpy(zero_copy_only=False), categories=classes
        ).codes.astype(np.int64)
        if (lab < 0).any():
            # a null / unseen label would otherwise wrap to a negative
            # combined key and corrupt another class's counts
            raise ValueError(f"null or unknown {label_col} label in batch")
        tok_lab = np.repeat(lab, np.diff(offs))
        uk, uc = np.unique(tok_lab * ncat + codes, return_counts=True)
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
    out = np.zeros((len(classes), ncat), np.int64)
    for r in rows:
        out[r["k"] // ncat, r["k"] % ncat] = r["c"]
    return out


class NBScoreStage:
    """map_batches actor: (doc_id, text) -> (doc_id, pred, score).

    The per-class log-probability matrix (<= n_classes x (vocab_k+1)
    floats) plus log-priors are fetched once per actor in __init__."""

    def __init__(self, model_ref):
        model = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) \
            else model_ref
        self.cats = model["cats"]
        self.classes = model["classes"]     # sorted ascending
        self.lp = model["lp"]               # (ncat, ncl) token log-probs
        self.logprior = model["logprior"]   # (ncl,)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "pred": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            })
        ids, offs, flat = _token_regions(batch)
        codes = pd.Categorical(flat, categories=self.cats).codes.astype(np.int64)
        codes[codes < 0] = len(self.cats) - 1
        tok_lp = self.lp[codes]                       # (n_tok, ncl)
        sums = np.add.reduceat(tok_lp, offs[:-1], axis=0)
        scores = np.round(sums + self.logprior, 4) + 0.0  # (n_doc, ncl)
        # argmax on ROUNDED scores; np.argmax takes the FIRST max =
        # class-ascending tie-break (classes are sorted)
        best = scores.argmax(axis=1)
        r = np.arange(ids.shape[0])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "pred": pa.array(
                np.array(self.classes, dtype=object)[best], pa.string()
            ),
            "score": pa.array(scores[r, best], pa.float64()),
        })


def nb_classify(docs, *, label_col: str = "source", vocab_k: int = 256,
                concurrency: int = 4):
    """Train multinomial NB on ``docs``'s own labels and classify every
    doc. docs: Dataset with (doc_id, text, <label_col>). Returns a
    Dataset (doc_id, pred, score[4dp])."""
    from fastdup_ray.relational.ops import combine_aggregate

    text_only = docs.select_columns(["doc_id", "text"])
    vocab = train_vocab(text_only, vocab_k)
    if _UNK in vocab:
        raise ValueError("corpus contains the reserved <unk> token")
    if _BOS in vocab:
        raise ValueError("corpus contains the reserved <s> token")
    cats = vocab + [_UNK]

    def cls_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(label_col, as_index=False, sort=False).agg(
            dn=(label_col, "size")
        )

    prior_rows = combine_aggregate(
        docs.select_columns([label_col]), label_col, cls_partial
    ).take_all()
    prior_rows.sort(key=lambda r: r[label_col])
    classes = [r[label_col] for r in prior_rows]
    dn = np.array([r["dn"] for r in prior_rows], np.float64)
    counts = _class_token_counts(docs.select_columns(["doc_id", "text",
                                                      label_col]),
                                 cats, classes, label_col)
    V = float(len(vocab) + 1)
    n_c = counts.sum(axis=1).astype(np.float64)  # (ncl,)
    lp = np.log((counts.T + 1.0) / (n_c + V))    # (ncat, ncl)
    model_ref = ray.put({
        "cats": cats, "classes": classes, "lp": lp,
        "logprior": np.log(dn / float(dn.sum())),
    })
    text_only = text_only.map_batches(
        lambda b: b.replace_schema_metadata(None), batch_format="pyarrow"
    )
    return text_only.map_batches(
        NBScoreStage,
        fn_constructor_args=(model_ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
    )


def sql_nb_classify(vocab_k: int, label_col: str = "source",
                    doc_table: str = "documents") -> str:
    """DuckDB twin: same tokenization, vocab tie-break, smoothing,
    4dp-rounded scores and class-ascending argmax tie-break."""
    return f"""
WITH tl AS (SELECT doc_id, string_split(text, ' ') AS toks FROM {doc_table}),
tok AS (
  SELECT doc_id, toks[r.i + 1] AS token
  FROM tl, unnest(range(len(toks))) AS r(i)
),
uni AS (SELECT token, count(*) AS cnt FROM tok GROUP BY token),
vocab AS (SELECT token FROM uni ORDER BY cnt DESC, token LIMIT {vocab_k}),
vsize AS (SELECT count(*) + 1 AS v FROM vocab),
mapped AS (
  SELECT t.doc_id,
         CASE WHEN v.token IS NULL THEN '{_UNK}' ELSE t.token END AS cur
  FROM tok t LEFT JOIN vocab v ON t.token = v.token
),
prior AS (SELECT {label_col} AS cls, count(*) AS dn
          FROM {doc_table} GROUP BY 1),
total AS (SELECT count(*) AS n FROM {doc_table}),
cc AS (
  SELECT d.{label_col} AS cls, m.cur, count(*) AS c
  FROM mapped m JOIN {doc_table} d USING (doc_id) GROUP BY 1, 2
),
ctot AS (SELECT cls, sum(c) AS n FROM cc GROUP BY cls),
sc AS (
  SELECT m.doc_id, p.cls,
         ROUND(
           ln(p.dn::DOUBLE / (SELECT n FROM total))
           + sum(ln((coalesce(cc.c, 0) + 1.0)
                    / (ct.n + (SELECT v FROM vsize)))),
           4) + 0.0 AS score
  FROM mapped m
  CROSS JOIN prior p
  JOIN ctot ct ON ct.cls = p.cls
  LEFT JOIN cc ON cc.cls = p.cls AND cc.cur = m.cur
  GROUP BY m.doc_id, p.cls, p.dn, ct.n
)
SELECT doc_id, cls AS pred, score
FROM sc
QUALIFY row_number() OVER (
  PARTITION BY doc_id ORDER BY score DESC, cls ASC
) = 1
"""
