r"""Target-aware semantic curation: the model-signal half of a
pre-training data pipeline, composed from this engine's stages —

  embeddings
    -> SemDeDup                  (stages/semdedup.py: k-means cells, one
                                  hash exchange, keep one per semantic group)
  documents
    -> DSIR importance weights   (stages/dsir.py: target-vs-raw BoW
                                  log-likelihood ratio per doc)
    -> NB quality classifier     (stages/nbayes.py: corpus-label-trained
                                  multinomial NB, broadcast model)
    -> select                    (semantic survivors /\ target-like /\
                                  classifier-approved)
    -> collocation report        (lm.pmi_collocations over the selection)

Every model here is a knob-bounded aggregate broadcast once per actor;
no stage materializes anything data-proportional on the driver, so the
same script is the 100 TB shape.

    python examples/semantic_curation.py [sf_dir] [out_dir]
"""

import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False, logging_level="ERROR")

import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from fastdup_ray.relational.ops import in_sorted, sorted_unique_ref
from fastdup_ray.stages.ann import train_ivf_centroids_pinned
from fastdup_ray.stages.dsir import dsir_weights
from fastdup_ray.stages.lm import pmi_collocations
from fastdup_ray.stages.nbayes import nb_classify
from fastdup_ray.stages.semdedup import semdedup


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/fastdup_ray_semcur"

    # ---- 1. semantic dedup over the embedding table -------------------
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).materialize()
    cent = train_ivf_centroids_pinned(emb, n_centroids=16)
    sem = semdedup(emb, cent, threshold=0.4)
    kept_vecs = sem.map_batches(
        lambda b: b.filter(b["keep"]).select(["vec_id"]),
        batch_format="pyarrow",
    )
    n_vec = emb.count()
    n_kept = kept_vecs.count()
    print(f"semdedup: {n_vec} vectors -> {n_kept} representatives "
          f"({n_vec - n_kept} semantic dups pruned)")

    # ---- 2. target-aware scoring over the documents table -------------
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "source"])
    target = docs.map_batches(
        lambda b: b.filter(pc.equal(b["source"], pa.scalar("src0")))
        .select(["doc_id", "text"]),
        batch_format="pyarrow",
    )
    weights = dsir_weights(docs.select_columns(["doc_id", "text"]), target,
                           vocab_k=4096)
    preds = nb_classify(docs, label_col="source", vocab_k=4096)

    # ---- 3. select: target-like AND classifier-approved ----------------
    like_target = weights.map_batches(
        lambda b: b.filter(pc.greater(b["dsir_logratio"], pa.scalar(0.0)))
        .select(["doc_id"]),
        batch_format="pyarrow",
    )
    approved = preds.map_batches(
        lambda b: b.filter(pc.equal(b["pred"], pa.scalar("src0")))
        .select(["doc_id"]),
        batch_format="pyarrow",
    )
    # both id sets stay in the object store: each is reduced to one
    # sorted-unique array in tasks, and every filter task reads it
    like_ref = sorted_unique_ref(like_target, ["doc_id"])
    approved_ref = sorted_unique_ref(approved, ["doc_id"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = in_sorted(ray.get(like_ref), ids) & in_sorted(ray.get(approved_ref), ids)
        return batch.filter(pa.array(sel))

    selection = docs.map_batches(keep, batch_format="pyarrow")
    n_sel = selection.count()
    print(f"selection: {docs.count()} docs -> {n_sel} target-like docs")
    selection.write_parquet(out_dir)

    # ---- 4. collocation report over the selection ----------------------
    top = pmi_collocations(selection.select_columns(["doc_id", "text"]),
                           vocab_k=512, min_count=3, k=10)
    print("top collocations of the selected slice:")
    for r in top.to_pylist():
        print(f"  {r['w1']} {r['w2']}  cnt={r['cnt']} pmi={r['pmi']}")
    print("wrote", out_dir)


if __name__ == "__main__":
    main()
    ray.shutdown()
