"""Similarity search over embedding columns (list<float>).

Two paths (the "Similarity search" extension in the build charter):

- `brute_force_topk`: exact cosine top-k of every row against a small
  broadcast query matrix — one numpy matmul per batch + per-query
  top-k reduce. The baseline; linear in corpus size, embarrassingly
  parallel (this is also what queries.q_ann_topk wraps with its SQL
  oracle).
- `ivf_topk`: IVF-style scale path. Train: sample vectors, run a few
  seeded Lloyd iterations driver-side (centroid count ~ sqrt(n)), then
  assign every row to its nearest centroid in a map_batches pass.
  Query: probe only the `nprobe` nearest centroid buckets — the
  shuffle-sized analog of an IVF index; recall < 1 by design, measured
  against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from fastdup_ray.relational.ops import partitioned_groupby


def _matrix(batch: pa.Table, col: str) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = batch[col]
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    flat = c.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return ids, flat.reshape(len(ids), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def brute_force_topk(ds, query_ids, query_matrix, k: int = 10, *,
                     embedding_col: str = "embedding"):
    """Exact cosine top-k per query. query_matrix: (q, d) float; rows are
    L2-normalized internally. Returns Dataset
    (query_id, neighbor_id, cosine) with deterministic tie-break."""
    import pandas as pd

    qids = np.asarray(query_ids, dtype=np.int64)
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    ref = ray.put((qids, qn))

    def score(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(ref)
        ids, m = _matrix(batch, embedding_col)
        cos = _normalize(m) @ qm.T  # (n, q)
        nq = qi.shape[0]
        out_q = np.repeat(qi, ids.shape[0])
        out_n = np.tile(ids, nq)
        out_c = np.round(cos.T.ravel(), 5)
        keep = out_q != out_n
        # per-batch partial top-k: only k best per query leave the task
        df = pd.DataFrame({"query_id": out_q[keep], "neighbor_id": out_n[keep],
                           "cosine": out_c[keep]})
        df = df.sort_values(["query_id", "cosine", "neighbor_id"],
                            ascending=[True, False, True])
        df = df.groupby("query_id", sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_topk(df):
        df = df.sort_values(["query_id", "cosine", "neighbor_id"],
                            ascending=[True, False, True])
        return df.groupby("query_id", sort=False).head(k)

    scored = ds.map_batches(score, batch_format="pyarrow")
    return partitioned_groupby(scored, "query_id", final_topk)


def train_ivf_centroids(ds, n_centroids: int, *, embedding_col: str = "embedding",
                        sample_rows: int = 20_000, iters: int = 5,
                        seed: int = 42) -> np.ndarray:
    """Seeded mini k-means on a driver-side sample (KMeans analog of the
    reference's run_mode 5, __init__.py:2681-2801). Returns (c, d)."""
    frac = 1.0
    total = ds.count()
    if total > sample_rows:
        frac = sample_rows / total
    sample = ds.random_sample(frac, seed=seed).take_all()
    m = _normalize(np.stack([np.asarray(r[embedding_col], dtype=np.float64) for r in sample]))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(m.shape[0], size=min(n_centroids, m.shape[0]), replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(cent.shape[0]):
            mask = assign == c
            if mask.any():
                v = m[mask].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def train_ivf_centroids_pinned(ds, n_centroids: int, *,
                               embedding_col: str = "embedding",
                               id_col: str = "vec_id",
                               sample_rows: int = 20_000, iters: int = 5,
                               salt: int = 0xA11CE,
                               scale: int = 1_000_000) -> np.ndarray:
    """SQL-expressible seeded-Lloyd trainer (the determinism-pinned twin of
    `train_ivf_centroids`, same role hash_sign plays for the embedding
    encoder: the free-form variant stays the library default, this one
    makes the whole training loop reproducible in a DuckDB CTE chain so
    `ann_ivf_topk` can be value-hash-oracled).

    Every source of cross-engine nondeterminism is removed:

    - the training sample is the `sample_rows` rows with the SMALLEST
      `mix64(vec_id ^ salt)` (per-block top-N pruning before the driver
      pass, like `stages/sample.stratified_fixed_n`) instead of
      `ds.random_sample` — expressible as ORDER BY h LIMIT n;
    - init = the first `n_centroids` sample rows in (hash, vec_id) order
      instead of an `np.random.Generator.choice` draw;
    - vectors are L2-normalized then QUANTIZED to an integer grid
      (`floor(v*scale + 0.5)`), so Lloyd assignment (argmin of
      ||c||^2 - 2<e,c>, ties -> lowest cell) and the centroid-mean
      update (`floor((2*sum + n) / (2*n))`, exact in float64 because
      every intermediate is < 2^53) are EXACT integer arithmetic —
      no summation-order sensitivity on either engine.

    Returns unit-normalized float64 centroids (c, d), drop-in for
    `ivf_assign` / `ivf_topk`."""
    from fastdup_ray.functions.hashing import mix64

    keep_n = sample_rows

    def prune(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = mix64(ids.view(np.uint64) ^ np.uint64(salt))
        batch = batch.select([id_col, embedding_col]).append_column(
            "__h", pa.array(h, pa.uint64()))
        if len(ids) > keep_n:
            keep = np.sort(np.argpartition(h, keep_n - 1)[:keep_n])
            batch = batch.take(pa.array(keep))
        return batch

    rows = ds.map_batches(prune, batch_format="pyarrow").take_all()
    h = np.array([r["__h"] for r in rows], np.uint64)
    ids = np.array([r[id_col] for r in rows], np.int64)
    order = np.lexsort((ids, h))[: min(keep_n, len(rows))]
    m = np.stack([np.asarray(rows[i][embedding_col], np.float64)
                  for i in order])
    eq = np.floor(_normalize(m) * scale + 0.5).astype(np.int64)
    k = min(n_centroids, eq.shape[0])
    cq = eq[:k].copy()
    for _ in range(iters):
        cost = (cq * cq).sum(axis=1)[None, :] - 2 * (eq @ cq.T)  # (n, k) int
        a = cost.argmin(axis=1)  # first min = lowest cell on ties
        counts = np.bincount(a, minlength=k)
        sums = np.zeros((k, eq.shape[1]), np.int64)
        np.add.at(sums, a, eq)
        nz = counts > 0
        # round-half-up mean on the integer grid; |2*sum + n| < 2^53 so
        # the float64 divide + floor is exact (same formula in the SQL twin)
        cq[nz] = np.floor(
            (2.0 * sums[nz] + counts[nz, None]) / (2.0 * counts[nz, None])
        ).astype(np.int64)
    return _normalize(cq.astype(np.float64) / scale)


def kmeans_topk_assignments(ds, centroids: np.ndarray, k: int = 2, *,
                            embedding_col: str = "embedding"):
    """Per-point top-k cluster assignments (vec_id, rank, cluster,
    distance) — the reference run_mode=5 emits top-k nearest centroids
    per point, not just the argmax (reference __init__.py:2694-2700).
    rank 0 = nearest; distance = cosine to that centroid, 5dp."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(ref)
        ids, m = _matrix(batch, embedding_col)
        cos = _normalize(m) @ cent.T
        kk = min(k, cent.shape[0])
        top = np.argsort(-cos, axis=1, kind="stable")[:, :kk]
        n = ids.shape[0]
        rows = np.repeat(np.arange(n), kk)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, kk), pa.int64()),
                "rank": pa.array(np.tile(np.arange(kk, dtype=np.int32), n),
                                 pa.int32()),
                "cluster": pa.array(top.ravel().astype(np.int32), pa.int32()),
                "distance": pa.array(
                    np.round(cos[rows, top.ravel()], 5), pa.float64()
                ),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def ivf_assign(ds, centroids: np.ndarray, *, embedding_col: str = "embedding"):
    """Add a `cell` column: nearest-centroid id per row (map_batches pass)."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(ref)
        ids, m = _matrix(batch, embedding_col)
        cell = (_normalize(m) @ cent.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("cell", pa.array(cell, pa.int32()))

    return ds.map_batches(assign, batch_format="pyarrow")


def kmeans_assignments(ds, centroids: np.ndarray, *,
                       embedding_col: str = "embedding"):
    """G6 assignment artifact: (vec_id, cluster, distance) — the analog of
    the reference's kmeans_assignments.csv `filename,cluster,distance`
    (reference definitions.py:17-19, __init__.py:2694-2700); distance is
    cosine similarity to the assigned centroid, rounded 5dp."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(ref)
        ids, m = _matrix(batch, embedding_col)
        cos = _normalize(m) @ cent.T
        cell = cos.argmax(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cell.astype(np.int32), pa.int32()),
                "distance": pa.array(
                    np.round(cos[np.arange(ids.shape[0]), cell], 5), pa.float64()
                ),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def ivf_topk(assigned, centroids: np.ndarray, query_ids, query_matrix,
             k: int = 10, nprobe: int = 4, *, embedding_col: str = "embedding"):
    """Approximate top-k: per query, scan only rows whose `cell` is among
    its nprobe nearest centroids."""
    import pandas as pd

    qids = np.asarray(query_ids, dtype=np.int64)
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    cent = np.asarray(centroids, dtype=np.float64)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (q, nprobe)
    ref = ray.put((qids, qn, probe))

    def score(batch: pa.Table) -> pa.Table:
        qi, qm, pr = ray.get(ref)
        ids, m = _matrix(batch, embedding_col)
        cells = batch["cell"].to_numpy(zero_copy_only=False)
        mn = _normalize(m)
        frames = []
        for j in range(qi.shape[0]):
            mask = np.isin(cells, pr[j])
            mask &= ids != qi[j]
            if not mask.any():
                continue
            cos = np.round(mn[mask] @ qm[j], 5)
            df = pd.DataFrame(
                {"query_id": qi[j], "neighbor_id": ids[mask], "cosine": cos}
            )
            df = df.sort_values(["cosine", "neighbor_id"], ascending=[False, True]).head(k)
            frames.append(df)
        if not frames:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        return pa.Table.from_pandas(pd.concat(frames), preserve_index=False)

    def final_topk(df):
        df = df.sort_values(["query_id", "cosine", "neighbor_id"],
                            ascending=[True, False, True])
        return df.groupby("query_id", sort=False).head(k)

    scored = assigned.map_batches(score, batch_format="pyarrow")
    return partitioned_groupby(scored, "query_id", final_topk)


def cosine_dup_pairs(ds, *, threshold: float = 0.4,
                     embedding_col: str = "embedding", min_block_rows: int = 1024):
    """Embedding-cosine near-duplicate pairs: every (src < dst) pair with
    cosine similarity >= threshold, exact.

    The blocked all-pairs baseline of the embedding near-dup family
    (reference analog: fastdup's cosine similarity graph over CLIP
    embeddings, /root/reference/fastdup/__init__.py:196-227 `run`'s
    similarity step). Shape it for scale:

    - vectors are L2-normalized ONCE in a map_batches pass and stored as
      fixed_size_list<double> blocks in the object store;
    - each unordered block pair (i <= j) becomes one Ray task doing a
      single (m,d)@(d,n) matmul against the two zero-copy block refs —
      no whole-table driver materialization, no O(n^2) memory;
    - results come back as a Dataset via from_arrow_refs.

    O(B^2) tasks / O(n^2) flops is inherent to the exact formulation;
    `ivf_topk` / LSH is the sublinear path at billion-vector scale.
    """
    import ray.data as rd

    def norm_block(batch: pa.Table) -> pa.Table:
        ids, m = _matrix(batch, embedding_col)
        mn = _normalize(m)
        d = mn.shape[1]
        flat = pa.array(mn.reshape(-1), pa.float64())
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "nvec": pa.FixedSizeListArray.from_arrays(flat, d),
        })

    normed = ds.map_batches(norm_block, batch_format="pyarrow").materialize()
    n = normed.count()
    refs = [r for r in normed.to_arrow_refs()]
    # bound the task count: B^2 tasks over tiny blocks is pure overhead
    want = max(1, n // min_block_rows)
    if len(refs) > want * 2:
        normed = normed.repartition(want).materialize()
        refs = [r for r in normed.to_arrow_refs()]

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        def unpack(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
            ids = t["vec_id"].to_numpy(zero_copy_only=False)
            c = t["nvec"]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            d = c.type.list_size
            m = c.flatten().to_numpy(zero_copy_only=False).reshape(-1, d)
            return ids, m

        ia, ma = unpack(ta)
        ib, mb = unpack(tb)
        if ia.shape[0] == 0 or ib.shape[0] == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "distance": pa.array([], pa.float64())})
        cos = ma @ mb.T
        hit = cos >= threshold
        if same:
            # only the strict upper triangle of the self-pair
            hit &= ia[:, None] < ib[None, :]
        else:
            hit &= ia[:, None] != ib[None, :]
        r, c = np.nonzero(hit)
        src = np.minimum(ia[r], ib[c])
        dst = np.maximum(ia[r], ib[c])
        return pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "distance": pa.array(np.round(cos[r, c], 6), pa.float64()),
        })

    out_refs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            out_refs.append(block_pair.remote(refs[i], refs[j], i == j))
    if not out_refs:
        return rd.from_arrow(
            pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64()),
                      "distance": pa.array([], pa.float64())}))
    # cross-block ids can repeat only if vec_id repeats in the input;
    # with unique ids every (src,dst) appears exactly once
    return rd.from_arrow_refs(out_refs)


_SRP_PLANES: dict = {}


def _srp_planes(d: int, n_bits: int, seed: int) -> np.ndarray:
    """Deterministic (d, n_bits) Gaussian hyperplane matrix, cached per
    process — the broadcast-small-state pattern at kilobyte scale (the
    planes are d*n_bits*8 bytes, regenerated from the seed everywhere
    rather than shipped)."""
    key = (d, n_bits, seed)
    if key not in _SRP_PLANES:
        _SRP_PLANES[key] = np.random.default_rng(seed).standard_normal((d, n_bits))
    return _SRP_PLANES[key]


def srp_lsh_dup_pairs(ds, *, threshold: float = 0.9, n_bands: int | None = None,
                      band_bits: int | None = None, seed: int = 0x5EED,
                      embedding_col: str = "embedding",
                      vec_id_col: str = "vec_id",
                      config=None):
    """Sub-quadratic embedding-cosine near-dup pairs: signed-random-
    projection LSH (Charikar STOC'02 — the cosine analog of SimHash)
    banded MinHash-style, then an EXACT cosine rescore of every
    candidate pair.

    Precision is 1.0 by construction (every emitted pair is rescored
    from the real vectors); recall is the banded collision probability
    1-(1-p^b)^r with p = 1 - theta/pi. Band GEOMETRY must scale with the
    corpus: unlike MinHash (where a shared bucket implies real
    similarity), SRP buckets at b bits are only 2^b cells of random
    halfspaces, so with fixed b=8 any corpus beyond ~8k vectors drives
    every bucket past the hot-bucket star cap and recall collapses
    (measured 0.32 at 20k docs). band_bits therefore defaults to
    ~log2(n/8) (target ~8 rows/bucket, clamped [8, 24]) and n_bands to
    the count that restores 0.995 recall at `threshold` given that band
    length — pytest-gated at 320 AND 12k vectors with randomly-placed
    planted pairs against the exact all-pairs baseline.

    This is the linear-shuffle scale path of the embedding dedup family:
    band rows are (bucket, vec_id) exactly like the MinHash path, so
    pair emission reuses the vectorized LSH clique emitter, and the
    rescore ships vectors as fixed-width binary through the join (the
    same transport the verify stage uses for shingle sets).
    """
    from fastdup_ray.config import DedupConfig
    from fastdup_ray.relational.ops import hash_join
    from fastdup_ray.stages.lsh import candidate_pairs

    cfg = config or DedupConfig()
    if band_bits is None:
        n_total = ds.count()
        band_bits = int(min(24, max(8, np.ceil(np.log2(max(n_total, 2) / 8.0)))))
    if band_bits > 32:
        raise ValueError("band_bits must be <= 32 (bucket packing)")
    if n_bands is None:
        p_bit = 1.0 - np.arccos(float(np.clip(threshold, -1.0, 0.9999))) / np.pi
        p_band = max(1e-12, p_bit ** band_bits)
        miss = np.log(0.005) / np.log(max(1e-12, 1.0 - p_band))
        n_bands = int(min(96, max(8, np.ceil(miss))))
    n_bits = n_bands * band_bits

    # two outputs from one pass would force a wide row; emit band rows
    # and the vector side table as separate narrow projections instead
    def band_rows(batch: pa.Table) -> pa.Table:
        ids, m = _matrix(batch, embedding_col)
        n = ids.shape[0]
        if n == 0:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            })
        mn = _normalize(m)
        planes = _srp_planes(mn.shape[1], n_bits, seed)
        bits = (mn @ planes) >= 0.0
        weights = (1 << np.arange(band_bits, dtype=np.int64))[None, :]
        buckets = np.empty((n, n_bands), np.int64)
        for band in range(n_bands):
            chunk = bits[:, band * band_bits : (band + 1) * band_bits]
            buckets[:, band] = (chunk * weights).sum(axis=1) | (band << 40)
        return pa.table({
            "bucket": pa.array(buckets.reshape(-1), pa.int64()),
            "doc_id": pa.array(np.repeat(ids.astype(np.int64), n_bands)),
        })

    def vec_rows(batch: pa.Table) -> pa.Table:
        ids, m = _matrix(batch, embedding_col)
        if ids.shape[0] == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "vb": pa.array([], pa.large_binary()),
            })
        # float64 transport: distances must be bit-identical to the exact
        # all-pairs baseline (the float32 saving shifts the 6th decimal)
        mn = np.ascontiguousarray(_normalize(m), dtype=np.float64)
        # equal-width values: one contiguous buffer + arithmetic offsets,
        # no per-row Python bytes objects
        width = mn.shape[1] * 8
        vb = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            mn.shape[0],
            [
                None,
                pa.py_buffer(
                    np.arange(0, (mn.shape[0] + 1) * width, width, dtype=np.int64)
                ),
                pa.py_buffer(mn.tobytes()),
            ],
        )
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "vb": vb,
        })

    pairs = candidate_pairs(
        ds.map_batches(band_rows, batch_format="pyarrow"), cfg
    ).materialize()
    empty = pa.table({
        "src": pa.array([], pa.int64()),
        "dst": pa.array([], pa.int64()),
        "distance": pa.array([], pa.float64()),
    })
    if pairs.count() == 0:
        import ray.data as rd

        return rd.from_arrow(empty)

    vecs = ds.map_batches(vec_rows, batch_format="pyarrow").materialize()
    j1 = hash_join(
        pairs, vecs.rename_columns({"vec_id": "k1", "vb": "vb_src"}),
        on="src", right_on="k1",
    ).materialize()
    j2 = hash_join(
        j1, vecs.rename_columns({"vec_id": "k2", "vb": "vb_dst"}),
        on="dst", right_on="k2",
    )

    def rescore(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0 or "vb_src" not in batch.column_names:
            return empty
        a = np.frombuffer(
            b"".join(batch["vb_src"].to_pylist()), np.float64
        ).reshape(n, -1)
        b = np.frombuffer(
            b"".join(batch["vb_dst"].to_pylist()), np.float64
        ).reshape(n, -1)
        cos = np.einsum("ij,ij->i", a, b)
        keep = cos >= threshold
        m = pa.array(keep)
        return pa.table({
            "src": batch["src"].filter(m),
            "dst": batch["dst"].filter(m),
            "distance": pa.array(np.round(cos[keep], 6), pa.float64()),
        })

    return j2.map_batches(rescore, batch_format="pyarrow")
