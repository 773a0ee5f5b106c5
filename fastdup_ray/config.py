"""Run configuration for the near-dup pipeline.

Analog of the reference's ``config.json`` run-parameter snapshot
(reference: fastdup/__init__.py:231-247, fastdup_controller.py:816-842) —
every parameter that affects results is captured here, serialized into the
work_dir manifest, and folded into each stage's resume fingerprint.
Partition counts and plan thresholds are not fields: the exchange derives
its width from its input blocks and the cluster's CPUs, and the
broadcast and driver-finish bounds are module constants, so running on
another cluster never discards a checkpoint whose output is identical.

Defaults mirror the reference's thresholds where a text-native analog
exists: similarity threshold 0.9 (reference __init__.py:481), component
threshold 0.96 ("ccthreshold", fastdup_controller.py:1519), outlier
percentile 0.05 (reference __init__.py:482), and the signature config
mandated by BASELINE.json: classic MinHash over char-5-gram shingles,
128 permutations, 16 bands x 8 rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

# doc_id/string-hash algorithm version: folded into every stage
# fingerprint and recorded in every manifest, so checkpoints made with a
# different hash are never resumed or loaded
HASH_VERSION = 2


@dataclass(frozen=True)
class DedupConfig:
    # --- signature config (fixed by BASELINE.json north rule) ---
    shingle_size: int = 5          # char n-gram width
    num_perms: int = 128           # minhash permutations
    num_bands: int = 16            # LSH bands
    rows_per_band: int = 8         # minhash rows per band (num_bands*rows_per_band == num_perms)
    seed: int = 42                 # seeds the permutation matrix (deterministic)

    # --- thresholds (reference parity) ---
    threshold: float = 0.9         # similarity edge cutoff (est. Jaccard)
    cc_threshold: float = 0.96     # component-merge cutoff ("ccthreshold")
    lower_threshold: float = 0.05  # outlier percentile (bottom 5% of pair sims)

    # --- validity filter (analog of reference's <10x10px / min_file_size rule,
    #     reference __init__.py:519-520) ---
    min_text_len: int = 20         # chars; shorter docs -> is_valid=False, error_code="TOO_SHORT"

    # --- skew handling (hot LSH buckets; SURVEY.md §4 "Skew") ---
    max_bucket_pairs: int = 32     # buckets with <= this many docs emit all C(m,2) pairs;
                                   # larger buckets emit a star to the min doc_id (keeps the
                                   # bucket connected with diameter 2, caps emission at m-1).
                                   # Components are unaffected; the similarity() edge list
                                   # under-reports intra-mega-cluster pairs (still far richer
                                   # than the reference's k=2 NN edges, RUN.md:43-55)

    # --- exact-substring stage (fingerprint-based; SURVEY.md G10) ---
    substring_len: int = 256       # minimum shared-run length targeted
    # anchors are the rightmost-min of every (substring_len - 64 + 1)-hash
    # winnow window over the 64-byte rolling hashes: every shared run of
    # >= substring_len bytes shares an anchor (stages/substring.py); the
    # max_bucket_pairs skew cap is the only truncation

    # --- simhash ---
    simhash_hamming: int = 3       # max hamming distance for simhash near-dup pairs
    simhash_value_cap: int = 256   # max DISTINCT fingerprint values verified as a full
                                   # clique per quarter bucket; beyond, star-verified
                                   # against the bucket's min-canon value (identical
                                   # fingerprints are collapsed before bucketing, so
                                   # this only triggers on pathological diversity)

    # --- execution knobs ---
    batch_size: int = 1024         # rows per batch for signature/extract stages

    def __post_init__(self) -> None:
        if self.num_bands * self.rows_per_band != self.num_perms:
            raise ValueError(
                f"num_bands*rows_per_band ({self.num_bands}*{self.rows_per_band}) "
                f"!= num_perms ({self.num_perms})"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "DedupConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        kw = {k: v for k, v in d.items() if k in names}
        return cls(**kw)

    def fingerprint(self, *parts: str) -> str:
        """Stable fingerprint of this config plus extra context strings.

        Used as the stage resume key: a checkpoint is only reused when the
        config, `HASH_VERSION` AND the upstream fingerprints are unchanged
        (SURVEY.md §7.4 "Resume correctness").
        """
        h = hashlib.sha256(self.to_json().encode())
        h.update(f"\x00hash_version={HASH_VERSION}".encode())
        for p in parts:
            h.update(b"\x00")
            h.update(p.encode())
        return h.hexdigest()[:24]


DEFAULT_CONFIG = DedupConfig()
