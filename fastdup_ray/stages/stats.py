"""Per-document text statistics + language ID + quality scoring.

Text-native analog of the reference's image-stats stage (`run_stats=1`
writing atrain_stats.csv with blur/mean/min/max/unique/stdv per image,
reference definitions.py:30, SURVEY.md M6): one vectorized `map_batches`
pass computing, per doc —

  n_chars, n_tokens, n_lines, uniq_token_ratio, mean_word_len,
  digit_ratio, non_ascii_ratio, stopword_ratio, lang_pred, lang_score,
  quality

The numeric columns use definitions that DuckDB SQL can reproduce
exactly (the driver's oracle gate compares value hashes):

  n_tokens        = number of \\s+-separated tokens of trim(text)
  n_lines         = 1 + count of '\\n' (0 for empty text)
  uniq_token_ratio= distinct tokens / n_tokens
  mean_word_len   = (chars excluding all \\s) / n_tokens
  digit_ratio     = count of [0-9] / n_chars
  non_ascii_ratio = count of chars > U+007F / n_chars

Ratios are rounded to 6 decimals ON BOTH SIDES to avoid float-hash
mismatches. The stage is a callable class (regexes compiled once per
actor — the reference loads its stats kernels once per process too).

Language ID is a deterministic stopword/char-class heuristic (en, de,
fr, es, it, pt + CJK) — the SURVEY's "text analysis" extension; not
SQL-expressible, tested against the documents.lang column instead.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from fastdup_ray.functions.hashing import split_whitespace

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on",
           "with", "as", "this", "was", "are", "be", "at", "by", "or", "an"},
    "de": {"der", "die", "das", "und", "ist", "von", "zu", "mit", "den", "nicht",
           "ein", "eine", "auf", "im", "für", "des", "sich", "dem", "als", "auch"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "du", "dans",
           "que", "pour", "pas", "sur", "par", "avec", "au", "il", "ne"},
    "es": {"el", "la", "los", "las", "de", "y", "es", "en", "un", "una", "del",
           "que", "por", "con", "para", "se", "su", "al", "lo", "como"},
    "it": {"il", "la", "di", "e", "che", "un", "una", "per", "non", "sono", "del",
           "con", "si", "da", "nel", "le", "dei", "al", "come", "della"},
    "pt": {"o", "a", "os", "as", "de", "e", "que", "um", "uma", "do", "da", "em",
           "para", "não", "com", "por", "se", "no", "na", "dos"},
}


class TextStatsStage:
    """map_batches callable: docs batch -> stats batch (doc_id + metrics)."""

    def __init__(self, round_decimals: int = 6):
        self.round = round_decimals
        self.re_ws = re.compile(r"\s+")
        self.re_digit = re.compile(r"[0-9]")
        self.re_word = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.stopwords = _STOPWORDS

    def _one(self, text: str):
        n_chars = len(text)
        if n_chars == 0:
            return (0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, "unknown", 0.0, 0.0)
        tokens = text.split()
        n_tokens = len(tokens)
        n_lines = text.count("\n") + 1
        uniq = len(set(tokens)) / n_tokens if n_tokens else 0.0
        non_ws = sum(len(t) for t in tokens)
        mean_wl = non_ws / n_tokens if n_tokens else 0.0
        digits = len(self.re_digit.findall(text))
        non_ascii = sum(1 for c in text if ord(c) > 0x7F)
        lang, score, stop_ratio = self._lang(tokens, text, non_ascii / n_chars)
        quality = self._quality(n_tokens, uniq, mean_wl, digits / n_chars, stop_ratio)
        return (
            n_chars, n_tokens, n_lines, uniq, mean_wl,
            digits / n_chars, non_ascii / n_chars, stop_ratio,
            lang, score, quality,
        )

    def _lang(self, tokens, text: str, non_ascii_ratio: float):
        lower = [t.lower() for t in tokens]
        n = max(1, len(lower))
        cjk = sum(1 for c in text if 0x4E00 <= ord(c) <= 0x9FFF)
        if cjk / max(1, len(text)) > 0.05:
            return "zh", round(cjk / len(text), 6), 0.0
        best_lang, best_hits = "unknown", 0
        for lang, sw in self.stopwords.items():
            hits = sum(1 for t in lower if t in sw)
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        ratio = best_hits / n
        if best_hits == 0:
            return "unknown", 0.0, 0.0
        return best_lang, round(ratio, 6), ratio

    @staticmethod
    def _quality(n_tokens, uniq, mean_wl, digit_ratio, stop_ratio) -> float:
        """Web-text quality heuristic in [0,1]: favors mid-length docs with
        diverse tokens, plausible word lengths, few digits (Gopher-rule
        style thresholds, simplified & deterministic)."""
        s = 1.0
        if n_tokens < 50:
            s *= n_tokens / 50.0
        if uniq < 0.3:
            s *= uniq / 0.3
        if not (2.0 <= mean_wl <= 12.0):
            s *= 0.5
        if digit_ratio > 0.2:
            s *= 0.5
        return round(min(1.0, max(0.0, s)), 6)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized: Arrow compute kernels for char/regex counts and the
        whitespace split, numpy segment reductions for per-doc token
        aggregates (`_one` is the scalar reference implementation used by
        the parity test; semantics are identical)."""
        import pyarrow.compute as pc

        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")
        n = len(texts)
        r = self.round

        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = n_chars > 0
        n_lines = np.where(
            nonempty,
            pc.count_substring(texts, "\n").to_numpy(zero_copy_only=False) + 1,
            0,
        ).astype(np.int64)
        digits = (
            pc.count_substring_regex(texts, "[0-9]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        non_ascii = (
            pc.count_substring_regex(texts, r"[^\x00-\x7F]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        cjk = (
            pc.count_substring_regex(texts, "[一-鿿]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )

        # split_whitespace emits EMPTY tokens for leading/trailing/run
        # whitespace (unlike str.split); drop them before any counting
        toks = split_whitespace(texts)
        raw_counts = (
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        flat = toks.flatten()
        seg = np.repeat(np.arange(n, dtype=np.int64), raw_counts)
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        keep_tok = tok_lens > 0
        if not keep_tok.all():
            flat = flat.filter(pa.array(keep_tok))
            seg = seg[keep_tok]
            tok_lens = tok_lens[keep_tok]
        n_tokens = np.bincount(seg, minlength=n).astype(np.int64)
        non_ws = np.bincount(seg, weights=tok_lens, minlength=n).astype(np.int64)

        # dictionary-encode the token stream ONCE: distinct-per-doc and all
        # stopword membership tests then run on integer codes / the (small)
        # dictionary instead of the raw strings
        de = flat.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = de.dictionary

        # distinct tokens per doc: lexsort (code, seg), count first
        # occurrences per segment — exact, no hashing
        order = np.lexsort((codes, seg))
        sc, ss = codes[order], seg[order]
        first = np.ones(sc.shape[0], dtype=bool)
        first[1:] = (sc[1:] != sc[:-1]) | (ss[1:] != ss[:-1])
        uniq_counts = np.bincount(ss[first], minlength=n).astype(np.int64)

        vocab_low = pc.utf8_lower(vocab)
        langs = list(self.stopwords)
        hits = np.zeros((len(langs), n), dtype=np.int64)
        for i, lang in enumerate(langs):
            member = pc.is_in(
                vocab_low, value_set=pa.array(sorted(self.stopwords[lang]))
            ).to_numpy(zero_copy_only=False)
            hits[i] = np.bincount(
                seg, weights=member[codes], minlength=n
            ).astype(np.int64)
        best_i = hits.argmax(axis=0)  # ties -> first lang in dict order (as _lang)
        best_hits = hits.max(axis=0) if n else np.zeros(0, np.int64)
        denom_t = np.maximum(1, n_tokens)
        stop_ratio = best_hits / denom_t
        lang_arr = np.asarray(langs, dtype=object)[best_i]
        lang_arr[best_hits == 0] = "unknown"
        lang_score = np.where(best_hits == 0, 0.0, np.round(stop_ratio, 6))
        stop_ratio = np.where(best_hits == 0, 0.0, stop_ratio)
        is_zh = nonempty & (cjk / np.maximum(1, n_chars) > 0.05)
        lang_arr[is_zh] = "zh"
        lang_score = np.where(
            is_zh, np.round(cjk / np.maximum(1, n_chars), 6), lang_score
        )
        stop_ratio = np.where(is_zh, 0.0, stop_ratio)

        denom_c = np.maximum(1, n_chars)
        uniq = np.where(n_tokens > 0, uniq_counts / denom_t, 0.0)
        mean_wl = np.where(n_tokens > 0, non_ws / denom_t, 0.0)
        digit_ratio = digits / denom_c
        non_ascii_ratio = non_ascii / denom_c

        q = np.ones(n, dtype=np.float64)
        q = np.where(n_tokens < 50, q * (n_tokens / 50.0), q)
        q = np.where(uniq < 0.3, q * (uniq / 0.3), q)
        q = np.where((mean_wl < 2.0) | (mean_wl > 12.0), q * 0.5, q)
        q = np.where(digit_ratio > 0.2, q * 0.5, q)
        quality = np.round(np.clip(q, 0.0, 1.0), 6)
        # empty docs: all-zero metrics, unknown lang (matches _one)
        for arr in (uniq, mean_wl, digit_ratio, non_ascii_ratio, stop_ratio,
                    lang_score, quality):
            arr[~nonempty] = 0.0
        lang_arr[~nonempty] = "unknown"

        out = {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars),
            "n_tokens": pa.array(n_tokens),
            "n_lines": pa.array(n_lines),
            "uniq_token_ratio": pa.array(np.round(uniq, r)),
            "mean_word_len": pa.array(np.round(mean_wl, r)),
            "digit_ratio": pa.array(np.round(digit_ratio, r)),
            "non_ascii_ratio": pa.array(np.round(non_ascii_ratio, r)),
            "stopword_ratio": pa.array(np.round(stop_ratio, r)),
            "lang_pred": pa.array(lang_arr.tolist(), pa.string()),
            "lang_score": pa.array(lang_score, pa.float64()),
            "quality": pa.array(quality, pa.float64()),
        }
        if "url" in batch.column_names:
            out["url"] = batch["url"]
        return pa.table(out)
