"""Text-analysis operators for training-data pipelines.

Not present in the reference (sqlgrep's text ops stop at regex capture +
``length/upper/lower``, SURVEY §2.3); these are the large-scale curation
additions the north_star calls for. Each is a stateless vectorized
``map_batches`` stage over the ``text`` column:

* ``token_stats``      — whitespace tokens + BPE-ish word/punct pieces.
* ``quality_score``    — length / punctuation / stopword / alpha heuristics.
* ``language_id``      — character n-gram profile match (en/de/fr/es here;
                         profiles are tiny and embedded — swap for real
                         profiles at scale).
* ``fingerprint``      — 64-bit content fingerprint (normalized rolling hash)
                         for exact-ish duplicate detection and lineage.

All outputs append columns; nothing materializes the dataset.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages.textnorm import split_whitespace

# BPE-ish piece splitter for Arrow kernels (re2): word pieces, numbers and
# punctuation runs; re2's \s is ASCII-only, so \pZ (unicode separators)
# joins the negated class
_BPE_RE2 = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9\pZ]+"

_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been for on with as at by it "
    "this that from not have has had but they you we he she i".split()
)
_STOPWORD_ARR = pa.array(sorted(_STOPWORDS))

# character-trigram profiles per language (top distinctive trigrams; a tiny
# embedded stand-in for a real fastText-style model, which isn't in this
# container). Heuristic, deterministic, good enough for routing/filters.
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset(
        [" th", "the", "he ", " an", "and", "nd ", "ing", "ng ", " of", "of ",
         "ion", " to", "to ", "ent", " in", "ed ", "is ", " is", "at ", "er "]
    ),
    "de": frozenset(
        [" de", "der", "er ", "ie ", "die", "ein", "ich", "ch ", "sch", "und",
         " un", "nd ", "en ", "ung", "cht", " ge", "das", "as ", "ber", "ten"]
    ),
    "fr": frozenset(
        [" de", "de ", "es ", " le", "le ", "ent", "la ", " la", "ion", "que",
         " qu", "ue ", "re ", " pa", "ais", "eur", "our", " et", "et ", "ons"]
    ),
    "es": frozenset(
        [" de", "de ", "os ", " la", "la ", "ión", "que", " qu", "ue ", "el ",
         " el", "ar ", " co", "es ", "ado", "con", "ent", "cio", " en", "en "]
    ),
}
_LANGS = sorted(_LANG_PROFILES)


def _trigrams(text: str) -> list[str]:
    from sqlgrep_ray.stages.textnorm import arrow_lower

    # utf8proc lowercase (textnorm.py) — python str.lower() length-expands
    # some mappings and would diverge from the batch matcher
    t = f" {arrow_lower(text)} "
    return [t[i : i + 3] for i in range(len(t) - 2)]


def detect_language(text: Optional[str]) -> str:
    """Best-matching language code, or 'und' when nothing matches."""
    if not text:
        return "und"
    tris = _trigrams(text[:2000])  # cap work per doc
    if not tris:
        return "und"
    best_lang, best = "und", 0.0
    for lang in _LANGS:
        prof = _LANG_PROFILES[lang]
        hits = sum(1 for t in tris if t in prof)
        score = hits / len(tris)
        if score > best:
            best, best_lang = score, lang
    return best_lang if best >= 0.04 else "und"


# language-profile lookup tables for the byte-level vectorized matcher:
# unique ASCII trigrams sorted by their 3-byte code, plus a per-lang
# membership matrix; non-ASCII profile trigrams (only "ión") are handled by
# an utf8-encoded byte-window of their encoded length.
def _build_lang_tables():
    wide: list[tuple[bytes, int]] = []  # (utf8 bytes, lang bitmask)
    masks3: dict[int, int] = {}
    for li, lang in enumerate(_LANGS):
        for tri in _LANG_PROFILES[lang]:
            b = tri.encode()
            if len(b) == 3:
                code = (b[0] << 16) | (b[1] << 8) | b[2]
                masks3[code] = masks3.get(code, 0) | (1 << li)
            else:
                wide.append((b, 1 << li))
    # the uint8 bitmask hard-caps the profile table at 8 languages; a 9th
    # must widen the LUT dtype to uint16 — fail loudly, not by overflow
    assert len(_LANGS) <= 8, "uint8 LUT bitmask supports at most 8 languages"
    codes = np.array(sorted(masks3), dtype=np.int32)  # 24-bit codes
    # direct-mapped LUT over the whole 24-bit code space (16 MiB uint8,
    # one per worker process): LUT[code] = language bitmask, 0 = no match.
    # One gather replaces searchsorted + clip + equality + where.
    lut = np.zeros(1 << 24, dtype=np.uint8)
    lut[codes] = np.array([masks3[int(c)] for c in codes], dtype=np.uint8)
    return lut, wide


_TRI_LUT, _TRI_WIDE = None, None


def detect_language_batch(filled: pa.Array) -> pa.Array:
    """Vectorized :func:`detect_language` over a (null-free) string array.

    Exact-equivalent byte-level matcher: every char-trigram match of an
    ASCII profile trigram corresponds 1:1 to a 3-byte window match in the
    UTF-8 buffer (windows starting inside a multi-byte char contain a byte
    ≥ 0x80 and can never equal an all-ASCII code), so sliding 3-byte codes +
    a sorted-table lookup reproduce the per-position python counts.
    """
    global _TRI_LUT, _TRI_WIDE
    if _TRI_LUT is None:
        _TRI_LUT, _TRI_WIDE = _build_lang_tables()
    lowered = pc.utf8_lower(pc.utf8_slice_codeunits(filled, 0, 2000))
    padded = pc.binary_join_element_wise(
        pa.scalar(" "), lowered, pa.scalar(" "), pa.scalar("")
    )
    if isinstance(padded, pa.ChunkedArray):
        padded = padded.combine_chunks()
    n_tris = pc.utf8_length(lowered).cast(pa.float64()).to_numpy(
        zero_copy_only=False
    )  # len(padded) - 2 (chars)
    n = len(filled)
    # contiguous byte buffer + per-string byte offsets (StringArray layout:
    # buffers = [validity, int32 offsets, utf8 data]; honor the array offset)
    raw_off = np.frombuffer(padded.buffers()[1], dtype=np.int32)
    buf_off = raw_off[padded.offset : padded.offset + n + 1].astype(np.int64)
    data = np.frombuffer(padded.buffers()[2], dtype=np.uint8)[
        buf_off[0] : buf_off[-1]
    ]
    buf_off = buf_off - buf_off[0]
    m = len(data)
    scores = np.zeros((len(_LANGS), n), dtype=np.float64)
    denom = np.maximum(n_tris, 1.0)
    if m >= 3:
        d = data.astype(np.int32)
        codes = (d[: m - 2] << 16) | (d[1 : m - 1] << 8) | d[2:]
        # direct-mapped LUT gather → language bitmask per position; matches
        # are SPARSE (profile trigrams hit a minority of positions), so all
        # per-string accounting runs over the match positions only:
        # row = searchsorted into the string offsets, counts = bincount
        masks = _TRI_LUT[codes]
        mpos = np.flatnonzero(masks)
        if len(mpos):
            mmask = masks[mpos]
            row = np.searchsorted(buf_off, mpos, side="right") - 1
            # drop windows crossing a string boundary: a valid start sits at
            # least 3 bytes before its string's end
            ok = mpos <= buf_off[row + 1] - 3
            row, mmask = row[ok], mmask[ok]
            for li in range(len(_LANGS)):
                sel = (mmask >> li) & 1
                scores[li] = (
                    np.bincount(row, weights=sel, minlength=n) / denom
                )
        for b, mask in _TRI_WIDE:
            # rare non-ASCII trigram: substring count of its utf8 bytes
            cnt = pc.count_substring(padded, b.decode()).to_numpy(
                zero_copy_only=False
            )
            for li in range(len(_LANGS)):
                if (mask >> li) & 1:
                    scores[li] += cnt / denom
    best_idx = np.argmax(scores, axis=0)  # first-win ties == _LANGS order
    best = scores[best_idx, np.arange(n)]
    lang_codes = np.array(_LANGS, dtype=object)
    out = np.where(
        (best >= 0.04) & (n_tris > 0), lang_codes[best_idx], "und"
    )
    # python path returns 'und' for empty/None text regardless of scores
    empty = pc.equal(filled, "").to_numpy(zero_copy_only=False)
    out = np.where(empty, "und", out)
    return pa.array(out.tolist(), pa.string())


def fingerprint64_batch(filled: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """Vectorized 64-bit content fingerprints of a (null-free) string array.

    Normalization — lowercase, collapse whitespace runs to one space, strip
    edges — is pure Arrow kernels (utf8proc lowercase + the textnorm
    whitespace class); the only per-row work is one blake2b call over a
    zero-copy slice of the joined array's contiguous UTF-8 buffer. No
    Python string ever materializes."""
    if isinstance(filled, pa.ChunkedArray):
        filled = filled.combine_chunks()
    splits = split_whitespace(pc.utf8_lower(filled))
    if isinstance(splits, pa.ChunkedArray):
        splits = splits.combine_chunks()
    flat = splits.flatten()
    offsets = splits.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # drop the empty pieces regex-split leaves at whitespace edges, then
    # re-join with a single space (str.split()/join semantics, vectorized)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    cum = np.concatenate([[0], np.cumsum(nonempty, dtype=np.int64)])
    joined = pc.binary_join(
        pa.ListArray.from_arrays(
            pa.array(cum[offsets], pa.int32()), flat.filter(pa.array(nonempty))
        ),
        " ",
    )
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    bufs = joined.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int32)[
        joined.offset : joined.offset + len(joined) + 1
    ]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    blake = hashlib.blake2b
    from_bytes = int.from_bytes
    out = np.empty(len(joined), dtype=np.int64)
    for i in range(len(joined)):
        out[i] = from_bytes(
            blake(data[off[i] : off[i + 1]], digest_size=8).digest(),
            "little",
            signed=True,
        )
    return pa.array(out, pa.int64())


def fingerprint64(text: Optional[str]) -> int:
    """Deterministic 64-bit fingerprint of whitespace-normalized text.

    SIGNED int64 (the same 8 hash bytes viewed as two's-complement): Ray's
    groupby converts group-key values through Python ints, and values above
    2^63-1 overflow C long → per-block pickle fallback. Signed keys stay on
    the Arrow-native path.

    Runs the SAME Arrow normalization kernels as the batch path
    (``fingerprint64_batch``) one row at a time, so scalar and vectorized
    fingerprints are bit-identical by construction."""
    return fingerprint64_batch(pa.array([text or ""], pa.string()))[0].as_py()


class TextStats:
    """map_batches stage appending token/quality/lang/fingerprint columns.

    Column set is opt-in so pipelines only pay for what they use.
    """

    def __init__(
        self,
        text_col: str = "text",
        tokens: bool = True,
        quality: bool = True,
        language: bool = True,
        fingerprint: bool = True,
        counts: bool = False,
    ):
        self.text_col = text_col
        self.tokens = tokens
        self.quality = quality
        self.language = language
        self.fingerprint = fingerprint
        # counts: also emit the integer numerators behind the quality ratios
        # (n_chars / n_non_alpha / n_punct / n_stopwords) — exact cross-engine
        # (DuckDB regexp_extract_all runs the same RE2 classes), so the
        # quality family is oracle-checkable, not just rows-only
        self.counts = counts

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        filled = pc.fill_null(col, "")

        splits = toks_per_row = None
        if self.tokens or self.quality or self.counts:
            # ONE vectorized whitespace split serves token counting and the
            # stopword ratio (no per-row Python). Empty pieces from
            # leading/trailing/multiple whitespace are masked out, matching
            # python's str.split().
            # canonical whitespace split (textnorm.py): unicode semantics,
            # deterministic (pyarrow's utf8_split_whitespace is not)
            splits = split_whitespace(filled)
            if isinstance(splits, pa.ChunkedArray):
                splits = splits.combine_chunks()
            flat = splits.flatten()
            offsets = splits.offsets.to_numpy(zero_copy_only=False)
            nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            cum = np.concatenate([[0], np.cumsum(nonempty, dtype=np.int64)])
            toks_per_row = cum[offsets[1:]] - cum[offsets[:-1]]

        if self.tokens:
            bpe = pc.count_substring_regex(filled, _BPE_RE2).cast(pa.int64())
            batch = batch.append_column("n_tokens_ws", pa.array(toks_per_row))
            batch = batch.append_column("n_tokens_bpe", bpe)

        if self.quality or self.counts:
            # char-class ratios via Arrow's re2 unicode classes: \pL matches
            # python's isalpha, \pN isalnum's numeric half, \s isspace
            n_chars = pc.utf8_length(filled).cast(pa.float64()).to_numpy(
                zero_copy_only=False
            )
            safe_len = np.maximum(n_chars, 1.0)
            # count_substring_regex cost is proportional to the MATCH count,
            # so count the rare complement class and subtract: alpha+space
            # chars = len − non-alpha-non-space chars
            non_alpha = pc.count_substring_regex(filled, r"[^\pL\pZ\s]").to_numpy(
                zero_copy_only=False
            )
            alpha_n = n_chars - non_alpha
            punct_n = pc.count_substring_regex(filled, r"[^\pL\pN\pZ\s]").to_numpy(
                zero_copy_only=False
            )
            alpha = alpha_n / safe_len
            punct = punct_n / safe_len
            # stopword hits: strip edge punctuation from each token, lower,
            # set-membership — all Arrow kernels over the flattened tokens
            flat = splits.flatten()
            stripped = pc.replace_substring_regex(
                flat, pattern="^[.,!?;:'\"]+|[.,!?;:'\"]+$", replacement=""
            )
            hits = pc.is_in(
                pc.utf8_lower(stripped), value_set=_STOPWORD_ARR
            ).to_numpy(zero_copy_only=False)
            cumh = np.concatenate([[0], np.cumsum(hits, dtype=np.int64)])
            offsets = splits.offsets.to_numpy(zero_copy_only=False)
            stop_n = cumh[offsets[1:]] - cumh[offsets[:-1]]
            stop = np.divide(
                stop_n, toks_per_row, out=np.zeros(n, dtype=np.float64),
                where=toks_per_row > 0,
            )
            # composite score in [0,1]: long enough, alphabetic, some stopwords,
            # not punctuation soup — the C4/Gopher-style cheap filters
            length_ok = np.minimum(n_chars / 200.0, 1.0)
            score = (
                0.35 * length_ok + 0.30 * alpha + 0.25 * np.minimum(stop * 3, 1.0)
                + 0.10 * (1.0 - np.minimum(punct * 4, 1.0))
            )
            if self.quality:
                batch = batch.append_column("alpha_ratio", pa.array(alpha))
                batch = batch.append_column("punct_ratio", pa.array(punct))
                batch = batch.append_column("stopword_ratio", pa.array(stop))
                batch = batch.append_column("quality_score", pa.array(score))
            if self.counts:
                batch = batch.append_column(
                    "n_chars", pa.array(n_chars.astype(np.int64))
                )
                batch = batch.append_column(
                    "n_non_alpha", pa.array(non_alpha.astype(np.int64))
                )
                batch = batch.append_column(
                    "n_punct", pa.array(punct_n.astype(np.int64))
                )
                batch = batch.append_column(
                    "n_stopwords", pa.array(stop_n.astype(np.int64))
                )

        if self.language:
            batch = batch.append_column("lang_pred", detect_language_batch(filled))

        if self.fingerprint:
            batch = batch.append_column("fingerprint", fingerprint64_batch(filled))
        return batch


_STATS_CACHE: dict = {}  # per-worker-process stage state (stateless tasks)


def text_stats(
    ds: "ray.data.Dataset", text_col: str = "text", **kwargs
) -> "ray.data.Dataset":
    key = (text_col, tuple(sorted(kwargs.items())))

    def stats_batch(t: pa.Table, key=key):
        st = _STATS_CACHE.get(key)
        if st is None:
            st = _STATS_CACHE[key] = TextStats(text_col, **dict(key[1]))
        return st(t)

    return ds.map_batches(
        stats_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
