"""Seeded synthetic corpus generation, for benchmarks and test data.

Generation is fully vectorized so ten-million-token corpora materialize in
seconds, and fully determined by the seed: the same parameters always
yield an identical index.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusError, CorpusIndex, DateKind, Vocabulary, _typology_column

__all__ = ["synthetic_index"]

_POS_CYCLE = ("NOM", "ADJ", "VER")
_FORM_SUFFIXES = ("", "is", "em")
# dated documents get years in [_YEAR_LO, _YEAR_HI]; lemma i is drawn with
# weight proportional to 1 / (i + 1) ** _ZIPF
_YEAR_LO = 700
_YEAR_HI = 1300
_ZIPF = 1.05
# each size becomes a float64 array, and numpy refuses arrays over intp.max bytes
_MAX_SIZE = np.iinfo(np.intp).max // 8


def synthetic_index(
    n_tokens: int,
    vocab_size: int,
    n_docs: int,
    seed: int,
    dated_fraction: float = 1.0,
) -> CorpusIndex:
    """Random corpus: Zipf-weighted lemma draws (exponent 1.05) over
    ``vocab_size`` lemmas.

    Each lemma carries a base POS tag (with a 5% noise rate, so POS-majority
    filtering stays meaningful) and up to three surface variants.  Documents
    receive random sizes summing to ``n_tokens``; a ``dated_fraction`` of
    them get a year drawn from 700..1300, or a short year range starting at
    such a year.
    """
    if max(n_tokens, vocab_size, n_docs) > _MAX_SIZE:
        raise CorpusError(f"synthetic corpus sizes above {_MAX_SIZE} exceed numpy's array size limit")
    if n_tokens < 0 or vocab_size < 1 or n_docs < 1:
        raise CorpusError("synthetic corpus needs n_tokens >= 0, vocab_size >= 1, n_docs >= 1")
    if n_tokens and n_docs > n_tokens:
        raise CorpusError("more documents than tokens")
    if seed < 0:
        raise CorpusError("seed must be >= 0")
    if not 0.0 <= dated_fraction <= 1.0:  # also rejects nan
        raise CorpusError(f"dated_fraction must be in [0, 1], got {dated_fraction}")
    rng = np.random.default_rng(seed)

    weights = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64) ** _ZIPF
    weights /= weights.sum()
    lemma_ids = rng.choice(vocab_size, size=n_tokens, p=weights).astype(np.uint32)

    variant = rng.integers(0, len(_FORM_SUFFIXES), size=n_tokens).astype(np.uint32)
    form_ids = lemma_ids * len(_FORM_SUFFIXES) + variant

    base_pos = (lemma_ids % len(_POS_CYCLE)).astype(np.uint16)
    noise = rng.random(n_tokens) < 0.05
    base_pos[noise] = rng.integers(0, len(_POS_CYCLE), size=int(noise.sum())).astype(np.uint16)

    lemmas = Vocabulary(f"lem{i:05d}" for i in range(vocab_size))
    forms = Vocabulary(
        f"lem{i:05d}{suffix}" for i in range(vocab_size) for suffix in _FORM_SUFFIXES
    )
    pos_tags = Vocabulary(_POS_CYCLE)

    if n_docs > 1 and n_tokens:
        extra = rng.multinomial(n_tokens - n_docs, np.full(n_docs, 1.0 / n_docs))
        doc_lens = extra + 1
    else:
        doc_lens = np.array([n_tokens] * n_docs if n_tokens else [0] * n_docs)

    dated = rng.random(n_docs) < dated_fraction
    years = rng.integers(_YEAR_LO, _YEAR_HI + 1, size=n_docs)
    spans = rng.integers(0, 40, size=n_docs)
    ranged = rng.random(n_docs) < 0.2
    typologies = rng.integers(0, 3, size=n_docs)

    kinds = np.select([~dated, ranged & (spans > 0)], [DateKind.UNDATED, DateKind.RANGE], DateKind.EXACT)
    lo = np.where(dated, years, 0)
    hi = np.where(kinds == DateKind.RANGE, np.minimum(years + spans, _YEAR_HI + 40), lo)
    ids = (f"d{i:06d}" for i in range(n_docs))
    starts = np.concatenate(([0], np.cumsum(doc_lens)))
    tags = np.array(["charter", "letter", None], dtype=object)[typologies]
    return CorpusIndex(
        lemmas, forms, pos_tags, lemma_ids, form_ids, base_pos, ids, starts, kinds, lo, hi, *_typology_column(tags)
    )
