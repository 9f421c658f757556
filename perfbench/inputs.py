"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the warm corpus
parameters, the pivots (at fixed frequency ranks), the date slices, and the
vertical file of the CLI workload.  The program only ever sees the
generated corpora and query arguments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Warm in-memory corpus shared by the `collocates` and `diachronic` workloads.
WARM_TOKENS = 10_000_000
WARM_VOCAB = 30_000
WARM_DOCS = 50_000

# Frequency ranks (0 = most frequent lemma of the generated corpus).
COLLOCATE_RANKS = {"common": 0, "mid": 100, "rare": 5000}
DIACHRONIC_RANKS = {"mid": 100, "common": 3}
PAIR_PARTNER_RANK = 1
SLICE_YEARS = 18  # ~3% of the 700..1300 date range

# Vertical file of the `cli-lifecycle` workload.
VRT_TOKENS = 1_000_000  # retained (non-punctuation) tokens
VRT_VOCAB = 8_000
VRT_DOCS = 2_000
VRT_PUNCT_SHARE = 0.08
VRT_YEARS = (700, 1300)
POS_TAGS = ("NOM", "ADJ", "VER")
PUNCT = ((".", "SENT"), (",", "PUN"), (";", "PUN"))
TYPOLOGIES = ("charter", "letter", "chronicle", None)
FORM_SUFFIXES = ("", "us", "um")


@dataclass(frozen=True)
class CorpusArrays:
    """Columnar view of a corpus used by the reference counters and checks.

    ``lemma``, ``pos`` and ``form`` are token-aligned ids into the name
    lists; document d covers tokens ``starts[d]:ends[d]``; ``kinds`` is 0
    (undated), 1 (exact year) or 2 (year range) and ``mids`` holds floor
    date midpoints, valid where ``dated`` is set.
    """

    lemma: np.ndarray
    pos: np.ndarray
    form: np.ndarray
    lemma_names: list[str]
    pos_names: list[str]
    form_names: list[str]
    doc_ids: list[str]
    starts: np.ndarray
    ends: np.ndarray
    kinds: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    typologies: list[str | None]

    @property
    def n_lemmas(self) -> int:
        return len(self.lemma_names)

    @property
    def dated(self) -> np.ndarray:
        return self.kinds > 0

    @property
    def mids(self) -> np.ndarray:
        return np.where(self.dated, (self.lo + self.hi) // 2, 0)

    def lemma_ranks(self) -> list[str]:
        """Lemmas by descending frequency (ties broken by lemma id)."""
        freqs = np.bincount(self.lemma, minlength=self.n_lemmas)
        return [self.lemma_names[i] for i in np.argsort(-freqs, kind="stable").tolist()]

    def slice_docs(self, lo: int, hi: int) -> np.ndarray:
        """Boolean document selection: dated with midpoint in [lo, hi]."""
        return self.dated & (self.mids >= lo) & (self.mids <= hi)


def arrays_of_index(index) -> CorpusArrays:
    """Read a ``CorpusIndex`` into arrays.

    This is the benchmark's only use of the index's attributes; everything
    else goes through the package's public functions.
    """
    docs = index.documents
    count = len(docs)
    starts = np.fromiter((d.token_start for d in docs), dtype=np.int64, count=count)
    lens = np.fromiter((d.token_len for d in docs), dtype=np.int64, count=count)
    return CorpusArrays(
        lemma=np.asarray(index.lemma_ids, dtype=np.int64),
        pos=np.asarray(index.pos_ids, dtype=np.int64),
        form=np.asarray(index.form_ids, dtype=np.int64),
        lemma_names=list(index.lemmas),
        pos_names=list(index.pos_tags),
        form_names=list(index.forms),
        doc_ids=[d.doc_id for d in docs],
        starts=starts,
        ends=starts + lens,
        kinds=np.fromiter((int(d.date.kind) for d in docs), dtype=np.int64, count=count),
        lo=np.fromiter((d.date.lo or 0 for d in docs), dtype=np.int64, count=count),
        hi=np.fromiter((d.date.hi or 0 for d in docs), dtype=np.int64, count=count),
        typologies=[d.typology for d in docs],
    )


def index_digest(index) -> str:
    """Digest of an index's token columns, vocabularies and document table,
    taken without copying the token arrays."""
    h = hashlib.sha256()
    for arr in (index.lemma_ids, index.form_ids, index.pos_ids):
        h.update(np.ascontiguousarray(arr).view(np.uint8))
    for vocab in (index.lemmas, index.forms, index.pos_tags):
        h.update("\x00".join(vocab).encode("utf-8"))
    for d in index.documents:
        h.update(repr((d.doc_id, int(d.date.kind), d.date.lo, d.date.hi, d.typology,
                       d.token_start, d.token_len)).encode("utf-8"))
    return h.hexdigest()


def slice_window(seed: int) -> tuple[int, int]:
    """Seeded ~3% date slice of the warm corpus."""
    rng = np.random.default_rng([seed, 11])
    lo = int(rng.integers(760, 1220))
    return lo, lo + SLICE_YEARS - 1


@dataclass(frozen=True)
class Vertical:
    """A generated vertical file plus the corpus indexing must produce."""

    text: str
    token_lines: int  # token lines written, punctuation included
    corpus: CorpusArrays  # punctuation dropped


def vertical_corpus(
    seed: int,
    n_tokens: int = VRT_TOKENS,
    vocab: int = VRT_VOCAB,
    n_docs: int = VRT_DOCS,
) -> Vertical:
    """Seeded vertical text with exact, ranged and undated ``#doc`` headers,
    optional typologies, and punctuation lines that indexing must drop."""
    rng = np.random.default_rng([seed, 23])
    weights = 1.0 / np.arange(1, vocab + 1, dtype=np.float64) ** 1.05
    weights /= weights.sum()
    lemma = rng.choice(vocab, size=n_tokens, p=weights)
    variant = rng.integers(0, len(FORM_SUFFIXES), size=n_tokens)
    pos = lemma % len(POS_TAGS)
    noise = rng.random(n_tokens) < 0.05
    pos[noise] = rng.integers(0, len(POS_TAGS), size=int(noise.sum()))

    lens = rng.multinomial(n_tokens - n_docs, np.full(n_docs, 1.0 / n_docs)) + 1
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    kind_draw = rng.random(n_docs)
    kinds = np.where(kind_draw < 0.7, 1, np.where(kind_draw < 0.85, 2, 0))
    years = rng.integers(VRT_YEARS[0], VRT_YEARS[1] + 1, size=n_docs)
    spans = rng.integers(1, 40, size=n_docs)
    lo = np.where(kinds > 0, years, 0)
    hi = np.where(kinds == 2, years + spans, lo)
    typ = rng.integers(0, len(TYPOLOGIES), size=n_docs)

    # one punctuation line follows a retained token with this probability
    punct_after = rng.random(n_tokens) < VRT_PUNCT_SHARE
    punct_kind = rng.integers(0, len(PUNCT), size=n_tokens)

    names = [f"w{i:05d}" for i in range(vocab)]
    n_codes = len(FORM_SUFFIXES) * len(POS_TAGS)
    table = np.array(
        [
            f"{names[lem]}{FORM_SUFFIXES[v]}\t{POS_TAGS[p]}\t{names[lem]}\n"
            for lem in range(vocab)
            for v in range(len(FORM_SUFFIXES))
            for p in range(len(POS_TAGS))
        ],
        dtype=object,
    )
    punct_lines = np.array([f"{form}\t{tag}\t{form}\n" for form, tag in PUNCT], dtype=object)
    doc_ids = [f"doc{i:05d}" for i in range(n_docs)]
    headers = []
    for d in range(n_docs):
        fields = [f"id={doc_ids[d]}"]
        if kinds[d] == 1:
            fields.append(f"date={lo[d]}")
        elif kinds[d] == 2:
            fields.append(f"date={lo[d]}-{hi[d]}")
        if TYPOLOGIES[typ[d]] is not None:
            fields.append(f"typology={TYPOLOGIES[typ[d]]}")
        headers.append("#doc " + " ".join(fields) + "\n")

    # output line slots: each header precedes its document's first token, and
    # a punctuation line directly follows the token that drew it
    n_punct = int(punct_after.sum())
    punct_before = np.cumsum(punct_after) - punct_after
    doc_of = np.repeat(np.arange(n_docs), lens)
    token_slot = np.arange(n_tokens) + punct_before + doc_of + 1
    out = np.empty(n_tokens + n_punct + n_docs, dtype=object)
    out[token_slot] = table[lemma * n_codes + variant * len(POS_TAGS) + pos]
    out[token_slot[punct_after] + 1] = punct_lines[punct_kind[punct_after]]
    out[starts + punct_before[starts] + np.arange(n_docs)] = headers

    corpus = CorpusArrays(
        lemma=lemma,
        pos=pos,
        form=lemma * len(FORM_SUFFIXES) + variant,
        lemma_names=names,
        pos_names=list(POS_TAGS),
        form_names=[f"{name}{suffix}" for name in names for suffix in FORM_SUFFIXES],
        doc_ids=doc_ids,
        starts=starts,
        ends=starts + lens,
        kinds=kinds,
        lo=lo,
        hi=hi,
        typologies=[TYPOLOGIES[t] for t in typ.tolist()],
    )
    return Vertical("".join(out.tolist()), n_tokens + n_punct, corpus)
