"""Shared corpus builders and oracles for the test suite."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from diachrona import cooc
from diachrona.corpus import CorpusIndex, DateSpec, _typology_column, subcorpus, with_ids
from diachrona.indexio import MAGIC, load_index, save_index
from diachrona.ingest import index_from_documents

POS_TAGS = ("NOM", "ADJ", "VER")

# tier-1 draws the same examples on every run, so a failure it finds is
# steady; `--hypothesis-profile=fuzz` draws fresh examples instead
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


# the sections of a version 2 file, in file order, as the indexio module documents them
V2_SECTIONS = [
    (f"{table} {part}", dtype)
    for table in ("lemmas", "forms", "pos_tags", "doc_ids", "typologies")
    for part, dtype in (("text", "u1"), ("offsets", "<u8"))
] + [
    ("lemma_ids", "<u4"), ("form_ids", "<u4"), ("pos_ids", "<u2"), ("doc_starts", "<i8"),
    ("doc_kind", "<u1"), ("doc_lo", "<i4"), ("doc_hi", "<i4"), ("doc_typology", "<i4"),
]
V2_NAMES = [name for name, _ in V2_SECTIONS]
V2_HEADER = 8 + 20 * len(V2_SECTIONS)


def v2_entry(raw: bytes, name: str) -> tuple[int, int, int]:
    """(offset, byte length, CRC32) of a section of a version 2 file."""
    return struct.unpack_from("<QQI", raw, 8 + 20 * V2_NAMES.index(name))


def v2_set_entry(raw: bytes, name: str, offset=None, size=None, crc=None) -> bytes:
    """``raw`` with some fields of one section's table entry replaced."""
    old = v2_entry(raw, name)
    new = [old[i] if value is None else value for i, value in enumerate((offset, size, crc))]
    at = 8 + 20 * V2_NAMES.index(name)
    return raw[:at] + struct.pack("<QQI", *new) + raw[at + 20 :]


def v2_set_section(raw: bytes, name: str, content: bytes) -> bytes:
    """``raw`` with one section's bytes replaced by as many others, and its
    CRC32 updated to match, so that only the content checks can fail."""
    offset, size, _ = v2_entry(raw, name)
    assert len(content) == size
    raw = raw[:offset] + content + raw[offset + size :]
    return v2_set_entry(raw, name, crc=zlib.crc32(content))


def save_v1(index: CorpusIndex, path) -> None:
    """Write ``index`` in format version 1, which load_index reads and no
    longer writes: strings length-prefixed UTF-8, then the token columns,
    then one record per document (see the indexio module docstring)."""

    def string(s: str) -> bytes:
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    parts = [MAGIC, struct.pack("<I", 1)]
    for vocab in (index.lemmas, index.forms, index.pos_tags):
        parts += [struct.pack("<I", len(vocab)), *map(string, vocab)]
    parts.append(struct.pack("<Q", index.total_tokens))
    parts += [index.lemma_ids.astype("<u4").tobytes(), index.form_ids.astype("<u4").tobytes()]
    parts += [index.pos_ids.astype("<u2").tobytes(), struct.pack("<I", len(index))]
    for doc in index.documents:
        parts += [string(doc.doc_id), struct.pack("<Bii", doc.date.kind, doc.date.lo or 0, doc.date.hi or 0)]
        parts += [string(doc.typology or ""), struct.pack("<QI", doc.token_start, doc.token_len)]
    Path(path).write_bytes(b"".join(parts))


def build_index(docs) -> CorpusIndex:
    """Index from (doc_id, date, typology, [(form, pos, lemma), ...]) tuples."""
    return index_from_documents(docs)


def lemma_doc(doc_id, date, lemmas, pos="NOM", typology=None):
    """Document whose forms equal its lemmas; convenient for counting tests."""
    return (doc_id, date, typology, [(lem, pos, lem) for lem in lemmas])


def random_index(
    rng: np.random.Generator,
    min_tokens: int = 30,
    max_tokens: int = 1000,
    max_vocab: int = 30,
    dated_fraction: float = 0.8,
    max_doc_len: int = 80,
) -> CorpusIndex:
    """Small random corpus: uniform lemma draws, per-token random POS,
    mixed exact/range/undated documents.

    Intentionally built through the ingestion path (string records), so it
    exercises interning as well; structurally independent from
    diachrona.synth.
    """
    n_tokens = int(rng.integers(min_tokens, max_tokens + 1))
    vocab = int(rng.integers(2, max_vocab + 1))
    lemma_of = [f"l{i:02d}" for i in range(vocab)]
    docs = []
    produced = 0
    doc_no = 0
    while produced < n_tokens:
        length = int(rng.integers(1, max_doc_len + 1))
        length = min(length, n_tokens - produced)
        tokens = []
        for _ in range(length):
            lem = lemma_of[int(rng.integers(0, vocab))]
            variant = int(rng.integers(0, 2))
            form = lem if variant == 0 else lem + "a"
            pos = POS_TAGS[int(rng.integers(0, len(POS_TAGS)))]
            tokens.append((form, pos, lem))
        if rng.random() < dated_fraction:
            year = int(rng.integers(600, 1400))
            if rng.random() < 0.25:
                date = DateSpec.year_range(year, year + int(rng.integers(1, 40)))
            else:
                date = DateSpec.exact(year)
        else:
            date = DateSpec.undated()
        typology = ("charter", "letter", None)[int(rng.integers(0, 3))]
        docs.append((f"r{doc_no:04d}", date, typology, tokens))
        produced += length
        doc_no += 1
    return build_index(docs)


def permuted_documents(index: CorpusIndex, order) -> CorpusIndex:
    """``index`` with its documents stored in ``order`` (a permutation of
    their positions): each keeps its token slice, id, date and typology, and
    the lemma, form and POS vocabularies stay as they are, so no token id
    moves."""
    order = np.asarray(order, dtype=np.int64)
    starts = index.doc_starts
    tokens = np.concatenate([np.arange(starts[d], starts[d + 1]) for d in order])
    tags = [doc.typology for doc in index.documents]
    return CorpusIndex(
        index.lemmas, index.forms, index.pos_tags,
        index.lemma_ids[tokens], index.form_ids[tokens], index.pos_ids[tokens],
        [index.doc_ids[d] for d in order], np.concatenate(([0], np.cumsum(np.diff(starts)[order]))),
        index.doc_kind[order], index.doc_lo[order], index.doc_hi[order],
        *_typology_column(tags[d] for d in order),
    )


class LemmaColumn(np.ndarray):
    """A lemma column that records the lemma of each scan of it, in
    ``scans`` (views and copies of it record nothing)."""

    def __eq__(self, other):
        if getattr(self, "scans", None) is not None and np.ndim(other) == 0:
            self.scans.append(int(other))
        return np.asarray(self) == other


def record_scans(index: CorpusIndex) -> list[int]:
    """Give ``index`` a :class:`LemmaColumn` and return the list in which it
    records the lemma id of each scan."""
    column = index.lemma_ids.view(LemmaColumn)
    column.scans = []
    index.lemma_ids = column
    return column.scans


def id_docset(index: CorpusIndex, ids) -> np.ndarray | None:
    """The docset of the documents an oracle names by id; None (every
    document) stays None."""
    return None if ids is None else subcorpus(index, with_ids(*ids))


def doc_lemma_lists(index: CorpusIndex) -> list[list[str]]:
    """Per-document lemma strings; the substrate for brute-force oracles."""
    out = []
    for doc in index.documents:
        span = index.lemma_ids[doc.token_start : doc.token_start + doc.token_len]
        out.append([index.lemmas[int(i)] for i in span])
    return out


@st.composite
def corpus_records(draw, vocab_sizes=st.integers(1, 5), tagged=False, typologies=st.none()):
    """(doc_id, date, typology, records) tuples of a small corpus with a tiny
    vocabulary (so same-lemma pairs are common) and empty, undated, exact and
    ranged documents.  Tokens are tagged NOM, or with random tags from
    ``POS_TAGS`` when ``tagged``; each document's typology is drawn from
    ``typologies``."""
    vocab = draw(vocab_sizes)
    docs = []
    for i in range(draw(st.integers(1, 7))):
        lemmas = draw(st.lists(st.integers(0, vocab - 1), min_size=int(i == 0), max_size=20))
        tags = [draw(st.sampled_from(POS_TAGS)) if tagged else "NOM" for _ in lemmas]
        lo = draw(st.none() | st.integers(800, 1100))
        if lo is None:
            date = DateSpec.undated()
        else:
            date = DateSpec.year_range(lo, lo + draw(st.integers(0, 60)))
        tokens = [(f"l{v}", tag, f"l{v}") for v, tag in zip(lemmas, tags)]
        docs.append((f"d{i}", date, draw(typologies), tokens))
    return docs


def corpora(vocab_sizes=st.integers(1, 5), tagged=False):
    """Indexes of :func:`corpus_records` corpora."""
    return corpus_records(vocab_sizes, tagged).map(build_index)


@pytest.fixture(scope="class", params=[1, 2, 7], ids=lambda slab: f"slab{slab}")
def kernel_slab(request):
    """Runs a test class with the window kernel walking slabs of a few
    occurrences, so that every slab edge is crossed.  Class-scoped, so
    hypothesis tests may use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cooc, "_SLAB", request.param)
        yield request.param


@pytest.fixture(scope="class", params=["v2", "v1"])
def loaded_indexes(request, tmp_path_factory):
    """Runs a test class with every index that :func:`build_index` makes
    (so also :func:`random_index` and :func:`corpora`) saved to a file in
    format version 2 or 1 and loaded back: a version 2 index holds views of
    the file image and splits its forms on first use.  Class-scoped, so
    hypothesis tests may use it; fails the class if no index of it was
    loaded."""
    save = {"v2": save_index, "v1": save_v1}[request.param]
    path = tmp_path_factory.mktemp("loaded") / "index.csem"
    loads = []
    build = index_from_documents

    def saved_and_loaded(docs):
        save(build(docs), path)
        loads.append(path)
        return load_index(path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "index_from_documents", saved_and_loaded)
        yield request.param
    assert loads, "the class built no index through build_index"


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion
# ---------------------------------------------------------------------------


def pytest_configure(config):
    config.addinivalue_line("markers", "criterion(n, title): acceptance criterion metadata")
    config._criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, title = marker.args
    item.config._criterion_results[number] = (title, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        title, passed = results[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d} {status}  {title}")
