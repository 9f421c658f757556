"""diachrona: corpus semantics for lemmatized diachronic corpora.

Builds immutable token-columnar indexes from vertical (tagger-style) text
and answers the questions historical semantics keeps asking of them:
lemma frequency diachrony, windowed cooccurrence ranked by the Dice
coefficient, equal-token chronological tranching with trend detection,
and correspondence-analysis maps of a pivot's semantic field.
"""

from .corpus import (
    CorpusError,
    CorpusIndex,
    DateKind,
    DateSpec,
    Document,
    Vocabulary,
    dated_within,
    has_typology,
    is_dated,
    subcorpus,
)
from .cooc import (
    CoocTable,
    Cooccurrent,
    PairBin,
    adjacency_count,
    cooc_counts,
    dice,
    pair_evolution,
    top_cooccurrents,
)
from .diachrony import (
    TrancheSet,
    TrendEntry,
    TrendReport,
    evolving_cooccurrents,
    make_tranches,
    ols_slope,
)
from .frequency import (
    CountTable,
    Ratio,
    TimeBin,
    TimeSeries,
    count_table,
    form_share,
    lemma_count,
    lemma_rank,
    moving_average,
    ratio,
    time_series,
)
from .indexio import (
    BadMagicError,
    IdRangeError,
    IndexFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_index,
    save_index,
)
from .ingest import (
    DEFAULT_DROP_POS,
    Lexicon,
    VerticalParseError,
    VerticalRecord,
    index_from_documents,
    lemmatize,
    parse_vertical,
    tokenize_plain,
)
from .jacobi import jacobi_svd
from .semfield import (
    CAResult,
    DSMSubmatrix,
    MapPoint,
    SemanticMap,
    build_submatrix,
    correspondence_analysis,
    semantic_map,
)
from .svgplot import PlotSpec, emit_svg
from .synth import synthetic_index

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CorpusError",
    "CorpusIndex",
    "DateKind",
    "DateSpec",
    "Document",
    "Vocabulary",
    "subcorpus",
    "dated_within",
    "has_typology",
    "is_dated",
    "BadMagicError",
    "IdRangeError",
    "IndexFormatError",
    "TruncatedFileError",
    "UnsupportedVersionError",
    "save_index",
    "load_index",
    "DEFAULT_DROP_POS",
    "Lexicon",
    "VerticalParseError",
    "VerticalRecord",
    "parse_vertical",
    "tokenize_plain",
    "lemmatize",
    "index_from_documents",
    "CountTable",
    "Ratio",
    "TimeBin",
    "TimeSeries",
    "lemma_count",
    "count_table",
    "ratio",
    "lemma_rank",
    "form_share",
    "time_series",
    "moving_average",
    "CoocTable",
    "Cooccurrent",
    "PairBin",
    "cooc_counts",
    "dice",
    "top_cooccurrents",
    "adjacency_count",
    "pair_evolution",
    "TrancheSet",
    "TrendEntry",
    "TrendReport",
    "make_tranches",
    "evolving_cooccurrents",
    "ols_slope",
    "jacobi_svd",
    "CAResult",
    "DSMSubmatrix",
    "MapPoint",
    "SemanticMap",
    "build_submatrix",
    "correspondence_analysis",
    "semantic_map",
    "PlotSpec",
    "emit_svg",
    "synthetic_index",
]
