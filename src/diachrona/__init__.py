"""diachrona: corpus semantics for lemmatized diachronic corpora.

Builds immutable token-columnar indexes from vertical (tagger-style) text
and answers the questions historical semantics keeps asking of them:
lemma frequency diachrony, windowed cooccurrence ranked by the Dice
coefficient, equal-token chronological tranching with trend detection,
and correspondence-analysis maps of a pivot's semantic field.
"""

from . import cooc, corpus, diachrony, frequency, indexio, ingest, jacobi, semfield, svgplot, synth
from .cooc import *
from .corpus import *
from .diachrony import *
from .frequency import *
from .indexio import *
from .ingest import *
from .jacobi import *
from .semfield import *
from .svgplot import *
from .synth import *

__version__ = "0.1.0"

# each module's __all__ is its one list of public names
_MODULES = (corpus, indexio, ingest, frequency, cooc, diachrony, jacobi, semfield, svgplot, synth)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
