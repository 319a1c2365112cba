"""deskdpr: a small dense-passage-retrieval pipeline on numpy/scipy.

Corpus chunking, BM25 retrieval and hard-negative mining, a hashed
bag-of-words dual encoder trained with in-batch negatives, an exact
dot-product index, and retrieval evaluation.
"""

import contextlib
import ctypes

# glibc raises its mmap threshold (to 32 MiB) as mapped blocks are freed, moving index arrays into
# the brk heap, which shrinks only from its top; fixed at 1 MiB, such blocks are unmapped on free.
with contextlib.suppress(AttributeError, OSError, TypeError):  # not glibc
    ctypes.CDLL(None).mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD

__version__ = "0.1.0"

from .corpus import (
    Document,
    IngestStats,
    Passage,
    PassageStore,
    chunk_document,
    ingest_corpus,
    load_store,
    render_encoder_input,
    save_store,
)
from .errors import DeskdprError
from .questions import Question, parse_bioasq
from .results import RetrievalResult, SearchHit

__all__ = [
    "__version__",
    "DeskdprError",
    "Document",
    "IngestStats",
    "Passage",
    "PassageStore",
    "Question",
    "RetrievalResult",
    "SearchHit",
    "chunk_document",
    "ingest_corpus",
    "load_store",
    "parse_bioasq",
    "render_encoder_input",
    "save_store",
]
