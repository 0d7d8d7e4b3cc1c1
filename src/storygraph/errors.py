"""Exception types shared across the package.

Built-in ``FileNotFoundError`` and ``OSError`` are used as-is for missing
files and I/O failures; everything domain-specific derives from
:class:`StoryGraphError` so callers can catch one base class.
"""


class StoryGraphError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus ---------------------------------------------------------------

class MalformedHeaderError(StoryGraphError):
    """A required column is missing from a dataset file header."""


class EmptyDatasetError(StoryGraphError):
    """A dataset file produced zero valid rows."""


class InvalidStoryPointError(StoryGraphError):
    """Story point outside the valid range (must be >= 1)."""


class TaggerFailureError(StoryGraphError):
    """A part-of-speech tagger returned a wrong-length tag sequence."""


class DatasetTooSmallError(StoryGraphError):
    """Too few documents to split into train/validation/test."""


# --- embeddings -----------------------------------------------------------

class DimensionMismatchError(StoryGraphError):
    """Vector dimensionality disagrees with what was requested or stored."""


class EmptyTrainingSetError(StoryGraphError):
    """Vocabulary construction got an empty training split."""


# --- graph ----------------------------------------------------------------

class EmptyDocumentError(StoryGraphError):
    """Graph construction got a document with no tokens."""


# --- gnn ------------------------------------------------------------------

class IndexOutOfRangeError(StoryGraphError):
    """A graph references a node id or edge parameter that does not exist."""


class NonFiniteActivationError(StoryGraphError):
    """NaN or Inf appeared in activations or parameters."""


class InvalidLabelError(StoryGraphError):
    """A class label is outside the model's class range."""


class TraceMismatchError(StoryGraphError):
    """A forward trace was paired with a different graph in backward."""


# --- model persistence ----------------------------------------------------

class VersionMismatchError(StoryGraphError):
    """A model file was written by an incompatible format version."""


class CorruptFileError(StoryGraphError):
    """A model file is truncated or structurally invalid."""


# --- baseline -------------------------------------------------------------

class EmptyCorpusError(StoryGraphError):
    """TFIDF fitting got an empty corpus."""


class DegenerateDataError(StoryGraphError):
    """Forest fitting needs at least two samples."""
