"""Exception types shared across the package, an error's message led by
the name of what it concerns, and the config option check.

Built-in ``FileNotFoundError`` and ``OSError`` are used as-is for missing
files and I/O failures; everything domain-specific derives from
:class:`StoryGraphError` so callers can catch one base class.
"""

import math
import os
import sys
from dataclasses import MISSING, field, fields
from pathlib import Path


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


def named_error(err: Exception, name: str | Path) -> Exception:
    """An error of err's type whose message starts with the name, or err
    itself when its type is not built from one message; numpy's failed
    allocation, built from a shape and a dtype, becomes a MemoryError."""
    if isinstance(err, UnicodeDecodeError):
        # built from its fields: the name goes in front of the reason
        return UnicodeDecodeError(
            err.encoding, err.object, err.start, err.end, f"{name}: {err.reason}"
        )
    try:
        return type(err)(f"{name}: {err}")
    except TypeError:
        return MemoryError(f"{name}: {err}") if isinstance(err, MemoryError) else err


def at_file_offset(err: UnicodeDecodeError, path: str | Path) -> UnicodeDecodeError:
    """err, raised while reading the UTF-8 file at `path` as text, placed at
    the file offset of the file's first byte that is not UTF-8, a leading
    byte-order mark counted; a text reader places it in the chunk it was
    decoding. The file is searched in binary one line at a time, which a
    newline, never part of a multibyte character, divides exactly. The
    error's object is the file's bytes to the end of that line, so that its
    position indexes the byte it names. err itself if no such byte is found."""
    offset = 0
    with open(path, "rb") as handle:
        for line in handle:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as found:
                handle.seek(0)
                return UnicodeDecodeError(found.encoding, handle.read(offset) + line,
                                          offset + found.start, offset + found.end,
                                          found.reason)
            offset += len(line)
    return err


# --- config options -------------------------------------------------------

def option(default=MISSING, kind=None, *, key=None, choices=None, low=None, high=None,
           many=False, file_name=False):
    """A config field with its legal values beside its default: of type `kind`
    (`many`: a tuple of them, none twice), one of the tuple `choices`, in
    [low, high) (None: open), and with `file_name` a name that joins a
    directory as one file: not empty, "." or "..", and without a path
    separator. `key` is the option's name where it is not the field's."""
    return field(default=default, metadata=dict(
        key=key, type=kind, choices=choices, range=(low, high), many=many,
        file_name=file_name))


def options(*classes) -> dict:
    """Option key -> its declared field, over the classes' fields in order."""
    return {f.metadata["key"] or f.name: f for cls in classes for f in fields(cls) if f.metadata}


def check_option(key: str, f, value):
    """`value` as field `f` holds it (a Path from a string, a float from an
    int, a tuple from a list), or a StoryGraphError("<key>: ...") if the
    declaration does not allow it."""
    meta = f.metadata
    kind, choices, (low, high) = meta["type"], meta["choices"], meta["range"]
    if choices is not None:
        if value not in choices:
            raise StoryGraphError(f"{key}: {value!r} is not one of {', '.join(choices)}")
        return value
    if value is None and f.default is None:
        return value
    if meta["many"]:
        if not (isinstance(value, (list, tuple)) and all(type(v) is kind for v in value)):
            raise StoryGraphError(
                f"{key}: {value!r} is neither a string nor a list of {kind.__name__}")
        if twice := sorted({v for v in value if value.count(v) > 1}):
            raise StoryGraphError(f"{key}: {', '.join(map(str, twice))} named more than once")
        value = tuple(value)
    elif kind is Path and isinstance(value, (str, os.PathLike)):
        value = Path(value)
    elif kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    elif not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise StoryGraphError(f"{key}: {value!r} is not a {kind.__name__}")  # a bool is no number
    for item in value if meta["many"] else (value,):
        if meta["file_name"] and (item in ("", ".", "..") or os.path.basename(item) != item):
            raise StoryGraphError(f"{key}: {item!r} is not a file name")
        if low is not None and not low <= item < (math.inf if high is None else high):
            legal = f"in [{low}, {high})" if high is not None else f">= {low}"
            raise StoryGraphError(f"{key}: {item!r} is not {legal}")
    return value


def check_options(config) -> None:
    """A config's __post_init__: check each declared field, storing it as held."""
    for key, f in options(type(config)).items():
        setattr(config, f.name, check_option(key, f, getattr(config, f.name)))
