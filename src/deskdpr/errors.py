"""Exception types shared across the retrieval pipeline, and the one rule for malformed input."""

import json


class DeskdprError(Exception):
    """Base class for all library errors."""


class EmptyDocument(DeskdprError):
    """Document body is empty after cleaning."""


class ParseError(DeskdprError):
    """A persisted artifact or input file is malformed."""


class CorruptIndex(ParseError):
    """A binary artifact failed its length, magic, checksum or count checks."""


class DuplicateId(DeskdprError):
    """Two passages share the same passage_id."""


class EmptyCorpus(DeskdprError):
    """An index build was attempted over zero passages."""


class DimensionError(DeskdprError):
    """Vector dimensions do not match."""




class UnsupportedVersion(DeskdprError):
    """A persisted artifact has an unknown format version."""


class EmptyEvaluation(DeskdprError):
    """Evaluation was requested over an empty question set."""


class StaleInput(DeskdprError):
    """Recorded input checksums no longer match the files on disk."""


_LABELS = ((UnicodeDecodeError, "not valid UTF-8: "), (json.JSONDecodeError, "invalid JSON: "),
           (KeyError, "missing field "))


class reading:
    """``with reading(path) as r:`` around a reader's whole parse: the one malformed-input rule.

    The reader sets ``r.at`` to where it is: a line number, a ``(kind,
    name)`` pair such as ``("record", 3)``, or None for the whole file.
    A ValueError (bad JSON, invalid UTF-8), LookupError (a missing field),
    TypeError or AttributeError (a value of the wrong type) or
    ArithmeticError (``int(Infinity)``) leaving the block is raised again
    as ``ParseError("<path>: <at>: <detail>")``, formatted only then, so a
    line loop pays one assignment per line.  Invalid UTF-8 names no line:
    the text layer decodes ahead of the parse.  A DeskdprError (a reader's
    own ParseError, UnsupportedVersion, DuplicateId) passes through.
    """

    def __init__(self, path):
        self.path, self.at = path, None

    def __enter__(self) -> "reading":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, (ValueError, LookupError, TypeError, AttributeError, ArithmeticError)):
            at = None if isinstance(exc, UnicodeDecodeError) else self.at
            where = "" if at is None else f"line {at}: " if isinstance(at, int) else f"{at[0]} {at[1]}: "
            label = next((label for kind, label in _LABELS if isinstance(exc, kind)), "")
            raise ParseError(f"{self.path}: {where}{label}{exc}") from exc


_KINDS = {str: "a string", int: "an integer", list: "an array", dict: "an object"}


def expect(value, kind: type, what: str):
    """`value`, or an error naming `what`: a TypeError if it is not a `kind`
    (str, int, list or dict; a bool is no int), a ValueError if it is a str
    that UTF-8 cannot encode (a lone surrogate, which JSON's \\u escapes allow)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{what} must be {_KINDS[kind]}, got {type(value).__name__}")
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{what} holds a lone surrogate at position {exc.start}") from None
    return value
