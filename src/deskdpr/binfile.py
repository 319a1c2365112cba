"""The one binary container of the program's artifacts: the passage store,
the BM25 index, the dense index and the model.

A file is a 4-byte magic, a u32 version, a fixed ``struct`` header, then
its parts, then a u32 CRC-32 of every byte before it; all little-endian.
A part is a string table (each string a u32 byte length and its UTF-8)
or a numpy array, sized by counts in the header.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptIndex, UnsupportedVersion, reading

_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Format:
    """A file kind: its name in messages, magic, version and the struct codes of its header."""

    kind: str
    magic: bytes
    version: int
    header: str

    @property
    def prefix(self) -> struct.Struct:
        return struct.Struct("<4sI" + self.header)


def strings(values: Iterable[str]) -> bytes:
    """A string table."""
    return b"".join(_U32.pack(len(encoded)) + encoded for encoded in (v.encode("utf-8") for v in values))


def write(path: str | Path, fmt: Format, header: Sequence, parts: Iterable) -> None:
    """Write the prefix, each bytes-like part and the CRC, computed as they stream:
    the payload is never joined into one copy, and a part is taken from
    ``parts`` only once the one before it is written.  A header value its struct
    code cannot hold is a ValueError, raised before the file is opened; it
    names no path, since ``path`` may be a temp file the caller renames."""
    try:
        prefix = fmt.prefix.pack(fmt.magic, fmt.version, *header)
    except struct.error as exc:
        raise ValueError(f"{fmt.kind} header {tuple(header)} does not fit: {exc}") from None
    crc = 0
    with open(path, "wb") as f:
        for part in itertools.chain((prefix,), parts):
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(_U32.pack(crc))


class Reader(reading):
    """``with Reader(path, fmt) as r:`` around a whole load.

    Construction checks the length, the magic, the version and the CRC,
    in that order, and sets ``r.header``; ``strings`` and ``array`` then
    take the parts in file order, checking each count against the bytes
    left before they allocate or loop.  As ``reading``, the block turns
    a ValueError or TypeError into a ParseError naming the file; left
    without one, it refuses bytes no part took.
    """

    def __init__(self, path: str | Path, fmt: Format):
        super().__init__(path)
        self.kind = fmt.kind
        self._raw = raw = Path(path).read_bytes()
        if len(raw) < fmt.prefix.size + _U32.size:
            raise CorruptIndex(f"{path}: too short to be a {fmt.kind} file")
        magic, version, *self.header = fmt.prefix.unpack_from(raw)
        if magic != fmt.magic:
            raise CorruptIndex(f"{path}: bad magic {magic!r}, expected {fmt.magic!r}")
        if version != fmt.version:
            raise UnsupportedVersion(f"{path}: {fmt.kind} version {version}, this build reads {fmt.version}")
        self._pos, self._end = fmt.prefix.size, len(raw) - _U32.size
        if zlib.crc32(memoryview(raw)[: self._end]) != _U32.unpack_from(raw, self._end)[0]:
            raise CorruptIndex(f"{path}: checksum mismatch, file is damaged")

    def _take(self, n_bytes: int, what: str) -> int:
        """Where the next `n_bytes` start, once the bytes left are known to hold them."""
        if n_bytes > self._end - self._pos:
            raise CorruptIndex(f"{self.path}: truncated {what}: {n_bytes} bytes needed, {self._end - self._pos} left")
        self._pos += n_bytes
        return self._pos - n_bytes

    def strings(self, count: int, what: str) -> list[str]:
        """The next string table, of `count` strings."""
        self._pos = self._take(_U32.size * count, what)  # each string has a length: the loop is bounded
        values = []
        for _ in range(count):
            (n_bytes,) = _U32.unpack_from(self._raw, self._take(_U32.size, what))
            start = self._take(n_bytes, what)
            values.append(self._raw[start : start + n_bytes].decode("utf-8"))
        return values

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next `count` values of `dtype`: a read-only view of the file's bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._raw, dtype, count, offset=self._take(count * dtype.itemsize, what))

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        if exc is None and self._pos != self._end:
            raise CorruptIndex(f"{self.path}: {self._end - self._pos} bytes after the end of the {self.kind}")
