"""The one binary container of the program's artifacts: the passage store,
the BM25 index, the dense index and the model.

A file is a 4-byte magic, a u32 version, a fixed ``struct`` header, then
its parts, then a u32 CRC-32 of every byte before it; all little-endian.
A part is a string table (each string a u32 byte length and its UTF-8)
or a numpy array, sized by counts in the header.
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptIndex, UnsupportedVersion, reading

_U32 = struct.Struct("<I")
# the most bytes a Reader reads at once to compute the CRC
CRC_CHUNK = 1 << 16


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


def strings(values: Iterable[str]) -> bytearray:
    """A string table, grown in one bytearray: its scratch is about its own
    size, not a bytes object a string."""
    table = bytearray()
    for value in values:
        encoded = value.encode("utf-8")
        table += _U32.pack(len(encoded))
        table += encoded
    return table


def write(path: str | Path, fmt: Format, header: Sequence, parts: Iterable) -> None:
    """Write the prefix, each bytes-like part and the CRC, computed as they stream:
    the payload is never joined into one copy, and a part is taken from
    ``parts`` only once the one before it is written and let go.  A header
    value its struct code cannot hold is a ValueError, raised before the file
    is opened; it names no path, since ``path`` may be a temp file the caller
    renames."""
    try:
        prefix = fmt.prefix.pack(fmt.magic, fmt.version, *header)
    except struct.error as exc:
        raise ValueError(f"{fmt.kind} header {tuple(header)} does not fit: {exc}") from None
    crc = 0
    with open(path, "wb") as f:
        for part in itertools.chain((prefix,), parts):
            f.write(part)
            crc = zlib.crc32(part, crc)
            del part  # freed before the next part is made
        f.write(_U32.pack(crc))


class Reader(reading):
    """``with Reader(path, fmt) as r:`` around a whole load.

    Construction opens the file and checks the length, the magic, the
    version and the CRC, in that order, and sets ``r.header``; the CRC is
    computed over chunks of at most ``CRC_CHUNK`` bytes, so the file is
    never held whole.  ``strings`` and ``array`` then read the parts in
    file order, checking each count against the bytes left before they
    allocate or loop.  The parts are read in a second pass, so a file
    whose size or modification time changed between the checks and the
    end of the block is refused, as is one that shrank while a part was
    read.  As ``reading``, the block turns a ValueError or TypeError into
    a ParseError naming the file; left without one, it refuses bytes no
    part took.  The file is closed on every path.
    """

    def __init__(self, path: str | Path, fmt: Format):
        super().__init__(path)
        self.kind = fmt.kind
        self._file = open(path, "rb")
        try:
            self._check(fmt)
        except BaseException:
            self._file.close()
            raise

    def _check(self, fmt: Format) -> None:
        self._stat = os.fstat(self._file.fileno())
        path, size = self.path, self._stat.st_size
        if size < fmt.prefix.size + _U32.size:
            raise CorruptIndex(f"{path}: too short to be a {fmt.kind} file")
        prefix = self._into(bytearray(fmt.prefix.size))
        magic, version, *self.header = fmt.prefix.unpack(prefix)
        if magic != fmt.magic:
            raise CorruptIndex(f"{path}: bad magic {magic!r}, expected {fmt.magic!r}")
        if version != fmt.version:
            raise UnsupportedVersion(f"{path}: {fmt.kind} version {version}, this build reads {fmt.version}")
        self._end = size - _U32.size
        self._left = self._end - fmt.prefix.size
        crc, chunk = zlib.crc32(prefix), memoryview(bytearray(min(CRC_CHUNK, size)))
        for lo in range(0, self._left, len(chunk)):
            crc = zlib.crc32(self._into(chunk[: self._left - lo]), crc)
        if crc != _U32.unpack(self._into(bytearray(_U32.size)))[0]:
            raise CorruptIndex(f"{path}: checksum mismatch, file is damaged")
        self._file.seek(fmt.prefix.size)

    def _into(self, buffer):
        """`buffer`, filled with the file's next bytes."""
        if self._file.readinto(buffer) != memoryview(buffer).nbytes:
            raise self._shrank()
        return buffer

    def _shrank(self) -> CorruptIndex:
        return CorruptIndex(f"{self.path}: the file shrank while it was read")

    def _take(self, n_bytes: int, what: str) -> None:
        """Count the next `n_bytes` as read, once the bytes left are known to hold them."""
        if n_bytes > self._left:
            raise CorruptIndex(f"{self.path}: truncated {what}: {n_bytes} bytes needed, {self._left} left")
        self._left -= n_bytes

    def need(self, n_bytes: int, what: str) -> None:
        """Refuse unless the bytes left hold the next `n_bytes`: a caller
        sizing its own arrays from the header checks here first."""
        self._take(n_bytes, what)
        self._left += n_bytes

    def strings(self, count: int, what: str) -> list[str]:
        """The next string table, of `count` strings."""
        self.need(_U32.size * count, what)  # each string has a length: the loop is bounded
        read, values = self._file.read, []
        for _ in range(count):
            self._take(_U32.size, what)
            n_bytes = int.from_bytes(read(_U32.size), "little")
            self._take(n_bytes, what)
            values.append(read(n_bytes).decode("utf-8"))
        if self._file.tell() != self._end - self._left:  # a short read
            raise self._shrank()
        return values

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next `count` values of `dtype`, read into a new writeable array."""
        dtype = np.dtype(dtype)
        self._take(count * dtype.itemsize, what)
        return self._into(np.empty(count, dtype))

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            super().__exit__(exc_type, exc, tb)
            if exc is None and _identity(os.fstat(self._file.fileno())) != _identity(self._stat):
                raise CorruptIndex(f"{self.path}: the file changed while it was read")
            if exc is None and self._left:
                raise CorruptIndex(f"{self.path}: {self._left} bytes after the end of the {self.kind}")
        finally:
            self._file.close()


def _identity(stat: os.stat_result) -> tuple[int, int]:
    """What an in-place rewrite of a file changes: its size and modification time."""
    return stat.st_size, stat.st_mtime_ns
