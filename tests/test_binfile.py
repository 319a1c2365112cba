import gc
import os
import struct
import zlib

import numpy as np
import pytest

from deskdpr import binfile
from deskdpr.errors import CorruptIndex, ParseError, UnsupportedVersion

THING = binfile.Format("thing", b"THNG", 3, "Qd")


def write_thing(path, names=("a", "é"), values=(1.5, -2.0)):
    parts = (binfile.strings(names), np.asarray(values, dtype="<f8"))
    binfile.write(path, THING, (len(names), 0.25), parts)


def read_thing(path):
    with binfile.Reader(path, THING) as r:
        n, scale = r.header
        return r.strings(n, "names"), r.array("<f8", n, "values"), scale


def test_layout(tmp_path):
    path = tmp_path / "thing.bin"
    write_thing(path)
    payload = b"".join([
        struct.pack("<4sIQd", b"THNG", 3, 2, 0.25),
        struct.pack("<I", 1) + b"a",
        struct.pack("<I", 2) + "é".encode("utf-8"),
        struct.pack("<2d", 1.5, -2.0),
    ])
    assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))


def test_round_trip(tmp_path):
    path = tmp_path / "thing.bin"
    write_thing(path)
    names, values, scale = read_thing(path)
    assert names == ["a", "é"] and values.tolist() == [1.5, -2.0] and scale == 0.25
    assert values.flags.owndata and values.flags.writeable  # read into an array of its own


def test_generator_parts_are_written_in_order(tmp_path):
    path = tmp_path / "thing.bin"
    binfile.write(path, THING, (2, 0.25), (part for part in (binfile.strings(["a", "é"]), np.array([1.5, -2.0]))))
    other = tmp_path / "other.bin"
    write_thing(other)
    assert path.read_bytes() == other.read_bytes()


def test_a_part_is_pulled_only_after_the_one_before_is_written(tmp_path):
    # pulling the second part overwrites the first: the file keeps the
    # first part's bytes only if they were written before that pull
    first = bytearray(binfile.strings(["a", "é"]))

    def parts():
        yield first
        first[:] = bytes(len(first))
        yield np.array([1.5, -2.0])

    path = tmp_path / "thing.bin"
    binfile.write(path, THING, (2, 0.25), parts())
    other = tmp_path / "other.bin"
    write_thing(other)
    assert path.read_bytes() == other.read_bytes()


def edited(path, start, data, crc=True):
    raw = bytearray(path.read_bytes())
    raw[start : start + len(data)] = data
    if crc:
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
    path.write_bytes(bytes(raw))


def test_checks_length_magic_version_then_crc(tmp_path):
    path = tmp_path / "thing.bin"
    write_thing(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:27])  # one byte short of prefix and CRC
    with pytest.raises(CorruptIndex, match="too short to be a thing file"):
        read_thing(path)
    path.write_bytes(raw)
    edited(path, 0, b"XXXX\x09", crc=False)  # magic, version and CRC all wrong
    with pytest.raises(CorruptIndex, match="bad magic"):
        read_thing(path)
    path.write_bytes(raw)
    edited(path, 4, b"\x09", crc=False)  # version and CRC wrong
    with pytest.raises(UnsupportedVersion, match="thing version 9, this build reads 3"):
        read_thing(path)
    path.write_bytes(raw)
    edited(path, 8, b"\x03", crc=False)
    with pytest.raises(CorruptIndex, match="checksum mismatch"):
        read_thing(path)


@pytest.mark.parametrize("count", [3, 2**40])
def test_damaged_count_is_a_checksum_mismatch(tmp_path, count):
    # the CRC covers the whole file and is checked before any part is read
    path = tmp_path / "thing.bin"
    write_thing(path)
    edited(path, 8, struct.pack("<Q", count), crc=False)
    with pytest.raises(CorruptIndex, match="checksum mismatch"):
        read_thing(path)


def cut(path):
    path.write_bytes(path.read_bytes()[:27])


CLOSING_CASES = {
    "good load": (None, lambda path: None),
    "too short": (CorruptIndex, cut),
    "bad magic": (CorruptIndex, lambda path: edited(path, 0, b"XXXX", crc=False)),
    "wrong version": (UnsupportedVersion, lambda path: edited(path, 4, b"\x09", crc=False)),
    "checksum": (CorruptIndex, lambda path: edited(path, 8, b"\x03", crc=False)),
    "not UTF-8": (ParseError, lambda path: edited(path, 28, b"\xff")),
    "truncated part": (ParseError, lambda path: edited(path, 8, struct.pack("<Q", 3))),
    "trailing bytes": (ParseError, lambda path: edited(path, 8, struct.pack("<Q", 1))),
}


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("case", sorted(CLOSING_CASES))
def test_file_closed_on_every_path(tmp_path, case):
    # an unclosed file warns when it is collected; here that warning fails the test
    error, damage = CLOSING_CASES[case]
    path = tmp_path / "thing.bin"
    write_thing(path)
    damage(path)
    if error is None:
        read_thing(path)
    else:
        with pytest.raises(error):
            read_thing(path)
    gc.collect()


@pytest.mark.parametrize("part", ["names", "values"])
def test_file_shrinking_during_a_load_is_refused(tmp_path, part):
    # the file is cut where `part` starts; 2000 values are more than the
    # file object buffers ahead, so their read reaches the cut
    path = tmp_path / "thing.bin"
    write_thing(path, names=["a"] * 2000, values=[1.0] * 2000)
    with pytest.raises(CorruptIndex, match="the file shrank while it was read"):
        with binfile.Reader(path, THING) as r:
            n, _ = r.header
            if part == "names":
                os.truncate(path, 24)
                r.strings(n, "names")
            else:
                r.strings(n, "names")
                os.truncate(path, 24 + 5 * n)
                r.array("<f8", n, "values")


def test_file_rewritten_in_place_during_a_load_is_refused(tmp_path):
    # same length, new bytes after the CRC pass; the mtime is moved on
    # explicitly, since a filesystem may stamp more coarsely than this takes
    path = tmp_path / "thing.bin"
    write_thing(path)
    with pytest.raises(CorruptIndex, match="the file changed while it was read"):
        with binfile.Reader(path, THING) as r:
            n, _ = r.header
            with open(path, "r+b") as f:
                f.seek(-20, os.SEEK_END)
                f.write(struct.pack("<2d", 9.5, 9.5))
            mtime = os.stat(path).st_mtime_ns
            os.utime(path, ns=(mtime, mtime + 10**9))
            r.strings(n, "names")
            r.array("<f8", n, "values")


def test_errors_are_parse_errors_naming_the_file(tmp_path):
    path = tmp_path / "thing.bin"
    path.write_bytes(b"THNG")
    with pytest.raises(ParseError, match=f"^{path}: too short"):
        read_thing(path)


@pytest.mark.parametrize("count, what", [(2**40, "names"), (3, "values")])
def test_count_beyond_the_bytes_left_is_refused(tmp_path, count, what):
    # 2**40 names cannot fit, so the table is refused before its loop;
    # 3 names take the first value's bytes as a length, so the values are short
    path = tmp_path / "thing.bin"
    write_thing(path)
    edited(path, 8, struct.pack("<Q", count))
    with pytest.raises(CorruptIndex, match=f"truncated {what}: "):
        read_thing(path)


def test_trailing_bytes_refused(tmp_path):
    path = tmp_path / "thing.bin"
    binfile.write(path, THING, (1, 0.25), (binfile.strings(["a"]), np.zeros(2, dtype="<f8")))
    with pytest.raises(CorruptIndex, match="8 bytes after the end of the thing"):
        read_thing(path)


def test_string_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "thing.bin"
    write_thing(path)
    edited(path, 28, b"\xff")  # the first name's byte
    with pytest.raises(ParseError, match="not valid UTF-8"):
        read_thing(path)


@pytest.mark.parametrize("count", [-1, 2**64])
def test_header_value_out_of_range_is_a_value_error_before_writing(tmp_path, count):
    path = tmp_path / "thing.bin"
    with pytest.raises(ValueError, match=f"^thing header \\({count}, 0.25\\) does not fit"):
        binfile.write(path, THING, (count, 0.25), (binfile.strings(["a"]),))
    assert not path.exists()
