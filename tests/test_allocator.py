"""Importing deskdpr fixes glibc's mmap threshold at 1 MiB.

glibc raises the threshold each time it frees a mapped block, so without
the fix a block of a few MiB allocated after a larger one was freed comes
from the brk heap, where a long-lived neighbour can keep it resident after
it is freed.
"""

import ctypes

import numpy as np
import pytest

import deskdpr  # noqa: F401  (sets the threshold on import)


class _Mallinfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


def _mapped_bytes() -> int:
    """Bytes glibc's malloc holds in mmapped blocks."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc 2.33 or later")
    mallinfo2.restype = _Mallinfo2
    return mallinfo2().hblkhd


def test_blocks_of_a_mib_and_up_stay_mapped_after_a_larger_block_is_freed():
    np.ones(16 << 20, dtype=np.uint8)  # allocated mapped, freed at once
    before = _mapped_bytes()
    block = np.ones(2 << 20, dtype=np.uint8)
    assert _mapped_bytes() - before >= block.nbytes
    del block
    assert _mapped_bytes() == before
