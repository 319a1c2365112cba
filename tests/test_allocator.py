"""Importing deskdpr fixes glibc's mmap threshold at 1 MiB.

glibc raises the threshold each time it frees a mapped block, so without
the fix a block of a few MiB allocated after a larger one was freed comes
from the brk heap, where a long-lived neighbour can keep it resident after
it is freed.

The check runs in a fresh interpreter: a free brk-heap chunk of 2 MiB or
more, left by earlier tests in the same process, would serve the block
without mapping it.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHECK = """
import ctypes

import numpy as np

import deskdpr  # noqa: F401  (sets the threshold on import)


class _Mallinfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = []
mallinfo2.restype = _Mallinfo2


def _mapped_bytes() -> int:
    \"\"\"Bytes glibc's malloc holds in mmapped blocks.\"\"\"
    return mallinfo2().hblkhd


np.ones(16 << 20, dtype=np.uint8)  # allocated mapped, freed at once
before = _mapped_bytes()
block = np.ones(2 << 20, dtype=np.uint8)
assert _mapped_bytes() - before >= block.nbytes, (_mapped_bytes(), before)
del block
assert _mapped_bytes() == before, (_mapped_bytes(), before)
"""


def test_blocks_of_a_mib_and_up_stay_mapped_after_a_larger_block_is_freed():
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc 2.33 or later")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHECK], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
