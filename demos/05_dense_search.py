"""
Exact inner-product search over a flat vector index
===================================================

The index is a single float32 matrix.  Search scores every row with a
float32 matrix product, then rescores exactly the few rows a rounding
bound cannot rule out; the slow full-sort path exists purely as a
cross-check, and the two agree hit for hit.
"""

import tempfile
from pathlib import Path

import numpy as np

from deskdpr.flat_index import FlatIndex, load_index, save_index, search, search_naive

rng = np.random.default_rng(3)
m, d = 5000, 32
vectors = rng.standard_normal((m, d)).astype(np.float32)
vectors[2500] = vectors[0]  # an exact duplicate forces a score tie
index = FlatIndex(d=d, ids=[f"p{i}" for i in range(m)], vectors=vectors)

query = rng.standard_normal(d)
hits = search(index, query, k=5)
for hit in hits:
    print(f"rank {hit.rank}  {hit.passage_id}  {hit.score:.5f}")

# ties break toward the passage inserted first
naive = search_naive(index, query, k=5)
assert [(h.passage_id, h.score) for h in hits] == \
       [(h.passage_id, h.score) for h in naive]
print("fast search matches the naive ranking")

# the on-disk format round-trips bit for bit and is checksummed
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.index"
    save_index(index, path)
    reloaded = load_index(path)
    again = search(reloaded, query, k=5)
    assert [(h.passage_id, h.score) for h in again] == \
           [(h.passage_id, h.score) for h in hits]
    print(f"reloaded {len(reloaded)} vectors, search unchanged")
