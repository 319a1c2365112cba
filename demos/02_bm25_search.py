"""
Lexical search with an Okapi BM25 inverted index
================================================
"""

import math

from deskdpr.bm25 import K1, B, bm25_score, bm25_top_k, build_index, tokenize
from deskdpr.corpus import Document, build_store

documents = [
    Document(doc_id="d0", title="Latent infection",
             body="dormancy survival regulator controls latent infection"),
    Document(doc_id="d1", title="Oxygen sensing",
             body="hypoxia triggers the dormancy program in mycobacteria"),
    Document(doc_id="d2", title="Treatment",
             body="rifampicin shortens treatment of active tuberculosis"),
]
store = build_store(documents, chunk_size=100)
index = build_index(store)

print(f"k1 = {K1}, b = {B}")

print("tokenized query:", tokenize("Which regulator controls dormancy?"))
for hit in bm25_top_k(index, "Which regulator controls dormancy?", k=3):
    print(f"  rank {hit.rank}  {hit.passage_id}  {hit.score:.4f}")

# the top-k path and per-passage scoring are the same arithmetic
tokens = tokenize("dormancy regulator")
for ordinal in range(index.n_passages):
    print(f"score[{index.passage_ids[ordinal]}] =",
          bm25_score(index, tokens, ordinal))

# with two equal-length passages and a term that appears once in one of
# them, the whole formula collapses to the idf, which is exactly ln 2
tiny = build_index(build_store([
    Document(doc_id="a", title="t", body="apple banana"),
    Document(doc_id="b", title="t", body="cherry durian"),
], chunk_size=100))
print("single-term score:", bm25_score(tiny, ["apple"], 0))
print("ln 2            :", math.log(2.0))
