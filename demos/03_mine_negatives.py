"""
Aligning questions to gold passages and mining hard negatives
=============================================================

A hard negative is a passage that scores high lexically but does not
contain the answer.  Training against them is what teaches the encoder
to look past shared vocabulary.
"""

from deskdpr.bm25 import build_index
from deskdpr.corpus import Document, build_store
from deskdpr.dataset import align_questions, attach_negatives
from deskdpr.questions import Question

store = build_store([
    Document(doc_id="d0", title="Regulon",
             body="the dosr regulon coordinates the response to hypoxia"),
    Document(doc_id="d1", title="Decoy",
             body="the dosr locus was renamed twice in the older literature"),
    Document(doc_id="d2", title="Unrelated",
             body="treatment outcomes improved after the sequencing study"),
], chunk_size=100)
index = build_index(store)

question = Question(
    question_id="q0",
    text="which regulon coordinates the hypoxia response",
    qtype="factoid",
    answers=("dosr regulon",),
    gold_snippets=("the dosr regulon coordinates the response",),
)

# alignment locates the gold passage by snippet, then answer substring;
# the index narrows which passages it tests
instances, dropped = align_questions([question], store, index)
print("aligned:", len(instances), "dropped:", dropped)
print("positive:", instances[0].positive.passage_id)

# mining walks the lexical ranking and keeps answer-free passages
instances, short = attach_negatives(instances, store, index, n_hard=1)
inst = instances[0]
print("hard negative:", inst.hard_negatives[0].passage_id,
      "->", inst.hard_negatives[0].text)
assert "dosr regulon" not in inst.hard_negatives[0].text
