"""
Training the dual encoder with in-batch negatives
=================================================

Both towers are linear maps over hashed bag-of-words features.  Each
batch scores every question against every positive plus the mined hard
negatives, so one matrix product supplies all the negatives for free.
"""

import tempfile
from pathlib import Path

from deskdpr.bm25 import build_index
from deskdpr.corpus import Document, build_store, render_encoder_input
from deskdpr.dataset import DatasetSplit, align_questions, attach_negatives
from deskdpr.encoder import encode_passages, encode_question, init_model
from deskdpr.questions import parse_bioasq
from deskdpr.synthetic import generate, write_questions_json
from deskdpr.training import TrainConfig, train

data = generate(n_passages=400, n_questions=64, seed=7)
store = build_store([Document(**row) for row in data.documents],
                    chunk_size=data.chunk_size)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "questions.json"
    write_questions_json(data, path)
    questions = parse_bioasq(path)
bm25 = build_index(store)
instances, dropped = align_questions(questions, store, bm25)
instances, _ = attach_negatives(instances, store, bm25, n_hard=1)
split = DatasetSplit(name="train", instances=tuple(instances))

model = init_model(d=64, hash_dim=4096, seed=7)
cfg = TrainConfig(batch_size=16, epochs=4, learning_rate=1e-2,
                  d=64, hash_dim=4096, seed=7)
model, metrics = train(model, split, None, cfg)
for row in metrics:
    print(f"epoch {row['epoch']}  mean loss {row['mean_train_loss']:.4f}")

# after training, a question scores its own passage above a stranger's
inst = instances[0]
q_emb = encode_question(model, inst.question.text)
own_emb, other_emb = encode_passages(
    model, [render_encoder_input(inst.positive), render_encoder_input(instances[1].positive)])
own, other = float(q_emb @ own_emb), float(q_emb @ other_emb)
print(f"own passage {own:.4f}  vs  other passage {other:.4f}")
