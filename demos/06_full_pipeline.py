"""
The whole pipeline through the command-line interface
=====================================================

Every stage writes one artifact plus a manifest recording the command,
the resolved seed, and the sha256 of each input, so a downstream stage
refuses to run when an upstream file changed behind its back.
"""

import json
import tempfile
from pathlib import Path

from deskdpr.cli import main
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json

root = Path(tempfile.mkdtemp(prefix="dprdemo"))
data = generate(n_passages=300, n_questions=40, seed=0, chunk_size=20)
write_corpus_jsonl(data, root / "corpus.jsonl")
write_questions_json(data, root / "questions.json")

steps = [
    ["ingest", "--corpus", str(root / "corpus.jsonl"),
     "--out", str(root / "passages.bin"), "--chunk-size", "20"],
    ["index-bm25", "--corpus", str(root / "passages.bin"),
     "--out", str(root / "bm25.bin")],
    ["build-dataset", "--questions", str(root / "questions.json"),
     "--store", str(root / "passages.bin"), "--index", str(root / "bm25.bin"),
     "--out-dir", str(root / "dataset")],
    ["train", "--train", str(root / "dataset" / "train.json"),
     "--dev", str(root / "dataset" / "dev.json"),
     "--out", str(root / "model.bin"), "--metrics", str(root / "metrics.jsonl"),
     "--batch-size", "8", "--epochs", "3", "--d", "64", "--hash-dim", "4096"],
    ["index-dense", "--model", str(root / "model.bin"),
     "--store", str(root / "passages.bin"), "--out", str(root / "dense.bin")],
    ["evaluate", "--model", str(root / "model.bin"),
     "--index", str(root / "dense.bin"), "--store", str(root / "passages.bin"),
     "--questions", str(root / "questions.json"),
     "--out", str(root / "report.json")],
]
for argv in steps:
    print("$ dpr", " ".join(argv))
    rc = main(argv + ["--seed", "0"])
    assert rc == 0, f"{argv[0]} exited {rc}"

report = json.loads((root / "report.json").read_text(encoding="utf-8"))
print("questions evaluated:", report["n_questions"])
for k, row in report["per_k"].items():
    print(f"  hit@{k} = {row['hit_rate']:.4f}   f1 = {row['f1']:.4f}")

# the manifest is why stale inputs are caught: edit corpus.jsonl after
# ingest and the very next stage exits with status 3 instead of running
manifest = json.loads((root / "passages.bin.manifest.json").read_text(encoding="utf-8"))
print("ingest recorded inputs:", list(manifest["input_checksums"]))
