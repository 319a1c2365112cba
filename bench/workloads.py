"""The benchmark's workloads: seeded inputs, one timed round, its checks.

Every input comes from ``deskdpr.synthetic.generate`` with the run's
seed.  A round is the unit of timed work; a run repeats whole rounds.
Program functions are looked up on their module at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

K = 10
# A model trained for 8 epochs finds at least the training split's share
# of the questions (80%) in its top 10; far less means training broke.
MIN_HIT_AT_10 = 0.7


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)


class Ledger:
    """Every operation attempted in a run, with its time and its problems."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def run(self, kind: str, fn: Callable, *args, ok: Callable = lambda result: True):
        op = Op(kind)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            result = None
            op.problems.append(f"raised {exc!r}")
        op.seconds = time.perf_counter() - start
        if not op.problems and not ok(result):
            op.problems.append(f"returned {result!r}")
        return op, result

    def seconds(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def _program(name: str):
    return importlib.import_module(f"deskdpr.{name}")



def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- CLI workloads ------------------------------------------------------------


class CliWorkload:
    """The README's CLI loop, run in-process through ``deskdpr.cli.main``."""

    n_passages: int
    n_questions: int
    stages: tuple[str, ...]

    def setup(self, seed: int, workdir: Path) -> dict:
        synthetic = _program("synthetic")
        data = synthetic.generate(n_passages=self.n_passages, n_questions=self.n_questions, seed=seed)
        workdir.mkdir(parents=True, exist_ok=True)
        synthetic.write_corpus_jsonl(data, workdir / "corpus.jsonl")
        synthetic.write_questions_json(data, workdir / "questions.json")
        return {"data": data, "seed": seed, "workdir": workdir}

    def _argv(self, ctx: dict, r: Path) -> dict[str, list[str]]:
        corpus, questions = str(ctx["workdir"] / "corpus.jsonl"), str(ctx["workdir"] / "questions.json")
        store, bm25, dataset = str(r / "passages.jsonl"), str(r / "bm25.jsonl"), r / "dataset"
        model, dense = str(r / "model.bin"), str(r / "dense.bin")
        seed = ["--seed", str(ctx["seed"])]
        return {
            "ingest": ["ingest", "--corpus", corpus, "--out", store, "--chunk-size", "100", *seed],
            "index-bm25": ["index-bm25", "--corpus", store, "--out", bm25, *seed],
            "build-dataset": ["build-dataset", "--questions", questions, "--store", store,
                              "--index", bm25, "--out-dir", str(dataset), *seed],
            "train": ["train", "--train", str(dataset / "train.json"), "--dev", str(dataset / "dev.json"),
                      "--out", model, "--metrics", str(r / "metrics.jsonl"),
                      "--epochs", "8", "--optimizer", "adam", *seed],
            "index-dense": ["index-dense", "--model", model, "--store", store, "--out", dense, *seed],
            "evaluate": ["evaluate", "--model", model, "--index", dense, "--store", store,
                         "--questions", questions, "--out", str(r / "report.json"),
                         "--k", "1,5,10", "--mode", "gold_passage_id", *seed],
        }

    def round(self, ctx: dict, ledger: Ledger, round_dir: Path) -> dict:
        round_dir.mkdir(parents=True)
        cli = _program("cli")
        argv = self._argv(ctx, round_dir)
        ops = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in self.stages:
                ops[stage], _ = ledger.run(stage, lambda a: cli.main(a), argv[stage], ok=lambda rc: rc == 0)
        return {"ops": ops, "dir": round_dir}

    # artifact file -> stage that writes it
    ARTIFACTS = {
        "passages.jsonl": "ingest",
        "bm25.jsonl": "index-bm25",
        "dataset/train.json": "build-dataset",
        "dataset/dev.json": "build-dataset",
        "dataset/test.json": "build-dataset",
        "model.bin": "train",
        "dense.bin": "index-dense",
        "report.json": "evaluate",
    }

    def check(self, ctx: dict, out: dict, digests: "DigestBook") -> dict[str, float]:
        """Checks one round's outputs; returns the round's quality figures."""
        ops, r, data = out["ops"], out["dir"], ctx["data"]
        questions = data.questions["questions"]
        figures: dict[str, float] = {}
        if not ops["build-dataset"].problems:
            splits = {
                name: json.loads((r / "dataset" / f"{name}.json").read_text(encoding="utf-8"))
                for name in ("train", "dev", "test")
            }
            ops["build-dataset"].problems += checks.dataset_problems(splits, questions, data.expected_positive)
        if "evaluate" in ops and not ops["evaluate"].problems:
            report = json.loads((r / "report.json").read_text(encoding="utf-8"))
            ops["evaluate"].problems += checks.report_problems(report, len(questions), MIN_HIT_AT_10)
            figures["hit_at_10"] = report["per_k"]["10"]["hit_rate"]
        current = {
            name: checks.sha256_bytes((r / name).read_bytes())
            for name, stage in self.ARTIFACTS.items()
            if stage in ops and not ops[stage].problems
        }
        for name, problem in digests.compare(current).items():
            ops[self.ARTIFACTS[name]].problems.append(problem)
        return figures


class Pipeline(CliWorkload):
    n_passages, n_questions = 2000, 200
    stages = ("ingest", "index-bm25", "build-dataset", "train", "index-dense", "evaluate")


class DataPrep(CliWorkload):
    n_passages, n_questions = 20000, 500
    stages = ("ingest", "index-bm25", "build-dataset")


# -- library serving ----------------------------------------------------------


class Serve:
    """Index builds, then one client asking every question of both indexes."""

    n_passages, n_questions = 50000, 200

    def setup(self, seed: int, workdir: Path) -> dict:
        synthetic, corpus, encoder = _program("synthetic"), _program("corpus"), _program("encoder")
        data = synthetic.generate(n_passages=self.n_passages, n_questions=self.n_questions, seed=seed)
        store = corpus.build_store(
            (corpus.clean_document(d["body"], d["title"], d["doc_id"]) for d in data.documents),
            chunk_size=data.chunk_size,
        )
        # Untrained: search cost does not depend on the weights.
        model = encoder.init_model(seed=seed)
        return {"data": data, "store": store, "model": model}

    def round(self, ctx: dict, ledger: Ledger, round_dir: Path) -> dict:
        bm25, encoder, flat_index = _program("bm25"), _program("encoder"), _program("flat_index")
        store, model = ctx["store"], ctx["model"]

        def dense_query(text: str):
            vector = encoder.encode_question(model, text)
            return vector, flat_index.search(dense, vector, K)

        _, lexical = ledger.run("bm25_index", bm25.build_index, store)
        dense_op, dense = ledger.run("dense_index", flat_index.build_index, model, store)
        asked = []
        for q in ctx["data"].questions["questions"]:
            d_op, d_out = ledger.run("dense_query", dense_query, q["body"])
            b_op, b_out = ledger.run("bm25_query", bm25.bm25_top_k, lexical, q["body"], K)
            asked.append((q, d_op, d_out, b_op, b_out))
        # Both indexes go back to the caller, so freeing them is not timed.
        return {"dense": dense, "dense_op": dense_op, "lexical": lexical, "asked": asked}

    def check(self, ctx: dict, out: dict, digests: "DigestBook") -> dict[str, float]:
        store, data, dense = ctx["store"], ctx["data"], out["dense"]
        reference = checks.DenseReference(dense.vectors, dense.ids) if dense is not None else None
        if "okapi" not in ctx:
            vocabulary = {t for q in data.questions["questions"] for t in checks.tokens(q["body"])}
            ctx["okapi"] = checks.OkapiReference([p.text for p in store], vocabulary)
            ctx["ordinal"] = {p.passage_id: i for i, p in enumerate(store)}
        current: dict[str, str] = {}
        owners: dict[str, Op] = {}
        if dense is not None:
            current["dense.vectors"] = checks.sha256_bytes(
                dense.vectors.tobytes(), "\n".join(dense.ids).encode("utf-8")
            )
            owners["dense.vectors"] = out["dense_op"]
        for q, d_op, d_out, b_op, b_out in out["asked"]:
            qid = q["id"]
            if not d_op.problems:
                vector, result = d_out
                hits = [(h.passage_id, h.score) for h in result]
                d_op.problems += reference.problems(vector, hits, K)
                current[f"dense/{qid}"] = checks.sha256_bytes(repr([(p, s.hex()) for p, s in hits]).encode())
                owners[f"dense/{qid}"] = d_op
            if not b_op.problems:
                hits = [(h.passage_id, h.score) for h in b_out]
                b_op.problems += checks.bm25_problems(
                    ctx["okapi"], ctx["ordinal"], q["body"], hits, data.expected_positive[qid], K
                )
                current[f"bm25/{qid}"] = checks.sha256_bytes(repr([(p, s.hex()) for p, s in hits]).encode())
                owners[f"bm25/{qid}"] = b_op
        for name, problem in digests.compare(current).items():
            owners[name].problems.append(problem)
        return {}


WORKLOADS = {"pipeline": Pipeline, "dataprep": DataPrep, "serve": Serve}

# Stage and query figures of the traced run: metric -> ledger op kinds.
# A stage a workload does not run reads 0.
STAGE_METRICS: dict[str, tuple[str, ...]] = {
    "stage.index_bm25_s": ("index-bm25", "bm25_index"),
    "stage.build_dataset_s": ("build-dataset",),
    "stage.train_s": ("train",),
    "stage.index_dense_s": ("index-dense", "dense_index"),
    "stage.evaluate_s": ("evaluate",),
}
QUERY_METRICS = {"serve.dense_query": "dense_query", "serve.bm25_query": "bm25_query"}


def stage_metrics(ledger: Ledger, figures: list[dict]) -> dict[str, tuple[float, str]]:
    """Median time of each stage and query percentiles over the run's rounds,
    and the median hit@10 of ``evaluate``."""
    out: dict[str, tuple[float, str]] = {}
    for metric, kinds in STAGE_METRICS.items():
        times = [s for kind in kinds for s in ledger.seconds(kind)]
        out[metric] = (statistics.median(times) if times else 0.0, "s")
    for prefix, kind in QUERY_METRICS.items():
        times = [s * 1e3 for s in ledger.seconds(kind)]
        out[f"{prefix}_p50_ms"] = (statistics.median(times) if times else 0.0, "ms")
        out[f"{prefix}_p90_ms"] = (_p90(times) if len(times) >= 2 else 0.0, "ms")
    hits = [f["hit_at_10"] for f in figures if "hit_at_10" in f]
    out["evaluation.hit_at_10"] = (statistics.median(hits) if hits else 0.0, "share")
    return out


class DigestBook:
    """sha256 of each output, kept across the runs of one program, workload and seed.

    The first digest seen for a name is kept; every later one, in this run
    or a later run, must equal it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        self.new = False

    def compare(self, current: dict[str, str]) -> dict[str, str]:
        problems = checks.digest_problems(self.known, current)
        for name, digest in current.items():
            if name not in self.known:
                self.known[name] = digest
                self.new = True
        return problems

    def save(self) -> None:
        if not self.new:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
