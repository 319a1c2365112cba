import argparse
import contextlib
import io
import json
import logging
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import deskdpr.manifest
from deskdpr import cli
from deskdpr.bm25 import build_index as build_bm25_index
from deskdpr.bm25 import save_bm25_index
from deskdpr.cli import build_parser, main
from deskdpr.corpus import load_store
from deskdpr.dataset import align_questions
from deskdpr.encoder import init_model, save_model
from deskdpr.flat_index import load_index
from deskdpr.manifest import manifest_path, read_manifest
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json
from helpers import snapshot_dir, store_of


def write_fixture(root, n_passages=120, n_questions=16, chunk_size=20, seed=0):
    data = generate(
        n_passages=n_passages, n_questions=n_questions, seed=seed, chunk_size=chunk_size
    )
    corpus = root / "corpus.jsonl"
    questions = root / "questions.json"
    write_corpus_jsonl(data, corpus)
    write_questions_json(data, questions)
    return corpus, questions


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus, questions = write_fixture(root)
    paths = {
        "root": root,
        "corpus": corpus,
        "questions": questions,
        "store": root / "passages.jsonl",
        "bm25": root / "bm25.jsonl",
        "dataset": root / "dataset",
        "model": root / "model.bin",
        "metrics": root / "metrics.jsonl",
        "dense": root / "dense.bin",
        "report": root / "report.json",
    }
    steps = [
        ["ingest", "--corpus", str(corpus), "--out", str(paths["store"]), "--chunk-size", "20"],
        ["index-bm25", "--corpus", str(paths["store"]), "--out", str(paths["bm25"])],
        [
            "build-dataset",
            "--questions", str(questions),
            "--store", str(paths["store"]),
            "--index", str(paths["bm25"]),
            "--out-dir", str(paths["dataset"]),
            "--split", "0.80,0.1,0.1",
        ],
        [
            "train",
            "--train", str(paths["dataset"] / "train.json"),
            "--dev", str(paths["dataset"] / "dev.json"),
            "--out", str(paths["model"]),
            "--metrics", str(paths["metrics"]),
            "--batch-size", "4",
            "--epochs", "2",
            "--d", "32",
            "--hash-dim", "1024",
        ],
        [
            "index-dense",
            "--model", str(paths["model"]),
            "--store", str(paths["store"]),
            "--out", str(paths["dense"]),
        ],
        [
            "evaluate",
            "--model", str(paths["model"]),
            "--index", str(paths["dense"]),
            "--store", str(paths["store"]),
            "--questions", str(questions),
            "--out", str(paths["report"]),
            "--k", "1,05,10",
        ],
    ]
    paths["stdout"] = {}
    for argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        assert rc == 0, f"pipeline step {argv[0]} exited {rc}"
        paths["stdout"][argv[0]] = buf.getvalue()
    return paths


# What each artifact stage of the fixture run above records and prints:
# "<root>" stands for the fixture directory and "<s>" for a timing.  The
# split and k values show that "0.80" and "05" are written normalized.
_DATASET_CONFIG = {
    "questions": "<root>/questions.json",
    "store": "<root>/passages.jsonl",
    "index": "<root>/bm25.jsonl",
    "out_dir": "<root>/dataset",
    "split": "0.8,0.1,0.1",
    "n_hard": 1,
    "top_n": 100,
}
_TRAIN_CONFIG = {
    "train": "<root>/dataset/train.json",
    "dev": "<root>/dataset/dev.json",
    "out": "<root>/model.bin",
    "metrics": "<root>/metrics.jsonl",
    "batch_size": 4,
    "epochs": 2,
    "learning_rate": 0.01,
    "d": 32,
    "hash_dim": 1024,
    "optimizer": "adam",
}
EXPECTED_MANIFESTS = {
    # artifact: (command, config, input paths)
    "passages.jsonl": (
        "ingest",
        {"corpus": "<root>/corpus.jsonl", "out": "<root>/passages.jsonl", "chunk_size": 20},
        {"<root>/corpus.jsonl"},
    ),
    "bm25.jsonl": (
        "index-bm25",
        {"corpus": "<root>/passages.jsonl", "out": "<root>/bm25.jsonl"},
        {"<root>/passages.jsonl"},
    ),
    **{
        f"dataset/{name}.json": (
            "build-dataset",
            _DATASET_CONFIG,
            {"<root>/bm25.jsonl", "<root>/passages.jsonl", "<root>/questions.json"},
        )
        for name in ("train", "dev", "test")
    },
    **{
        name: ("train", _TRAIN_CONFIG, {"<root>/dataset/train.json", "<root>/dataset/dev.json"})
        for name in ("model.bin", "metrics.jsonl")
    },
    "dense.bin": (
        "index-dense",
        {"model": "<root>/model.bin", "store": "<root>/passages.jsonl", "out": "<root>/dense.bin"},
        {"<root>/model.bin", "<root>/passages.jsonl"},
    ),
    "report.json": (
        "evaluate",
        {
            "model": "<root>/model.bin",
            "index": "<root>/dense.bin",
            "store": "<root>/passages.jsonl",
            "questions": "<root>/questions.json",
            "k": "1,5,10",
            "mode": "gold_passage_id",
            "format": "json",
            "out": "<root>/report.json",
        },
        {"<root>/model.bin", "<root>/dense.bin", "<root>/passages.jsonl", "<root>/questions.json"},
    ),
}
EXPECTED_STDOUT = {
    "ingest": ["wrote <root>/passages.jsonl: 46 documents, 120 passages, 0 dropped empty"],
    "index-bm25": ["wrote <root>/bm25.jsonl: 120 passages, 430 distinct tokens"],
    "build-dataset": [
        "wrote <root>/dataset: train=13 dev=2 test=1 (dropped 0 unaligned, 0 short of hard negatives)"
    ],
    "train": [
        "epoch 1: mean_train_loss=2.077812 dev_hit@10=1.0000 (<s>)",
        "epoch 2: mean_train_loss=1.996934 dev_hit@10=1.0000 (<s>)",
        "wrote <root>/model.bin",
    ],
    "index-dense": ["wrote <root>/dense.bin: 120 vectors of dimension 32"],
    "evaluate": [
        "hit@1=0.1250 precision=0.1250 recall=0.1250 f1=0.1250",
        "hit@5=0.5000 precision=0.1000 recall=0.5000 f1=0.1667",
        "hit@10=0.6875 precision=0.0688 recall=0.6875 f1=0.1250",
        "evaluated 16 questions (0 dropped unaligned); wrote <root>/report.json",
    ],
}
_COMMON = {("--config", None, None, False), ("--seed", None, None, False)}
EXPECTED_FLAGS = {
    # subcommand: (flag, default, choices, required) of each option
    "ingest": {("--corpus", None, None, True), ("--out", None, None, True), ("--chunk-size", None, None, False)},
    "index-bm25": {("--corpus", None, None, True), ("--out", None, None, True)},
    "build-dataset": {
        ("--questions", None, None, True),
        ("--store", None, None, True),
        ("--index", None, None, True),
        ("--out-dir", None, None, True),
        ("--split", None, None, False),
        ("--n-hard", None, None, False),
        ("--top-n", None, None, False),
    },
    "train": {
        ("--train", None, None, True),
        ("--dev", None, None, False),
        ("--out", None, None, True),
        ("--metrics", None, None, False),
        ("--batch-size", None, None, False),
        ("--epochs", None, None, False),
        ("--lr", None, None, False),
        ("--d", None, None, False),
        ("--hash-dim", None, None, False),
        ("--optimizer", None, ("adam", "sgd"), False),
    },
    "index-dense": {
        ("--model", None, None, True),
        ("--store", None, None, True),
        ("--out", None, None, True),
    },
    "evaluate": {
        ("--model", None, None, True),
        ("--index", None, None, True),
        ("--store", None, None, True),
        ("--questions", None, None, True),
        ("--k", None, None, False),
        ("--mode", None, ("answer_string", "gold_passage_id"), False),
        ("--out", None, None, True),
        ("--format", None, ("json", "markdown_table"), False),
    },
    "repl": {
        ("--index", None, None, True),
        ("--model", None, None, True),
        ("--store", None, None, True),
        ("--k", None, None, False),
    },
}


def _rooted(value, root):
    return value.replace(str(root), "<root>") if isinstance(value, str) else value


class TestStageContract:
    @pytest.mark.parametrize("artifact", sorted(EXPECTED_MANIFESTS))
    def test_manifest(self, pipeline, artifact):
        command, config, inputs = EXPECTED_MANIFESTS[artifact]
        manifest = read_manifest(pipeline["root"] / artifact)
        assert manifest.command == command
        assert {k: _rooted(v, pipeline["root"]) for k, v in manifest.config.items()} == config
        assert manifest.seed == 0
        assert {_rooted(p, pipeline["root"]) for p in manifest.input_checksums} == inputs

    @pytest.mark.parametrize("stage", sorted(EXPECTED_STDOUT))
    def test_stdout(self, pipeline, stage):
        out = _rooted(pipeline["stdout"][stage], pipeline["root"])
        assert re.sub(r"\(\d+\.\d+s\)", "(<s>)", out).splitlines() == EXPECTED_STDOUT[stage]

    def test_parser_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(EXPECTED_FLAGS)
        for name, subparser in sub.choices.items():
            flags = {
                (a.option_strings[-1], a.default, tuple(a.choices) if a.choices else None, a.required)
                for a in subparser._actions
                if a.dest != "help"
            }
            assert flags == EXPECTED_FLAGS[name] | _COMMON, name


class TestArgumentHandling:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "deskdpr" in out

    def test_missing_required_flag(self, capsys):
        assert main(["ingest", "--corpus", "x.jsonl"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deskdpr.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "deskdpr" in proc.stdout


class TestIngest:
    def test_success_and_manifest(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=30, n_questions=4)
        out = tmp_path / "passages.jsonl"
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(out), "--chunk-size", "20"])
        assert rc == 0
        assert out.exists()
        assert manifest_path(out).exists()
        stdout = capsys.readouterr().out
        assert "30 passages" in stdout
        manifest = read_manifest(out)
        assert manifest.command == "ingest"
        assert str(corpus) in manifest.input_checksums

    def test_missing_corpus(self, tmp_path, capsys):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "corpus not found" in capsys.readouterr().err

    def test_bad_chunk_size(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--chunk-size", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_chunk_size_beyond_the_store_header_writes_nothing(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        before = snapshot_dir(tmp_path)
        out = tmp_path / "o.bin"
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(out),
                   "--chunk-size", "99999999999999999999999"])
        assert rc == 2
        err = capsys.readouterr().err
        # the message names the artifact, not the temp file it was being written through
        assert f"error: {out}: passage store header" in err
        assert ".tmp" not in err
        assert snapshot_dir(tmp_path) == before

    def test_chunk_size_from_config_flag_wins(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2, chunk_size=20)
        config = tmp_path / "run.conf"
        config.write_text("chunk_size = 7\n# comment line\n", encoding="utf-8")
        out_config = tmp_path / "by_config.jsonl"
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(out_config), "--config", str(config)])
        assert rc == 0
        assert load_store(out_config).chunk_size == 7
        out_flag = tmp_path / "by_flag.jsonl"
        rc = main([
            "ingest", "--corpus", str(corpus), "--out", str(out_flag),
            "--config", str(config), "--chunk-size", "11",
        ])
        assert rc == 0
        assert load_store(out_flag).chunk_size == 11
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        rc = main([
            "ingest", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
            "--config", str(tmp_path / "absent.conf"),
        ])
        assert rc == 2
        assert "config" in capsys.readouterr().err


class TestSeedResolution:
    def run_ingest(self, tmp_path, extra):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        out = tmp_path / "seeded.jsonl"
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(out)] + extra)
        assert rc == 0
        return read_manifest(out).seed

    def test_default_seed_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DPR_SEED", raising=False)
        assert self.run_ingest(tmp_path, []) == 0
        capsys.readouterr()

    def test_env_seed_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPR_SEED", "9")
        assert self.run_ingest(tmp_path, []) == 9
        capsys.readouterr()

    def test_config_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPR_SEED", "9")
        config = tmp_path / "run.conf"
        config.write_text("seed=5\n", encoding="utf-8")
        assert self.run_ingest(tmp_path, ["--config", str(config)]) == 5
        capsys.readouterr()

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPR_SEED", "9")
        config = tmp_path / "run.conf"
        config.write_text("seed=5\n", encoding="utf-8")
        assert self.run_ingest(tmp_path, ["--config", str(config), "--seed", "7"]) == 7
        capsys.readouterr()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPR_SEED", "many")
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "DPR_SEED" in capsys.readouterr().err


class TestStaleness:
    def test_tampered_input_blocks_downstream(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=20, n_questions=3)
        store = tmp_path / "passages.jsonl"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(store), "--chunk-size", "20"]) == 0
        # corpus changes after the store was built
        corpus.write_text(corpus.read_text(encoding="utf-8") + '{"doc_id": "extra", "title": "t", "body": "late arrival"}\n', encoding="utf-8")
        rc = main(["index-bm25", "--corpus", str(store), "--out", str(tmp_path / "bm25.jsonl")])
        assert rc == 3
        assert "stale input" in capsys.readouterr().err

    def test_edited_artifact_named_once_as_stale(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=20, n_questions=3)
        store = tmp_path / "passages.jsonl"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(store), "--chunk-size", "20"]) == 0
        capsys.readouterr()
        store.write_bytes(store.read_bytes() + b"\n")
        rc = main(["index-bm25", "--corpus", str(store), "--out", str(tmp_path / "bm25.jsonl")])
        assert rc == 3
        assert capsys.readouterr().err == f"stale input: {store} changed since it was written\n"

    def test_untampered_chain_runs(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=20, n_questions=3)
        store = tmp_path / "passages.jsonl"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(store), "--chunk-size", "20"]) == 0
        assert main(["index-bm25", "--corpus", str(store), "--out", str(tmp_path / "bm25.jsonl")]) == 0
        capsys.readouterr()

    def test_truncated_artifact_blocks_downstream(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "dataset"
        assert main(build_dataset_argv(pipeline, out_dir)) == 0
        train_json = out_dir / "train.json"
        train_json.write_bytes(train_json.read_bytes()[:100])
        rc = main(["train", "--train", str(train_json), "--out", str(tmp_path / "m.bin")])
        assert rc == 3
        assert "stale input" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_each_file_hashed_once_per_stage(self, pipeline, tmp_path, monkeypatch, capsys):
        hashed = []
        sha256_file = deskdpr.manifest.sha256_file

        def counting(path):
            hashed.append(str(path))
            return sha256_file(path)

        monkeypatch.setattr(deskdpr.manifest, "sha256_file", counting)
        # the model, index and store manifests share inputs with each other
        assert main(evaluate_argv(pipeline, tmp_path / "report.json")) == 0
        capsys.readouterr()
        assert str(pipeline["model"]) in hashed
        assert len(hashed) == len(set(hashed))


def build_dataset_argv(pipeline, out_dir):
    return [
        "build-dataset",
        "--questions", str(pipeline["questions"]),
        "--store", str(pipeline["store"]),
        "--index", str(pipeline["bm25"]),
        "--out-dir", str(out_dir),
    ]


def evaluate_argv(pipeline, out):
    return [
        "evaluate",
        "--model", str(pipeline["model"]),
        "--index", str(pipeline["dense"]),
        "--store", str(pipeline["store"]),
        "--questions", str(pipeline["questions"]),
        "--out", str(out),
    ]


class TestAtomicWrites:
    def test_failed_writer_leaves_previous_artifacts(self, pipeline, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "dataset"
        assert main(build_dataset_argv(pipeline, out_dir)) == 0
        before = snapshot_dir(tmp_path)
        emit_dpr_json = cli.emit_dpr_json

        def half_then_fail(split, path):
            # the dev split is the second of three outputs
            emit_dpr_json(split, path)
            if split.name == "dev":
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(cli, "emit_dpr_json", half_then_fail)
        rc = main(build_dataset_argv(pipeline, out_dir) + ["--seed", "3"])
        assert rc == 2
        assert "disk full" in capsys.readouterr().err
        assert snapshot_dir(tmp_path) == before

    def test_manifest_and_artifact_replaced_together(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(evaluate_argv(pipeline, out)) == 0
        assert main(evaluate_argv(pipeline, out) + ["--format", "markdown_table"]) == 0
        capsys.readouterr()
        assert read_manifest(out).config["format"] == "markdown_table"
        assert out.read_text(encoding="utf-8").startswith("| Encoder |")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.manifest.json"]


class TestConfigChecks:
    def test_unknown_key_names_key_and_file(self, pipeline, tmp_path, capsys):
        config = tmp_path / "train.conf"
        config.write_text("lr=0.5\n", encoding="utf-8")
        rc = main([
            "train",
            "--train", str(pipeline["dataset"] / "train.json"),
            "--out", str(tmp_path / "m.bin"),
            "--config", str(config),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'lr'" in err and str(config) in err
        assert not (tmp_path / "m.bin").exists()

    def test_key_of_another_stage_accepted(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        config = tmp_path / "run.conf"
        config.write_text("chunk_size=7\nlearning_rate=0.5\nformat=json\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out), "--config", str(config)]) == 0
        assert load_store(out).chunk_size == 7
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["format=html", "mode=x"])
    def test_evaluate_value_outside_choices(self, pipeline, tmp_path, capsys, line):
        out = tmp_path / "report.json"
        assert main(evaluate_argv(pipeline, out)) == 0
        before = snapshot_dir(tmp_path)
        config = tmp_path / "eval.conf"
        config.write_text(line + "\n", encoding="utf-8")
        rc = main(evaluate_argv(pipeline, out) + ["--config", str(config)])
        assert rc == 2
        key, _, value = line.partition("=")
        assert f"config key {key}: {value!r} is not one of" in capsys.readouterr().err
        after = snapshot_dir(tmp_path)
        del after[config]
        assert after == before

    def test_optimizer_outside_choices(self, pipeline, tmp_path, capsys):
        config = tmp_path / "train.conf"
        config.write_text("optimizer=rmsprop\n", encoding="utf-8")
        rc = main([
            "train",
            "--train", str(pipeline["dataset"] / "train.json"),
            "--out", str(tmp_path / "m.bin"),
            "--config", str(config),
        ])
        assert rc == 2
        assert "config key optimizer: 'rmsprop' is not one of adam, sgd" in capsys.readouterr().err

    def test_bad_seed_value_names_key(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=10, n_questions=2)
        config = tmp_path / "run.conf"
        config.write_text("seed=abc\n", encoding="utf-8")
        rc = main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        assert "config key seed: cannot read 'abc' as int" in capsys.readouterr().err


class TestBuildDataset:
    def test_three_splits_with_manifests(self, pipeline):
        for name, expected in (("train", 13), ("dev", 2), ("test", 1)):
            path = pipeline["dataset"] / f"{name}.json"
            assert path.exists()
            assert manifest_path(path).exists()
            records = json.loads(path.read_text(encoding="utf-8"))
            assert len(records) == expected

    def test_bad_split_string(self, pipeline, tmp_path, capsys):
        rc = main([
            "build-dataset",
            "--questions", str(pipeline["questions"]),
            "--store", str(pipeline["store"]),
            "--index", str(pipeline["bm25"]),
            "--out-dir", str(tmp_path / "d"),
            "--split", "0.5,0.5",
        ])
        assert rc == 2
        assert "--split" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["nan,0.5,0.5", "inf,-inf,0"])
    def test_non_finite_split_refused_before_reading(self, pipeline, tmp_path, monkeypatch, capsys, split):
        monkeypatch.setattr(cli, "parse_bioasq", lambda path: pytest.fail("read the questions"))
        rc = main(build_dataset_argv(pipeline, tmp_path / "d") + ["--split", split])
        assert rc == 2
        assert "fractions must be three finite non-negatives" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_index_from_another_store_refused_before_aligning(self, pipeline, tmp_path, monkeypatch, capsys):
        other = tmp_path / "bm25.bin"
        save_bm25_index(build_bm25_index(store_of("another store")), other)
        monkeypatch.setattr(cli, "align_questions", lambda *a: pytest.fail("aligned"))
        argv = build_dataset_argv(pipeline, tmp_path / "d")
        argv[argv.index("--index") + 1] = str(other)
        assert main(argv) == 2
        assert "its 1 passage ids are not the store's" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["build-dataset", "evaluate", "repl"])
    def test_index_of_an_edited_store_with_the_same_ids_refused(self, pipeline, tmp_path, monkeypatch, capsys, command):
        # the BM25 and dense indexes' manifests name the fixture's store, which is unchanged
        corpus, store = tmp_path / "corpus.jsonl", tmp_path / "passages.jsonl"
        corpus.write_text(pipeline["corpus"].read_text(encoding="utf-8").replace("w0", "v0"), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", "--corpus", str(corpus), "--out", str(store), "--chunk-size", "20"]) == 0
        edited, fixture = load_store(store), load_store(pipeline["store"])
        assert [p.passage_id for p in edited] == [p.passage_id for p in fixture]
        assert [p.text for p in edited] != [p.text for p in fixture]
        out = tmp_path / "out"
        argv = {
            "build-dataset": build_dataset_argv(pipeline, out),
            "evaluate": evaluate_argv(pipeline, out),
            "repl": ["repl", "--index", str(pipeline["dense"]), "--model", str(pipeline["model"]),
                     "--store", str(pipeline["store"])],
        }[command]
        argv[argv.index("--store") + 1] = str(store)
        if command in ("build-dataset", "evaluate"):
            monkeypatch.setattr(cli, "align_questions", lambda *a: pytest.fail("aligned"))
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(argv) == 2
        assert "built from another store" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_manifest", [True, False])
    def test_only_an_index_whose_manifest_records_the_store_narrows_alignment(
        self, pipeline, tmp_path, monkeypatch, with_manifest
    ):
        # the fixture's store and index under other paths, the index with or without its manifest
        store, bm25 = tmp_path / "passages.jsonl", tmp_path / "bm25.bin"
        shutil.copyfile(pipeline["store"], store)
        shutil.copyfile(pipeline["bm25"], bm25)
        if with_manifest:
            shutil.copyfile(manifest_path(pipeline["bm25"]), manifest_path(bm25))
        passed = []
        monkeypatch.setattr(
            cli, "align_questions", lambda q, s, index=None: passed.append(index) or align_questions(q, s, index)
        )
        argv = build_dataset_argv(pipeline, tmp_path / "d")
        argv[argv.index("--store") + 1] = str(store)
        argv[argv.index("--index") + 1] = str(bm25)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert [index is not None for index in passed] == [with_manifest]
        for name in ("train", "dev", "test"):
            assert (tmp_path / "d" / f"{name}.json").read_bytes() == (pipeline["dataset"] / f"{name}.json").read_bytes()

    def test_malformed_questions(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "questions.json"
        bad.write_text("{broken", encoding="utf-8")
        rc = main([
            "build-dataset",
            "--questions", str(bad),
            "--store", str(pipeline["store"]),
            "--index", str(pipeline["bm25"]),
            "--out-dir", str(tmp_path / "d"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_same_seed_identical_bytes(self, pipeline, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = [
            "build-dataset",
            "--questions", str(pipeline["questions"]),
            "--store", str(pipeline["store"]),
            "--index", str(pipeline["bm25"]),
            "--seed", "4",
        ]
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main(argv + ["--out-dir", str(out_b)]) == 0
        for name in ("train", "dev", "test"):
            assert (out_a / f"{name}.json").read_bytes() == (out_b / f"{name}.json").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("--n-hard", "-1"), ("--top-n", "0")])
    def test_bad_negative_counts_write_nothing(self, pipeline, tmp_path, capsys, flag, value):
        before = snapshot_dir(pipeline["root"])
        assert main(build_dataset_argv(pipeline, tmp_path / "d") + [flag, value]) == 2
        assert "must be >=" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()
        assert snapshot_dir(pipeline["root"]) == before

    def test_different_seed_changes_assignment(self, pipeline, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = [
            "build-dataset",
            "--questions", str(pipeline["questions"]),
            "--store", str(pipeline["store"]),
            "--index", str(pipeline["bm25"]),
        ]
        assert main(argv + ["--out-dir", str(out_a), "--seed", "1"]) == 0
        assert main(argv + ["--out-dir", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "train.json").read_bytes() != (out_b / "train.json").read_bytes()
        capsys.readouterr()


class TestTrain:
    def test_epoch_rows_printed_and_metrics_written(self, pipeline):
        lines = pipeline["metrics"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in rows] == [1, 2]
        for row in rows:
            assert 0.0 <= row["dev_hit_at_10"] <= 1.0
        assert manifest_path(pipeline["metrics"]).exists()

    def test_model_manifest_records_config(self, pipeline):
        manifest = read_manifest(pipeline["model"])
        assert manifest.command == "train"
        assert manifest.config["epochs"] == 2
        assert manifest.config["batch_size"] == 4

    def test_bad_epochs(self, pipeline, tmp_path, capsys):
        rc = main([
            "train",
            "--train", str(pipeline["dataset"] / "train.json"),
            "--out", str(tmp_path / "m.bin"),
            "--epochs", "0",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [("--lr", "nan"), ("--lr", "inf"), "learning_rate=inf"])
    def test_non_finite_learning_rate_writes_nothing(self, pipeline, tmp_path, capsys, setting):
        argv = [
            "train",
            "--train", str(pipeline["dataset"] / "train.json"),
            "--out", str(tmp_path / "m.bin"),
            "--metrics", str(tmp_path / "metrics.jsonl"),
        ]
        if isinstance(setting, str):
            config = tmp_path / "train.conf"
            config.write_text(setting + "\n", encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv += list(setting)
        before = snapshot_dir(tmp_path)
        assert main(argv) == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert snapshot_dir(tmp_path) == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_writes_nothing(self, pipeline, tmp_path, capsys):
        before = snapshot_dir(tmp_path)
        # both overflow the float32 that model.bin stores in epoch 1; in
        # float64, 1e308 overflows only in epoch 2 and 1e100 not at all
        for lr in ("1e308", "1e100"):
            rc = main([
                "train",
                "--train", str(pipeline["dataset"] / "train.json"),
                "--out", str(tmp_path / "m.bin"),
                "--metrics", str(tmp_path / "metrics.jsonl"),
                "--lr", lr,
                "--d", "8",
                "--hash-dim", "64",
            ])
            assert rc == 2
            assert "training diverged in epoch 1" in capsys.readouterr().err
            assert snapshot_dir(tmp_path) == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dev_vectors_overflowing_float32_write_nothing(self, pipeline, tmp_path, capsys):
        before = snapshot_dir(tmp_path)
        rc = main([
            "train",
            "--train", str(pipeline["dataset"] / "train.json"),
            "--dev", str(pipeline["dataset"] / "dev.json"),
            "--out", str(tmp_path / "m.bin"),
            # towers near 3e38 still fit float32; their passage projections do not
            "--lr", "3e38",
            "--epochs", "1",
            "--d", "8",
            "--hash-dim", "64",
        ])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: passage vectors must be finite in float32; row ")
        assert snapshot_dir(tmp_path) == before

    def test_diverging_training_prints_only_its_error(self, pipeline, tmp_path):
        before = snapshot_dir(tmp_path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "deskdpr.cli", "train",
                "--train", str(pipeline["dataset"] / "train.json"),
                "--out", str(tmp_path / "m.bin"),
                "--lr", "1e308",
                "--d", "8",
                "--hash-dim", "64",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: training diverged in epoch ")
        assert snapshot_dir(tmp_path) == before

    def test_dropped_batches_shown_once_on_stderr(self, pipeline, tmp_path, capsys):
        train_json = pipeline["dataset"] / "train.json"
        n_train = len(json.loads(train_json.read_text(encoding="utf-8")))
        package_log = logging.getLogger("deskdpr")
        handlers = list(package_log.handlers)
        root_handler = logging.StreamHandler(sys.stderr)
        logging.getLogger().addHandler(root_handler)
        try:
            rc = main([
                "train",
                "--train", str(train_json),
                "--out", str(tmp_path / "m.bin"),
                # one instance is left over for a trailing batch of its own
                "--batch-size", str(n_train - 1),
                "--epochs", "1",
                "--d", "8",
                "--hash-dim", "64",
            ])
        finally:
            logging.getLogger().removeHandler(root_handler)
        assert rc == 0
        # a handler on the root logger does not print the line a second time
        assert capsys.readouterr().err.count("WARNING deskdpr.training: dropped 1 single-instance trailing batches") == 1
        assert package_log.handlers == handlers
        assert package_log.propagate

    def test_missing_train_file(self, tmp_path, capsys):
        rc = main(["train", "--train", str(tmp_path / "absent.json"), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestIndexDense:
    def test_index_loadable(self, pipeline):
        index = load_index(pipeline["dense"])
        assert len(index) == 120
        assert index.d == 32
        assert manifest_path(pipeline["dense"]).exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_projections_overflowing_float32_write_nothing(self, pipeline, tmp_path, capsys):
        model = init_model(d=8, hash_dim=64, seed=0)
        model.w_p[:] = np.float32(3e38)  # finite in float32, but the projections are not
        save_model(model, tmp_path / "m.bin")
        before = snapshot_dir(tmp_path)
        rc = main(["index-dense", "--model", str(tmp_path / "m.bin"), "--store", str(pipeline["store"]),
                   "--out", str(tmp_path / "dense.bin")])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: passage vectors must be finite in float32; row 0 ")
        assert snapshot_dir(tmp_path) == before


class TestEvaluate:
    def test_report_written(self, pipeline):
        report = json.loads(pipeline["report"].read_text(encoding="utf-8"))
        assert report["n_questions"] == 16
        assert sorted(report["per_k"], key=int) == ["1", "5", "10"]
        rates = [report["per_k"][k]["hit_rate"] for k in ("1", "5", "10")]
        assert rates == sorted(rates)
        assert report["meta"]["encoder"] == "hashed-bow"
        assert report["meta"]["epochs"] == "2"
        assert report["meta"]["batch"] == "4"

    def test_stdout_summary(self, pipeline, tmp_path, capsys):
        rc = main([
            "evaluate",
            "--model", str(pipeline["model"]),
            "--index", str(pipeline["dense"]),
            "--store", str(pipeline["store"]),
            "--questions", str(pipeline["questions"]),
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit@10=" in out
        assert "evaluated 16 questions" in out

    def test_k_beyond_corpus_size(self, pipeline, tmp_path, capsys):
        rc = main([
            "evaluate",
            "--model", str(pipeline["model"]),
            "--index", str(pipeline["dense"]),
            "--store", str(pipeline["store"]),
            "--questions", str(pipeline["questions"]),
            "--k", "1,500",
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["per_k"]["500"]["hit_rate"] == 1.0
        capsys.readouterr()

    def test_markdown_format(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main([
            "evaluate",
            "--model", str(pipeline["model"]),
            "--index", str(pipeline["dense"]),
            "--store", str(pipeline["store"]),
            "--questions", str(pipeline["questions"]),
            "--format", "markdown_table",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "| Encoder | Epochs | Batch | hit@10 | F1 |"
        assert lines[2].startswith("| hashed-bow | 2 | 4 |")
        capsys.readouterr()

    def test_repeated_k_refused_before_loading(self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail("loaded the model"))
        rc = main(evaluate_argv(pipeline, tmp_path / "report.json") + ["--k", "5,5,10"])
        assert rc == 2
        assert "k_values must be strictly increasing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_answer_string_mode(self, pipeline, tmp_path, capsys):
        rc = main([
            "evaluate",
            "--model", str(pipeline["model"]),
            "--index", str(pipeline["dense"]),
            "--store", str(pipeline["store"]),
            "--questions", str(pipeline["questions"]),
            "--mode", "answer_string",
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        capsys.readouterr()


class TestRepl:
    def run_repl(self, pipeline, monkeypatch, capsys, stdin_text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        rc = main([
            "repl",
            "--index", str(pipeline["dense"]),
            "--model", str(pipeline["model"]),
            "--store", str(pipeline["store"]),
            "--k", "3",
        ])
        return rc, capsys.readouterr().out

    def test_query_then_quit(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, "uniq000tag marker\n:quit\n")
        assert rc == 0
        assert "passages loaded" in out
        # three result rows, rank column first
        assert "  1  " in out and "  3  " in out

    def test_show_command(self, pipeline, monkeypatch, capsys):
        store = load_store(pipeline["store"])
        pid = next(iter(store)).passage_id
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, f":show {pid}\n:quit\n")
        assert rc == 0
        assert pid in out

    def test_show_unknown_passage(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, ":show nope#7\n:quit\n")
        assert rc == 0
        assert "unknown passage id" in out

    def test_unknown_colon_command(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, ":frobnicate\n:quit\n")
        assert rc == 0
        assert "unknown command" in out

    def test_eof_exits_cleanly(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, "")
        assert rc == 0

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_1_refused_before_loading(self, pipeline, monkeypatch, capsys, k):
        monkeypatch.setattr(cli, "load_index", lambda path: pytest.fail("loaded the index"))
        monkeypatch.setattr(sys, "stdin", io.StringIO("query\n"))
        rc = main(["repl", "--index", str(pipeline["dense"]), "--model", str(pipeline["model"]),
                   "--store", str(pipeline["store"]), "--k", k])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"--k must be >= 1, got {k}" in captured.err
        assert "dpr>" not in captured.out

    def test_blank_lines_ignored(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, "\n\n:quit\n")
        assert rc == 0


# Run in a fresh interpreter, so no earlier test has loaded scipy.
_DATA_PREP_WITHOUT_SCIPY = """
import contextlib, io, sys

import deskdpr.encoder, deskdpr.evaluation, deskdpr.flat_index, deskdpr.training
assert "scipy" not in sys.modules, "importing the library loaded scipy"

from deskdpr import cli

corpus, questions, root = sys.argv[1:]
steps = [
    ["--help"],
    ["ingest", "--corpus", corpus, "--out", f"{root}/passages.jsonl", "--chunk-size", "20"],
    ["index-bm25", "--corpus", f"{root}/passages.jsonl", "--out", f"{root}/bm25.jsonl"],
    ["build-dataset", "--questions", questions, "--store", f"{root}/passages.jsonl",
     "--index", f"{root}/bm25.jsonl", "--out-dir", f"{root}/dataset"],
]
for argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "a data-prep stage loaded scipy"

import numpy as np
from deskdpr.encoder import featurize_texts, hash_token

features = featurize_texts(["alpha beta alpha", "", "beta"], 16384)
assert "scipy.sparse" in sys.modules
from scipy import sparse

alpha, beta = hash_token("alpha", 16384), hash_token("beta", 16384)
assert alpha != beta
order = sorted([alpha, beta])
row0 = np.array([2.0 if b == alpha else 1.0 for b in order]) / np.sqrt(5.0)
expected = sparse.csr_array(
    (np.concatenate([row0, [1.0]]), np.array(order + [beta]), np.array([0, 2, 2, 3])), shape=(3, 16384)
)
assert type(features) is sparse.csr_array and features.shape == expected.shape
for part in ("indptr", "indices", "data"):
    assert np.array_equal(getattr(features, part), getattr(expected, part)), part
"""


class TestScipyDeferred:
    def test_data_prep_loads_no_scipy_and_featurizing_does(self, tmp_path):
        corpus, questions = write_fixture(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", _DATA_PREP_WITHOUT_SCIPY, str(corpus), str(questions), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "dataset" / "train.json").exists()
