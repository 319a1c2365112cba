import io
import json
import logging
import subprocess
import sys

import pytest

from deskdpr.cli import main
from deskdpr.corpus import load_store
from deskdpr.evaluation import load_report
from deskdpr.flat_index import load_index
from deskdpr.manifest import manifest_path, read_manifest
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json


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
        "mined": root / "mined.jsonl",
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
            "mine-negatives",
            "--index", str(paths["bm25"]),
            "--store", str(paths["store"]),
            "--questions", str(questions),
            "--out", str(paths["mined"]),
        ],
        [
            "build-dataset",
            "--questions", str(questions),
            "--store", str(paths["store"]),
            "--index", str(paths["bm25"]),
            "--out-dir", str(paths["dataset"]),
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
        ],
    ]
    for argv in steps:
        rc = main(argv)
        assert rc == 0, f"pipeline step {argv[0]} exited {rc}"
    return paths


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

    def test_untampered_chain_runs(self, tmp_path, capsys):
        corpus, _ = write_fixture(tmp_path, n_passages=20, n_questions=3)
        store = tmp_path / "passages.jsonl"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(store), "--chunk-size", "20"]) == 0
        assert main(["index-bm25", "--corpus", str(store), "--out", str(tmp_path / "bm25.jsonl")]) == 0
        capsys.readouterr()


class TestMineNegatives:
    def test_output_rows(self, pipeline, capsys):
        lines = pipeline["mined"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"question_id", "hard_negative_ids"}
            assert isinstance(row["hard_negative_ids"], list)

    def test_malformed_questions(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "questions.json"
        bad.write_text("{broken", encoding="utf-8")
        rc = main([
            "mine-negatives",
            "--index", str(pipeline["bm25"]),
            "--store", str(pipeline["store"]),
            "--questions", str(bad),
            "--out", str(tmp_path / "mined.jsonl"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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

    def test_same_seed_identical_bytes(self, pipeline, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = [
            "build-dataset",
            "--questions", str(pipeline["questions"]),
            "--store", str(pipeline["store"]),
            "--index", str(pipeline["bm25"]),
            "--seed", "4",
            "--n-random", "1",
        ]
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main(argv + ["--out-dir", str(out_b)]) == 0
        for name in ("train", "dev", "test"):
            assert (out_a / f"{name}.json").read_bytes() == (out_b / f"{name}.json").read_bytes()
        capsys.readouterr()

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


class TestEvaluate:
    def test_report_written(self, pipeline):
        report = load_report(pipeline["report"])
        assert report.n_questions == 16
        assert sorted(report.per_k) == [1, 5, 10]
        rates = [report.per_k[k]["hit_rate"] for k in (1, 5, 10)]
        assert rates == sorted(rates)
        assert report.meta["encoder"] == "hashed-bow"
        assert report.meta["epochs"] == "2"
        assert report.meta["batch"] == "4"

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
        report = load_report(tmp_path / "report.json")
        assert report.per_k[500]["hit_rate"] == 1.0
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

    def test_blank_lines_ignored(self, pipeline, monkeypatch, capsys):
        rc, out = self.run_repl(pipeline, monkeypatch, capsys, "\n\n:quit\n")
        assert rc == 0
