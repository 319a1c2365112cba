import hashlib
import json

import pytest

import deskdpr
from deskdpr.errors import ParseError, StaleInput
from deskdpr.manifest import (
    manifest_path,
    read_manifest,
    sha256_file,
    verify_inputs,
    write_artifacts,
    write_manifest,
)


class TestSha256:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"abc")
        # sha256("abc"), a published test vector
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "data.bin"
        payload = bytes(range(256)) * 100
        path.write_bytes(payload)
        assert sha256_file(path) == hashlib.sha256(payload).hexdigest()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert sha256_file(path) == hashlib.sha256(b"").hexdigest()


class TestManifestPath:
    def test_suffix_appended(self):
        assert str(manifest_path("out/model.bin")) == "out/model.bin.manifest.json"


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1"}\n', encoding="utf-8")
        artifact = tmp_path / "passages.jsonl"
        write_manifest(
            artifact,
            command="ingest",
            config={"chunk_size": 100},
            seed=7,
            inputs=[corpus],
        )
        manifest = read_manifest(artifact)
        assert manifest is not None
        assert manifest.command == "ingest"
        assert manifest.config == {"chunk_size": 100}
        assert manifest.seed == 7
        assert manifest.input_checksums == {str(corpus): sha256_file(corpus)}
        assert manifest.tool_version == deskdpr.__version__
        assert manifest.created_utc

    def test_written_before_artifact_exists(self, tmp_path):
        artifact = tmp_path / "artifact.bin"
        path = write_manifest(artifact, command="train", config={}, seed=None, inputs=[])
        assert path.exists()
        assert not artifact.exists()

    def test_absent_manifest_reads_none(self, tmp_path):
        assert read_manifest(tmp_path / "never-written.bin") is None

    def test_malformed_manifest_rejected(self, tmp_path):
        artifact = tmp_path / "artifact.bin"
        manifest_path(artifact).write_text("{broken", encoding="utf-8")
        with pytest.raises(ParseError):
            read_manifest(artifact)

    def test_missing_field_rejected(self, tmp_path):
        artifact = tmp_path / "artifact.bin"
        manifest_path(artifact).write_text('{"command": "x"}', encoding="utf-8")
        with pytest.raises(ParseError):
            read_manifest(artifact)

    def test_json_layout(self, tmp_path):
        artifact = tmp_path / "artifact.bin"
        write_manifest(artifact, command="train", config={"lr": 0.01}, seed=0, inputs=[])
        raw = json.loads(manifest_path(artifact).read_text(encoding="utf-8"))
        assert set(raw) == {
            "command",
            "config",
            "seed",
            "input_checksums",
            "tool_version",
            "created_utc",
        }


class TestVerifyInputs:
    def setup_artifact(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("original content\n", encoding="utf-8")
        artifact = tmp_path / "store.jsonl"
        artifact.write_text("artifact body\n", encoding="utf-8")
        write_manifest(artifact, command="ingest", config={}, seed=0, inputs=[corpus])
        return corpus, artifact

    def test_unchanged_inputs_pass(self, tmp_path):
        _, artifact = self.setup_artifact(tmp_path)
        verify_inputs(artifact)

    def test_changed_input_detected(self, tmp_path):
        corpus, artifact = self.setup_artifact(tmp_path)
        corpus.write_text("tampered content\n", encoding="utf-8")
        with pytest.raises(StaleInput, match=str(corpus)):
            verify_inputs(artifact)

    def test_missing_input_detected(self, tmp_path):
        corpus, artifact = self.setup_artifact(tmp_path)
        corpus.unlink()
        with pytest.raises(StaleInput, match="missing"):
            verify_inputs(artifact)

    def test_artifact_without_manifest_accepted(self, tmp_path):
        artifact = tmp_path / "legacy.bin"
        artifact.write_bytes(b"no provenance")
        verify_inputs(artifact)


class TestOutputChecksum:
    def setup_artifact(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("original content\n", encoding="utf-8")
        artifact = tmp_path / "store.jsonl"
        write_artifacts(
            {artifact: lambda tmp: tmp.write_text("artifact body\n", encoding="utf-8")},
            command="ingest", config={}, seed=0, inputs=[corpus],
        )
        return corpus, artifact

    def test_recorded(self, tmp_path):
        _, artifact = self.setup_artifact(tmp_path)
        assert artifact.read_text(encoding="utf-8") == "artifact body\n"
        raw = json.loads(manifest_path(artifact).read_text(encoding="utf-8"))
        assert raw["output_sha256"] == sha256_file(artifact)
        assert read_manifest(artifact).output_sha256 == sha256_file(artifact)
        verify_inputs(artifact)

    def test_edited_artifact_detected(self, tmp_path):
        _, artifact = self.setup_artifact(tmp_path)
        artifact.write_text("artifact bo", encoding="utf-8")
        with pytest.raises(StaleInput, match="changed since it was written"):
            verify_inputs(artifact)

    def test_manifest_without_output_checksum_still_verifies(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("original content\n", encoding="utf-8")
        artifact = tmp_path / "store.jsonl"
        artifact.write_text("artifact body\n", encoding="utf-8")
        # the layout written before manifests carried output_sha256
        manifest_path(artifact).write_text(json.dumps({
            "command": "ingest",
            "config": {"corpus": str(corpus)},
            "seed": 0,
            "input_checksums": {str(corpus): sha256_file(corpus)},
            "tool_version": "0.1.0",
            "created_utc": "2026-10-17T00:00:00+00:00",
        }), encoding="utf-8")
        assert read_manifest(artifact).output_sha256 is None
        verify_inputs(artifact)
        corpus.write_text("tampered content\n", encoding="utf-8")
        with pytest.raises(StaleInput, match=str(corpus)):
            verify_inputs(artifact)

    def test_digests_reused(self, tmp_path, monkeypatch):
        corpus, artifact = self.setup_artifact(tmp_path)
        digests = {}
        verify_inputs(artifact, digests)
        assert digests == {str(artifact): sha256_file(artifact), str(corpus): sha256_file(corpus)}
        monkeypatch.setattr("deskdpr.manifest.sha256_file", lambda path: pytest.fail(f"hashed {path} again"))
        verify_inputs(artifact, digests)
        write_manifest(tmp_path / "next.jsonl", "index-bm25", {}, 0, [artifact, corpus], digests=digests)
        assert read_manifest(tmp_path / "next.jsonl").input_checksums == {
            str(artifact): digests[str(artifact)],
            str(corpus): digests[str(corpus)],
        }

    def test_no_temp_file_left(self, tmp_path):
        self.setup_artifact(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.jsonl", "store.jsonl", "store.jsonl.manifest.json",
        ]

    def test_writer_value_error_names_the_artifact(self, tmp_path):
        artifact = tmp_path / "store.bin"

        def refuse(tmp):
            tmp.write_text("half", encoding="utf-8")
            raise ValueError("header does not fit")

        with pytest.raises(ValueError) as raised:
            write_artifacts({artifact: refuse}, command="ingest", config={}, seed=0, inputs=[])
        assert str(raised.value) == f"{artifact}: header does not fit"
        assert list(tmp_path.iterdir()) == []
