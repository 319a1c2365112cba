"""Run manifests: the reproducibility envelope written next to every artifact.

A manifest records the resolved configuration, the seed, a checksum of
every input file that went into an artifact and the checksum of the
artifact's own bytes.  Both files are written to a temp file beside
their target and moved into place with ``os.replace``: the manifest first,
the artifact second.  A crash therefore never leaves a half-written file;
at worst a new manifest sits next to the old artifact, whose bytes no
longer match the recorded ``output_sha256``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

from .errors import StaleInput, expect, reading

MANIFEST_SUFFIX = ".manifest.json"


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cached_sha256(path: str | Path, digests: dict[str, str]) -> str:
    """sha256_file, computed at most once per path for one `digests` cache."""
    key = str(path)
    if key not in digests:
        digests[key] = sha256_file(path)
    return digests[key]


@contextlib.contextmanager
def _temp_beside(path: str | Path) -> Iterator[Path]:
    """A temp file path in the directory of `path`, removed on exit unless moved away."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    input_checksums: dict[str, str]
    tool_version: str
    created_utc: str = ""
    output_sha256: str | None = None


def manifest_path(artifact_path: str | Path) -> Path:
    return Path(str(artifact_path) + MANIFEST_SUFFIX)


def write_artifacts(
    writers: dict[str | Path, Callable[[Path], None]],
    command: str,
    config: dict,
    seed: int | None,
    inputs: list[str | Path],
    digests: dict[str, str] | None = None,
) -> None:
    """Write artifacts and their manifests so that none is ever half-written.

    Each `writer(tmp)` writes its artifact's bytes to a temp file beside the
    artifact.  Once every writer has succeeded, each artifact's manifest,
    recording the temp file's sha256, is moved into place, then the
    artifact.  Temp files are removed on any failure.  A writer's
    ValueError is raised again naming the artifact, never its temp file.
    `digests` maps paths to checksums already computed in this run; each
    input not yet in it is hashed and added.
    """
    from . import __version__

    digests = {} if digests is None else digests
    with contextlib.ExitStack() as stack:
        temps = {target: stack.enter_context(_temp_beside(target)) for target in writers}
        for target, writer in writers.items():
            try:
                writer(temps[target])
            except ValueError as exc:
                raise ValueError(f"{target}: {exc}") from None
        checksums = {str(p): cached_sha256(p, digests) for p in inputs}
        for target, tmp in temps.items():
            manifest = RunManifest(command, config, seed, checksums, __version__,
                                   created_utc=datetime.now(timezone.utc).isoformat(),
                                   output_sha256=sha256_file(tmp))
            path = manifest_path(target)
            manifest_tmp = stack.enter_context(_temp_beside(path))
            manifest_tmp.write_text(json.dumps(asdict(manifest), indent=2) + "\n", encoding="utf-8")
            os.replace(manifest_tmp, path)
            os.replace(tmp, target)


def read_manifest(artifact_path: str | Path) -> RunManifest | None:
    """Load the manifest for an artifact, or None if it has none."""
    path = manifest_path(artifact_path)
    if not path.exists():
        return None
    with reading(path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        return RunManifest(
            command=raw["command"],
            config=expect(raw["config"], dict, "'config'"),
            seed=raw["seed"],
            input_checksums=expect(raw["input_checksums"], dict, "'input_checksums'"),
            tool_version=raw["tool_version"],
            created_utc=raw.get("created_utc", ""),
            output_sha256=raw.get("output_sha256"),
        )


def verify_inputs(artifact_path: str | Path, digests: dict[str, str] | None = None) -> RunManifest | None:
    """Check that an artifact is as written and its recorded inputs unchanged;
    return its manifest, or None if it has none.

    Raises StaleInput when the artifact's bytes differ from the
    `output_sha256` its manifest recorded, or naming the first input file
    whose checksum differs or that has gone missing.  Artifacts without a
    manifest are accepted as-is; a manifest without `output_sha256` (the
    layout written before manifests carried it) vouches for the inputs
    only.  `digests` caches checksums by path across calls.
    """
    manifest = read_manifest(artifact_path)
    if manifest is None:
        return None
    digests = {} if digests is None else digests
    if manifest.output_sha256 is not None and cached_sha256(artifact_path, digests) != manifest.output_sha256:
        raise StaleInput(f"{artifact_path} changed since it was written")
    for path, recorded in manifest.input_checksums.items():
        if not Path(path).exists():
            raise StaleInput(f"{path} (recorded for {artifact_path}) is missing")
        if cached_sha256(path, digests) != recorded:
            raise StaleInput(f"{path} changed since {artifact_path} was built")
    return manifest
