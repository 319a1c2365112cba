"""Command-line pipeline: ingest, BM25 index, dataset, train, dense index, evaluate, repl.

Six stages write artifacts: ingest, index-bm25, build-dataset (which also
mines the hard negatives), train, index-dense and evaluate; repl searches
a dense index interactively.  Each subcommand is one row of ``STAGES``:
its path and option flags and a function doing the stage's own work; one
runner does the rest.  Option values resolve in precedence order:
command-line flag, then --config file (key=value lines; unknown keys and
values outside a flag's choices are refused), then the DPR_SEED
environment variable for the seed, then built-in defaults.  A stage
refuses to run (exit 3) when an input's bytes or the inputs recorded in
its manifest changed since it was written.  Each artifact goes to a temp
file beside its target; its manifest, with the artifact's sha256, is
written the same way, and both are moved into place with ``os.replace``,
manifest first.  Exit codes: 0 on success, 2 on usage or validation
problems and malformed input files, 1 on unexpected internal errors.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from . import __version__
from .bm25 import build_index as build_bm25_index
from .bm25 import load_bm25_index, save_bm25_index
from .corpus import ingest_corpus, load_store, save_store
from .dataset import align_questions, attach_negatives, check_fractions, emit_dpr_json, load_dpr_json, split_instances
from .encoder import encode_question, init_model, load_model, save_model
from .errors import DeskdprError, StaleInput
from .evaluation import MATCH_MODES, REPORT_FORMATS, EvalConfig, evaluate, write_report
from .flat_index import build_index as build_dense_index
from .flat_index import load_index, save_index, search
from .manifest import read_manifest, verify_inputs, write_artifacts
from .questions import parse_bioasq
from .training import OPTIMIZERS, TrainConfig, save_metrics, train

SEED_ENV_VAR = "DPR_SEED"


@dataclass(frozen=True)
class PathFlag:
    """A path flag: an input, named `what` when it is not found, or an output."""

    flag: str
    help: str
    what: str | None = None  # None marks an output
    required: bool = True

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Option:
    """A value set by flag, config key or default, in that order."""

    flag: str
    key: str  # config key, and the option's name in the manifest and the stage
    type: Callable
    default: object
    help: str
    choices: tuple[str, ...] = ()
    parse: Callable | None = None  # turns the resolved string into a tuple


@dataclass(frozen=True)
class Stage:
    """A subcommand: its flags in manifest order, and the function doing its own work.

    run(values, write) gets every flag's value and the seed by key;
    write({path: writer}) commits the stage's outputs, calling writer(tmp_path).
    """

    name: str
    help: str
    run: Callable
    flags: tuple[PathFlag | Option, ...]


SEED = Option("--seed", "seed", int, 0, f"RNG seed, also read from {SEED_ENV_VAR}")


def _load_config(path: str | None) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored; unknown keys refused."""
    if path is None:
        return {}
    if not Path(path).is_file():
        raise ValueError(f"config file not found: {path}")
    known = {f.key for stage in STAGES for f in (*stage.flags, SEED) if isinstance(f, Option)}
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        if key.strip() not in known:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key.strip()!r}")
        out[key.strip()] = value.strip()
    return out


def _resolve(opt: Option, flag_value, config: dict[str, str]):
    """Flag beats config beats DPR_SEED (for the seed) beats default; strings are cast."""
    if flag_value is not None:
        return flag_value
    if opt.key in config:
        source, raw = f"config key {opt.key}", config[opt.key]
    elif opt is SEED and SEED_ENV_VAR in os.environ:
        source, raw = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
    else:
        return opt.default
    try:
        value = opt.type(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: cannot read {raw!r} as {opt.type.__name__}") from exc
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{source}: {raw!r} is not one of {', '.join(opt.choices)}")
    return value


def _parse_k_values(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--k must be comma-separated integers, got {raw!r}") from exc


def _parse_fractions(raw: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(p) for p in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--split must be three comma-separated fractions, got {raw!r}") from exc
    return check_fractions((a, b, c))


def _run(stage: Stage, args: argparse.Namespace) -> int:
    """Resolve, check and verify everything a stage reads, run it, commit what it writes."""
    config = _load_config(args.config)
    seed = _resolve(SEED, args.seed, config)
    values, inputs = {}, []
    for f in stage.flags:
        value = getattr(args, f.key)
        if isinstance(f, Option):
            value = _resolve(f, value, config)
            value = f.parse(value) if f.parse else value
        elif f.what and value is not None:
            if not Path(value).is_file():
                raise ValueError(f"{f.what} not found: {value}")
            inputs.append(value)
        values[f.key] = value
    digests: dict[str, str] = {}
    for path in inputs:
        verify_inputs(path, digests)
    snapshot = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in values.items()}
    write = partial(write_artifacts, command=stage.name, config=snapshot, seed=seed, inputs=inputs, digests=digests)
    stage.run(SimpleNamespace(**values, seed=seed), write)
    return 0


# -- each stage's own work ------------------------------------------------------


def _ingest(v, write) -> None:
    store, stats = ingest_corpus(v.corpus, v.chunk_size)
    write({v.out: partial(save_store, store)})
    print(
        f"wrote {v.out}: {stats.documents} documents, "
        f"{stats.passages} passages, {stats.dropped_empty} dropped empty"
    )


def _index_bm25(v, write) -> None:
    index = build_bm25_index(load_store(v.corpus))
    write({v.out: partial(save_bm25_index, index)})
    print(f"wrote {v.out}: {index.n_passages} passages, {len(index.postings)} distinct tokens")


def _build_dataset(v, write) -> None:
    questions = parse_bioasq(v.questions)
    store = load_store(v.store)
    aligned, dropped = align_questions(questions, store)
    index = load_bm25_index(v.index)  # after aligning, so the alignment haystack is gone by then
    instances, short_of_hard = attach_negatives(aligned, store, index, n_hard=v.n_hard, top_n=v.top_n)
    splits = split_instances(instances, v.split, seed=v.seed)
    out_dir = Path(v.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write({out_dir / f"{name}.json": partial(emit_dpr_json, split) for name, split in splits.items()})
    sizes = " ".join(f"{name}={len(split)}" for name, split in splits.items())
    print(f"wrote {out_dir}: {sizes} (dropped {dropped} unaligned, {short_of_hard} short of hard negatives)")


def _train(v, write) -> None:
    # train's options and the seed are named after TrainConfig's fields
    cfg = TrainConfig(**{f.name: getattr(v, f.name) for f in fields(TrainConfig)})
    train_split = load_dpr_json(v.train, "train")
    dev_split = None if v.dev is None else load_dpr_json(v.dev, "dev")
    model = init_model(d=cfg.d, hash_dim=cfg.hash_dim, seed=cfg.seed)
    model, metrics = train(model, train_split, dev_split, cfg)
    outputs = {v.out: partial(save_model, model)}
    if v.metrics is not None:
        outputs[v.metrics] = partial(save_metrics, metrics)
    write(outputs)
    for row in metrics:
        dev_hit = "-" if row["dev_hit_at_10"] is None else f"{row['dev_hit_at_10']:.4f}"
        print(
            f"epoch {row['epoch']}: mean_train_loss={row['mean_train_loss']:.6f} "
            f"dev_hit@10={dev_hit} ({row['wall_seconds']:.2f}s)"
        )
    print(f"wrote {v.out}")


def _index_dense(v, write) -> None:
    index = build_dense_index(load_model(v.model), load_store(v.store))
    write({v.out: partial(save_index, index)})
    print(f"wrote {v.out}: {len(index)} vectors of dimension {index.d}")


def _model_meta(model_path: str) -> dict[str, str]:
    """Report metadata from the model's manifest, if one exists."""
    manifest = read_manifest(model_path)
    config = {} if manifest is None else manifest.config
    meta = {"encoder": "hashed-bow"}
    for name, key in (("epochs", "epochs"), ("batch", "batch_size")):
        if key in config:
            meta[name] = str(config[key])
    return meta


def _evaluate(v, write) -> None:
    cfg = EvalConfig(k_values=v.k, match_mode=v.mode)
    store = load_store(v.store)
    instances, dropped = align_questions(parse_bioasq(v.questions), store)
    # after aligning, so the alignment haystack is gone by then
    model, index = load_model(v.model), load_index(v.index)
    report = evaluate(model, index, store, instances, cfg, meta=_model_meta(v.model))
    write({v.out: partial(write_report, report, fmt=v.format)})
    for k in v.k:
        row = report.per_k[k]
        print(f"hit@{k}={row['hit_rate']:.4f} precision={row['precision']:.4f} "
              f"recall={row['recall']:.4f} f1={row['f1']:.4f}")
    print(f"evaluated {report.n_questions} questions ({dropped} dropped unaligned); wrote {v.out}")


def _repl(v, write) -> None:
    if v.k < 1:
        raise ValueError(f"--k must be >= 1, got {v.k}")
    index = load_index(v.index)
    model = load_model(v.model)
    store = load_store(v.store)
    print(f"{len(index)} passages loaded; :show <passage_id> for full text, :quit to exit")
    while True:
        try:
            line = input("dpr> ").strip()
        except EOFError:
            return
        if not line:
            continue
        if line == ":quit":
            return
        if line.startswith(":show"):
            pid = line[len(":show") :].strip()
            if pid in store:
                passage = store.get(pid)
                print(f"{passage.passage_id}\n{passage.title}\n{passage.text}")
            else:
                print(f"unknown passage id: {pid}")
            continue
        if line.startswith(":"):
            print(f"unknown command {line.split()[0]}; try :show <passage_id> or :quit")
            continue
        result = search(index, encode_question(model, line), v.k)
        for hit in result:
            passage = store.get(hit.passage_id)
            print(f"{hit.rank:>3}  {hit.score: .6f}  {hit.passage_id}  {passage.title}  {passage.text[:120]}")


# -- the stage table --------------------------------------------------------------

STORE = PathFlag("--store", "passage store path", what="passage store")
QUESTIONS = PathFlag("--questions", "questions JSON path", what="questions file")
MODEL = PathFlag("--model", "model path", what="model")
DENSE_INDEX = PathFlag("--index", "dense index path", what="index")

STAGES: tuple[Stage, ...] = (
    Stage("ingest", "chunk a JSONL corpus into a passage store", _ingest, (
        PathFlag("--corpus", "JSONL corpus, one document per line", what="corpus"),
        PathFlag("--out", "passage store output path"),
        Option("--chunk-size", "chunk_size", int, 100, "words per passage"),
    )),
    Stage("index-bm25", "build the lexical index from a passage store", _index_bm25, (
        PathFlag("--corpus", "passage store path", what="passage store"),
        PathFlag("--out", "index output path"),
    )),
    Stage("build-dataset", "align positives, mine hard negatives, split", _build_dataset, (
        QUESTIONS,
        STORE,
        PathFlag("--index", "lexical index path", what="index"),
        PathFlag("--out-dir", "directory for train/dev/test.json"),
        Option("--split", "split", str, "0.8,0.1,0.1", "train,dev,test fractions", parse=_parse_fractions),
        Option("--n-hard", "n_hard", int, 1, "hard negatives per question"),
        Option("--top-n", "top_n", int, 100, "candidate pool size"),
    )),
    Stage("train", "train the dual encoder", _train, (
        PathFlag("--train", "training split JSON path", what="training split"),
        PathFlag("--dev", "dev split JSON path (optional)", what="dev split", required=False),
        PathFlag("--out", "model output path"),
        PathFlag("--metrics", "per-epoch metrics JSONL output path", required=False),
        Option("--batch-size", "batch_size", int, 16, "questions per batch"),
        Option("--epochs", "epochs", int, 8, "passes over the training split"),
        Option("--lr", "learning_rate", float, 1e-2, "learning rate"),
        Option("--d", "d", int, 128, "embedding dimension"),
        Option("--hash-dim", "hash_dim", int, 16384, "feature hash buckets"),
        Option("--optimizer", "optimizer", str, "adam", "optimizer", choices=OPTIMIZERS),
    )),
    Stage("index-dense", "encode every passage into a flat vector index", _index_dense, (
        MODEL,
        STORE,
        PathFlag("--out", "index output path"),
    )),
    Stage("evaluate", "retrieval quality of a model over an index", _evaluate, (
        MODEL,
        DENSE_INDEX,
        STORE,
        QUESTIONS,
        Option("--k", "k", str, "1,5,10", "comma-separated cutoffs", parse=_parse_k_values),
        Option("--mode", "mode", str, "gold_passage_id", "hit judging mode", choices=MATCH_MODES),
        Option("--format", "format", str, "json", "report format", choices=REPORT_FORMATS),
        PathFlag("--out", "report output path"),
    )),
    Stage("repl", "interactive retrieval against a dense index", _repl, (
        DENSE_INDEX,
        MODEL,
        STORE,
        Option("--k", "k", int, 10, "results per query"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deskdpr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"deskdpr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        for f in (*stage.flags, SEED):
            if isinstance(f, PathFlag):
                p.add_argument(f.flag, dest=f.key, required=f.required, help=f.help)
            else:
                p.add_argument(f.flag, dest=f.key, type=f.type, choices=f.choices or None,
                               help=f"{f.help} (default {f.default})")
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.set_defaults(stage=stage)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the package's warnings reach stderr once, for this call only
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_log = logging.getLogger("deskdpr")
    propagate = package_log.propagate
    package_log.addHandler(handler)
    package_log.propagate = False
    try:
        return _run(args.stage, args)
    except StaleInput as exc:
        print(f"stale input: {exc}", file=sys.stderr)
        return 3
    except (DeskdprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        package_log.removeHandler(handler)
        package_log.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
