"""Command-line pipeline: ingest, index, mine, build, train, search, evaluate.

Every subcommand reads prior artifacts by path, refuses to run when an
artifact's recorded inputs have changed on disk (exit 3), writes a
manifest before its own artifact, and exits 0 on success, 2 on usage or
validation problems, 1 on unexpected internal errors.

Option values resolve in precedence order: command-line flag, then
--config file (key=value lines), then the DPR_SEED environment variable
for the seed, then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .bm25 import build_index as build_bm25_index
from .bm25 import load_bm25_index, mine_hard_negatives, save_bm25_index
from .corpus import ingest_corpus, load_store, save_store
from .dataset import align_questions, attach_negatives, emit_dpr_json, load_dpr_json, split_instances
from .encoder import encode_question, init_model, load_model, save_model
from .errors import DeskdprError, StaleInput
from .evaluation import EvalConfig, evaluate, write_report
from .flat_index import build_index as build_dense_index
from .flat_index import load_index, save_index, search
from .manifest import read_manifest, verify_inputs, write_manifest
from .questions import parse_bioasq
from .training import TrainConfig, save_metrics, train

SEED_ENV_VAR = "DPR_SEED"


def _load_config(path: str | None) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    if path is None:
        return {}
    if not Path(path).is_file():
        raise ValueError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(flag_value, config: dict[str, str], key: str, default, cast: Callable):
    """Flag beats config beats default; config values are cast from strings."""
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return cast(config[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key}: cannot read {config[key]!r} as {cast.__name__}") from exc
    return default


def _resolve_seed(flag_value, config: dict[str, str]) -> int:
    if flag_value is not None:
        return flag_value
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def _require_file(path: str, what: str) -> None:
    if not Path(path).is_file():
        raise ValueError(f"{what} not found: {path}")


def _parse_k_values(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--k must be comma-separated integers, got {raw!r}") from exc


def _parse_fractions(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"--split must be three comma-separated fractions, got {raw!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--split must be three comma-separated fractions, got {raw!r}") from exc
    return a, b, c


def _cmd_ingest(args) -> int:
    config = _load_config(args.config)
    chunk_size = _resolve(args.chunk_size, config, "chunk_size", 100, int)
    seed = _resolve_seed(args.seed, config)
    _require_file(args.corpus, "corpus")
    store, stats = ingest_corpus(args.corpus, chunk_size)
    snapshot = {"corpus": args.corpus, "out": args.out, "chunk_size": chunk_size}
    write_manifest(args.out, "ingest", snapshot, seed, [args.corpus])
    save_store(store, args.out)
    print(
        f"wrote {args.out}: {stats.documents} documents, "
        f"{stats.passages} passages, {stats.dropped_empty} dropped empty"
    )
    return 0


def _cmd_index_bm25(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args.seed, config)
    _require_file(args.corpus, "passage store")
    verify_inputs(args.corpus)
    store = load_store(args.corpus)
    index = build_bm25_index(store)
    snapshot = {"corpus": args.corpus, "out": args.out}
    write_manifest(args.out, "index-bm25", snapshot, seed, [args.corpus])
    save_bm25_index(index, args.out)
    print(f"wrote {args.out}: {index.n_passages} passages, {len(index.postings)} distinct tokens")
    return 0


def _cmd_mine_negatives(args) -> int:
    config = _load_config(args.config)
    top_n = _resolve(args.top_n, config, "top_n", 100, int)
    seed = _resolve_seed(args.seed, config)
    for path, what in ((args.index, "index"), (args.store, "passage store"), (args.questions, "questions file")):
        _require_file(path, what)
    verify_inputs(args.index)
    verify_inputs(args.store)
    index = load_bm25_index(args.index)
    store = load_store(args.store)
    questions = parse_bioasq(args.questions)
    snapshot = {
        "index": args.index,
        "store": args.store,
        "questions": args.questions,
        "top_n": top_n,
        "out": args.out,
    }
    write_manifest(args.out, "mine-negatives", snapshot, seed, [args.index, args.store, args.questions])
    mined_total = 0
    with open(args.out, "w", encoding="utf-8") as f:
        for q in questions:
            mined = mine_hard_negatives(index, store, q, top_n=top_n, n=1)
            mined_total += len(mined)
            row = {"question_id": q.question_id, "hard_negative_ids": [p.passage_id for p in mined]}
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
    print(f"wrote {args.out}: {mined_total} hard negatives for {len(questions)} questions")
    return 0


def _cmd_build_dataset(args) -> int:
    config = _load_config(args.config)
    n_hard = _resolve(args.n_hard, config, "n_hard", 1, int)
    n_random = _resolve(args.n_random, config, "n_random", 0, int)
    top_n = _resolve(args.top_n, config, "top_n", 100, int)
    fractions = _parse_fractions(_resolve(args.split, config, "split", "0.8,0.1,0.1", str))
    seed = _resolve_seed(args.seed, config)
    for path, what in ((args.questions, "questions file"), (args.store, "passage store"), (args.index, "index")):
        _require_file(path, what)
    verify_inputs(args.store)
    verify_inputs(args.index)
    questions = parse_bioasq(args.questions)
    store = load_store(args.store)
    index = load_bm25_index(args.index)
    aligned, dropped = align_questions(questions, store)
    instances, short_of_hard = attach_negatives(
        aligned, store, index, n_hard=n_hard, n_random=n_random, top_n=top_n, seed=seed
    )
    splits = split_instances(instances, fractions, seed=seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = {
        "questions": args.questions,
        "store": args.store,
        "index": args.index,
        "out_dir": args.out_dir,
        "split": ",".join(str(f) for f in fractions),
        "n_hard": n_hard,
        "n_random": n_random,
        "top_n": top_n,
    }
    inputs = [args.questions, args.store, args.index]
    sizes = []
    for name in ("train", "dev", "test"):
        out_path = out_dir / f"{name}.json"
        write_manifest(out_path, "build-dataset", snapshot, seed, inputs)
        emit_dpr_json(splits[name], out_path)
        sizes.append(f"{name}={len(splits[name])}")
    print(
        f"wrote {out_dir}: {' '.join(sizes)} "
        f"(dropped {dropped} unaligned, {short_of_hard} short of hard negatives)"
    )
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    cfg = TrainConfig(
        batch_size=_resolve(args.batch_size, config, "batch_size", 16, int),
        epochs=_resolve(args.epochs, config, "epochs", 8, int),
        learning_rate=_resolve(args.lr, config, "learning_rate", 1e-2, float),
        seed=_resolve_seed(args.seed, config),
        d=_resolve(args.d, config, "d", 128, int),
        hash_dim=_resolve(args.hash_dim, config, "hash_dim", 16384, int),
        optimizer=_resolve(args.optimizer, config, "optimizer", "adam", str),
    )
    _require_file(args.train, "training split")
    verify_inputs(args.train)
    train_split = load_dpr_json(args.train, "train")
    dev_split = None
    inputs = [args.train]
    if args.dev is not None:
        _require_file(args.dev, "dev split")
        verify_inputs(args.dev)
        dev_split = load_dpr_json(args.dev, "dev")
        inputs.append(args.dev)
    model = init_model(d=cfg.d, hash_dim=cfg.hash_dim, seed=cfg.seed)
    model, metrics = train(model, train_split, dev_split, cfg)
    snapshot = {
        "train": args.train,
        "dev": args.dev,
        "out": args.out,
        "metrics": args.metrics,
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "d": cfg.d,
        "hash_dim": cfg.hash_dim,
        "optimizer": cfg.optimizer,
    }
    write_manifest(args.out, "train", snapshot, cfg.seed, inputs)
    save_model(model, args.out)
    for row in metrics:
        dev_hit = "-" if row["dev_hit_at_10"] is None else f"{row['dev_hit_at_10']:.4f}"
        print(
            f"epoch {row['epoch']}: mean_train_loss={row['mean_train_loss']:.6f} "
            f"dev_hit@10={dev_hit} ({row['wall_seconds']:.2f}s)"
        )
    if args.metrics is not None:
        write_manifest(args.metrics, "train", snapshot, cfg.seed, inputs)
        save_metrics(metrics, args.metrics)
    print(f"wrote {args.out}")
    return 0


def _cmd_index_dense(args) -> int:
    config = _load_config(args.config)
    batch_rows = _resolve(args.batch_rows, config, "batch_rows", 1024, int)
    seed = _resolve_seed(args.seed, config)
    _require_file(args.model, "model")
    _require_file(args.store, "passage store")
    verify_inputs(args.model)
    verify_inputs(args.store)
    model = load_model(args.model)
    store = load_store(args.store)
    index = build_dense_index(model, store, batch_rows=batch_rows)
    snapshot = {"model": args.model, "store": args.store, "out": args.out, "batch_rows": batch_rows}
    write_manifest(args.out, "index-dense", snapshot, seed, [args.model, args.store])
    save_index(index, args.out)
    print(f"wrote {args.out}: {len(index)} vectors of dimension {index.d}")
    return 0


def _model_meta(model_path: str) -> dict[str, str]:
    """Report metadata from the model's manifest, if one exists."""
    manifest = read_manifest(model_path)
    meta = {"encoder": "hashed-bow"}
    if manifest is not None:
        snapshot = manifest.config
        if "epochs" in snapshot:
            meta["epochs"] = str(snapshot["epochs"])
        if "batch_size" in snapshot:
            meta["batch"] = str(snapshot["batch_size"])
    return meta


def _cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    k_values = _parse_k_values(_resolve(args.k, config, "k", "1,5,10", str))
    mode = _resolve(args.mode, config, "mode", "gold_passage_id", str)
    fmt = _resolve(args.format, config, "format", "json", str)
    seed = _resolve_seed(args.seed, config)
    for path, what in (
        (args.model, "model"),
        (args.index, "index"),
        (args.store, "passage store"),
        (args.questions, "questions file"),
    ):
        _require_file(path, what)
    for path in (args.model, args.index, args.store):
        verify_inputs(path)
    model = load_model(args.model)
    index = load_index(args.index)
    store = load_store(args.store)
    questions = parse_bioasq(args.questions)
    instances, dropped = align_questions(questions, store)
    cfg = EvalConfig(k_values=k_values, match_mode=mode)
    report = evaluate(model, index, store, instances, cfg, meta=_model_meta(args.model))
    snapshot = {
        "model": args.model,
        "index": args.index,
        "store": args.store,
        "questions": args.questions,
        "k": ",".join(str(k) for k in k_values),
        "mode": mode,
        "format": fmt,
        "out": args.out,
    }
    write_manifest(args.out, "evaluate", snapshot, seed, [args.model, args.index, args.store, args.questions])
    write_report(report, args.out, fmt)
    for k in k_values:
        row = report.per_k[k]
        print(f"hit@{k}={row['hit_rate']:.4f} precision={row['precision']:.4f} "
              f"recall={row['recall']:.4f} f1={row['f1']:.4f}")
    print(f"evaluated {report.n_questions} questions ({dropped} dropped unaligned); wrote {args.out}")
    return 0


def _cmd_repl(args) -> int:
    config = _load_config(args.config)
    k = _resolve(args.k, config, "k", 10, int)
    for path, what in ((args.index, "index"), (args.model, "model"), (args.store, "passage store")):
        _require_file(path, what)
    for path in (args.index, args.model, args.store):
        verify_inputs(path)
    index = load_index(args.index)
    model = load_model(args.model)
    store = load_store(args.store)
    print(f"{len(index)} passages loaded; :show <passage_id> for full text, :quit to exit")
    while True:
        try:
            line = input("dpr> ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line == ":quit":
            return 0
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
        result = search(index, encode_question(model, line), k)
        for hit in result:
            passage = store.get(hit.passage_id)
            print(f"{hit.rank:>3}  {hit.score: .6f}  {hit.passage_id}  {passage.title}  {passage.text[:120]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deskdpr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"deskdpr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.add_argument("--seed", type=int, help=f"RNG seed (also {SEED_ENV_VAR}; default 0)")

    p = sub.add_parser("ingest", help="chunk a JSONL corpus into a passage store")
    p.add_argument("--corpus", required=True, help="JSONL corpus, one document per line")
    p.add_argument("--out", required=True, help="passage store output path")
    p.add_argument("--chunk-size", type=int, help="words per passage (default 100)")
    common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("index-bm25", help="build the lexical index from a passage store")
    p.add_argument("--corpus", required=True, help="passage store path")
    p.add_argument("--out", required=True, help="index output path")
    common(p)
    p.set_defaults(func=_cmd_index_bm25)

    p = sub.add_parser("mine-negatives", help="top lexical matches that lack the answer")
    p.add_argument("--index", required=True, help="lexical index path")
    p.add_argument("--store", required=True, help="passage store path")
    p.add_argument("--questions", required=True, help="questions JSON path")
    p.add_argument("--top-n", type=int, help="candidate pool size (default 100)")
    p.add_argument("--out", required=True, help="JSONL output path")
    common(p)
    p.set_defaults(func=_cmd_mine_negatives)

    p = sub.add_parser("build-dataset", help="align positives, attach negatives, split")
    p.add_argument("--questions", required=True, help="questions JSON path")
    p.add_argument("--store", required=True, help="passage store path")
    p.add_argument("--index", required=True, help="lexical index path")
    p.add_argument("--out-dir", required=True, help="directory for train/dev/test.json")
    p.add_argument("--split", help="train,dev,test fractions (default 0.8,0.1,0.1)")
    p.add_argument("--n-hard", type=int, help="hard negatives per question (default 1)")
    p.add_argument("--n-random", type=int, help="random negatives per question (default 0)")
    p.add_argument("--top-n", type=int, help="mining pool size (default 100)")
    common(p)
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("train", help="train the dual encoder")
    p.add_argument("--train", required=True, help="training split JSON path")
    p.add_argument("--dev", help="dev split JSON path (optional)")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--metrics", help="per-epoch metrics JSONL output path")
    p.add_argument("--batch-size", type=int, help="questions per batch (default 16)")
    p.add_argument("--epochs", type=int, help="passes over the training split (default 8)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.01)")
    p.add_argument("--d", type=int, help="embedding dimension (default 128)")
    p.add_argument("--hash-dim", type=int, help="feature hash buckets (default 16384)")
    p.add_argument("--optimizer", choices=["adam", "sgd"], help="optimizer (default adam)")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("index-dense", help="encode every passage into a flat vector index")
    p.add_argument("--model", required=True, help="model path")
    p.add_argument("--store", required=True, help="passage store path")
    p.add_argument("--out", required=True, help="index output path")
    p.add_argument("--batch-rows", type=int, help="encoding batch size (default 1024)")
    common(p)
    p.set_defaults(func=_cmd_index_dense)

    p = sub.add_parser("evaluate", help="retrieval quality of a model over an index")
    p.add_argument("--model", required=True, help="model path")
    p.add_argument("--index", required=True, help="dense index path")
    p.add_argument("--store", required=True, help="passage store path")
    p.add_argument("--questions", required=True, help="questions JSON path")
    p.add_argument("--k", help="comma-separated cutoffs (default 1,5,10)")
    p.add_argument("--mode", choices=["answer_string", "gold_passage_id"], help="hit judging mode")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", choices=["json", "markdown_table"], help="report format (default json)")
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("repl", help="interactive retrieval against a dense index")
    p.add_argument("--index", required=True, help="dense index path")
    p.add_argument("--model", required=True, help="model path")
    p.add_argument("--store", required=True, help="passage store path")
    p.add_argument("--k", type=int, help="results per query (default 10)")
    common(p)
    p.set_defaults(func=_cmd_repl)

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
        return args.func(args)
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
