"""Span tracing of deskdpr's public functions, installed from outside.

The tracer replaces each traced function with a wrapper in every
``deskdpr`` module that holds it under any name (``training`` imports
``featurize_texts``, ``cli`` imports ``bm25.build_index`` as
``build_bm25_index``), so calls are seen whichever module makes them.
Each call records a span: name, start, end and the index of its parent
span.  Spans stay in memory until ``write``.  A traced name that the
program no longer defines is listed in ``missing`` instead of failing.

A span's self time is its duration minus the time of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute path) of each function it covers.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("deskdpr.cli", "main"),),
    "corpus.ingest": (("deskdpr.corpus", "ingest_corpus"),),
    "corpus.save_store": (("deskdpr.corpus", "save_store"),),
    "corpus.load_store": (("deskdpr.corpus", "load_store"),),
    "manifest.sha256": (("deskdpr.manifest", "sha256_file"),),
    "bm25.build": (("deskdpr.bm25", "build_index"),),
    "bm25.save": (("deskdpr.bm25", "save_bm25_index"),),
    "bm25.load": (("deskdpr.bm25", "load_bm25_index"),),
    "bm25.top_k": (("deskdpr.bm25", "bm25_top_k"),),
    "bm25.mine": (("deskdpr.bm25", "mine_hard_negatives"),),
    "dataset.align": (("deskdpr.dataset", "align_questions"),),
    "dataset.attach": (("deskdpr.dataset", "attach_negatives"),),
    "dataset.emit": (("deskdpr.dataset", "emit_dpr_json"),),
    "dataset.load": (("deskdpr.dataset", "load_dpr_json"),),
    "encoder.featurize": (("deskdpr.encoder", "featurize_texts"),),
    "encoder.project": (("deskdpr.encoder", "_project"),),
    "encoder.save_model": (("deskdpr.encoder", "save_model"),),
    "encoder.load_model": (("deskdpr.encoder", "load_model"),),
    "training.loop": (("deskdpr.training", "train"),),
    "training.batch_gradients": (("deskdpr.training", "batch_gradients"),),
    "training.optimizer": (
        ("deskdpr.training", "AdamOptimizer.step"),
        ("deskdpr.training", "SgdOptimizer.step"),
    ),
    "training.dev_eval": (("deskdpr.training", "dev_hit_at_k"),),
    "flat_index.build": (("deskdpr.flat_index", "build_index"),),
    "flat_index.save": (("deskdpr.flat_index", "save_index"),),
    "flat_index.load": (("deskdpr.flat_index", "load_index"),),
    "flat_index.search": (("deskdpr.flat_index", "search"),),
    "evaluation.evaluate": (("deskdpr.evaluation", "evaluate"),),
}

# Per-layer metric -> (span name, what to read, unit).  "self" is total
# self time, "calls" the span count, anything else a counter.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "training.steps": ("training.optimizer", "calls", "count"),
    "training.batch_gradients_s": ("training.batch_gradients", "self", "s"),
    "training.optimizer_s": ("training.optimizer", "self", "s"),
    "training.dev_eval_s": ("training.dev_eval", "self", "s"),
    "training.loop_s": ("training.loop", "self", "s"),
    "encoder.featurize_calls": ("encoder.featurize", "calls", "count"),
    "encoder.featurize_s": ("encoder.featurize", "self", "s"),
    "encoder.texts_featurized": ("encoder.featurize", "texts", "count"),
    "encoder.texts_per_distinct": ("encoder.featurize", "texts_per_distinct", "ratio"),
    "encoder.project_s": ("encoder.project", "self", "s"),
    "encoder.save_model_s": ("encoder.save_model", "self", "s"),
    "encoder.load_model_s": ("encoder.load_model", "self", "s"),
    "flat_index.search_calls": ("flat_index.search", "calls", "count"),
    "flat_index.search_s": ("flat_index.search", "self", "s"),
    "flat_index.build_s": ("flat_index.build", "self", "s"),
    "flat_index.save_s": ("flat_index.save", "self", "s"),
    "flat_index.load_s": ("flat_index.load", "self", "s"),
    "bm25.top_k_calls": ("bm25.top_k", "calls", "count"),
    "bm25.top_k_s": ("bm25.top_k", "self", "s"),
    "bm25.mine_calls": ("bm25.mine", "calls", "count"),
    "bm25.mine_s": ("bm25.mine", "self", "s"),
    "bm25.build_s": ("bm25.build", "self", "s"),
    "bm25.save_s": ("bm25.save", "self", "s"),
    "bm25.load_s": ("bm25.load", "self", "s"),
    "dataset.align_s": ("dataset.align", "self", "s"),
    "dataset.attach_s": ("dataset.attach", "self", "s"),
    "dataset.emit_s": ("dataset.emit", "self", "s"),
    "dataset.load_s": ("dataset.load", "self", "s"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "self", "s"),
    "evaluation.questions": ("evaluation.evaluate", "questions", "count"),
    "corpus.ingest_s": ("corpus.ingest", "self", "s"),
    "corpus.save_store_s": ("corpus.save_store", "self", "s"),
    "corpus.load_store_s": ("corpus.load_store", "self", "s"),
    "manifest.sha256_calls": ("manifest.sha256", "calls", "count"),
    "manifest.sha256_bytes": ("manifest.sha256", "bytes", "B"),
    "manifest.sha256_s": ("manifest.sha256", "self", "s"),
    "cli.self_s": ("cli.main", "self", "s"),
}


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._distinct_texts: set[str] = set()
        self._distinct_per_round: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def round(self):
        """The root span of one benchmark round."""
        self._distinct_texts.clear()
        self._open("round")
        try:
            yield
        finally:
            self._close()
            self._distinct_per_round.append(len(self._distinct_texts))

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # -- counters recorded at call time -------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict) -> None:
        counters = self.counters[name]
        if name == "encoder.featurize":
            texts = _arg(args, kwargs, 0, "texts")
            if isinstance(texts, (list, tuple)):
                counters["texts"] += len(texts)
                self._distinct_texts.update(texts)
        elif name == "manifest.sha256":
            counters["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "evaluation.evaluate":
            counters["questions"] += len(_arg(args, kwargs, 3, "instances"))

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name, args, kwargs)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def install(self) -> None:
        for module_name, _ in {t for targets in TARGETS.values() for t in targets}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items()) if n == "deskdpr" or n.startswith("deskdpr.")]
        for name, targets in TARGETS.items():
            for module_name, attr_path in targets:
                owner = sys.modules.get(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if owner is None or not callable(original):
                    self.missing.append(f"{module_name}.{attr_path}")
                    continue
                wrapper = self._wrap(name, original)
                holders = [owner] if outer else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return totals

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per round; layers never called read 0."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out: dict[str, tuple[float, str]] = {}
        for metric, (span, what, unit) in LAYER_METRICS.items():
            if what == "self":
                value = self_s.get(span, 0.0) / rounds
            elif what == "calls":
                value = calls.get(span, 0) / rounds
            elif what == "texts_per_distinct":
                distinct = sum(self._distinct_per_round)
                value = self.counters[span]["texts"] / distinct if distinct else 0.0
            else:
                value = self.counters[span][what] / rounds
            out[metric] = (value, unit)
        # The round span's self time is the part of the round no traced
        # function covers: the benchmark's own loop and untraced glue.
        task = sum(end - start for name, start, end, _ in self.spans if name == "round") / rounds
        out["trace.task_s"] = (task, "s")
        out["trace.unattributed_s"] = (self_s.get("round", 0.0) / rounds, "s")
        out["trace.spans"] = (len(self.spans) / rounds, "count")
        out["trace.missing"] = (len(self.missing), "count")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent"],
            "missing": self.missing,
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
