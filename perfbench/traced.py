"""Traced in-process run: one span around every call into an npstat module.

The pass below computes what ``table1``, ``late-closure``, ``adverbials`` and
``verb`` compute, calling each module's public functions directly.  Each call
records a span (name, start, end, parent span, trace id = file id) in memory;
the spans of the last pass are written out when the run ends.  A layer's
self time is its spans' duration minus the time their child spans cover.
The same pass also runs untraced, and the difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from collections import Counter
from pathlib import Path

import gen
from npstat.corpus import AggregateCounts, CorpusSource, aggregate_corpus, corpus_files, merge
from npstat.givenness import classify_np
from npstat.queries import (
    extract_np_occurrences,
    find_late_closure_configs,
    profile_verb_frames,
    survey_fronted_adverbials,
)
from npstat.report import ReportFormat, Table1Block, Table1Report, render_rows
from npstat.treebank import Leaf, TreebankSyntaxError, parse_trees

RECORDS = ReportFormat.STRUCTURED_RECORDS
# Nesting depths, in bracket levels, tried by the depth probe.
DEPTH_LADDER = (100, 250, 500, 750, 900, 1000, 1500, 2000, 3000, 5000, 7500, 10000)
# Stage spans whose self times make up the shares; the per-file span is glue and
# aggregate_corpus repeats the whole pipeline inside one call.
_NOT_STAGES = ("corpus.file", "corpus.aggregate")


class Tracer:
    """Calls ``fn(*args)`` inside a span kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.trace_id = ""
        self._open: list[int] = []

    def __call__(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.trace_id)

    def self_times(self) -> Counter:
        covered: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[index]
        return out


class Untraced:
    trace_id = ""

    def __call__(self, name, fn, *args):
        return fn(*args)


class GcClock:
    """``gc.callbacks`` hook: time spent collecting and generation-2 collections."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.gen2 += info["generation"] == 2


def one_pass(call, corpus: Path) -> tuple[dict[str, str], Counter, AggregateCounts]:
    """Every CLI command's records output for ``corpus``, plus work counts."""
    counts: Counter = Counter()
    total = AggregateCounts()
    late_rows: list[list] = []
    adverbials: list[tuple[str, bool]] = []
    frames: Counter[str] = Counter()

    def one_file(path: Path) -> AggregateCounts | None:
        file_id = call.trace_id
        counts["files_read"] += 1
        try:
            text = call("corpus.read", path.read_text, "utf-8")
            trees = call("treebank.parse", parse_trees, text)
        except (UnicodeDecodeError, TreebankSyntaxError):
            counts["files_skipped"] += 1
            return None
        counts["chars_parsed"] += len(text)
        partial = AggregateCounts(files_processed=1, sentences_processed=len(trees))
        for idx, tree in enumerate(trees):
            counts["nodes"] += sum(1 for _ in tree.iter_nodes())
            for occ in call("queries.extract", extract_np_occurrences, tree, file_id, idx):
                counts["nps"] += 1
                category = call("givenness.classify", classify_np, occ.node)
                partial.increment(category, occ.position, occ.context)
            for match in call("queries.late_closure", find_late_closure_configs,
                              tree, file_id, idx):
                category = call("givenness.classify", classify_np, match.critical_np)
                late_rows.append([file_id, idx, match.final_verb.token,
                                  match.critical_np.text(), category.value])
            for record in call("queries.adverbials", survey_fronted_adverbials,
                               tree, file_id, idx):
                adverbials.append((record.category, record.comma_delimited))
        profile = call("queries.verb_frames", profile_verb_frames,
                       trees, "disclose", sorted(gen.DISCLOSE_FORMS))
        for frame, n in profile.counts.items():
            frames[frame.value] += n
        return partial

    source = CorpusSource(root_path=corpus)
    for path in call("corpus.list", corpus_files, source):
        call.trace_id = path.relative_to(corpus).as_posix()
        partial = call("corpus.file", one_file, path)
        if partial is not None:
            total = call("corpus.merge", merge, total, partial)
    call.trace_id = "corpus"
    serial = call("corpus.aggregate", aggregate_corpus, source)
    counts["aggregate_agrees"] = serial.cells == total.cells
    counts["late_matches"] = len(late_rows)
    table = Table1Report(blocks=(Table1Block.from_aggregate(total, label=corpus.name),))
    outputs = {
        "table1": call("report.render", table.render, RECORDS),
        "late_closure": call("report.render", render_rows, gen.LATE_COLUMNS,
                             late_rows, RECORDS, "late-closure-match"),
        "adverbials": call("report.render", render_rows, gen.ADVERBIAL_COLUMNS,
                           gen.adverbial_rows(adverbials), RECORDS, "adverbial-row"),
        "verb": call("report.render", render_rows, gen.VERB_COLUMNS,
                     gen.verb_rows(frames), RECORDS, "verb-frame"),
    }
    return outputs, counts, total


def _pass_is_correct(manifest: dict, outputs: dict, counts: Counter,
                     total: AggregateCounts) -> bool:
    expected = manifest["expected"]
    return (
        all(text + "\n" == expected[cmd] for cmd, text in outputs.items())
        and counts["aggregate_agrees"]
        and counts["files_skipped"] == len(manifest["skipped"])
        and total.sentences_processed == manifest["sentences"]
    )


def _layer_metrics(tracer: Tracer, clock: GcClock, counts: Counter,
                   outputs: dict) -> dict[str, float]:
    self_s = tracer.self_times()
    stages = sum(v for name, v in self_s.items() if name not in _NOT_STAGES)
    queries = sum(v for name, v in self_s.items() if name.startswith("queries."))
    return {
        "corpus.list_s": self_s["corpus.list"],
        "corpus.read_s": self_s["corpus.read"],
        "corpus.merge_s": self_s["corpus.merge"],
        "corpus.aggregate_s": self_s["corpus.aggregate"],
        "corpus.files_read": counts["files_read"],
        "corpus.files_skipped": counts["files_skipped"],
        "treebank.parse_s": self_s["treebank.parse"],
        "treebank.parse_mb_per_s": counts["chars_parsed"] / 1e6 / self_s["treebank.parse"],
        "treebank.nodes_built": counts["nodes"],
        "treebank.parse_share_pct": 100 * self_s["treebank.parse"] / stages,
        "queries.extract_s": self_s["queries.extract"],
        "queries.late_closure_s": self_s["queries.late_closure"],
        "queries.adverbials_s": self_s["queries.adverbials"],
        "queries.verb_frames_s": self_s["queries.verb_frames"],
        "queries.nps_found": counts["nps"],
        "queries.late_closure_matches": counts["late_matches"],
        "queries.share_pct": 100 * queries / stages,
        "givenness.classify_s": self_s["givenness.classify"],
        "givenness.classify_calls": sum(s[0] == "givenness.classify" for s in tracer.spans),
        "report.render_s": self_s["report.render"],
        "report.bytes_out": sum(len(text) for text in outputs.values()),
        "runtime.gc_s": clock.seconds,
        "runtime.gc_gen2_collections": clock.gen2,
    }


def _depth(tree) -> int:
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if not isinstance(node, Leaf):
            stack.extend((child, depth + 1) for child in node.children)
    return deepest


def depth_probe() -> dict[str, int]:
    """Deepest single tree on the ladder that each layer handles without raising.

    ``treebank`` parses the bracketed text; ``queries`` runs extraction and the
    late-closure query on the generator's own tree, so it does not depend on
    the parser.
    """
    best = {"treebank.max_depth_ok": 0, "queries.max_depth_ok": 0}
    for levels in DEPTH_LADDER:
        tree = gen.Sentence(random.Random(levels), levels // 3, 0.0).tree
        depth = _depth(tree)
        text = gen.bracket(tree)
        try:
            parse_trees(text)
        except Exception:  # any failure at this depth, RecursionError included
            pass
        else:
            best["treebank.max_depth_ok"] = max(best["treebank.max_depth_ok"], depth)
        try:
            extract_np_occurrences(tree)
            find_late_closure_configs(tree)
        except Exception:
            pass
        else:
            best["queries.max_depth_ok"] = max(best["queries.max_depth_ok"], depth)
    return best


def run(manifest: dict, corpus: Path, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes for ``seconds``; return
    (passes attempted, passes failed, per-layer metrics as medians)."""
    plain_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    tracer = None
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        for traced in ((False, True) if len(layers) % 2 == 0 else (True, False)):
            call = Tracer() if traced else Untraced()
            clock = GcClock()
            if traced:
                gc.callbacks.append(clock)
            began = time.perf_counter()
            try:
                outputs, counts, total = one_pass(call, corpus)
            finally:
                elapsed = time.perf_counter() - began
                if traced:
                    gc.callbacks.remove(clock)
            attempted += 1
            failed += not _pass_is_correct(manifest, outputs, counts, total)
            if traced:
                traced_s.append(elapsed)
                layers.append(_layer_metrics(call, clock, counts, outputs))
                tracer = call
            else:
                plain_s.append(elapsed)

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    plain = statistics.median(plain_s)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced_s) - plain) / plain
    metrics.update(depth_probe())
    with open(spans_path, "w", encoding="utf-8") as out:
        for name, begin, end, parent, trace_id in tracer.spans:
            out.write(json.dumps({"name": name, "start": begin, "end": end,
                                  "parent": parent, "trace_id": trace_id}) + "\n")
    return attempted, failed, metrics
