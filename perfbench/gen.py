"""Seeded treebank generators for the benchmark workloads, with ground truth.

Trees are built directly from the npstat node classes and written out by this
module's own serializer, never by ``npstat.treebank.serialize_tree``.  While it
builds a sentence the generator records what it planted: the givenness
category of every NP, the fronted adverbials of the root clause, the
complement frame of every use of *disclose* and every late-closure
configuration.  Combined with the definitional oracles in ``tests/oracles.py``
(grammatical position and clause context, late-closure soundness) that ground
truth gives the exact bytes each CLI command must print, so no check relies
on the code under test.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from types import SimpleNamespace

from npstat.treebank import Internal, Leaf, NodeLabel
from oracles import late_closure_match_is_sound, oracle_occurrences

NOUNS = ("maid", "officer", "location", "economy", "lawyer", "risk",
         "ledger", "clerk", "report", "garden", "bond", "auditor")
PLURALS = ("documents", "missionaries", "cannibals", "books", "reasons", "shares")
PROPER = ("Smith", "Larson", "Holmes", "Watson", "Mercer")
PRONOUNS = ("it", "she", "they", "we", "he")
TRANSITIVE = ("saw", "disclosed", "returned", "realized", "lost", "sold")
INTRANSITIVE = ("collapsed", "drank", "worked", "slept", "disclosed", "left")
CLAUSAL = ("said", "disclosed", "realized", "argued", "told")
DISCLOSE_FORMS = frozenset({"disclose", "discloses", "disclosed", "disclosing"})

GIVENNESS = ("empty-category", "pronoun", "proper-name", "definite",
             "indefinite", "not-classified")
FRAMES = ("np-complement", "that-clause", "reduced-clause", "intransitive")
# (position, context) of the six base cells of a table1 row, in column order.
TABLE1_CELLS = (
    ("subject", "embedded-tc"), ("subject", "embedded-rc"), ("subject", "matrix"),
    ("non-subject", "embedded-tc"), ("non-subject", "embedded-rc"),
    ("non-subject", "matrix"),
)

TABLE1_COLUMNS = ("corpus", "givenness", "subj_tc", "subj_rc", "subj_tc_rc",
                  "subj_matrix", "nonsubj_tc", "nonsubj_rc", "nonsubj_tc_rc",
                  "nonsubj_matrix")
LATE_COLUMNS = ("file", "sentence", "verb", "np", "givenness")
ADVERBIAL_COLUMNS = ("category", "fronted", "not_comma_delimited", "pct_not_delimited")
VERB_COLUMNS = ("frame", "count")
PARSE_COLUMNS = ("file", "sentences", "status")


class GeneratorError(RuntimeError):
    """The generator's ground truth disagrees with the definitional oracles."""


def _n(label: str, *children) -> Internal:
    return Internal(label=NodeLabel.from_string(label), children=children)


def _l(pos: str, token: str) -> Leaf:
    return Leaf(pos=pos, token=token)


def leaves(tree) -> list[Leaf]:
    out: list[Leaf] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def surface(tree) -> str:
    return " ".join(l.token for l in leaves(tree) if l.pos != "-NONE-")


def bracket(tree) -> str:
    """Bracketed text of one tree, written without recursion."""
    out: list[str] = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Leaf):
            out.append(f"({node.pos} {node.token})")
        else:
            label = node.label
            out.append("(" + label.category + "".join("-" + t for t in label.function_tags))
            stack.append(")")
            stack.extend(reversed(node.children))
    return " ".join(out)


class Sentence:
    """One sentence: a right-branching chain of ``clauses`` complement clauses,
    built innermost first, with the ground truth it planted."""

    def __init__(self, rng: random.Random, clauses: int, embedded_front_p: float):
        self.rng = rng
        self.category: dict[int, str] = {}  # id(NP node) -> givenness category
        self.late: list[tuple[Internal, Leaf, Internal]] = []  # (VP, verb, critical NP)
        self.adverbials: list[tuple[str, bool]] = []  # root clause: (category, comma)
        self.frames: Counter[str] = Counter()  # complement frames of "disclose"
        tree = None
        for k in range(clauses):
            root = k == clauses - 1
            vp = self.simple_vp() if tree is None else self.clausal_vp(tree)
            tree = self.clause(vp, root, 0.4 if root else embedded_front_p)
        self.tree: Internal = tree

    def np(self, label: str = "NP") -> Internal:
        r = self.rng
        kind = r.randrange(8)
        if kind == 0:
            node, cat = _n(label, _l("PRP", r.choice(PRONOUNS))), "pronoun"
        elif kind == 1:
            node, cat = _n(label, _l("NNP", r.choice(PROPER))), "proper-name"
        elif kind == 2:
            node, cat = _n(label, _l("DT", r.choice(("the", "this"))),
                           _l("NN", r.choice(NOUNS))), "definite"
        elif kind == 3:
            node, cat = _n(label, _l("DT", r.choice(("a", "some"))),
                           _l("NN", r.choice(NOUNS))), "indefinite"
        elif kind == 4:
            node, cat = _n(label, _l("NNS", r.choice(PLURALS))), "not-classified"
        elif kind == 5:
            node, cat = _n(label, _n("NP", _l("NNP", r.choice(PROPER)), _l("POS", "'s")),
                           _l("NN", r.choice(NOUNS))), "definite"
        elif kind == 6:
            node, cat = _n(label, _l("PRP$", r.choice(("his", "their"))),
                           _l("NN", r.choice(NOUNS))), "definite"
        else:
            node, cat = _n(label, _l("CD", r.choice(("three", "42"))),
                           _l("NNS", r.choice(PLURALS))), "indefinite"
        self.category[id(node)] = cat
        return node

    def verb(self, pos: str, token: str, frame: str) -> Leaf:
        if token in DISCLOSE_FORMS:
            self.frames[frame] += 1
        return _l(pos, token)

    def intransitive(self) -> Internal:
        return _n("VP", self.verb("VBD", self.rng.choice(INTRANSITIVE), "intransitive"))

    def simple_vp(self) -> Internal:
        r = self.rng
        kind = r.randrange(4)
        if kind == 0:
            return self.intransitive()
        if kind == 3:
            empty = _n("NP-SBJ", _l("-NONE-", "*"))
            self.category[id(empty)] = "empty-category"
            inner = _n("VP", self.verb("VB", "disclose", "np-complement"), self.np())
            return _n("VP", _l("VBD", "wanted"),
                      _n("S", empty, _n("VP", _l("TO", "to"), inner)))
        verb = self.verb("VBD", r.choice(TRANSITIVE), "np-complement")
        if kind == 1:
            return _n("VP", verb, self.np())
        return _n("VP", verb, self.np(), _n("PP-LOC", _l("IN", "on"), self.np()))

    def clausal_vp(self, clause: Internal) -> Internal:
        r = self.rng
        that = r.random() < 0.5
        with_object = r.random() < 0.2
        frame = "np-complement" if with_object else ("that-clause" if that else "reduced-clause")
        verb = self.verb("VBD", r.choice(CLAUSAL), frame)
        comp = _l("IN", "that") if that else _l("-NONE-", "0")
        sbar = _n("SBAR", comp, clause)
        return _n("VP", verb, self.np(), sbar) if with_object else _n("VP", verb, sbar)

    def clause(self, vp: Internal, root: bool, front_p: float) -> Internal:
        r = self.rng
        children: list = []
        when_vp = None
        if r.random() < front_p:
            kind = r.randrange(3)
            comma = r.random() < 0.6
            if kind == 0:
                adverbial, category = _n("PP-TMP", _l("IN", "After"), self.np()), "PP"
            elif kind == 1:
                when_vp = self.intransitive()
                adverbial = _n("SBAR-TMP", _l("IN", "When"),
                               _n("S", self.np("NP-SBJ"), when_vp))
                category = "SBAR"
            else:
                adverbial, category = _n("ADVP-TMP", _l("RB", "Now")), "ADVP"
            children.append(adverbial)
            if comma:
                children.append(_l(",", ","))
                when_vp = None
            if root:
                self.adverbials.append((category, comma))
        subject = self.np("NP-SBJ")
        if when_vp is not None:
            # "When X left the maid ..." -- the subject could be read as the object.
            self.late.append((when_vp, when_vp.children[0], subject))
        children += [subject, vp]
        if root:
            children.append(_l(".", "."))
        return _n("S", *children)

def flat_sentences(rng: random.Random, count: int) -> list[Sentence]:
    return [Sentence(rng, rng.choice((1, 1, 1, 2, 2, 3)), 0.0) for _ in range(count)]


def deep_sentences(rng: random.Random, count: int) -> list[Sentence]:
    """Chains of 100 to 250 clauses, evenly spread so every seed does equal work.

    250 clauses stays below the ~330 at which the CLI fails with RecursionError.
    """
    depths = [100 + 150 * k // max(count - 1, 1) for k in range(count)]
    rng.shuffle(depths)
    return [Sentence(rng, depth, 0.3) for depth in depths]


def _corrupt(text: str, kind: int) -> bytes:
    """A malformed variant of a file: unclosed, over-closed or not UTF-8."""
    if kind == 0:
        return text.rstrip()[:-1].encode("utf-8")
    if kind == 1:
        return (text + ")\n").encode("utf-8")
    return text.encode("utf-8").replace(b" ", b" \xe9", 1)


# name -> (files, sentences per file, sentence builder, wrapped layout, malformed files)
WORKLOADS = {
    "flat-wsj": (4, 250, flat_sentences, True, 0),
    "deep-clauses": (3, 2, deep_sentences, False, 0),
    "many-small": (300, 5, flat_sentences, True, 8),
}


def records_text(record: str, columns, rows) -> str:
    """What ``npstat ... --format records`` prints for these rows."""
    lines = [json.dumps({"record": record, **dict(zip(columns, row))}) for row in rows]
    return "\n".join(lines) + "\n"


def pct(numerator: int, denominator: int) -> float:
    share = Decimal(100) * Decimal(numerator) / Decimal(denominator)
    return float(share.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def table1_rows(cells: Counter, label: str) -> list[list]:
    rows = []
    for cat in GIVENNESS:
        stc, src, sm, ntc, nrc, nm = (cells[(cat, *cell)] for cell in TABLE1_CELLS)
        rows.append([label, cat, stc, src, stc + src, sm, ntc, nrc, ntc + nrc, nm])
    rows.append([label, "total", *(sum(col) for col in list(zip(*rows))[2:])])
    return rows


def adverbial_rows(pairs) -> list[list]:
    """Survey rows from (category, comma-delimited) pairs, as the CLI groups them."""
    totals: Counter[str] = Counter()
    missing: Counter[str] = Counter()
    for category, comma in pairs:
        key = category if category in ("SBAR", "PP") else "other"
        totals[key] += 1
        missing[key] += not comma
    if not totals:
        return []
    grand, grand_missing = sum(totals.values()), sum(missing.values())
    rows = [["ALL", grand, grand_missing, pct(grand_missing, grand)]]
    rows += [[key, totals[key], missing[key], pct(missing[key], totals[key])]
             for key in ("SBAR", "PP", "other") if totals[key]]
    return rows


def verb_rows(frames: Counter) -> list[list]:
    return [[frame, frames[frame]] for frame in FRAMES] + [["total", sum(frames.values())]]


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's corpus under ``root/corpus``; return its manifest.

    The manifest holds the input size and, per CLI command, the exact records
    output expected from it.
    """
    nfiles, per_file, build, wrapped, nbad = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    corpus = root / "corpus"
    if root.exists():
        shutil.rmtree(root)
    corpus.mkdir(parents=True)

    cells: Counter = Counter()
    late_rows: list[list] = []
    adverbials: list[tuple[str, bool]] = []
    frames: Counter[str] = Counter()
    parse_rows: list[list] = []
    sentences = size = 0
    skipped: list[str] = []
    bad_files = set(rng.sample(range(nfiles), nbad))
    for i in range(nfiles):
        file_id = f"d{i // 100:02d}/f{i:05d}.mrg" if nfiles > 100 else f"wsj_{i:04d}.mrg"
        bad = i in bad_files
        texts = []
        for idx, s in enumerate(build(rng, per_file)):
            text = bracket(s.tree)
            texts.append(f"( {text} )" if wrapped else text)
            if bad:
                continue
            for node_id, (position, context) in oracle_occurrences(s.tree).items():
                if node_id not in s.category:
                    raise GeneratorError(f"{file_id}:{idx}: NP without planted category")
                cells[(s.category[node_id], position, context)] += 1
            order = {id(leaf): k for k, leaf in enumerate(leaves(s.tree))}
            for vp, verb, np in sorted(s.late, key=lambda m: order[id(m[1])]):
                match = SimpleNamespace(vp_node=vp, final_verb=verb, critical_np=np)
                if not late_closure_match_is_sound(s.tree, match):
                    raise GeneratorError(f"{file_id}:{idx}: unsound late-closure plant")
                late_rows.append([file_id, idx, verb.token, surface(np), s.category[id(np)]])
            adverbials += s.adverbials
            frames.update(s.frames)
        text = "\n".join(texts) + "\n"
        data = _corrupt(text, len(skipped) % 3) if bad else text.encode("utf-8")
        path = corpus / file_id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        size += len(data)
        if bad:
            skipped.append(file_id)
            parse_rows.append([file_id, 0, "skipped"])
        else:
            parse_rows.append([file_id, per_file, "ok"])
            sentences += per_file

    return {
        "workload": workload,
        "seed": seed,
        "files": nfiles,
        "mb": round(size / 1e6, 3),
        "sentences": sentences,
        "skipped": skipped,
        "expected": {
            "parse": records_text("parse-file", PARSE_COLUMNS, parse_rows),
            "table1": records_text("table1-row", TABLE1_COLUMNS,
                                   table1_rows(cells, corpus.name)),
            "late_closure": records_text("late-closure-match", LATE_COLUMNS, late_rows),
            "adverbials": records_text("adverbial-row", ADVERBIAL_COLUMNS,
                                       adverbial_rows(adverbials)),
            "verb": records_text("verb-frame", VERB_COLUMNS, verb_rows(frames)),
        },
    }
