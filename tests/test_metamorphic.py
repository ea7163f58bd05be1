"""Relations between whole CLI runs (metamorphic tests).

Each test rewrites a corpus into a variant and runs the corpus commands on both,
in-process through ``npstat.cli.main``.  The variant changes the output only as
its relation says:

- **partition**: the same sentences in other files (one file per sentence, all
  in one file, or the files in reverse order under new names) print the same
  ``table1``, ``chisq``, ``adverbials`` and ``verb`` output, and the same
  multiset of late-closure (verb, np, givenness) triples;
- **scaling**: two copies of the corpus double every count and the chi-square
  statistic, and leave every percentage as it was;
- **round trip**: every parsed file rewritten by ``serialize_tree`` prints the
  same output, byte for byte.

A file that does not read or parse is kept as it is, under its own name, in
every variant, so each run skips the same files.  A variant keeps the corpus
directory's name, which ``table1`` prints as its label.
"""

import functools
import io
import re
import shutil
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from npstat.cli import main
from npstat.corpus import CorpusSource, read_files
from npstat.render import parse_records
from npstat.treebank import parse_trees, serialize_tree

FIXTURES = Path(__file__).parent / "fixtures"

COMMANDS = {
    "table1": ["table1"],
    "chisq": ["chisq"],
    "adverbials": ["adverbials"],
    "verb": ["verb", "--verb", "disclose"],
    "late-closure": ["late-closure"],
}
# A late-closure row names its file and sentence, which a partition changes.
COUNTED = [name for name in COMMANDS if name != "late-closure"]


def run_all(root: Path) -> dict[str, tuple[int, str, list[str]]]:
    """Each command's exit code, records output and sorted stderr lines."""
    results = {}
    for name, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--corpus", str(root), "--format", "records"])
        results[name] = (code, out.getvalue(), sorted(err.getvalue().splitlines()))
    return results


def late_closure_triples(out: str) -> Counter:
    return Counter((r["verb"], r["np"], r["givenness"]) for r in parse_records(out))


_BRACKET = re.compile(r"[()]")


def top_level_groups(text: str) -> list[str]:
    """The text of each top-level bracketed group, in order."""
    groups, depth, start = [], 0, 0
    for match in _BRACKET.finditer(text):
        if match.group() == "(":
            if depth == 0:
                start = match.start()
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                groups.append(text[start:match.end()])
    return groups


@pytest.fixture
def corpus(request, seed_101_corpus) -> Path:
    """The fixture and smoke corpora, and two benchmark corpora at seed 101."""
    if request.param == "fixture":
        return FIXTURES / "corpus"
    if request.param == "smoke":
        return request.getfixturevalue("smoke_corpus")
    return seed_101_corpus(request.param.removesuffix("-101"))


@functools.cache
def reference(corpus: Path):
    return run_all(corpus)


@functools.cache
def skipped(corpus: Path) -> dict[str, bool]:
    """Each corpus file's relative path, in reading order: is it skipped?"""
    return {file_id: trees is None for file_id, trees, _ in read_files(CorpusSource(corpus))}


def write_variant(root: Path, corpus: Path, parsed) -> Path:
    """A corpus under ``root`` with the corpus directory's name: each skipped
    file copied as it is, and the ``{relative path: text}`` that ``parsed``
    makes of the others' ``(relative path, text)``, in reading order."""
    variant = root / corpus.name
    good = []
    for file_id, skip in skipped(corpus).items():
        if skip:
            (variant / file_id).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(corpus / file_id, variant / file_id)
        else:
            good.append((file_id, (corpus / file_id).read_text(encoding="utf-8-sig")))
    for name, text in parsed(good).items():
        (variant / name).parent.mkdir(parents=True, exist_ok=True)
        (variant / name).write_text(text, encoding="utf-8")
    return variant


def one_per_sentence(good):
    out = {}
    for i, (_, text) in enumerate(good):
        groups = top_level_groups(text)
        assert len(groups) == len(parse_trees(text))
        out.update((f"s{i:05d}-{k:04d}.mrg", group + "\n") for k, group in enumerate(groups))
    return out


def all_in_one(good):
    return {"all.mrg": "".join(text.rstrip("\n") + "\n" for _, text in good)}


def reversed_renamed(good):
    # Listing sorts by name, so r00000 is read first: the last file.
    return {f"r{len(good) - 1 - i:05d}.mrg": text for i, (_, text) in enumerate(good)}


def reserialized(good):
    return {file_id: "".join(serialize_tree(tree) + "\n" for tree in parse_trees(text))
            for file_id, text in good}


# The two small corpora run every relation.  The benchmark corpora, of 1,000
# and 1,500 sentences (many-small in 300 files, 8 of which do not parse), run
# the two partitions that write no more files than they hold: one file per
# sentence would write 2,500 and double this module's time of about 2 s.
SMALL = ["fixture", "smoke"]
PARTITIONS = [
    *((corpus, partition) for corpus in SMALL
      for partition in (one_per_sentence, all_in_one, reversed_renamed)),
    *((corpus, partition) for corpus in ("flat-wsj-101", "many-small-101")
      for partition in (all_in_one, reversed_renamed))]


class TestPartition:
    @pytest.mark.parametrize("corpus,partition", PARTITIONS, indirect=["corpus"])
    def test_same_sentences_in_other_files_count_alike(self, tmp_path, corpus, partition):
        variant = run_all(write_variant(tmp_path, corpus, partition))
        for name in COUNTED:
            assert variant[name] == reference(corpus)[name], name
        (code, out, err), (ref_code, ref_out, ref_err) = \
            variant["late-closure"], reference(corpus)["late-closure"]
        assert (code, err) == (ref_code, ref_err)
        assert late_closure_triples(out) == late_closure_triples(ref_out)


def doubled(record: dict) -> dict:
    """``record`` as it reads over two copies of its corpus, with its p-value
    bin, which may move, set aside."""
    record = without_significance(record)
    if record["record"] == "chisq-result":
        return {**record, "statistic": pytest.approx(2 * record["statistic"], abs=2e-4)}
    return {key: 2 * value if type(value) is int else value for key, value in record.items()}


def without_significance(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "significance"}


class TestScaling:
    @pytest.mark.parametrize("corpus", SMALL, indirect=True)
    def test_two_copies_double_every_count(self, tmp_path, corpus):
        variant = tmp_path / corpus.name
        for copy in ("one", "two"):
            shutil.copytree(corpus, variant / copy)
        results = run_all(variant)
        for name in COUNTED:
            (code, out, err), (ref_code, ref_out, ref_err) = results[name], reference(corpus)[name]
            assert (code, len(err)) == (ref_code, 2 * len(ref_err)), name
            assert [without_significance(r) for r in parse_records(out)] \
                == [doubled(r) for r in parse_records(ref_out)], name
        (code, out, _), (_, ref_out, _) = results["late-closure"], reference(corpus)["late-closure"]
        triples = late_closure_triples(ref_out)
        assert late_closure_triples(out) == triples + triples


class TestRoundTrip:
    @pytest.mark.parametrize("corpus", SMALL, indirect=True)
    def test_reserialized_files_print_the_same(self, tmp_path, corpus):
        assert run_all(write_variant(tmp_path, corpus, reserialized)) == reference(corpus)
