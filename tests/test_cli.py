"""End-to-end command-line tests driving ``npstat.cli.main``."""

import gc
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import npstat
from npstat.cli import (
    CORPUS_ENV_VAR,
    EXIT_ALL_FILES_FAILED,
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG_ERROR,
    EXIT_DEGENERATE_STATS,
    EXIT_INTERNAL_ERROR,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    main,
)
from npstat import corpus
from npstat.corpus import classify_overt
from npstat.givenness import DEFAULT_CONFIG, ClassifierConfig
from npstat.render import parse_records
from npstat.treebank import Tree

from refvalues import (
    BROWN_TABLE1,
    BROWN_TOTAL_ROW,
    CHI_SQUARE_CASES,
    CHI_SQUARE_TOLERANCE,
    PERCENTAGE_CASES,
    WSJ_TOTAL_ROW,
    from_counts_args,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def skip_warnings(err):
    """The ``skipping`` lines of a run's stderr."""
    return [line for line in err.splitlines() if line.startswith("WARNING: skipping ")]


def corpus_args(fixture_corpus):
    return ["--corpus", str(fixture_corpus)]


def forbid_corpus_reads(monkeypatch):
    """Fail the test if a corpus file is opened: ``read_files`` opens each one
    through ``npstat.corpus.open`` (``test_unreadable_file_is_skipped`` shows it)."""
    def no_read(path, *args, **kwargs):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(corpus, "open", no_read, raising=False)


class TestParseCommand:
    def test_reports_per_file_sentence_counts(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["parse", *corpus_args(fixture_corpus),
                                    "--format", "records"])
        assert code == EXIT_OK
        records = parse_records(out)
        assert [(r["file"], r["sentences"], r["status"]) for r in records] == [
            ("a.mrg", 4, "ok"), ("b.mrg", 3, "ok"), ("c.mrg", 3, "ok"),
        ]

    def test_glob_restricts_files(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["parse", *corpus_args(fixture_corpus),
                                    "--glob", "b.*", "--format", "records"])
        assert code == EXIT_OK
        assert [r["file"] for r in parse_records(out)] == ["b.mrg"]

    def test_partial_failure_marks_skipped(self, capsys, fixture_corpus,
                                           broken_dir, tmp_path):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "b.mrg")
        code, out, _ = run(capsys, ["parse", "--corpus", str(tmp_path),
                                    "--format", "records"])
        assert code == EXIT_OK
        by_file = {r["file"]: r for r in parse_records(out)}
        assert by_file["a.mrg"]["status"] == "ok"
        assert by_file["b.mrg"] == {"record": "parse-file", "file": "b.mrg",
                                    "sentences": 0, "status": "skipped"}


CORPUS_COMMANDS = {
    "parse": ["parse"],
    "table1": ["table1"],
    "chisq": ["chisq"],
    "late-closure": ["late-closure"],
    "adverbials": ["adverbials"],
    "verb": ["verb", "--verb", "disclose"],
}


# The functions each corpus command calls once its files are read, as
# (module, name); a command looks each up there when it runs.
SEAMS_AFTER_READING = {
    "parse": [("npstat.render", "render_rows")],
    "table1": [("npstat.queries", "walk_np_occurrences"), ("npstat.corpus", "classify_overt"),
               ("npstat.report", "render_rows")],
    "chisq": [("npstat.queries", "walk_np_occurrences"), ("npstat.corpus", "classify_overt"),
              ("npstat.render", "render_rows")],
    "late-closure": [("npstat.queries", "find_late_closure_configs"),
                     ("npstat.corpus", "classify_overt"),
                     ("npstat.render", "render_rows")],
    "adverbials": [("npstat.queries", "survey_fronted_adverbials"),
                   ("npstat.render", "render_rows")],
    "verb": [("npstat.queries", "profile_verb_frames"), ("npstat.render", "render_rows")],
}


class TestFailurePaths:
    @staticmethod
    def two_broken_files(broken_dir, root):
        shutil.copy(broken_dir / "malformed.mrg", root / "a.mrg")
        (root / "b.mrg").write_bytes(b"\xe9(S (NN x))\n")

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_total_failure_exits_one(self, capsys, broken_dir, tmp_path, command):
        # Exit 1 is decided after the last file, so both files are reported.
        self.two_broken_files(broken_dir, tmp_path)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert code == EXIT_ALL_FILES_FAILED
        first, second, last = err.splitlines()
        assert first == "WARNING: skipping a.mrg: unclosed '(' at offset 0"
        assert second.startswith("WARNING: skipping b.mrg: 'utf-8' codec can't decode")
        assert last == "error: every corpus file failed to parse"
        if command == "parse":
            assert parse_records(out) == [
                {"record": "parse-file", "file": name, "sentences": 0, "status": "skipped"}
                for name in ("a.mrg", "b.mrg")]
        else:
            assert out == ""

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_good_file_after_failures_exits_zero(self, capsys, fixture_corpus, broken_dir,
                                                 tmp_path, command):
        self.two_broken_files(broken_dir, tmp_path)
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "c.mrg")
        code, _, err = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert [line[:len("WARNING: skipping a.mrg")] for line in err.splitlines()] == [
            "WARNING: skipping a.mrg", "WARNING: skipping b.mrg"]

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_lone_empty_file(self, capsys, tmp_path, command):
        (tmp_path / "empty.mrg").write_bytes(b"")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert skip_warnings(err) == []
        if command == "chisq":
            assert code == EXIT_DEGENERATE_STATS
            assert err.startswith("error: degenerate statistics input: ")
            return
        assert code == EXIT_OK
        assert err == ""
        if command == "parse":
            assert parse_records(out) == [{"record": "parse-file", "file": "empty.mrg",
                                           "sentences": 0, "status": "ok"}]

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_lone_non_utf8_file(self, capsys, tmp_path, command):
        (tmp_path / "latin.mrg").write_bytes(b"\xe9(S (NN x))\n")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_ALL_FILES_FAILED
        (skip,) = skip_warnings(err)
        assert skip.startswith("WARNING: skipping latin.mrg: 'utf-8' codec can't decode")
        assert err.splitlines()[-1] == "error: every corpus file failed to parse"
        if command != "parse":
            assert out == ""

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_leading_byte_order_mark_is_dropped(self, capsys, tmp_path, command):
        (tmp_path / "bom.mrg").write_bytes(
            b"\xef\xbb\xbf(S (NP-SBJ (PRP it)) (VP (VBD saw) (NP (DT a) (NN dog))))\n"
        )
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert skip_warnings(err) == []
        assert err == ""
        if command == "parse":
            assert parse_records(out) == [{"record": "parse-file", "file": "bom.mrg",
                                           "sentences": 1, "status": "ok"}]

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_index_of_non_ascii_digits_is_label_text(self, capsys, tmp_path, command):
        # "²" is a digit to str.isdigit but not to int(): it is kept as a tag.
        (tmp_path / "sup.mrg").write_text("(S (NP-SBJ-² (PRP it)) (VP (VBD left)))\n",
                                          encoding="utf-8")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        if command == "chisq":
            # One subject pronoun leaves the 2x2 table a zero margin.
            assert code == EXIT_DEGENERATE_STATS
            assert err.startswith("error: degenerate statistics input: ")
            return
        assert (code, err) == (EXIT_OK, "")
        if command == "parse":
            assert parse_records(out) == [{"record": "parse-file", "file": "sup.mrg",
                                           "sentences": 1, "status": "ok"}]
        elif command == "table1":
            (total,) = [r for r in parse_records(out) if r["givenness"] == "total"]
            assert total["subj_matrix"] == 1

    @pytest.mark.parametrize("command", ["parse", "table1"])
    def test_index_int_cannot_convert_is_label_text(self, capsys, tmp_path,
                                                     set_int_max_str_digits, command):
        # 5,000 digits are past int()'s limit of 4,300: the index is kept as a tag.
        set_int_max_str_digits(4_300)
        (tmp_path / "good.mrg").write_text("(S (NP-SBJ (PRP we)) (VP (VBD left)))\n")
        (tmp_path / "long.mrg").write_text(
            f"(S (NP-SBJ-{'9' * 5_000} (PRP it)) (VP (VBD ran)))\n")
        code, out, err = run(capsys, [command, "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")
        if command == "parse":
            assert [(r["file"], r["status"]) for r in parse_records(out)] \
                == [("good.mrg", "ok"), ("long.mrg", "ok")]
        else:
            (total,) = [r for r in parse_records(out) if r["givenness"] == "total"]
            assert total["subj_matrix"] == 2

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_partial_failure_skips_the_bad_file_once(self, capsys, fixture_corpus,
                                                     broken_dir, tmp_path, command):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "b.mrg")
        code, _, err = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert err == "WARNING: skipping b.mrg: unclosed '(' at offset 0\n"

    @pytest.mark.parametrize("pattern", ["/x", "../corpus/*", "sub/../*.mrg"])
    @pytest.mark.parametrize("command", ["parse", "table1"])
    def test_glob_outside_root_exits_2_before_reading(self, capsys, monkeypatch,
                                                      fixture_corpus, command, pattern):
        forbid_corpus_reads(monkeypatch)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], *corpus_args(fixture_corpus),
                                      "--glob", pattern])
        assert code == EXIT_MISSING_INPUT
        assert out == ""
        assert err == (f"error: glob pattern {pattern!r} must be relative to the corpus "
                       "root, with no '..' component\n")

    @pytest.mark.parametrize("pattern", ["", ".", "./", "**", "sub/**", "**/", "*/", "sub/",
                                         "a**.mrg", "sub/x**/*.mrg"])
    @pytest.mark.parametrize("command", ["parse", "table1"])
    def test_glob_without_file_name_exits_2_before_reading(self, capsys, monkeypatch,
                                                           fixture_corpus, command, pattern):
        # Python's own globs read each of these differently across supported
        # versions; 3.13's Path.rglob, for one, reads a partial '**' as '*'.
        forbid_corpus_reads(monkeypatch)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], *corpus_args(fixture_corpus),
                                      "--glob", pattern])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == ("error: Invalid pattern: '**' can only be an entire path component\n"
                       if pattern.endswith(".mrg") else
                       f"error: glob pattern {pattern!r} must end in a file name\n")

    @pytest.mark.parametrize("pattern, listed", [
        ("*", ["a.mrg", "bl.mrg", "sub/b.mrg", "sub/deep/c.mrg"]),
        ("**/*.mrg", ["a.mrg", "bl.mrg", "sub/b.mrg", "sub/deep/c.mrg"]),
        ("*/*.mrg", ["sub/b.mrg", "sub/deep/c.mrg"]),
        ("*/*/*.mrg", ["sub/deep/c.mrg"]),
        ("b.mrg", ["sub/b.mrg"]),
        ("subl/*", []),
        ("sub/**/*.mrg", ["sub/b.mrg", "sub/deep/c.mrg"]),
        ("*/**/*.mrg", ["sub/b.mrg", "sub/deep/c.mrg"]),
        ("**/**/*.mrg", ["a.mrg", "bl.mrg", "sub/b.mrg", "sub/deep/c.mrg"]),
        ("**/deep/**/c.mrg", ["sub/deep/c.mrg"]),
        ("subl/**/*.mrg", []),
    ], ids=["star", "any-depth", "one-level", "two-levels", "file-name", "through-the-link",
            "any-depth-mid-path", "one-level-then-any-depth", "any-depth-twice",
            "any-depth-around-a-name", "any-depth-through-the-link"])
    def test_symlinked_directory_is_never_entered(self, capsys, fixture_corpus, tmp_path,
                                                  pattern, listed):
        # subl -> sub is a directory symlink, bl.mrg -> sub/b.mrg a file symlink.
        root = tmp_path / "corpus"
        (root / "sub" / "deep").mkdir(parents=True)
        shutil.copy(fixture_corpus / "a.mrg", root / "a.mrg")
        shutil.copy(fixture_corpus / "b.mrg", root / "sub" / "b.mrg")
        shutil.copy(fixture_corpus / "c.mrg", root / "sub" / "deep" / "c.mrg")
        try:
            (root / "subl").symlink_to("sub", target_is_directory=True)
            (root / "bl.mrg").symlink_to(Path("sub", "b.mrg"))
        except (OSError, NotImplementedError) as err:
            pytest.skip(f"cannot make a symlink here: {err}")
        code, out, _ = run(capsys, ["parse", "--format", "records", "--corpus", str(root),
                                    "--glob", pattern])
        assert code == EXIT_OK
        assert [record["file"] for record in parse_records(out)] == listed

        def table1_total(corpus, glob):
            code, out, _ = run(capsys, ["table1", "--format", "records", "--corpus",
                                        str(corpus), "--glob", glob])
            assert code == EXIT_OK
            row, = (record for record in parse_records(out) if record["givenness"] == "total")
            return Counter({key: n for key, n in row.items() if isinstance(n, int)})

        # table1 counts each listed file once: the sum of their fixture originals.
        original = {"a.mrg": "a.mrg", "bl.mrg": "b.mrg", "sub/b.mrg": "b.mrg",
                    "sub/deep/c.mrg": "c.mrg"}
        assert table1_total(root, pattern) == sum(
            (table1_total(fixture_corpus, original[file_id]) for file_id in listed), Counter())

    @pytest.mark.parametrize("command", ["parse", "table1"])
    def test_glob_matching_no_file_warns(self, capsys, fixture_corpus, tmp_path, command):
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      *corpus_args(fixture_corpus), "--glob", "*.mgr"])
        assert code == EXIT_OK
        assert err == f"warning: no file under {fixture_corpus} matches --glob '*.mgr'\n"
        # An empty corpus directory (named like the fixture, for table1's
        # label) gets the same stdout and the same warning.
        empty = tmp_path / fixture_corpus.name
        empty.mkdir()
        assert run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                            "--corpus", str(empty)]) == (
            EXIT_OK, out, f"warning: no file under {empty} matches --glob '*'\n")

    @pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_unreadable_file_is_skipped(self, capsys, monkeypatch, fixture_corpus,
                                        command, error):
        def failing_open(path, *args, **kwargs):
            if os.path.basename(path) == "b.mrg":
                raise error("cannot open b.mrg")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(corpus, "open", failing_open, raising=False)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      *corpus_args(fixture_corpus)])
        assert code == EXIT_OK
        assert err == "WARNING: skipping b.mrg: cannot open b.mrg\n"
        if command == "parse":
            assert [(r["file"], r["status"]) for r in parse_records(out)] == [
                ("a.mrg", "ok"), ("b.mrg", "skipped"), ("c.mrg", "ok"),
            ]

    @pytest.mark.parametrize("depth", [1_200, 10_000])
    @pytest.mark.parametrize("shape", ["right", "left"])
    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_deep_file_is_read(self, capsys, fixture_corpus, tmp_path,
                               command, shape, depth):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        if shape == "right":
            deep = "(S " * depth + "(NN x)" + ")" * depth
        else:
            deep = "(S " * depth + "(NP (PRP it))" + " (VP (VBD ran)))" * depth
        (tmp_path / "deep.mrg").write_text(deep + "\n", encoding="utf-8")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert err == ""
        if command == "parse":
            assert parse_records(out)[-1] == {"record": "parse-file", "file": "deep.mrg",
                                              "sentences": 1, "status": "ok"}

    @pytest.mark.parametrize("defect", [ValueError, UnicodeError, KeyError, IndexError,
                                        TypeError, AttributeError, FileNotFoundError,
                                        ZeroDivisionError],
                             ids=lambda defect: defect.__name__)
    @pytest.mark.parametrize("command, module, name", [
        (command, module, name)
        for command, seams in SEAMS_AFTER_READING.items() for module, name in seams
    ], ids=lambda value: value.removeprefix("npstat."))
    def test_defect_after_reading_exits_70(self, capsys, monkeypatch, fixture_corpus,
                                           command, module, name, defect):
        # Only the documented exit classes are input's fault; whatever else a
        # command raises, even a ValueError, a FileNotFoundError or a
        # ZeroDivisionError that is no ZeroDenominator, is a defect in npstat.
        def planted(*args, **kwargs):
            raise defect("planted defect")

        monkeypatch.setattr(importlib.import_module(module), name, planted)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], *corpus_args(fixture_corpus)])
        assert (code, out) == (EXIT_INTERNAL_ERROR, "")
        assert err == f"error: internal error: {defect.__name__}: {defect('planted defect')}\n"

    def test_internal_error_exits_70(self, capsys, monkeypatch, fixture_corpus):
        calls = []

        def failing_classify(node, overt, config):
            calls.append(node)
            if len(calls) == 2:
                raise RuntimeError("planted defect")
            return classify_overt(node, overt, config)

        monkeypatch.setattr(corpus, "classify_overt", failing_classify)
        code, out, err = run(capsys, ["table1", *corpus_args(fixture_corpus)])
        assert code == EXIT_INTERNAL_ERROR
        assert out == ""
        assert err == "error: internal error: RuntimeError: planted defect\n"

    @staticmethod
    def cli_child(argv, stdout, *, launcher=(), **env_vars):
        """``python -m npstat.cli ARGV`` in the caller's environment plus
        ``env_vars``, started through the ``launcher`` command if one is given.
        stdout is buffered, as when no ``PYTHONUNBUFFERED`` is set, so the
        output first meets stdout when ``main`` flushes it."""
        src = Path(npstat.__file__).resolve().parents[1]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src),
                                                          os.environ.get("PYTHONPATH")]))
        return subprocess.run([*launcher, sys.executable, "-m", "npstat.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, env={**env, **env_vars},
                              timeout=60)

    @classmethod
    def closed_stdout_child(cls, argv):
        """:meth:`cli_child` with stdout a pipe whose reader has gone."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return cls.cli_child(argv, write_end)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("command", ["parse", "table1"])
    def test_closed_stdout_exits_141_quietly(self, fixture_corpus, command):
        child = self.closed_stdout_child([*CORPUS_COMMANDS[command],
                                          *corpus_args(fixture_corpus)])
        assert child.returncode == EXIT_BROKEN_PIPE == 141
        assert child.stderr == b""

    def test_closed_stdout_after_total_failure_exits_141(self, broken_dir):
        # parse prints its rows before exit 1, and the error line comes
        # before the flush that meets the closed pipe.
        child = self.closed_stdout_child(["parse", "--corpus", str(broken_dir)])
        assert child.returncode == EXIT_BROKEN_PIPE
        assert child.stderr == (b"WARNING: skipping malformed.mrg: unclosed '(' at offset 0\n"
                                b"error: every corpus file failed to parse\n")

    @staticmethod
    def one_good_one_broken(fixture_corpus, broken_dir, root):
        shutil.copy(fixture_corpus / "a.mrg", root / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", root / "b.mrg")
        return ["--corpus", str(root)]

    @pytest.mark.parametrize("command", ["--dump-default-config", "table1"])
    def test_closed_fd1_exits_141_quietly(self, fixture_corpus, broken_dir, tmp_path,
                                          command):
        # A shell's ">&-" starts the command with file descriptor 1 closed, so
        # Python's sys.stdout is None; the skip warnings still reach stderr.
        if command == "--dump-default-config":
            argv, warnings = [command], b""
        else:
            argv = [command, *self.one_good_one_broken(fixture_corpus, broken_dir, tmp_path)]
            warnings = b"WARNING: skipping b.mrg: unclosed '(' at offset 0\n"
        child = self.cli_child(argv, subprocess.DEVNULL,
                               launcher=["sh", "-c", 'exec "$@" >&-', "sh"])
        assert (child.returncode, child.stderr) == (EXIT_BROKEN_PIPE, warnings)

    def test_main_without_stdout_exits_141(self, capsys, monkeypatch, fixture_corpus,
                                           broken_dir, tmp_path):
        argv = ["table1", *self.one_good_one_broken(fixture_corpus, broken_dir, tmp_path)]
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run(capsys, argv)
        assert (code, err) == (EXIT_BROKEN_PIPE,
                               "WARNING: skipping b.mrg: unclosed '(' at offset 0\n")

    def test_unencodable_output_is_escaped(self, tmp_path):
        # The command writes what stdout's encoding cannot hold as a backslash
        # escape; main() alone would leave a caller's stdout as it is.
        (tmp_path / "cafe.mrg").write_text(
            "(S (SBAR (IN While) (S (NP-SBJ (PRP he)) (VP (VBD ate))))"
            " (NP-SBJ (NNP Caf\u00e9)) (VP (VBD closed)))\n", encoding="utf-8")
        child = self.cli_child(["late-closure", "--corpus", str(tmp_path)], subprocess.PIPE,
                               PYTHONIOENCODING="ascii")
        assert (child.returncode, child.stderr) == (EXIT_OK, b"")
        assert child.stdout.splitlines()[-1].split() == [
            b"cafe.mrg", b"0", b"ate", b"Caf\\xe9", b"proper-name"]

    @pytest.mark.parametrize("errors, written", [("strict", rb"x\udcff.mrg"),
                                                 ("surrogateescape", b"x\xff.mrg")])
    def test_undecodable_file_name_is_written(self, fixture_corpus, tmp_path, errors,
                                              written):
        # A file-name byte that is not UTF-8 is escaped where stdout would fail
        # on it, and written back as it was where stdout uses surrogateescape.
        try:
            (tmp_path / os.fsdecode(b"x\xff.mrg")).write_bytes(
                (fixture_corpus / "a.mrg").read_bytes())
        except (OSError, UnicodeError) as err:
            pytest.skip(f"cannot give a file that name here: {err}")
        child = self.cli_child(["parse", "--corpus", str(tmp_path)], subprocess.PIPE,
                               PYTHONIOENCODING=f"utf-8:{errors}")
        assert (child.returncode, child.stderr) == (EXIT_OK, b"")
        assert child.stdout.splitlines()[-1].split() == [written, b"4", b"ok"]


class TestStartUp:
    # Each command is a fresh process, so whatever it imports costs every run.

    def main_in_fresh_process(self, argv):
        """Exit code, stdout lines, loaded module names and stderr of
        ``main(argv)`` in a new ``python -S``, so that no site hook imports
        anything first."""
        src = Path(npstat.__file__).resolve().parents[1]
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import npstat.cli\n"
            f"code = npstat.cli.main({argv!r})\n"
            "print(code, *sorted(sys.modules))\n"
        )
        child = subprocess.run([sys.executable, "-S", "-c", probe],
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        *output, last = child.stdout.splitlines()
        code, *modules = last.split()
        return int(code), output, set(modules), child.stderr

    def module_in_fresh_process(self, argv):
        """:meth:`main_in_fresh_process` for ``python -m npstat.cli ARGV``,
        which runs ``cli.py`` as ``__main__``."""
        src = Path(npstat.__file__).resolve().parents[1]
        probe = (
            "import runpy, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "try:\n"
            "    runpy.run_module('npstat.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, *sorted(sys.modules))\n"
        )
        child = subprocess.run([sys.executable, "-S", "-c", probe, *argv],
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        *output, last = child.stdout.splitlines()
        code, *modules = last.split()
        return int(code), output, set(modules), child.stderr

    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        code, output, modules, _ = self.main_in_fresh_process(["--dump-default-config"])
        assert code == EXIT_OK
        assert output[0] == "# npstat givenness classifier configuration"
        assert not {"dataclasses", "inspect"} & modules

    @pytest.mark.parametrize("argv, expected", [
        (["--dump-default-config"], EXIT_OK),
        (["--help"], EXIT_OK),
        (["chisq", "--help"], EXIT_OK),
        (["--no-such-flag"], EXIT_MISSING_INPUT),
        (["table1", "--format", "xml"], EXIT_MISSING_INPUT),
    ], ids=["dump-default-config", "help", "chisq-help", "usage-error",
            "subcommand-usage-error"])
    def test_parser_paths_load_no_pipeline_layer(self, argv, expected):
        code, _, modules, _ = self.main_in_fresh_process(argv)
        assert code == expected
        assert not modules & {"npstat.commands", "npstat.treebank", "npstat.queries",
                              "npstat.corpus", "npstat.render", "npstat.report",
                              "npstat.stats", "logging", "json", "decimal"}

    @pytest.mark.parametrize("argv, expected", [
        (["--dump-default-config"], EXIT_OK),
        (["--help"], EXIT_OK),
        (["--no-such-flag"], EXIT_MISSING_INPUT),
    ], ids=["dump-default-config", "help", "usage-error"])
    def test_parser_paths_load_no_node_model(self, argv, expected):
        # The classifier's axes and configuration are all the parser needs:
        # neither the tree nodes nor the rule cascade, nor pathlib or typing.
        code, _, modules, _ = self.main_in_fresh_process(argv)
        assert code == expected
        assert {m for m in modules if m.startswith("npstat")} == {
            "npstat", "npstat.base", "npstat.cli", "npstat.givenness"}
        assert not modules & {"pathlib", "typing"}

    @pytest.mark.parametrize("argv, expected", [
        (["--dump-default-config"], EXIT_OK),
        (["--help"], EXIT_OK),
        (["--no-such-flag"], EXIT_MISSING_INPUT),
    ], ids=["dump-default-config", "help", "usage-error"])
    def test_module_launch_parser_paths_load_no_handler_or_parser(self, argv, expected):
        # The benchmark and the CI start the command as python -m npstat.cli.
        code, output, modules, _ = self.module_in_fresh_process(argv)
        assert code == expected
        assert bool(output) == (code == EXIT_OK)
        assert not modules & {"npstat.commands", "npstat.treebank"}

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_module_launch_runs_cli_once(self, fixture_corpus, command):
        # Only __main__ ran cli.py.  A handler that imported npstat.cli would
        # compile and run it again, and main() would not catch an exception
        # class defined by the second copy.
        code, output, modules, err = self.module_in_fresh_process(
            [*CORPUS_COMMANDS[command], "--corpus", str(fixture_corpus)])
        assert (code, err) == (EXIT_OK, "")
        assert output
        assert "npstat.commands" in modules
        assert "npstat.cli" not in modules

    # The npstat modules that a corpus command loads beyond those every corpus
    # command loads.
    LAYERS_OF = {
        "parse": set(),
        "table1": {"queries", "queries.occurrences", "report"},
        "chisq": {"queries", "queries.occurrences", "stats"},
        "late-closure": {"queries", "queries.late_closure"},
        "adverbials": {"queries", "queries.adverbials"},
        "verb": {"queries", "queries.frames"},
    }

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_module_launch_loads_exactly_its_layers(self, fixture_corpus, command):
        # Launched as the benchmark launches it, so a split layer or a second
        # run of cli.py fails here.
        code, output, modules, err = self.module_in_fresh_process(
            [*CORPUS_COMMANDS[command], "--corpus", str(fixture_corpus)])
        assert (code, err) == (EXIT_OK, "")
        assert output
        assert {m for m in modules if m.startswith("npstat")} == {"npstat"} | {
            f"npstat.{layer}"
            for layer in {"base", "commands", "corpus", "givenness", "render", "treebank",
                          *self.LAYERS_OF[command]}}

    @pytest.mark.parametrize("argv, expected", [
        *[(["chisq", "--cells", *map(str, cells)], statistic)
          for cells, statistic in CHI_SQUARE_CASES.values()],
        *[(["adverbials", "--from-counts", str(part), str(whole)], pct)
          for (part, whole), pct in PERCENTAGE_CASES.items()],
    ], ids=[*CHI_SQUARE_CASES, *(f"{part}-of-{whole}" for part, whole in PERCENTAGE_CASES)])
    def test_paper_statistics_come_from_counts_without_the_parser(self, argv, expected):
        code, output, modules, err = self.module_in_fresh_process(argv)
        assert (code, err) == (EXIT_OK, "")
        # The last text row ends in the percentage, or starts with the statistic.
        if argv[0] == "chisq":
            assert float(output[-1].split()[0]) == pytest.approx(expected,
                                                                 abs=CHI_SQUARE_TOLERANCE)
        else:
            assert float(output[-1].split()[-1]) == expected
        assert not modules & {"npstat.treebank", "npstat.corpus"}

    @pytest.mark.parametrize("corpus, expected", [("fixture", EXIT_OK),
                                                  ("broken", EXIT_ALL_FILES_FAILED)])
    def test_parse_loads_no_query_layer(self, fixture_corpus, broken_dir, corpus, expected):
        root = {"fixture": fixture_corpus, "broken": broken_dir}[corpus]
        code, output, modules, _ = self.main_in_fresh_process(["parse", "--corpus", str(root)])
        assert code == expected
        assert output
        assert "npstat.queries" not in modules

    @pytest.mark.parametrize("argv", [
        ["table1", "--from-counts", *from_counts_args(BROWN_TABLE1)],
        ["chisq", "--cells", "1", "2", "3", "4"],
        ["chisq", "--cells", "1", "2", "3", "4", "--contexts", "tc"],
        ["adverbials", "--from-counts", "1", "2"],
    ], ids=["table1", "chisq", "chisq-contexts", "adverbials"])
    def test_count_only_modes_load_no_corpus_layer(self, argv):
        # Text format, so neither is the records format's json needed.
        code, output, modules, _ = self.main_in_fresh_process(argv)
        assert code == EXIT_OK
        assert output
        assert not modules & {"npstat.corpus", "npstat.treebank", "npstat.queries",
                              "logging", "json"}

    @pytest.mark.parametrize("argv", [
        ["table1", "--from-counts", *from_counts_args(BROWN_TABLE1)],
        ["chisq", "--cells", "1", "2", "3", "4"],
        ["adverbials", "--from-counts", "1", "2"],
    ], ids=["table1", "chisq", "adverbials"])
    def test_count_only_modes_load_no_node_model(self, argv):
        code, output, modules, _ = self.main_in_fresh_process(argv)
        assert code == EXIT_OK
        assert output
        assert not modules & {"npstat.treebank", "npstat.corpus", "pathlib"}

    @pytest.mark.parametrize("command, family, unused", [
        ("table1", "occurrences", {"npstat.stats"}),
        ("chisq", "occurrences", {"npstat.report"}),
        ("late-closure", "late_closure", {"npstat.report", "npstat.stats"}),
        ("adverbials", "adverbials", {"npstat.report", "npstat.stats"}),
        ("verb", "frames", {"npstat.report", "npstat.stats"}),
    ])
    def test_query_commands_load_only_their_family(self, fixture_corpus, command, family,
                                                   unused):
        code, output, modules, _ = self.main_in_fresh_process(
            [*CORPUS_COMMANDS[command], "--corpus", str(fixture_corpus)])
        assert code == EXIT_OK
        assert output
        assert {m for m in modules if m.startswith("npstat.queries.")} == {
            f"npstat.queries.{family}"}
        assert not modules & unused

    @pytest.mark.parametrize("skipping", [False, True], ids=["fixture", "one-skipped"])
    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_corpus_commands_load_no_logging(self, fixture_corpus, broken_dir, tmp_path,
                                             command, skipping):
        root, expected_err = fixture_corpus, ""
        if skipping:
            root = tmp_path / "corpus"
            shutil.copytree(fixture_corpus, root)
            shutil.copy(broken_dir / "malformed.mrg", root / "d.mrg")
            expected_err = "WARNING: skipping d.mrg: unclosed '(' at offset 0\n"
        code, output, modules, err = self.main_in_fresh_process(
            [*CORPUS_COMMANDS[command], "--corpus", str(root)])
        assert code == EXIT_OK
        assert output
        assert err == expected_err
        assert "logging" not in modules


FORMATS = ("text", "tsv", "records")
TRANSCRIPTS = json.loads(
    (Path(__file__).parent / "fixtures" / "cli-transcripts.json").read_text(encoding="utf-8")
)


class TestTranscripts:
    # The refactor contract.  fixtures/cli-transcripts.json holds [exit code,
    # stdout, stderr] of every corpus command in every format on the fixture,
    # broken-fixture and smoke corpora, keyed "CORPUS COMMAND FORMAT".  An
    # entry changes only with a behaviour change that is named as such.

    def test_every_case_is_recorded(self):
        assert sorted(TRANSCRIPTS) == sorted(
            f"{corpus} {command} {fmt}" for corpus in ("fixture", "broken", "smoke")
            for command in CORPUS_COMMANDS for fmt in FORMATS)

    @pytest.mark.parametrize("case", sorted(TRANSCRIPTS),
                             ids=lambda case: case.replace(" ", "-"))
    def test_output_is_unchanged(self, capsys, fixture_corpus, broken_dir, smoke_corpus,
                                 case):
        corpus, command, fmt = case.split()
        root = {"fixture": fixture_corpus, "broken": broken_dir, "smoke": smoke_corpus}[corpus]
        assert list(run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(root),
                                 "--format", fmt])) == TRANSCRIPTS[case]

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_output_is_unchanged_without_iter_nodes(self, capsys, monkeypatch, fixture_corpus,
                                                   smoke_corpus, command):
        # No command walks Tree.iter_nodes, so it can go once the traced
        # benchmark pass stops counting nodes with it.
        def no_walk(self):
            raise AssertionError("Tree.iter_nodes was called")

        monkeypatch.setattr(Tree, "iter_nodes", no_walk)
        for corpus, root in (("fixture", fixture_corpus), ("smoke", smoke_corpus)):
            for fmt in FORMATS:
                argv = [*CORPUS_COMMANDS[command], "--corpus", str(root), "--format", fmt]
                assert list(run(capsys, argv)) == TRANSCRIPTS[f"{corpus} {command} {fmt}"]


@pytest.fixture(scope="module", params=["fixture", "flat-wsj-101"])
def counted_corpus(request, seed_101_corpus):
    """The fixture corpus, and the benchmark's flat-wsj corpus at seed 101."""
    if request.param == "fixture":
        return Path(__file__).parent / "fixtures" / "corpus"
    return seed_101_corpus("flat-wsj")


class TestCountModesMatchCorpusModes:
    # Each count-only mode, fed the numbers that its corpus mode found, prints
    # what the corpus mode printed: the two inputs share their rendering.

    @staticmethod
    def records(capsys, argv):
        code, out, _ = run(capsys, [*argv, "--format", "records"])
        assert code == EXIT_OK
        return parse_records(out)

    def test_chisq_cells(self, capsys, counted_corpus):
        corpus_run = self.records(capsys, ["chisq", "--corpus", str(counted_corpus)])
        pronoun, indefinite = (r for r in corpus_run if r["record"] == "chisq-cell-row")
        cells = (pronoun["subject"], pronoun["non_subject"],
                 indefinite["subject"], indefinite["non_subject"])
        counts_run = self.records(capsys, ["chisq", "--cells", *map(str, cells)])
        assert [r for r in counts_run if r["record"] == "chisq-result"] == [
            r for r in corpus_run if r["record"] == "chisq-result"]

    def test_adverbials_from_counts(self, capsys, counted_corpus):
        all_row = self.records(capsys, ["adverbials", "--corpus", str(counted_corpus)])[0]
        assert all_row["category"] == "ALL"
        counts = (all_row["not_comma_delimited"], all_row["fronted"])
        assert self.records(capsys, ["adverbials", "--from-counts", *map(str, counts)]) == [
            all_row]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_table1_from_counts(self, capsys, counted_corpus, fmt):
        rows = self.records(capsys, ["table1", "--corpus", str(counted_corpus)])
        counts = [str(row[key]) for row in rows[:-1] for key in (
            "subj_tc", "subj_rc", "subj_matrix", "nonsubj_tc", "nonsubj_rc", "nonsubj_matrix")]
        outputs = []
        for argv in (["--corpus", str(counted_corpus)], ["--from-counts", *counts]):
            code, out, _ = run(capsys, ["table1", *argv, "--format", fmt])
            assert code == EXIT_OK
            # Set the label aside: the corpus directory's name, or "counts".
            outputs.append([{k: v for k, v in r.items() if k != "corpus"}
                            for r in parse_records(out)] if fmt == "records"
                           else out.split("\n", 1)[1])
        assert outputs[0] == outputs[1]


class TestBenchmarkGroundTruth:
    # The seed-101 part of the refactor contract: on each benchmark workload,
    # the records output equals what the generator's ground truth says, with
    # one skip line per malformed file.

    @pytest.mark.parametrize("workload", ["flat-wsj", "deep-clauses", "many-small"])
    def test_records_equal_ground_truth(self, capsys, tmp_path, perfbench_gen, workload):
        manifest = perfbench_gen.generate(workload, 101, tmp_path)
        for key, expected in manifest["expected"].items():
            code, out, err = run(capsys, [*CORPUS_COMMANDS[key.replace("_", "-")],
                                          "--corpus", str(tmp_path / "corpus"),
                                          "--format", "records"])
            assert (code, out) == (EXIT_OK, expected), key
            skipped = [line.removeprefix("WARNING: skipping ").split(": ", 1)[0]
                       for line in skip_warnings(err)]
            assert sorted(skipped) == sorted(manifest["skipped"]), key


def _flip_bracket(draw, data: bytes) -> bytes:
    brackets = [i for i, byte in enumerate(data) if byte in b"()"]
    if not brackets:
        return data
    i = draw(st.sampled_from(brackets))
    return data[:i] + (b")" if data[i:i + 1] == b"(" else b"(") + data[i + 1:]


def _insert_non_utf8(draw, data: bytes) -> bytes:
    i = draw(st.integers(0, len(data)))
    return data[:i] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x80"])) + data[i:]


# Mutations of smoke-corpus text, each given a draw function and the bytes.
MUTATIONS = {
    "truncate": lambda draw, data: data[:draw(st.integers(0, len(data)))],
    "flip-bracket": _flip_bracket,
    "bom": lambda draw, data: b"\xef\xbb\xbf" + data,
    "crlf": lambda draw, data: data.replace(b"\n", b"\r\n"),
    "non-utf8": _insert_non_utf8,
    # Every nominal and determiner preterminal becomes an empty element, so
    # every NP holds only -NONE- leaves.
    "empty-nps": lambda draw, data: re.sub(rb"\((?:PRP|NNP|NNS|NN|DT|POS) [^()\s]+\)",
                                           b"(-NONE- *)", data),
}


class TestArbitraryCorpusBytes:
    # Whatever the corpus files hold, every corpus command exits 0, 1 or 3,
    # never reports an internal error, and names each skipped file once.

    @staticmethod
    def corpus_file(draw, smoke_lines: list[str]) -> bytes:
        if draw(st.booleans()):
            return draw(st.binary(max_size=120))
        start = draw(st.integers(0, len(smoke_lines) - 1))
        data = ("\n".join(smoke_lines[start:start + draw(st.integers(1, 3))]) + "\n").encode()
        for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3)):
            data = MUTATIONS[name](draw, data)
        return data

    @staticmethod
    def run_in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cli_contract(self, smoke_corpus, data):
        smoke_lines = (smoke_corpus / "gen-00.mrg").read_text(encoding="utf-8").splitlines()
        files = data.draw(st.integers(1, 3))
        with tempfile.TemporaryDirectory() as root:
            for i in range(files):
                (Path(root) / f"f{i}.mrg").write_bytes(self.corpus_file(data.draw, smoke_lines))
            _, out, _ = self.run_in_process(["parse", "--corpus", root, "--format", "records"])
            skipped = [r["file"] for r in parse_records(out) if r["status"] == "skipped"]
            all_failed = len(skipped) == files
            for command in sorted(CORPUS_COMMANDS):
                for fmt in FORMATS:
                    code, out, err = self.run_in_process(
                        [*CORPUS_COMMANDS[command], "--corpus", root, "--format", fmt])
                    assert code in {EXIT_OK, EXIT_ALL_FILES_FAILED, EXIT_DEGENERATE_STATS}
                    assert "internal error" not in err
                    assert all(line.startswith(("WARNING: skipping ", "error: "))
                               for line in err.splitlines())
                    skips = [line.removeprefix("WARNING: skipping ").split(": ", 1)[0]
                             for line in skip_warnings(err)]
                    assert skips == skipped
                    assert (code == EXIT_ALL_FILES_FAILED) == all_failed
                    if command != "chisq":
                        assert code != EXIT_DEGENERATE_STATS


class TestCyclicGarbage:
    # The npstat command runs without the cyclic collector (see cli.run).  That
    # is sound only while trees hold no reference cycles, so that the garbage a
    # command leaves for the collector does not grow with the corpus.

    def garbage_left_by(self, capsys, argv):
        """Objects the cyclic collector finds after ``main(argv)`` ran with it off."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            main(argv)
            return gc.collect()
        finally:
            capsys.readouterr()
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_garbage_does_not_grow_with_the_corpus(self, capsys, fixture_corpus,
                                                   broken_dir, tmp_path, command):
        larger = tmp_path / "larger"
        for copy in range(4):
            shutil.copytree(fixture_corpus, larger / f"copy-{copy}")
        shutil.copy(broken_dir / "malformed.mrg", larger / "malformed.mrg")
        argv = CORPUS_COMMANDS[command]
        self.garbage_left_by(capsys, [*argv, "--corpus", str(fixture_corpus)])  # warm-up
        small = self.garbage_left_by(capsys, [*argv, "--corpus", str(fixture_corpus)])
        large = self.garbage_left_by(capsys, [*argv, "--corpus", str(larger)])
        assert small == large

    @pytest.mark.parametrize("entry", ["run", "main"])
    def test_only_the_command_entry_point_runs_without_collections(self, smoke_corpus,
                                                                   entry):
        src = Path(npstat.__file__).resolve().parents[1]
        call = "npstat.cli.run()" if entry == "run" else "sys.exit(npstat.cli.main())"
        probe = (
            "import gc, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import npstat.cli\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(1))\n"
            f"sys.argv = ['npstat', 'table1', '--corpus', {str(smoke_corpus)!r}]\n"
            "try:\n"
            f"    {call}\n"
            "except SystemExit as done:\n"
            "    print(done.code, len(starts), gc.isenabled(), file=sys.stderr)\n"
        )
        child = subprocess.run([sys.executable, "-S", "-c", probe],
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        code, collections, enabled = child.stderr.split()
        assert child.stdout.startswith(smoke_corpus.name)
        assert code == str(EXIT_OK)
        if entry == "run":
            assert (collections, enabled) == ("0", "False")
        else:
            # The corpus is large enough for the collector to run.
            assert int(collections) > 0 and enabled == "True"

    def test_main_keeps_the_callers_gc_state(self, capsys, fixture_corpus):
        frozen = gc.get_freeze_count()
        try:
            for state in (gc.disable, gc.enable):
                state()
                expected = gc.isenabled()
                assert main(["table1", *corpus_args(fixture_corpus)]) == EXIT_OK
                assert gc.isenabled() == expected
                assert gc.get_freeze_count() == frozen
        finally:
            gc.enable()
            capsys.readouterr()


class TestTable1Command:
    def rows_by_category(self, out):
        return {r["givenness"]: r for r in parse_records(out)}

    def test_from_counts_reproduces_reference_total_row(self, capsys):
        code, out, _ = run(capsys, ["table1", "--from-counts",
                                    *from_counts_args(BROWN_TABLE1),
                                    "--format", "records"])
        assert code == EXIT_OK
        total = self.rows_by_category(out)["total"]
        keys = ("subj_tc", "subj_rc", "subj_tc_rc", "subj_matrix",
                "nonsubj_tc", "nonsubj_rc", "nonsubj_tc_rc", "nonsubj_matrix")
        assert tuple(total[k] for k in keys) == BROWN_TOTAL_ROW

    def test_from_counts_second_reference_total_row(self, capsys):
        from refvalues import WSJ_TABLE1

        code, out, _ = run(capsys, ["table1", "--from-counts",
                                    *from_counts_args(WSJ_TABLE1),
                                    "--format", "records"])
        assert code == EXIT_OK
        total = self.rows_by_category(out)["total"]
        keys = ("subj_tc", "subj_rc", "subj_tc_rc", "subj_matrix",
                "nonsubj_tc", "nonsubj_rc", "nonsubj_tc_rc", "nonsubj_matrix")
        assert tuple(total[k] for k in keys) == WSJ_TOTAL_ROW

    def test_combined_columns_are_sums(self, capsys):
        code, out, _ = run(capsys, ["table1", "--from-counts",
                                    *from_counts_args(BROWN_TABLE1),
                                    "--format", "records"])
        assert code == EXIT_OK
        for row in self.rows_by_category(out).values():
            assert row["subj_tc_rc"] == row["subj_tc"] + row["subj_rc"]
            assert row["nonsubj_tc_rc"] == row["nonsubj_tc"] + row["nonsubj_rc"]

    def test_corpus_mode_matches_hand_counts(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["table1", *corpus_args(fixture_corpus),
                                    "--format", "records"])
        assert code == EXIT_OK
        rows = self.rows_by_category(out)
        assert rows["pronoun"]["subj_matrix"] == 3
        assert rows["pronoun"]["subj_tc"] == 1
        assert rows["definite"]["subj_matrix"] == 6
        assert rows["definite"]["subj_rc"] == 1
        assert rows["definite"]["nonsubj_matrix"] == 2
        assert rows["indefinite"]["nonsubj_matrix"] == 3
        assert rows["proper-name"]["subj_matrix"] == 1
        assert rows["total"]["subj_matrix"] == 10

    def test_label_is_corpus_directory_name(self, capsys, fixture_corpus, tmp_path):
        target = tmp_path / "mycorp"
        shutil.copytree(fixture_corpus, target)
        code, out, _ = run(capsys, ["table1", "--corpus", str(target),
                                    "--format", "records"])
        assert code == EXIT_OK
        assert {r["corpus"] for r in parse_records(out)} == {"mycorp"}

    @pytest.mark.parametrize("root", [".", "..", "sub/.."])
    def test_label_of_a_nameless_directory_is_corpus(self, capsys, monkeypatch,
                                                     fixture_corpus, tmp_path, root):
        # Path(".").name is "", and Path("..").name is "..": neither names it.
        target = tmp_path / "mycorp"
        shutil.copytree(fixture_corpus, target)
        (target / "sub").mkdir()
        monkeypatch.chdir(target / "sub" if root == ".." else target)
        code, out, _ = run(capsys, ["table1", "--corpus", root, "--format", "records"])
        assert code == EXIT_OK
        assert {r["corpus"] for r in parse_records(out)} == {"corpus"}

    def test_text_format_has_header_and_total(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["table1", *corpus_args(fixture_corpus)])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "corpus"
        assert lines[1].split() == ["givenness", "subj_tc", "subj_rc", "subj_tc_rc",
                                    "subj_matrix", "nonsubj_tc", "nonsubj_rc",
                                    "nonsubj_tc_rc", "nonsubj_matrix"]
        assert lines[-1].split() == ["total", "2", "1", "3", "10", "1", "0", "1", "5"]

    def test_tsv_format_is_tab_separated(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["table1", *corpus_args(fixture_corpus),
                                    "--format", "tsv"])
        assert code == EXIT_OK
        header = out.splitlines()[1]
        assert header.split("\t")[0] == "givenness"
        assert len(header.split("\t")) == 9

    def test_from_counts_beyond_the_digit_limit_exits_two(self, capsys,
                                                          set_int_max_str_digits):
        # subj TC + subj RC would print with 4,301 digits.
        set_int_max_str_digits(4300)
        code, out, err = run(capsys, ["table1", "--from-counts", "9" * 4300, "9" * 4300,
                                      *["0"] * 34])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == ("error: a printed count would have more than 4300 digits, "
                       "the interpreter's limit for integer string conversion\n")

    def test_from_counts_at_the_digit_limit_prints(self, capsys, set_int_max_str_digits):
        set_int_max_str_digits(4300)
        code, out, _ = run(capsys, ["table1", "--from-counts", "9" * 4300, *["0"] * 35,
                                    "--format", "records"])
        assert code == EXIT_OK
        assert self.rows_by_category(out)["total"]["subj_tc_rc"] == 10**4300 - 1

    def test_wrong_counts_arity_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["table1", "--from-counts", "1", "2", "3"])
        assert code == EXIT_MISSING_INPUT

    def test_negative_count_is_usage_error(self, capsys):
        counts = from_counts_args(BROWN_TABLE1)
        code, out, err = run(capsys, ["table1", "--from-counts", "-1", *counts[1:]])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == "error: counts must be non-negative\n"


class TestChisqCommand:
    @pytest.mark.parametrize("name", sorted(CHI_SQUARE_CASES))
    def test_reference_tables_from_cells(self, capsys, name):
        cells, expected = CHI_SQUARE_CASES[name]
        code, out, _ = run(capsys, ["chisq", "--cells", *map(str, cells),
                                    "--format", "records"])
        assert code == EXIT_OK
        records = parse_records(out)
        cell_rows = [r for r in records if r["record"] == "chisq-cell-row"]
        assert (cell_rows[0]["col1"], cell_rows[0]["col2"]) == cells[:2]
        assert (cell_rows[1]["col1"], cell_rows[1]["col2"]) == cells[2:]
        (result,) = [r for r in records if r["record"] == "chisq-result"]
        assert result["statistic"] == pytest.approx(expected, abs=CHI_SQUARE_TOLERANCE)
        assert result["df"] == 1
        assert result["significance"] == "p<0.001"

    def test_text_format_reports_statistic(self, capsys):
        cells, expected = CHI_SQUARE_CASES["matrix"]
        code, out, _ = run(capsys, ["chisq", "--cells", *map(str, cells)])
        assert code == EXIT_OK
        statistic_line = [l for l in out.splitlines() if "p<0.001" in l]
        value = float(statistic_line[0].split()[0])
        assert value == pytest.approx(expected, abs=CHI_SQUARE_TOLERANCE)

    def test_corpus_mode_builds_pronoun_indefinite_table(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["chisq", *corpus_args(fixture_corpus),
                                    "--format", "records"])
        assert code == EXIT_OK
        records = parse_records(out)
        by_row = {r["row"]: r for r in records if r["record"] == "chisq-cell-row"}
        assert (by_row["pronoun"]["subject"], by_row["pronoun"]["non_subject"]) == (5, 0)
        assert (by_row["indefinite"]["subject"], by_row["indefinite"]["non_subject"]) == (0, 3)
        (result,) = [r for r in records if r["record"] == "chisq-result"]
        assert result["statistic"] == pytest.approx(8.0)  # perfect association -> N

    def test_context_restriction_changes_table(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["chisq", *corpus_args(fixture_corpus),
                                    "--contexts", "matrix", "--format", "records"])
        assert code == EXIT_OK
        records = parse_records(out)
        by_row = {r["row"]: r for r in records if r["record"] == "chisq-cell-row"}
        assert (by_row["pronoun"]["subject"], by_row["indefinite"]["non_subject"]) == (3, 3)
        (result,) = [r for r in records if r["record"] == "chisq-result"]
        assert result["significance"] == "p<0.05"

    def test_conjoined_root_clause_subjects_are_other(self, capsys, tmp_path):
        # Definitional: each conjunct S has the root S above it, so its
        # subjects are embedded-other, which table1 does not print.
        (tmp_path / "conj.mrg").write_text(
            "( (S (S (NP-SBJ (PRP he)) (VP (VBD left))) (CC and)"
            " (S (NP-SBJ (DT a) (NN dog)) (VP (VBD barked)))) )\n")
        code, out, err = run(capsys, ["table1", *corpus_args(tmp_path), "--format", "records"])
        (total,) = [r for r in parse_records(out) if r["givenness"] == "total"]
        assert (code, err) == (EXIT_OK, "")
        assert [n for key, n in total.items() if key.startswith(("subj_", "nonsubj_"))] \
            == [0] * 8
        code, out, err = run(capsys, ["chisq", *corpus_args(tmp_path), "--contexts", "other"])
        assert (code, out) == (EXIT_DEGENERATE_STATS, "")
        assert err == ("error: degenerate statistics input: table (1, 0, 1, 0)"
                       " has a zero row or column sum\n")

    def test_degenerate_corpus_margin_exits_three(self, capsys, fixture_corpus):
        code, _, err = run(capsys, ["chisq", *corpus_args(fixture_corpus),
                                    "--contexts", "tc,rc"])
        assert code == EXIT_DEGENERATE_STATS
        assert "degenerate" in err

    def test_degenerate_explicit_cells_exit_three(self, capsys):
        code, _, err = run(capsys, ["chisq", "--cells", "0", "0", "5", "5"])
        assert code == EXIT_DEGENERATE_STATS
        assert "degenerate" in err

    def test_negative_cells_are_rejected(self, capsys):
        code, _, _ = run(capsys, ["chisq", "--cells", "-1", "2", "3", "4"])
        assert code == EXIT_MISSING_INPUT

    def test_statistic_beyond_float_range_is_input_error(self, capsys):
        cells = (10**400, 1, 1, 3 * 10**400)
        code, out, err = run(capsys, ["chisq", "--cells", *map(str, cells)])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == f"error: table {cells} gives a statistic too large for a float\n"

    def test_unknown_context_token_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["chisq", "--cells", "1", "2", "3", "4",
                                  "--contexts", "bogus"])
        assert code == EXIT_MISSING_INPUT

    def test_empty_context_list_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["chisq", "--cells", "1", "2", "3", "4",
                                      "--contexts", ","])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err.endswith("error: argument --contexts: at least one context is required\n")


CONFIG_OPTIONS = {
    "classifier-config": ["table1", "--classifier-config"],
    "lexicon": ["verb", "--verb", "disclose", "--lexicon"],
}

# A valid file for each option.
CONFIG_CONTENTS = {
    "classifier-config": "pronoun_pos_tags = PRP\n",
    "lexicon": "disclose = disclose discloses disclosed\n",
}


# A file that gives one key twice, on lines 1 and 3, for each option.
DUPLICATE_KEY_CONTENTS = {
    "classifier-config": ("pronoun_pos_tags", "pronoun_pos_tags = PRP\n\n"
                          "pronoun_pos_tags = NN\n"),
    "lexicon": ("disclose", "disclose = disclose\n# forms\ndisclose = discloses\n"),
}


class TestConfigFileErrors:
    @pytest.mark.parametrize("option", sorted(CONFIG_OPTIONS))
    def test_key_given_twice_exits_four(self, capsys, fixture_corpus, tmp_path, option):
        # The later line would otherwise silently replace the earlier one.
        key, content = DUPLICATE_KEY_CONTENTS[option]
        path = tmp_path / "config.cfg"
        path.write_text(content, encoding="utf-8")
        code, out, err = run(capsys, [*CONFIG_OPTIONS[option], str(path),
                                      *corpus_args(fixture_corpus)])
        assert (code, out) == (EXIT_CONFIG_ERROR, "")
        assert err == f"error: {path}:3: {key!r} is already set on line 1\n"

    @pytest.mark.parametrize("option", sorted(CONFIG_OPTIONS))
    def test_lines_end_only_at_newlines(self, capsys, fixture_corpus, tmp_path, option):
        # A comment holding line boundaries of str.splitlines other than the
        # newline (read_text turns a lone carriage return into one) is one line.
        path = tmp_path / "config.cfg"
        path.write_bytes("# a\x85b\x0cc\x1cd\u2028e\n\nno equals sign\n".encode())
        code, out, err = run(capsys, [*CONFIG_OPTIONS[option], str(path),
                                      *corpus_args(fixture_corpus)])
        assert (code, out) == (EXIT_CONFIG_ERROR, "")
        assert err.startswith(f"error: {path}:3: expected ")

    @pytest.mark.parametrize("option", sorted(CONFIG_OPTIONS))
    def test_byte_order_mark_is_dropped(self, capsys, fixture_corpus, tmp_path, option):
        results = []
        for name, bom in [("plain.cfg", ""), ("bom.cfg", "\ufeff")]:
            path = tmp_path / name
            path.write_text(bom + CONFIG_CONTENTS[option], encoding="utf-8")
            results.append(run(capsys, [*CONFIG_OPTIONS[option], str(path),
                                        *corpus_args(fixture_corpus)]))
        plain, with_bom = results
        assert plain[0] == EXIT_OK
        assert plain[1]
        assert with_bom == plain

    @pytest.mark.parametrize("problem", ["missing", "directory", "non-utf8"])
    @pytest.mark.parametrize("option", sorted(CONFIG_OPTIONS))
    def test_unreadable_config_exits_four(self, capsys, fixture_corpus, tmp_path,
                                          option, problem):
        path = tmp_path / "config.cfg"
        if problem == "directory":
            path.mkdir()
        elif problem == "non-utf8":
            path.write_bytes(b"# caf\xe9\n")
        code, out, err = run(capsys, [*CONFIG_OPTIONS[option], str(path),
                                      *corpus_args(fixture_corpus)])
        assert code == EXIT_CONFIG_ERROR
        assert out == ""
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1
        assert str(path) in err


class TestLateClosureCommand:
    def test_lists_planted_configurations(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["late-closure", *corpus_args(fixture_corpus),
                                    "--format", "records"])
        assert code == EXIT_OK
        records = parse_records(out)
        assert [(r["file"], r["sentence"], r["verb"], r["np"], r["givenness"])
                for r in records] == [
            ("b.mrg", 0, "worked", "it", "pronoun"),
            ("b.mrg", 1, "winning", "Larson", "proper-name"),
        ]

    def test_classifier_config_override_changes_labels(self, capsys, fixture_corpus,
                                                       tmp_path):
        config = tmp_path / "classifier.cfg"
        config.write_text("pronoun_pos_tags = XX\n", encoding="utf-8")
        code, out, _ = run(capsys, ["late-closure", *corpus_args(fixture_corpus),
                                    "--classifier-config", str(config),
                                    "--format", "records"])
        assert code == EXIT_OK
        by_np = {r["np"]: r["givenness"] for r in parse_records(out)}
        assert by_np["it"] == "not-classified"  # pronoun rule disabled
        assert by_np["Larson"] == "proper-name"

    def test_invalid_classifier_config_exits_four(self, capsys, fixture_corpus,
                                                  tmp_path):
        config = tmp_path / "classifier.cfg"
        config.write_text("made_up_key = a b c\n", encoding="utf-8")
        code, _, err = run(capsys, ["late-closure", *corpus_args(fixture_corpus),
                                    "--classifier-config", str(config)])
        assert code == EXIT_CONFIG_ERROR
        assert "made_up_key" in err


class TestAdverbialsCommand:
    @pytest.mark.parametrize(
        "counts,expected",
        [(("591", "7256"), 8.14), (("71", "1698"), 4.18)],
    )
    def test_from_counts_percentage(self, capsys, counts, expected):
        code, out, _ = run(capsys, ["adverbials", "--from-counts", *counts,
                                    "--format", "records"])
        assert code == EXIT_OK
        (row,) = parse_records(out)
        assert row["category"] == "ALL"
        assert row["pct_not_delimited"] == expected

    def test_from_counts_text_output(self, capsys):
        code, out, _ = run(capsys, ["adverbials", "--from-counts", "591", "7256"])
        assert code == EXIT_OK
        assert "8.14" in out

    @pytest.mark.parametrize("counts", [("-3", "5"), ("7", "5")])
    def test_from_counts_rejects_impossible_counts(self, capsys, counts):
        code, out, err = run(capsys, ["adverbials", "--from-counts", *counts])
        assert code == EXIT_MISSING_INPUT
        assert out == ""
        assert err.startswith("error: ")

    def test_from_counts_zero_total_is_degenerate(self, capsys):
        code, _, err = run(capsys, ["adverbials", "--from-counts", "0", "0"])
        assert code == EXIT_DEGENERATE_STATS
        assert "degenerate" in err

    def test_corpus_breakdown_matches_hand_counts(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["adverbials", *corpus_args(fixture_corpus),
                                    "--format", "records"])
        assert code == EXIT_OK
        rows = {r["category"]: r for r in parse_records(out)}
        assert (rows["ALL"]["fronted"], rows["ALL"]["not_comma_delimited"]) == (5, 3)
        assert rows["ALL"]["pct_not_delimited"] == 60.0
        assert (rows["SBAR"]["fronted"], rows["SBAR"]["not_comma_delimited"]) == (2, 1)
        assert (rows["PP"]["fronted"], rows["PP"]["not_comma_delimited"]) == (2, 1)
        assert (rows["other"]["fronted"], rows["other"]["not_comma_delimited"]) == (1, 1)


class TestVerbCommand:
    def test_builtin_lexicon_frame_profile(self, capsys, fixture_corpus):
        code, out, _ = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--format", "records"])
        assert code == EXIT_OK
        counts = {r["frame"]: r["count"] for r in parse_records(out)}
        assert counts == {"np-complement": 1, "that-clause": 1,
                          "reduced-clause": 1, "intransitive": 0, "total": 3}

    def test_lexicon_file_is_used(self, capsys, fixture_corpus, tmp_path):
        lexicon = tmp_path / "verbs.cfg"
        lexicon.write_text("# custom\ndisclose = disclosed\n", encoding="utf-8")
        code, out, _ = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--lexicon", str(lexicon),
                                    "--format", "records"])
        assert code == EXIT_OK
        counts = {r["frame"]: r["count"] for r in parse_records(out)}
        assert counts["total"] == 3  # every fixture hit uses the 'disclosed' form

    def test_form_feed_does_not_end_a_lexicon_line(self, capsys, fixture_corpus, tmp_path):
        lexicon = tmp_path / "verbs.cfg"
        lexicon.write_bytes(b"disclose = disclose\x0cdiscloses disclosed\n")
        code, out, _ = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--lexicon", str(lexicon),
                                    "--format", "records"])
        assert code == EXIT_OK
        counts = {r["frame"]: r["count"] for r in parse_records(out)}
        assert counts["total"] == 3

    def test_carriage_return_ends_a_lexicon_line(self, capsys, fixture_corpus, tmp_path):
        # Universal newlines, as for corpus files: "\r\n" reads as "\n", and a
        # lone "\r" ends a line too.
        lexicon = tmp_path / "verbs.cfg"
        lexicon.write_bytes(b"# custom\r\ndisclose = disclosed\r\n")
        code, out, _ = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--lexicon", str(lexicon),
                                    "--format", "records"])
        assert code == EXIT_OK
        assert {r["frame"]: r["count"] for r in parse_records(out)}["total"] == 3
        lexicon.write_bytes(b"disclose = disclose\rdiscloses\n")
        code, out, err = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                      "--verb", "disclose", "--lexicon", str(lexicon)])
        assert (code, out) == (EXIT_CONFIG_ERROR, "")
        assert err == f"error: {lexicon}:2: expected 'lemma = forms...', got 'discloses'\n"

    def test_unconfigured_lemma_exits_four(self, capsys, monkeypatch, fixture_corpus):
        # The lemma is rejected before any corpus file is read.
        forbid_corpus_reads(monkeypatch)
        code, out, err = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                      "--verb", "defenestrate"])
        assert (code, out) == (EXIT_CONFIG_ERROR, "")
        assert err == ("error: no inflections configured for 'defenestrate'; "
                       "add it to the lexicon\n")

    def test_unconfigured_lemma_without_corpus_exits_two(self, capsys, monkeypatch):
        # As for table1 and a bad --classifier-config, the missing corpus is
        # reported before the lemma the lexicon lacks.
        monkeypatch.delenv(CORPUS_ENV_VAR, raising=False)
        code, out, err = run(capsys, ["verb", "--verb", "defenestrate"])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == f"error: no corpus directory: pass --corpus DIR or set ${CORPUS_ENV_VAR}\n"

    def test_malformed_lexicon_exits_four(self, capsys, fixture_corpus, tmp_path):
        lexicon = tmp_path / "verbs.cfg"
        lexicon.write_text("no equals sign here\n", encoding="utf-8")
        code, _, err = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--lexicon", str(lexicon)])
        assert code == EXIT_CONFIG_ERROR
        assert "lemma = forms" in err
        assert err == (f"error: {lexicon}:1: expected 'lemma = forms...', "
                       "got 'no equals sign here'\n")


class TestPlumbing:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, [])
        assert code == EXIT_MISSING_INPUT
        assert "subcommand" in err

    def test_missing_corpus_exits_two(self, capsys, monkeypatch):
        monkeypatch.delenv(CORPUS_ENV_VAR, raising=False)
        code, _, err = run(capsys, ["table1"])
        assert code == EXIT_MISSING_INPUT
        assert CORPUS_ENV_VAR in err

    def test_environment_variable_supplies_corpus(self, capsys, monkeypatch,
                                                  fixture_corpus):
        monkeypatch.setenv(CORPUS_ENV_VAR, str(fixture_corpus))
        code, out, _ = run(capsys, ["parse", "--format", "records"])
        assert code == EXIT_OK
        assert len(parse_records(out)) == 3

    def test_flag_overrides_environment(self, capsys, monkeypatch, fixture_corpus,
                                        tmp_path):
        monkeypatch.setenv(CORPUS_ENV_VAR, str(tmp_path / "nowhere"))
        code, _, _ = run(capsys, ["parse", *corpus_args(fixture_corpus)])
        assert code == EXIT_OK

    def test_nonexistent_corpus_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["parse", "--corpus", str(tmp_path / "nope")])
        assert code == EXIT_MISSING_INPUT
        assert "nope" in err

    def test_file_as_corpus_exits_two(self, capsys, fixture_corpus):
        root = fixture_corpus / "a.mrg"
        code, out, err = run(capsys, ["parse", "--corpus", str(root)])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == f"error: corpus root {root} is not a directory\n"

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_root_that_cannot_be_listed_exits_two(self, capsys, monkeypatch, deny_listing,
                                                  fixture_corpus, command):
        deny_listing(fixture_corpus)
        forbid_corpus_reads(monkeypatch)
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], *corpus_args(fixture_corpus)])
        assert (code, out) == (EXIT_MISSING_INPUT, "")
        assert err == f"error: cannot list corpus root {fixture_corpus}: Permission denied\n"

    def test_dump_default_config_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["--dump-default-config"])
        assert code == EXIT_OK
        path = tmp_path / "dumped.cfg"
        path.write_text(out, encoding="utf-8")
        assert ClassifierConfig.from_file(path) == DEFAULT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == EXIT_OK
        assert run(capsys, ["chisq", "--help"])[0] == EXIT_OK

    def test_unknown_option_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["parse", "--no-such-flag"])
        assert code == EXIT_MISSING_INPUT
