"""End-to-end command-line tests driving ``npstat.cli.main``."""

import shutil

import pytest

from npstat.cli import (
    CORPUS_ENV_VAR,
    EXIT_ALL_FILES_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_DEGENERATE_STATS,
    EXIT_INTERNAL_ERROR,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    main,
)
from npstat import corpus
from npstat.givenness import DEFAULT_CONFIG, ClassifierConfig, classify_np
from npstat.report import parse_records

from refvalues import (
    BROWN_TABLE1,
    BROWN_TOTAL_ROW,
    CHI_SQUARE_CASES,
    CHI_SQUARE_TOLERANCE,
    WSJ_TOTAL_ROW,
    from_counts_args,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def skip_warnings(caplog):
    """The ``skipping`` warnings logged so far; a real run prints them on stderr."""
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]


def corpus_args(fixture_corpus):
    return ["--corpus", str(fixture_corpus)]


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


class TestFailurePaths:
    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_total_failure_exits_one(self, capsys, broken_dir, tmp_path, command):
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "only.mrg")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_ALL_FILES_FAILED
        assert "failed to parse" in err
        if command != "parse":
            assert out == ""

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_lone_empty_file(self, capsys, caplog, tmp_path, command):
        (tmp_path / "empty.mrg").write_bytes(b"")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                      "--corpus", str(tmp_path)])
        assert skip_warnings(caplog) == []
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
    def test_lone_non_utf8_file(self, capsys, caplog, tmp_path, command):
        (tmp_path / "latin.mrg").write_bytes(b"\xe9(S (NN x))\n")
        code, out, err = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_ALL_FILES_FAILED
        (skip,) = skip_warnings(caplog)
        assert skip.startswith("skipping latin.mrg: 'utf-8' codec can't decode")
        assert err.splitlines()[-1] == "error: every corpus file failed to parse"
        if command != "parse":
            assert out == ""

    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_partial_failure_skips_the_bad_file_once(self, capsys, caplog, fixture_corpus,
                                                     broken_dir, tmp_path, command):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "b.mrg")
        code, _, _ = run(capsys, [*CORPUS_COMMANDS[command], "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        (skip,) = skip_warnings(caplog)
        assert skip.startswith("skipping b.mrg: ")

    @pytest.mark.parametrize("depth", [1_200, 10_000])
    @pytest.mark.parametrize("shape", ["right", "left"])
    @pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
    def test_deep_file_is_read(self, capsys, caplog, fixture_corpus, tmp_path,
                               command, shape, depth):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        if shape == "right":
            deep = "(S " * depth + "(NN x)" + ")" * depth
        else:
            deep = "(S " * depth + "(NP (PRP it))" + " (VP (VBD ran)))" * depth
        (tmp_path / "deep.mrg").write_text(deep + "\n", encoding="utf-8")
        code, out, _ = run(capsys, [*CORPUS_COMMANDS[command], "--format", "records",
                                    "--corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert skip_warnings(caplog) == []
        if command == "parse":
            assert parse_records(out)[-1] == {"record": "parse-file", "file": "deep.mrg",
                                              "sentences": 1, "status": "ok"}

    def test_internal_error_exits_70(self, capsys, monkeypatch, fixture_corpus):
        calls = []

        def failing_classify(node, config):
            calls.append(node)
            if len(calls) == 2:
                raise RuntimeError("planted defect")
            return classify_np(node, config)

        monkeypatch.setattr(corpus, "classify_np", failing_classify)
        code, out, err = run(capsys, ["table1", *corpus_args(fixture_corpus)])
        assert code == EXIT_INTERNAL_ERROR
        assert out == ""
        assert err == "error: internal error: RuntimeError: planted defect\n"


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

    def test_wrong_counts_arity_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["table1", "--from-counts", "1", "2", "3"])
        assert code == EXIT_MISSING_INPUT


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

    def test_unknown_context_token_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["chisq", "--cells", "1", "2", "3", "4",
                                  "--contexts", "bogus"])
        assert code == EXIT_MISSING_INPUT


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

    def test_unconfigured_lemma_exits_four(self, capsys, fixture_corpus):
        code, _, err = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "defenestrate"])
        assert code == EXIT_CONFIG_ERROR
        assert "defenestrate" in err

    def test_malformed_lexicon_exits_four(self, capsys, fixture_corpus, tmp_path):
        lexicon = tmp_path / "verbs.cfg"
        lexicon.write_text("no equals sign here\n", encoding="utf-8")
        code, _, err = run(capsys, ["verb", *corpus_args(fixture_corpus),
                                    "--verb", "disclose", "--lexicon", str(lexicon)])
        assert code == EXIT_CONFIG_ERROR
        assert "lemma = forms" in err


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
