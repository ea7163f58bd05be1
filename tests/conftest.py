import errno
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from npstat.treebank import Tree, parse_trees

from corpusgen import build_corpus

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixture_corpus() -> Path:
    """Committed 3-file, 10-sentence corpus with fully hand-traced contents."""
    return FIXTURES / "corpus"


@pytest.fixture
def set_int_max_str_digits():
    """``sys.set_int_max_str_digits``; the interpreter's limit on the digits of
    an integer converted to a string is restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on integer string conversion")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.fixture
def deny_listing(monkeypatch):
    """Make ``os.scandir`` fail on one directory as it does without read
    permission, which a test run as root cannot set up with ``chmod``."""
    scandir = os.scandir

    def deny(directory):
        def checked(path):
            if path == str(directory):
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", checked)

    return deny


@pytest.fixture
def broken_dir() -> Path:
    return FIXTURES / "broken"


@pytest.fixture(scope="session")
def smoke_corpus(tmp_path_factory) -> Path:
    """Deterministic 8-file, 200-sentence synthetic corpus, in a directory
    named ``smoke`` (table1 labels its output with that name)."""
    return build_corpus(tmp_path_factory.mktemp("smoke-corpus") / "smoke")


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's corpus generator, ``perfbench/gen.py``."""
    gen_py = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", gen_py)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def seed_101_corpus(tmp_path_factory, perfbench_gen):
    """The benchmark's corpus of a workload at seed 101, generated once per
    session and read only: ``seed_101_corpus("flat-wsj")`` is its directory."""
    corpora = {}

    def corpus(workload: str) -> Path:
        if workload not in corpora:
            root = tmp_path_factory.mktemp(workload)
            perfbench_gen.generate(workload, 101, root)
            corpora[workload] = root / "corpus"
        return corpora[workload]

    return corpus


@pytest.fixture(scope="session")
def deep_clauses_trees(tmp_path_factory, perfbench_gen) -> list[Tree]:
    """Every sentence of the benchmark's deep-clauses corpus (seed 1),
    generated by ``perfbench/gen.py``."""
    root = tmp_path_factory.mktemp("deep-clauses")
    perfbench_gen.generate("deep-clauses", 1, root)
    return [
        tree
        for path in sorted((root / "corpus").rglob("*.mrg"))
        for tree in parse_trees(path.read_text(encoding="utf-8"))
    ]
