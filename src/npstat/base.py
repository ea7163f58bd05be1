"""What every run of npstat loads: the exit-code exception classes, the output
formats, the slotted record base, and the defaults that the command line shares
with its subcommand handlers (the corpus environment variable and the verb
lexicon).

Each command is a fresh process, so this module imports only :mod:`enum`; the
node model (:mod:`npstat.treebank`) is loaded only by what reads or builds trees.
"""

from __future__ import annotations

from enum import Enum

CORPUS_ENV_VAR = "NPSTAT_CORPUS"

DEFAULT_VERB_LEXICON: dict[str, tuple[str, ...]] = {
    "return": ("return", "returns", "returned", "returning"),
    "realize": ("realize", "realizes", "realized", "realizing"),
    "disclose": ("disclose", "discloses", "disclosed", "disclosing"),
}


class InputError(ValueError):
    """Missing or unusable input, such as no corpus root or a negative count;
    the command line exits 2 on it, and on no other exception."""


class DegenerateInput(ValueError):
    """Statistics input that leaves the statistic undefined; the command line exits 3."""


class ConfigError(ValueError):
    """A classifier config or verb lexicon that cannot be used; the command line exits 4."""


class EveryFileFailed(Exception):
    """Corpus files were listed and none of them parsed; the command line exits 1."""


class SlottedRecord:
    """Base of slotted value types whose ``__init__`` checks or fills in fields,
    which a ``NamedTuple`` cannot do.

    Equality, hash and repr are over the attributes named in ``_fields``, in
    order, as for a tuple; a subclass sets ``__slots__ = _fields = (...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ReportFormat(Enum):
    """Output formats of :mod:`npstat.report`, one per ``--format`` choice.

    Defined in this bottom layer, which every command loads, so that the
    command line can offer the format names without importing the report
    layer; :mod:`npstat.report` re-exports it.
    """

    ALIGNED_TEXT = "text"
    TAB_SEPARATED = "tsv"
    STRUCTURED_RECORDS = "records"
