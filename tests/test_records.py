"""The library's immutable records: positional and keyword construction,
field-wise equality, assignment errors and the validation messages."""

import copy
import pickle
import re

import pytest

from slt_toolkit.cleaning import CleanOutcome, RuleName, Verdict
from slt_toolkit.corpus import CorpusError, Utterance
from slt_toolkit.frameplan import WindowPlan
from slt_toolkit.metrics import BleuScore, CandidateScores, \
    SelectionReport
from slt_toolkit.normalize import AbbrevTable
from slt_toolkit.stats import CorpusStats, FieldDelta, SliceStats

_BLEU = BleuScore(50.0, (0.5, 0.5, 0.5, 1.0), 1.0, 4, 4)
_SLICE = SliceStats(1, 0.5, 2, 1)

# Record type, every field as a keyword in declaration order, and one
# field with another value.
RECORDS = [
    (Utterance, dict(id="a", text="x", source="SRF", duration_s=1.5),
     ("text", "y")),
    (CleanOutcome, dict(id="a", verdict=Verdict.EDITED,
                        hits=((RuleName.ASTERISK_SOUND, "*x*"),), text="y"),
     ("verdict", Verdict.KEPT)),
    (AbbrevTable, dict(entries={"Mrd.": "Milliarden"}),
     ("entries", {"Mio.": "Millionen"})),
    (BleuScore, dict(score=50.0, precisions=(0.5, 0.5, 0.5, 1.0),
                     brevity_penalty=1.0, hyp_len=4, ref_len=4),
     ("hyp_len", 5)),
    (CandidateScores, dict(name="a", bleu=_BLEU, reduced=_BLEU,
                           stopword_count=1, stopword_fraction=0.25),
     ("name", "b")),
    (SelectionReport, dict(candidates=(), winner="a"), ("winner", "b")),
    (SliceStats, dict(video_count=1, hours=0.5, vocabulary=2, singletons=1),
     ("singletons", 2)),
    (CorpusStats, dict(per_source={"SRF": _SLICE}, total=_SLICE),
     ("per_source", {})),
    (FieldDelta, dict(field="hours", raw=2.0, clean=1.5, delta=-0.5,
                      pct=-25.0, increased=False), ("pct", -24.0)),
    (WindowPlan, dict(padded_w=300, padded_h=200, scale_x=0.5, scale_y=0.25,
                      window_starts=(0, 8), tail_padding=0,
                      uncovered_frames=3),
     ("window_starts", (0,))),
]


@pytest.mark.parametrize("cls, fields, changed", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_equality_and_immutability(cls, fields, changed):
    record = cls(**fields)
    assert cls(*fields.values()) == record  # positional order unchanged
    assert {name: getattr(record, name) for name in fields} == fields
    name, value = changed
    assert cls(**(fields | {name: value})) != record
    assert repr(record).startswith(f"{cls.__name__}({next(iter(fields))}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert cls(**fields) == record
    assert copy.copy(record) == record
    if cls is not AbbrevTable:  # its entries are a read-only mappingproxy
        assert pickle.loads(pickle.dumps(record)) == record


_ABBREV_RULES = ("invalid abbreviation {}: a key must not start with a digit "
                 "or have white space at either end, and an expansion must "
                 "hold no digit")


@pytest.mark.parametrize("build, error, message", [
    (lambda: Utterance("", "x"), CorpusError, "utterance id must be nonempty"),
    (lambda: Utterance("a", "x", duration_s=-1.0), CorpusError,
     "duration_s must be a finite number >= 0, got -1.0"),
    (lambda: Utterance("a", "x", duration_s=float("nan")), CorpusError,
     "field 'duration_s' must be a finite number"),
    (lambda: Utterance("a", "x", duration_s=float("inf")), CorpusError,
     "field 'duration_s' must be a finite number"),
    # Every field of the corpus line table, checked in a corpus line's
    # order: the first fault is reported.
    (lambda: Utterance(5, "t"), CorpusError, "field 'id' must be a string"),
    (lambda: Utterance("a", None), CorpusError,
     "field 'text' must be a string"),
    (lambda: Utterance("", None), CorpusError,
     "field 'text' must be a string"),
    (lambda: Utterance("a", "t", 5), CorpusError,
     "field 'source' must be a string"),
    (lambda: Utterance("a", "t", duration_s=True), CorpusError,
     "field 'duration_s' must be a finite number"),
    (lambda: Utterance("a", "t", duration_s="3.5"), CorpusError,
     "field 'duration_s' must be a finite number"),
    (lambda: Utterance("a", "t", duration_s=10 ** 309), CorpusError,
     "field 'duration_s' must be a finite number"),
    (lambda: Utterance("", "t", "srf", -1), CorpusError,
     "unknown source 'srf'"),
    (lambda: Utterance("", "t", "SRF", True), CorpusError,
     "field 'duration_s' must be a finite number"),
    (lambda: Utterance("a", "t", duration_s=-1), CorpusError,
     "duration_s must be a finite number >= 0, got -1.0"),
    (lambda: AbbrevTable({"z.B.": ""}), ValueError,
     "abbreviation keys and values must be nonempty"),
    (lambda: AbbrevTable({"1.": "erstens"}), ValueError,
     _ABBREV_RULES.format("'1.': 'erstens'")),
    (lambda: AbbrevTable({"٣x": "drei"}), ValueError,
     _ABBREV_RULES.format("'٣x': 'drei'")),
    (lambda: AbbrevTable({"z.B. ": "zum Beispiel"}), ValueError,
     _ABBREV_RULES.format("'z.B. ': 'zum Beispiel'")),
    (lambda: AbbrevTable({"\tusw.": "und so weiter"}), ValueError,
     _ABBREV_RULES.format("'\\tusw.': 'und so weiter'")),
    (lambda: AbbrevTable({"\u3000": "x"}), ValueError,
     _ABBREV_RULES.format("'\\u3000': 'x'")),
    (lambda: AbbrevTable({"Nr.": "Nummer 1"}), ValueError,
     _ABBREV_RULES.format("'Nr.': 'Nummer 1'")),
    (lambda: AbbrevTable({"Nr.": "Nummer ٣"}), ValueError,
     _ABBREV_RULES.format("'Nr.': 'Nummer ٣'")),
    # _replace builds through the same checks.
    (lambda: Utterance("a", "x")._replace(id=""), CorpusError,
     "utterance id must be nonempty"),
    (lambda: AbbrevTable({"z.B.": "zum Beispiel"})._replace(entries={"": "x"}),
     ValueError, "abbreviation keys and values must be nonempty"),
], ids=["utterance-id", "utterance-duration", "utterance-nan-duration",
        "utterance-inf-duration", "utterance-int-id", "utterance-null-text",
        "utterance-text-before-id", "utterance-int-source",
        "utterance-bool-duration", "utterance-string-duration",
        "utterance-huge-int-duration", "utterance-unknown-source",
        "utterance-duration-before-id", "utterance-int-negative-duration",
        "abbrev-empty",
        "abbrev-digit-key", "abbrev-arabic-indic-digit-key",
        "abbrev-trailing-space", "abbrev-leading-tab", "abbrev-blank-key",
        "abbrev-digit-value", "abbrev-arabic-indic-digit-value",
        "utterance-replace", "abbrev-replace"])
def test_record_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
