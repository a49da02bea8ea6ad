"""The library's value records cannot be changed once built."""

from __future__ import annotations

import pytest

from retroroute.align import AlignedSequence, AlignedStep
from retroroute.cli import PipelineConfig
from retroroute.consensus import RankedCandidate, RankingPair, SlateEntry
from retroroute.evaluate import EvalCandidate, EvalRecord, EvalReport
from retroroute.reward import PlanLineIssue, PlanScore, RewardConfig
from retroroute.routes import CheckResult, StockSet, ValidationReport
from retroroute.smiles import CanonicalKey

_KEY = CanonicalKey("CCO")
_PASSED = CheckResult(True)
_ENTRY = SlateEntry("a", frozenset({_KEY}), 1)

# One record of each kind and one of its fields.
RECORDS = [
    (_PASSED, "offenders"),
    (ValidationReport(_PASSED, _PASSED, _PASSED), "grounding"),
    (StockSet(frozenset({_KEY}), "stock.smi"), "keys"),
    (AlignedStep("CCO", ("CC", "O"), (0.0, 2.0), (0, 0)), "precursor_texts"),
    (AlignedSequence((), 0, {}), "target_root"),
    (_ENTRY, "depth"),
    (RankedCandidate(_ENTRY, 2, 0), "votes"),
    (RankingPair("a", "b"), "label"),
    (EvalCandidate(frozenset({_KEY}), 1), "precursors"),
    (EvalRecord(_KEY, (), (frozenset({_KEY}),), 1), "ref_depth"),
    (EvalReport({1: 1.0}, {"1": 1.0}, {"1": 1}, 1), "total"),
    (RewardConfig(), "exact_weight"),
    (PlanLineIssue(1, "syntax", "missing '>>'"), "kind"),
    (PlanScore(0.0, False, None, None, None, None, None), "total"),
    (PipelineConfig(), "workers"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_a_record_field_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
