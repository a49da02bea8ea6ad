"""The library's value records cannot be changed once built and compare by
value; its graph objects compare by identity."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import retroroute
from retroroute.align import AlignedSequence, AlignedStep
from retroroute.cli import PipelineConfig
from retroroute.consensus import RankedCandidate, SlateEntry
from retroroute.evaluate import EvalCandidate, EvalRecord, EvalReport
from retroroute.reward import GeneratedPlan, PlanLineIssue, PlanScore, RewardConfig
from retroroute.routes import (
    Reaction,
    Route,
    RouteNode,
    RouteRecord,
    RouteTree,
    ValidationReport,
)
from retroroute.smiles import (
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    CanonicalKey,
    Molecule,
    canonical_key,
    parse_smiles,
)

_KEY = CanonicalKey("CCO")
_ENTRY = SlateEntry("a", frozenset({_KEY}), 1)
_ETHANOL = parse_smiles("CCO")[0]
_ROUTE = Route(_ETHANOL, ())

# One record of each kind and one of its fields.
RECORDS = [
    (ValidationReport((), ("CCO",), ()), "grounding"),
    (AlignedStep("CCO", ("CC", "O"), (0.0, 2.0), (0, 0)), "precursor_texts"),
    (AlignedSequence((), 0), "target_root"),
    (_ENTRY, "depth"),
    (RankedCandidate(_ENTRY, 2), "votes"),
    (EvalCandidate(frozenset({_KEY}), 1), "precursors"),
    (EvalRecord((), (frozenset({_KEY}),), 1), "ref_depth"),
    (EvalReport({1: 1.0}, {"1": 1.0}, {"1": 1}, 1), "total"),
    (RewardConfig(), "exact_weight"),
    (PlanLineIssue(1, "syntax", "missing '>>'"), "kind"),
    (PlanScore(0.0, False, None, None, None, None, None), "total"),
    (GeneratedPlan(None, (), False), "parsed_route"),
    (RouteRecord(_ROUTE, 0), "route"),
    (RouteTree(RouteNode(0, _ETHANOL, None, ())), "root"),
    (PipelineConfig(), "workers"),
    (Atom("C"), "charge"),
    (Bond(0, 1, SINGLE), "order"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_a_record_field_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_atoms_and_bonds_compare_and_hash_by_value():
    assert Atom("C", charge=1) == Atom("C", False, 1) and Atom("C") != Atom("N")
    bond = Bond(0, 1, SINGLE)
    assert bond == Bond(0, 1, SINGLE) and bond != Bond(0, 1, DOUBLE)
    # The hash of the field tuple, as frozen dataclasses hashed: set and dict
    # order, and with it every artifact, does not depend on the record type.
    assert hash(bond) == hash((0, 1, SINGLE, None))
    assert hash(Atom("C")) == hash(("C", False, 0, None, None, None, None))
    assert bond._replace(order=DOUBLE) == Bond(0, 1, DOUBLE) and bond.order == SINGLE


def test_graph_objects_built_from_equal_fields_stay_distinct():
    m = parse_smiles("CCO")[0]
    pairs = [
        (Molecule(m.atoms, m.bonds, "CCO"), Molecule(m.atoms, m.bonds, "CCO")),
        (Reaction(m, (m,), ({},)), Reaction(m, (m,), ({},))),
        (Route(m, ()), Route(m, ())),
        (RouteNode(0, m, None, ()), RouteNode(0, m, None, ())),
    ]
    for first, second in pairs:
        assert first == first and first != second
        table = {first: 1, second: 2}
        assert len(table) == 2 and table[first] == 1 and table[second] == 2


def test_a_molecule_round_trips_through_pickle():
    # score --workers 2 sends parsed molecules to its pool.
    m = parse_smiles("c1ccccc1[NH3+:1]")[0]
    key = canonical_key(m)
    copy = pickle.loads(pickle.dumps(m))
    assert copy is not m and vars(copy).keys() == vars(m).keys()
    assert (copy.atoms, copy.bonds, copy.source_text) == (m.atoms, m.bonds, m.source_text)
    assert copy._effective == m._effective and canonical_key(copy) == key


def test_a_molecule_pickled_in_one_process_keeps_its_atom_kinds_in_another(tmp_path):
    # Kind codes are numbered per process, in order of first use. Methane
    # pickled where C was kind 0 must not take the kind [NH4+] got first.
    env = {**os.environ, "PYTHONPATH": str(Path(retroroute.__file__).resolve().parents[1])}
    saved = tmp_path / "methane.pickle"
    dump = "from retroroute.smiles import parse_smiles; m = parse_smiles('C')[0]"
    dump += "; import pickle, sys; open(sys.argv[1], 'wb').write(pickle.dumps(m))"
    load = "from retroroute.smiles import canonical_key, parse_smiles"
    load += "; canonical_key(parse_smiles('[NH4+]')[0])"
    load += "; import pickle, sys; m = pickle.loads(open(sys.argv[1], 'rb').read())"
    load += "; print(canonical_key(m).key)"
    for code in (dump, load):
        done = subprocess.run(
            [sys.executable, "-c", code, str(saved)], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
    assert done.stdout == "C\n"
