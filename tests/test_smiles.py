"""Parser, rooted writer, canonical ranking and isomorphism checks."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from generators import rand_molecule, rand_smiles
from retroroute import smiles
from retroroute.smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    SmilesSyntaxError,
    canonical_key,
    canonical_ranks,
    corresponding_atom,
    is_isomorphic,
    molecule_is_valid,
    parse_smiles,
    smiles_keys,
    write_rooted,
)


def one(text: str) -> Molecule:
    parts = parse_smiles(text)
    assert len(parts) == 1
    return parts[0]


# ---------------------------------------------------------------------------
# parse_smiles
# ---------------------------------------------------------------------------


def test_parse_smallest_chain():
    m = one("CCO")
    assert [a.element for a in m.atoms] == ["C", "C", "O"]
    assert len(m.bonds) == 2
    assert all(b.order == SINGLE for b in m.bonds)
    assert m.source_text == "CCO"


def test_parse_alkyne_ester():
    m = one("C#Cc1nccnc1CC(=O)OCC")
    assert len(m.atoms) == 14
    assert sum(b.order == TRIPLE for b in m.bonds) == 1
    aromatic = [i for i, a in enumerate(m.atoms) if a.aromatic]
    assert len(aromatic) == 6
    ring_bonds = [b for b in m.bonds if b.order == AROMATIC]
    assert len(ring_bonds) == 6


def test_parse_borohydride_bracket():
    m = one("CC(=O)O[BH-](OC(C)=O)OC(C)=O")
    boron = [a for a in m.atoms if a.element == "B"]
    assert len(boron) == 1
    assert boron[0].charge == -1
    assert boron[0].explicit_hydrogens == 1
    assert not boron[0].aromatic


def test_parse_components_split_on_dot():
    parts = parse_smiles("CCO.CC=O.[Na+]")
    assert len(parts) == 3
    assert parts[0].source_text == "CCO"
    assert parts[1].source_text == "CC=O"
    assert parts[2].atoms[0].charge == 1


def test_parse_bracket_fields():
    m = one("[13CH3:7]O")
    atom = m.atoms[0]
    assert atom.isotope == 13
    assert atom.explicit_hydrogens == 3
    assert atom.map_number == 7
    assert atom.charge == 0


def test_parse_charge_forms():
    assert one("[Fe+2]").atoms[0].charge == 2
    assert one("[Fe++]").atoms[0].charge == 2
    assert one("[O-]S(=O)(=O)[O-]").atoms[0].charge == -1
    assert one("[N-3]").atoms[0].charge == -3


def test_parse_map_zero_means_unmapped():
    assert one("[CH4:0]").atoms[0].map_number is None


def test_parse_explicit_h_zero_vs_absent():
    # [C] pins zero hydrogens; bare C leaves them implicit.
    pinned = one("[C]").atoms[0]
    assert pinned.explicit_hydrogens == 0
    assert one("C").atoms[0].explicit_hydrogens is None


def test_parse_percent_ring_closure():
    m = one("C%12CCCCC%12")
    assert len(m.bonds) == 6
    ring_bond = m.bonds[-1]
    assert {ring_bond.a, ring_bond.b} == {0, 5}


def test_parse_aromatic_bare_atoms():
    m = one("c1ccsc1")
    assert all(a.aromatic for a in m.atoms)
    assert m.atoms[3].element == "S"
    # Bare aromatic S carries no implicit hydrogens.
    assert m.effective_hydrogens(3) == 0


def test_parse_directional_bonds_kept():
    m = one("F/C=C/F")
    directions = [b.direction for b in m.bonds]
    assert directions == ["/", None, "/"]
    assert m.bonds[0].order == SINGLE
    assert m.bonds[1].order == DOUBLE


def test_parse_chirality_kept():
    m = one("N[C@@H](C)C(=O)O")
    assert m.atoms[1].chirality == "@@"
    assert m.effective_hydrogens(1) == 1


def test_parse_ring_bond_order_from_either_end():
    before = one("C=1CCCCC=1")
    after = one("C1CCCCC=1")
    assert before.bonds[-1].order == DOUBLE
    assert after.bonds[-1].order == DOUBLE
    assert is_isomorphic(before, after)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "C1CC",  # unclosed ring
        "C(C",  # unclosed branch
        "CC)C",  # unmatched close
        "CC=",  # dangling bond
        "C=.C",  # dangling bond at component end
        "=CC",  # bond before first atom
        "C==C",  # doubled bond symbol
        "C%1C",  # short %nn closure
        "[Xx]",  # unknown element
        "[C@@@]",  # unsupported chirality class
        "C[]C",  # empty bracket
        "C[CH",  # unterminated bracket
        "*CC",  # wildcard rejected
        "C..C",  # empty component
        "C11",  # ring closure to itself
        "C1C1",  # duplicate of an existing bond
        "C=1CCCCC-1",  # conflicting ring bond symbols
        "1CC",  # ring closure before any atom
        "(CC)",  # branch before any atom
        "[te]",  # aromatic flag outside the aromatic subset
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SmilesSyntaxError):
        parse_smiles(text)


def test_parse_accepts_fused_closures():
    m = one("C12CC1C2C")
    assert len(m.bonds) == 6


def test_parse_error_is_value_error():
    # Callers that batch-parse route files catch ValueError.
    with pytest.raises(ValueError):
        parse_smiles("C(")


def test_parse_every_golden_box_string():
    for text in golden.all_box_smiles():
        for part in parse_smiles(text):
            assert len(part.atoms) > 0


# ---------------------------------------------------------------------------
# write_rooted
# ---------------------------------------------------------------------------


def test_write_rooted_starts_at_root():
    m = one("CCO")
    text, order = write_rooted(m, 2)
    assert text.startswith("O")
    assert order[0] == 2
    assert is_isomorphic(one(text), m)


def test_write_rooted_boc_piperidine_at_ring_nitrogen():
    m = one("CC(C)(C)OC(=O)N1CCC(c2ccc(N)cc2)CC1")
    ring_n = next(
        i for i, a in enumerate(m.atoms) if a.element == "N" and m.degree(i) == 3
    )
    text, order = write_rooted(m, ring_n)
    assert text.startswith("N1(")
    assert order[0] == ring_n
    assert is_isomorphic(one(text), m)


def test_write_rooted_atom_order_is_emission_order():
    m = one("CC(N)=O")
    text, order = write_rooted(m, 0)
    assert sorted(order) == list(range(len(m.atoms)))
    # order[k] is the atom whose token was written k-th; checking the first
    # two suffices for a chain start.
    assert m.atoms[order[0]].element == text[0]


def test_write_rooted_bad_root():
    m = one("CCO")
    with pytest.raises(IndexError):
        write_rooted(m, 3)
    with pytest.raises(IndexError):
        write_rooted(m, -1)


def test_write_rooted_all_children_but_last_parenthesized():
    m = one("CC(N)(O)F")
    text, _ = write_rooted(m, 1)
    assert text.count("(") == 3
    assert not text.endswith(")")


def test_write_rooted_digits_never_reused_and_percent_form():
    # K6 has 15 bonds over 6 atoms: 10 ring closures, so the tenth needs %10.
    atoms = tuple(Atom("C") for _ in range(6))
    bonds = tuple(Bond(a, b, SINGLE) for a, b in combinations(range(6), 2))
    k6 = Molecule(atoms, bonds)
    text, _ = write_rooted(k6, 0)
    assert "%10" in text
    for digit in "123456789":
        assert text.count(digit) == 2 or digit in text.split("%10")[0]
    assert is_isomorphic(one(text), k6)


def test_write_rooted_map_and_stereo_switches():
    m = one("N[C@@H](C)C(=O)[O:4]")
    with_all, _ = write_rooted(m, 0, include_maps=True, include_stereo=True)
    bare, _ = write_rooted(m, 0, include_maps=False, include_stereo=False)
    assert ":4" in with_all and "@@" in with_all
    assert ":4" not in bare and "@@" not in bare
    assert is_isomorphic(one(with_all), one(bare))


def test_write_rooted_round_trips_box_corpus_every_root():
    for text in golden.all_box_smiles():
        for m in parse_smiles(text):
            for root in range(len(m.atoms)):
                rendered, order = write_rooted(m, root)
                assert order[0] == root
                assert is_isomorphic(one(rendered), m)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_write_rooted_round_trips_random_molecules(seed, data):
    m = rand_molecule(random.Random(seed))
    root = data.draw(st.integers(0, len(m.atoms) - 1))
    rendered, order = write_rooted(m, root)
    assert order[0] == root
    assert sorted(order) == list(range(len(m.atoms)))
    assert is_isomorphic(one(rendered), m)


# ---------------------------------------------------------------------------
# aromatic bonds on no ring
# ---------------------------------------------------------------------------


def test_ring_to_ring_bond_is_single_however_spelled():
    spellings = [
        "c1ccccc1c1ccccc1",
        "c1ccccc1-c1ccccc1",
        "c1ccc(cc1)c1ccccc1",
        "c1ccccc1:c1ccccc1",
    ]
    keys = {canonical_key(one(text)) for text in spellings}
    assert len(keys) == 1
    m = one(spellings[0])
    assert [b.order for b in m.bonds].count(SINGLE) == 1
    assert [b.order for b in m.bonds].count(AROMATIC) == 12


def test_terphenyl_and_heteroaryl_bridges_are_single():
    assert canonical_key(one("c1ccc(cc1)c1ccc(cc1)c1ccccc1")) == canonical_key(
        one("c1ccc(cc1)-c1ccc(cc1)-c1ccccc1")
    )
    assert canonical_key(one("c1ccncc1c1cccnc1")) == canonical_key(one("c1ccncc1-c1cccnc1"))


def test_ring_bonds_and_kekule_spellings_stay_as_written():
    # The last two close rings across branches, from a branch to a later atom.
    for text in ("c1ccccc1", "c1ccc2ccccc2c1", "c1ccc2c(c1)nnn2O", "c1(c2)ccccc12", "c1(c2)cccc2c1"):
        m = one(text)
        assert all(b.order == AROMATIC for b in m.bonds if {b.a, b.b} <= _aromatic(m)), text
    assert canonical_key(one("C1=CC=CC=C1")) != canonical_key(one("c1ccccc1"))
    assert all(b.order in (SINGLE, DOUBLE) for b in one("C1=CC=CC=C1C1=CC=CC=C1").bonds)


def _aromatic(m: Molecule) -> set[int]:
    return {i for i, a in enumerate(m.atoms) if a.aromatic}


def _on_ring(m: Molecule, k: int) -> bool:
    """Brute force: bond k lies on a ring iff its ends stay connected without it."""
    bond = m.bonds[k]
    seen, stack = {bond.a}, [bond.a]
    while stack:
        i = stack.pop()
        for j, other in enumerate(m.bonds):
            if j != k and i in (other.a, other.b) and other.other(i) not in seen:
                seen.add(other.other(i))
                stack.append(other.other(i))
    return bond.b in seen


def test_unwritten_aromatic_bonds_match_a_brute_force_ring_test():
    rng = random.Random(11)
    checked = 0
    for _ in range(1500):
        m = rand_molecule(rng, min_atoms=12, max_atoms=24)
        text, _ = write_rooted(m, rng.randrange(len(m.atoms)))
        # Outside brackets '-' is only written between two aromatic atoms.
        implicit = re.sub(r"-(?![^\[]*\])", "", text)
        if implicit == text:
            continue
        checked += 1
        aromatic = _aromatic(m)
        expected = Molecule(
            m.atoms,
            tuple(
                replace(bond, order=AROMATIC)
                if bond.order == SINGLE and {bond.a, bond.b} <= aromatic and _on_ring(m, k)
                else bond
                for k, bond in enumerate(m.bonds)
            ),
        )
        assert canonical_key(one(implicit)) == canonical_key(expected), text
    assert checked > 100


# ---------------------------------------------------------------------------
# canonical_ranks / canonical_key
# ---------------------------------------------------------------------------


def test_ranks_are_a_permutation():
    m = one("CC(N)=O")
    assert sorted(canonical_ranks(m)) == [0, 1, 2, 3]


def test_ranks_stable_across_input_order():
    a = one("CCO")
    b = one("OCC")
    assert canonical_ranks(a)[2] == canonical_ranks(b)[0]


def test_ranks_benzene_ties_break_deterministically():
    a = canonical_ranks(one("c1ccccc1"))
    b = canonical_ranks(one("c1ccccc1"))
    assert a == b
    assert sorted(a) == list(range(6))


def test_key_equality_examples():
    assert canonical_key(one("CCO")) == canonical_key(one("OCC"))
    assert canonical_key(one("CCO")) != canonical_key(one("CCN"))


def test_key_ignores_maps_and_stereo():
    plain = one("NC(C)C(=O)O")
    decorated = one("N[C@@H](C)C(=O)[OH:9]")
    assert canonical_key(plain) == canonical_key(decorated)


def test_key_is_a_fixpoint():
    for text in ("CCO", "c1ccc2c(c1)nnn2O", "CC(C)(C)OC(=O)OC(C)(C)C"):
        key = canonical_key(one(text))
        assert canonical_key(one(key.key)) == key


def test_key_main_path_products_pairwise_distinct():
    keys = [golden.step_product_keys()[i] for i in range(7)]
    assert len(set(keys)) == 7


def test_shuffled_renders_share_one_key():
    rng = random.Random(7)
    for _ in range(50):
        m = rand_molecule(rng)
        key = canonical_key(m)
        for _ in range(5):
            root = rng.randrange(len(m.atoms))
            text, _ = write_rooted(m, root)
            again = one(text)
            assert canonical_key(again) == key
            assert is_isomorphic(again, m)


def test_corresponding_atom_transfers_by_rank():
    a = one("CCO")
    b = one("OCC")
    assert corresponding_atom(a, 2, b) == 0
    assert corresponding_atom(b, 0, a) == 2


def test_corresponding_atom_requires_same_structure():
    with pytest.raises(ValueError):
        corresponding_atom(one("CCO"), 0, one("CCN"))


# ---------------------------------------------------------------------------
# is_isomorphic
# ---------------------------------------------------------------------------


def test_isomorphic_reflexive_and_renders():
    m = one("CC(=O)Nc1ccccc1")
    assert is_isomorphic(m, m)
    assert is_isomorphic(one("CCO"), one("OCC"))
    assert not is_isomorphic(one("CCO"), one("CCN"))


def test_isomorphic_distinguishes_connectivity():
    # Ethanol vs dimethyl ether: same formula, different oxygen degree.
    assert not is_isomorphic(one("CCO"), one("COC"))


def test_isomorphic_backtracking_case():
    # 2- vs 3-methylheptane share every per-atom local invariant
    # (element, degree, H count, bond orders) but differ globally.
    a = one("CC(C)CCCCC")
    b = one("CCC(C)CCCC")
    assert not is_isomorphic(a, b)
    assert is_isomorphic(a, one("CCCCCC(C)C"))


def test_isomorphic_respects_attributes():
    assert not is_isomorphic(one("[13CH3]O"), one("CO"))
    assert not is_isomorphic(one("[NH4+]"), one("N"))
    assert not is_isomorphic(one("C1=CC=CC=C1"), one("c1ccccc1"))
    assert not is_isomorphic(one("C=CC"), one("CCC"))
    # Explicit H pinning changes the match.
    assert not is_isomorphic(one("[CH2]C"), one("CC"))
    assert is_isomorphic(one("[CH3]C"), one("CC"))


def test_isomorphic_decalin_two_closures():
    a = one("C1CCC2CCCCC2C1")
    b = one("C1CC2CCCCC2CC1")
    assert is_isomorphic(a, b)


def test_key_soundness_on_random_pairs():
    """Key equality must coincide with isomorphism on a mixed corpus."""
    rng = random.Random(11)
    corpus = [rand_molecule(rng, min_atoms=3, max_atoms=8) for _ in range(24)]
    # Duplicate some entries through re-rendering so positives exist.
    for m in list(corpus[:8]):
        text, _ = write_rooted(m, rng.randrange(len(m.atoms)))
        corpus.append(one(text))
    for a, b in combinations(corpus, 2):
        assert (canonical_key(a) == canonical_key(b)) == is_isomorphic(a, b)


# ---------------------------------------------------------------------------
# molecule_is_valid
# ---------------------------------------------------------------------------


def test_valid_box_strings():
    for text in golden.all_box_smiles():
        for m in parse_smiles(text):
            assert molecule_is_valid(m), text


@pytest.mark.parametrize(
    "text,expected",
    [
        ("CCO", True),
        ("O=C=O", True),
        ("CN(C)(C)C", True),  # implicit H lifts neutral N to its higher valence
        ("C(C)(C)(C)(C)C", False),  # five-coordinate carbon
        ("OO(O)O", False),  # three-coordinate neutral oxygen
        ("Cl(C)C", False),  # divalent chlorine
        ("[CH4]C", False),  # pinned H count overflows carbon
        ("[CH3]C", True),
        ("[O-]C", True),
        ("[O+]C", False),  # charged oxygen needs three connections
        ("[OH2+]C", True),
        ("[BH-](OC(C)=O)(OC(C)=O)OC(C)=O", True),
        ("[B-](C)(C)(C)(C)C", False),
        ("[Cl-]", True),
        ("[Cl-]C", False),
        ("[U]CC", True),  # outside the tables: accepted, never penalized
    ],
)
def test_validity_table(text, expected):
    assert molecule_is_valid(one(text)) is expected


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_molecules_are_valid(seed):
    m = rand_molecule(random.Random(seed))
    assert molecule_is_valid(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_smiles_reparse_to_same_key(seed):
    rng = random.Random(seed)
    text = rand_smiles(rng)
    m = one(text)
    assert canonical_key(one(canonical_key(m).key)) == canonical_key(m)


# ---------------------------------------------------------------------------
# key table
# ---------------------------------------------------------------------------


def test_warm_table_keys_equal_cold_and_hand_built_keys():
    rng = random.Random(5)
    for _ in range(40):
        m = rand_molecule(rng, max_atoms=16)
        hand_built = canonical_key(Molecule(m.atoms, m.bonds))
        for root in rng.sample(range(len(m.atoms)), min(3, len(m.atoms))):
            text, _ = write_rooted(m, root)
            smiles._KEYS.clear()
            cold = canonical_key(one(text))
            assert smiles._KEYS[text] == cold
            warm = one(text)
            assert warm._key == cold
            assert canonical_key(warm) == cold == hand_built
            assert smiles_keys(text) == [cold]


def test_smiles_keys_answers_known_texts_without_parsing(monkeypatch):
    smiles._KEYS.clear()
    assert smiles_keys("CCO.O") == [canonical_key(one("OCC")), canonical_key(one("O"))]

    def refuse(text):
        raise AssertionError(f"parsed {text!r} again")

    monkeypatch.setattr(smiles, "parse_smiles", refuse)
    assert smiles_keys("O.CCO") == [canonical_key(one("O")), canonical_key(one("OCC"))]
    with pytest.raises(AssertionError):
        smiles_keys("CCO.N")


def test_smiles_keys_raises_like_the_parser():
    smiles._KEYS.clear()
    canonical_key(one("CC"))
    for text in ("", "CC..CC", "CC.C(", "CC."):
        with pytest.raises(SmilesSyntaxError):
            smiles_keys(text)


def test_hand_built_molecule_neither_reads_nor_poisons_the_table():
    smiles._KEYS.clear()
    ethanol = canonical_key(one("CCO"))
    ethane = one("CC")
    liar = Molecule(ethane.atoms, ethane.bonds, "CCO")
    assert canonical_key(liar) == canonical_key(one("CC")) != ethanol
    assert smiles._KEYS["CCO"] == ethanol
    other = Molecule(ethane.atoms, ethane.bonds, "CCN")
    canonical_key(other)
    assert "CCN" not in smiles._KEYS
    assert canonical_key(one("CCN")) != canonical_key(other)
