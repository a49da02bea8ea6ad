"""Parser, rooted writer, canonical ranking and isomorphism checks."""

from __future__ import annotations

import random
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import molgraph
from generators import rand_molecule, rand_smiles
from isomorphism import is_isomorphic
from reference_ranks import canonical_ranks as reference_ranks
from reference_writer import write_rooted as reference_write_rooted
from retroroute import smiles
from retroroute.smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    CanonicalKey,
    Molecule,
    RootedWriter,
    SmilesSyntaxError,
    canonical_key,
    canonical_ranks,
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
    assert write_rooted(one("[O-2]"), 0)[0] == canonical_key(one("[O-2]")).key == "[O-2]"


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
    assert m._effective[3] == 0


def test_parse_directional_bonds_kept():
    m = one("F/C=C/F")
    directions = [b.direction for b in m.bonds]
    assert directions == ["/", None, "/"]
    assert m.bonds[0].order == SINGLE
    assert m.bonds[1].order == DOUBLE


def test_parse_chirality_kept():
    m = one("N[C@@H](C)C(=O)O")
    assert m.atoms[1].chirality == "@@"
    assert m._effective[1] == 1


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
        "C(C=)C",  # dangling bond before ')'
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
        "C%(",  # unterminated %(n) closure
        "C%()",  # %(n) closure without digits
        "C%(1",  # %(n) closure without its ')'
        "C%(x)1",  # %(n) closure holding a letter
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SmilesSyntaxError):
        parse_smiles(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("C1C1", "duplicate bond via ring closure 1"),  # repeats a chain bond
        ("C12CC12", "duplicate bond via ring closure 2"),  # repeats closure 1
        ("C(C1)1", "duplicate bond via ring closure 1"),  # closes back onto its branch
        ("C=1C-1", "conflicting bond symbols on ring closure 1"),
        ("CC11", "ring closure 1 bonds an atom to itself"),
    ],
)
def test_ring_closure_faults_keep_their_order_and_wording(text, message):
    with pytest.raises(SmilesSyntaxError, match=f"^{re.escape(message)}$"):
        parse_smiles(text)


def test_bonded_pairs_are_per_component():
    # Both components bond atoms 0 and 2 by a ring closure.
    assert [len(m.bonds) for m in parse_smiles("C1CC1.C1CC1")] == [3, 3]


def test_bare_atoms_are_shared_frozen_objects():
    assert one("CC").atoms[0] is one("C").atoms[0] is one("CC").atoms[1]
    assert one("c1ccccc1").atoms[0] is one("c").atoms[0]
    assert one("CCl").atoms[1] is one("ClC").atoms[0]
    assert one("[CH4]").atoms[0] is not one("C").atoms[0]
    with pytest.raises(AttributeError):
        one("C").atoms[0].charge = 1


def test_parsed_bonds_are_shared_frozen_objects():
    assert one("CC").bonds[0] is one("CCO").bonds[0]
    assert one("C/C=C/C").bonds[0] is not one("CC").bonds[0]
    with pytest.raises(AttributeError):
        one("CC").bonds[0].order = DOUBLE
    # _replace builds a new Bond and leaves the shared one as it was.
    assert one("CC").bonds[0]._replace(order=DOUBLE).order == DOUBLE
    assert one("CC").bonds[0] == Bond(0, 1, SINGLE)


def test_parsing_one_text_twice_gives_equal_bonds_in_order():
    for text in golden.all_box_smiles() + ["c1ccccc1-c1ccccc1", "C/C=C\\C", "C1CC2CCC1C2", "cc"]:
        first = [m.bonds for m in parse_smiles(text)]
        second = [m.bonds for m in parse_smiles(text)]
        assert first == second, text
        assert [list(map(id, b)) for b in first] == [list(map(id, b)) for b in second], text


@pytest.mark.parametrize(
    "text, position",
    [
        ("C\u00b2", 1),  # superscript two
        ("C%\u00b23", 1),
        ("C\u0663CC\u0663", 1),  # Arabic-Indic three
        ("[\u0661\u0662C]", 0),  # Arabic-Indic one two as an isotope
        ("[C:\u0663]", 0),  # as a map number
        ("[CH\u0662]", 0),
        ("[C+\u0662]", 0),
        ("C%(\u0663)C", 1),  # as a %(n) ring closure
    ],
)
def test_only_ascii_digits_are_smiles_digits(text, position):
    with pytest.raises(SmilesSyntaxError, match=f"position {position}"):
        parse_smiles(text)


_TOO_LONG = "1" * 5_000  # more digits than int() reads by default


@pytest.mark.parametrize(
    "text, message",
    [
        (f"[{_TOO_LONG}C]", "bracket atom number too long at position 0"),
        (f"[CH{_TOO_LONG}]", "bracket atom number too long at position 0"),
        (f"[C+{_TOO_LONG}]", "bracket atom number too long at position 0"),
        (f"[CH4:{_TOO_LONG}]", "bracket atom number too long at position 0"),
        (f"C%({_TOO_LONG})C", "ring closure number too long at position 1"),
    ],
    ids=["isotope", "hydrogens", "charge", "map", "ring"],
)
def test_number_python_cannot_read_is_a_syntax_error(text, message):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    with pytest.raises(SmilesSyntaxError, match=f"^{message}$"):
        parse_smiles(text)


def _parsed(m: Molecule) -> tuple:
    return m.atoms, m.bonds, m.source_text, canonical_key(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_components_parse_independently(seed_a, seed_b):
    # Both texts number their ring closures from 1, so digits are reused.
    a = rand_smiles(random.Random(seed_a))
    b = rand_smiles(random.Random(seed_b))
    assert [_parsed(m) for m in parse_smiles(f"{a}.{b}")] == [_parsed(one(a)), _parsed(one(b))]
    # A fault in the second component is placed in the whole text.
    fault = f"^wildcard atom at position {len(a) + 1 + len(b)} is not supported$"
    with pytest.raises(SmilesSyntaxError, match=fault):
        parse_smiles(f"{a}.{b}*")


def test_bracket_body_must_match_to_its_end():
    # A regex '$' would also match before a final newline.
    with pytest.raises(SmilesSyntaxError, match="bad bracket atom"):
        parse_smiles("[C\n]")


_VALENCES = {"B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5), "S": (2, 4, 6)}
_VALENCES |= {halogen: (1,) for halogen in ("F", "Cl", "Br", "I")}


def walked_counts(m: Molecule) -> list[tuple[int, int, int, int]]:
    """(degree, bond sum, implicit, effective hydrogens) of each atom, found
    by walking every bond for every atom."""
    rows = []
    for i, atom in enumerate(m.atoms):
        orders = [b.order for b in m.bonds if i in (b.a, b.b)]
        sigma = sum({SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}[o] for o in orders)
        if atom.aromatic:
            implicit = max(0, 3 - sigma) if atom.element in ("B", "C") else 0
        else:
            implicit = next((v - sigma for v in _VALENCES.get(atom.element, ()) if v >= sigma), 0)
        explicit = atom.explicit_hydrogens
        rows.append((len(orders), sigma, implicit, implicit if explicit is None else explicit))
    return rows


def test_counts_set_at_build_time_equal_a_walk_over_the_bonds():
    molecules = [m for text in golden.all_box_smiles() + DECORATED for m in parse_smiles(text)]
    rng = random.Random(11)
    for _ in range(100):
        m = rand_molecule(rng, max_atoms=16)
        molecules += [m, decorate(m, rng), one(rand_smiles(rng))]
    # Hand-built: hexavalent S, a pinned-H cation, an aromatic boron ring.
    atoms = (Atom("S"), Atom("O"), Atom("O"), Atom("C"), Atom("N", charge=1, explicit_hydrogens=3))
    bonds = (Bond(0, 1, DOUBLE), Bond(0, 2, DOUBLE), Bond(0, 3, SINGLE), Bond(3, 4, SINGLE))
    molecules.append(Molecule(atoms, bonds))
    ring = (Atom("B", aromatic=True),) + tuple(Atom("C", aromatic=True) for _ in range(4))
    molecules.append(Molecule(ring, tuple(Bond(i, (i + 1) % 5, AROMATIC) for i in range(5))))
    for m in molecules:
        counts = [
            (m._degrees[i], m._bond_sums[i], m._implicit[i], m._effective[i])
            for i in range(len(m.atoms))
        ]
        assert counts == walked_counts(m), m.source_text


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
        i for i, a in enumerate(m.atoms) if a.element == "N" and m._degrees[i] == 3
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


def test_more_than_99_ring_closures_read_back():
    # A 12 x 12 grid of carbons: 144 atoms, 264 bonds, 121 ring closures.
    atoms = tuple(Atom("C") for _ in range(144))
    across = [Bond(12 * r + c, 12 * r + c + 1, SINGLE) for r in range(12) for c in range(11)]
    down = [Bond(12 * r + c, 12 * r + c + 12, SINGLE) for r in range(11) for c in range(12)]
    grid = Molecule(atoms, tuple(across + down))
    key = canonical_key(grid)
    for root in (0, 5, 77, 143):
        text, _ = write_rooted(grid, root)
        assert "%(100)" in text and "%(121)" in text
        back = one(text)
        assert is_isomorphic(back, grid)
        assert canonical_key(back) == key
    assert canonical_key(one(key.key)) == key


def test_write_rooted_map_and_stereo_switches():
    m = one("N[C@@H](C)C(=O)[O:4]")
    stereo, _ = write_rooted(m, 0)
    bare, _ = write_rooted(m, 0, include_stereo=False)
    assert "@@" in stereo and "@@" not in bare
    assert ":4" not in stereo and ":4" not in bare
    assert is_isomorphic(one(stereo), one(bare))


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


def test_write_rooted_thousand_atoms_keeps_the_recursion_limit():
    # 500 carbons, each with an OH: every carbon but the last opens a branch,
    # so the text nests 499 parentheses deep.
    limit = sys.getrecursionlimit()
    m = one("C(O)" * 500)
    text, order = write_rooted(m, 0)
    assert text == "C(" * 499 + "CO" + ")O" * 499
    assert sorted(order) == list(range(1000))
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# RootedWriter against the reference writer
# ---------------------------------------------------------------------------

FLAGS = (False, True)  # include_stereo
DECORATED = [
    "N[C@@H](C)C(=O)[O:4]",
    "F/C=C/F",
    "F/C=C\\[13CH2:3][C@H](Br)Cl",
    "C[N+](=O)[O-]",
    "[NH4+]",
    "[2H]C([2H])([2H])c1ccc[n-]1",
    "[CH3:1][C@@]12CC[C@H:5](C1)C2",
    "c1ccccc1-c1ccccc1",
    "Cc1ccccc1:c1ccccc1",
    "[Fe+2]",
    "C%10CCCCC%10",
]


def decorate(m: Molecule, rng: random.Random) -> Molecule:
    """m with random map numbers, chirality marks, charges, explicit
    hydrogens and bond directions: every field a token depends on."""
    atoms = tuple(
        atom._replace(
            map_number=rng.choice((None, rng.randint(1, 99))),
            chirality=rng.choice((None, None, "@", "@@")),
            charge=rng.choice((0, 0, 0, 1, -1, 2)),
            explicit_hydrogens=rng.choice((None, None, 0, 1, 2)),
        )
        for atom in m.atoms
    )
    bonds = tuple(
        bond._replace(direction=rng.choice((None, "/", "\\"))) if bond.order == SINGLE else bond
        for bond in m.bonds
    )
    return Molecule(atoms, bonds)


def writer_corpus() -> list[Molecule]:
    molecules = [m for text in golden.all_box_smiles() + DECORATED for m in parse_smiles(text)]
    for reaction in golden.build_reactions():
        molecules += [reaction.product, *reaction.precursors]
    # K6 needs ten ring closures, so it writes %10.
    k6_bonds = tuple(Bond(a, b, SINGLE) for a, b in combinations(range(6), 2))
    molecules.append(Molecule(tuple(Atom("C") for _ in range(6)), k6_bonds))
    rng = random.Random(2024)
    for _ in range(150):
        m = rand_molecule(rng, max_atoms=16)
        molecules += [m, decorate(m, rng)]
    return molecules


def test_writer_matches_reference_writer_every_root_and_flag():
    for m in writer_corpus():
        for stereo in FLAGS:
            writer = RootedWriter(m, include_stereo=stereo)
            for root in range(len(m.atoms)):
                expected = reference_write_rooted(m, root, include_stereo=stereo)
                assert writer.write(root) == expected
                assert write_rooted(m, root, include_stereo=stereo) == expected
                # A second request is answered from the writer's texts.
                assert writer.write(root) == expected


def test_mutating_a_returned_order_does_not_change_the_next_result():
    m = one("CC(C)(C)OC(=O)N1CCC(c2ccc(N)cc2)CC1")
    writer = RootedWriter(m)
    text, order = writer.write(7)
    expected = list(order)
    order.reverse()
    order.append(99)
    again_text, again = writer.write(7)
    assert (again_text, again) == (text, expected)
    assert again is not order
    _, one_shot = write_rooted(m, 7)
    one_shot.clear()
    assert write_rooted(m, 7)[1] == expected


def test_writing_and_keying_attach_no_state_beyond_ranks_and_key():
    for text in golden.all_box_smiles() + DECORATED:
        m = one(text)
        m._key = None
        before = dict(vars(m))
        for stereo in FLAGS:
            write_rooted(m, 0, include_stereo=stereo)
            RootedWriter(m, include_stereo=stereo).write(len(m.atoms) - 1)
        canonical_key(m)
        after = vars(m)
        assert after.keys() == before.keys()
        changed = {name for name in after if after[name] is not before[name]}
        assert changed == {"_ranks", "_key"}


def test_bracket_table_keeps_only_successful_parses():
    def brackets():
        return {token for token in smiles._ATOMS if token[0] == "["}

    for token in brackets():
        del smiles._ATOMS[token]
    first = one("[CH3:1][NH+:2]")
    second = one("[NH+:2][CH3:1]")
    assert first.atoms[0] is second.atoms[1] and first.atoms[1] is second.atoms[0]
    assert brackets() == {"[CH3:1]", "[NH+:2]"}
    for bad in ("[Xx]", "[C@H@]", "[q]", "[se+]C[Zz]"):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(bad)
    assert brackets() == {"[CH3:1]", "[NH+:2]", "[se+]"}
    with pytest.raises(SmilesSyntaxError, match="position 4"):
        parse_smiles("CCC.[Xx]")


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


def test_aromatic_chain_bond_without_ring_closures_is_demoted():
    assert [b.order for b in one("cc").bonds] == [SINGLE]
    benzene, pair = parse_smiles("c1ccccc1.cc")
    assert [b.order for b in benzene.bonds] == [AROMATIC] * 6
    assert [b.order for b in pair.bonds] == [SINGLE]
    assert [b.order for b in one("ccc").bonds] == [SINGLE, SINGLE]


def test_aromatic_chain_bonds_in_components_without_ring_closures_are_demoted():
    # Branched chains, alone and after a component that closes rings.
    assert [b.order for b in one("c(c)(c)c").bonds] == [SINGLE] * 3
    ring, branched = parse_smiles("c1ccccc1.c(c)cc")
    assert [b.order for b in ring.bonds] == [AROMATIC] * 6
    assert [b.order for b in branched.bonds] == [SINGLE] * 3
    assert canonical_key(branched) == canonical_key(one("c(-c)-c-c"))


def test_ring_opened_in_a_branch_and_closed_after_it_stays_aromatic():
    # Ring 2 opens on atom 1, inside the branch, and closes on atom 6 with
    # ring 1, so the chain bond 0-1 into the branch lies on the ring 0-1-6.
    m = one("c1(c2)ccccc12")
    assert m.bonds[0] == Bond(0, 1, AROMATIC)
    assert [b.order for b in m.bonds] == [AROMATIC] * 8


def test_aromatic_chain_bond_after_every_ring_closure_is_demoted():
    # The only candidate, 3-4, comes after the ring, so the backward pass
    # over the atoms after it is empty.
    m = one("C1CC1cc")
    assert m.bonds == (Bond(0, 1, SINGLE), Bond(1, 2, SINGLE), Bond(0, 2, SINGLE),
                       Bond(2, 3, SINGLE), Bond(3, 4, SINGLE))


def _aromatic(m: Molecule) -> set[int]:
    return {i for i, a in enumerate(m.atoms) if a.aromatic}


def _on_ring(m: Molecule, k: int) -> bool:
    """Brute force: bond k lies on a ring iff its ends stay connected without it."""
    bond = m.bonds[k]
    seen, stack = {bond.a}, [bond.a]
    while stack:
        i = stack.pop()
        for j, other in enumerate(m.bonds):
            if j != k and i in (other.a, other.b) and molgraph.other(other, i) not in seen:
                seen.add(molgraph.other(other, i))
                stack.append(molgraph.other(other, i))
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
                bond._replace(order=AROMATIC)
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


def test_empty_molecule_cannot_be_ranked():
    with pytest.raises(ValueError, match="^cannot rank an empty molecule$"):
        canonical_ranks(Molecule((), ()))


def test_ranks_are_one_stored_tuple():
    m = one("CC(N)=O")
    first = canonical_ranks(m)
    assert isinstance(first, tuple)
    assert canonical_ranks(m) is first


def test_ranks_benzene_ties_break_deterministically():
    a = canonical_ranks(one("c1ccccc1"))
    b = canonical_ranks(one("c1ccccc1"))
    assert a == b
    assert sorted(a) == list(range(6))


def ring(size: int) -> Molecule:
    return Molecule(
        tuple(Atom("C") for _ in range(size)),
        tuple(Bond(i, (i + 1) % size, SINGLE) for i in range(size)),
    )


def cubic_cage(rng: random.Random, size: int) -> Molecule:
    """A random connected simple graph of `size` carbons, each of degree 3:
    three stubs per atom paired at random until the pairing has no loop, no
    doubled bond and one component."""
    while True:
        stubs = [i for i in range(size) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[k : k + 2])) for k in range(0, len(stubs), 2)}
        if len(pairs) < len(stubs) // 2 or any(a == b for a, b in pairs):
            continue
        m = Molecule(tuple(Atom("C") for _ in range(size)), tuple(Bond(a, b, SINGLE) for a, b in pairs))
        adjacency, reached, frontier = molgraph.incidence(m), {0}, [0]
        while frontier:
            for bond in adjacency[frontier.pop()]:
                for j in (bond.a, bond.b):
                    if j not in reached:
                        reached.add(j)
                        frontier.append(j)
        if len(reached) == size:
            return m


def permuted(m: Molecule, rng: random.Random) -> Molecule:
    """m with its atoms in a random order and its bonds in another."""
    order = list(range(len(m.atoms)))
    rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    bonds = [bond._replace(a=place[bond.a], b=place[bond.b]) for bond in m.bonds]
    rng.shuffle(bonds)
    return Molecule(tuple(m.atoms[old] for old in order), tuple(bonds))


def ranks_corpus() -> list[Molecule]:
    molecules = [m for text in golden.all_box_smiles() for m in parse_smiles(text)]
    for reaction in golden.build_reactions():
        molecules += [reaction.product, *reaction.precursors]
    k6_bonds = tuple(Bond(a, b, SINGLE) for a, b in combinations(range(6), 2))
    molecules.append(Molecule(tuple(Atom("C") for _ in range(6)), k6_bonds))
    molecules += [ring(size) for size in (3, 64, 400)]
    rng = random.Random(909)
    molecules += [cubic_cage(rng, size) for size in (8, 10, 12) for _ in range(8)]
    for _ in range(150):
        m = rand_molecule(rng, max_atoms=20)
        molecules += [m] + [permuted(m, rng) for _ in range(5)]
    # A tied cell of isolated atoms, which only promotions split; a long
    # chain; cells of degree 4 and 6; degree-2 cells whose two bonds are both
    # double, or one double and one single; an aromatic ring with one n.
    molecules.append(Molecule(tuple(Atom(element) for element in "CCOCCC"), ()))
    molecules.append(Molecule(tuple(Atom("C") for _ in range(300)), tuple(Bond(i, i + 1, SINGLE) for i in range(299))))
    molecules += [one(text) for text in ("CC(C)(C)C", "FS(F)(F)(F)(F)F", "C=C=C=C", "C=CC=CC=C", "c1ccncc1")]
    return molecules


def test_ranks_match_reference_ranks():
    for m in ranks_corpus():
        assert canonical_ranks(m) == reference_ranks(m)


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


def test_key_is_an_immutable_text_identity():
    key = CanonicalKey("CCO")
    assert key.key == "CCO"
    assert repr(key) == "CanonicalKey(key='CCO')"
    assert key == CanonicalKey("CCO") and hash(key) == hash(CanonicalKey("CCO"))
    assert key != CanonicalKey("OCC") and key != CanonicalKey("CCN")
    assert key != "CCO" and "CCO" != key
    assert {key: 1}.get(CanonicalKey("C" + "CO")) == 1 and "CCO" not in {key}
    with pytest.raises(AttributeError):
        key.key = "CCN"
    assert key.key == "CCO"


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
        # An aromatic carbon counts a pi unit only without a double bond, and
        # an aromatic N when degree plus hydrogens is 2 plus its charge.
        ("Cn1c(=O)c2c(ncn2C)n(C)c1=O", True),  # caffeine
        ("O=c1cc[nH]c(=O)[nH]1", True),  # uracil
        ("O=c1cccc[nH]1", True),  # 2-pyridone
        ("c1ccc2c(c1)ccc(=O)o2", True),  # coumarin
        ("[O-][n+]1ccccc1", True),  # pyridine N-oxide
        ("c1cc[nH+]cc1", True),  # pyridinium
        ("C[n+]1ccccc1", True),  # N-methylpyridinium
        ("c1nn[n-]n1", True),  # tetrazolide
        ("c1ccncc1", True),
        ("c1cc[nH]c1", True),
        ("c1ccccc1", True),
        ("c1cc[n+]cc1", False),  # a cationic ring N with no fourth bond
        ("O=n1ccccc1", False),  # an N-oxide written without its charges
        ("Cc1(C)ccccc1", False),  # a four-coordinate aromatic carbon
    ],
)
def test_validity_table(text, expected):
    assert molecule_is_valid(one(text)) is expected


# The largest normal valence of each organic-subset element.
_MAX_NORMAL_VALENCE = {"B": 3, "C": 4, "N": 5, "O": 2, "P": 5, "S": 6, "F": 1, "Cl": 1, "Br": 1, "I": 1}


@pytest.mark.parametrize("element", sorted(_MAX_NORMAL_VALENCE))
def test_bare_atom_is_valid_exactly_up_to_its_largest_normal_valence(element):
    # A bare neutral atom bonded to `sigma` methyls: its implied hydrogens
    # fill it to a normal valence while one fits, and the check agrees.
    assert smiles.ORGANIC_SUBSET == set(_MAX_NORMAL_VALENCE)
    top = _MAX_NORMAL_VALENCE[element]
    for sigma in range(top + 2):
        atoms = (Atom(element),) + (Atom("C", explicit_hydrogens=3),) * sigma
        bonds = tuple(Bond(0, k, SINGLE) for k in range(1, sigma + 1))
        assert molecule_is_valid(Molecule(atoms, bonds)) is (sigma <= top), (element, sigma)


def test_lone_atom_is_written_bare_exactly_when_the_parser_reads_it_back():
    atoms = [Atom(e, aromatic=flag) for e in sorted(smiles.ELEMENTS) for flag in (False, True)]
    atoms += [Atom("c"), Atom("c", aromatic=True), Atom("Se", aromatic=True)]
    for atom in atoms:
        implicit = Molecule((atom,), ())._implicit[0]
        symbol = atom.element.lower() if atom.aromatic else atom.element
        bare = smiles._ATOMS.get(symbol)
        expected = bare is not None and (bare.element, bare.aromatic) == (atom.element, atom.aromatic)
        for pinned in (atom, atom._replace(explicit_hydrogens=implicit)):
            token = smiles._atom_token(Molecule((pinned,), ()), 0, True)
            assert (token == symbol) is expected, (pinned, token)
            assert token in (symbol, f"[{symbol}]", f"[{symbol}H]", f"[{symbol}H{implicit}]")
    assert smiles._atom_token(Molecule((Atom("c"),), ()), 0, True) == "[c]"
    assert smiles._atom_token(Molecule((Atom("Se", aromatic=True),), ()), 0, True) == "[se]"


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


# ---------------------------------------------------------------------------
# shape table
# ---------------------------------------------------------------------------


@pytest.fixture
def cold_tables():
    smiles._KEYS.clear()
    smiles._SHAPES.clear()


def written_key(m: Molecule) -> str:
    """The key text as written from scratch, bypassing both tables."""
    root = canonical_ranks(m).index(0)
    return write_rooted(m, root, include_stereo=False)[0]


def test_warm_shape_keys_equal_cold_written_keys(cold_tables):
    molecules = [m for text in golden.all_box_smiles() + DECORATED for m in parse_smiles(text)]
    rng = random.Random(1313)
    for _ in range(150):
        m = rand_molecule(rng, max_atoms=16)
        molecules += [m, decorate(m, rng)]
        molecules += [permuted(m, rng) for _ in range(5)]
        for root in rng.sample(range(len(m.atoms)), min(3, len(m.atoms))):
            molecules.append(one(write_rooted(m, root)[0]))
    for m in molecules:
        assert canonical_key(m).key == written_key(m)
    assert len(smiles._SHAPES) < len(molecules)


@pytest.mark.parametrize(
    "texts",
    [
        ("CCC", "CC[0CH3]"),
        ("C", "[C]", "[13CH4]", "[CH4]"),
        ("N", "[NH4+]"),
        ("C1CCCCC1", "c1ccccc1"),
        ("OC=O", "OCO"),
        ("cc", "[CH2][CH2]"),
    ],
)
def test_near_shapes_keep_their_own_keys(cold_tables, texts):
    keys = [canonical_key(one(text)).key for text in texts]
    assert keys == [written_key(one(text)) for text in texts]
    assert len(set(keys)) == len(smiles._SHAPES)


def test_respellings_of_one_molecule_are_written_once(cold_tables, monkeypatch):
    real_write = smiles.write_rooted
    writes = []

    def counting(m, root, **flags):
        writes.append(m)
        return real_write(m, root, **flags)

    monkeypatch.setattr(smiles, "write_rooted", counting)
    m = one("N[C@@H](C)C(=O)O")
    spellings = [real_write(m, root)[0] for root in range(len(m.atoms))]
    spellings += ["[NH2:1][C@@H:2]([CH3:3])C(=O)[OH:4]", "N[C@H](C)C(=O)O", "NC(C)C(O)=O"]
    keys = {canonical_key(one(text)) for text in spellings}
    keys.add(canonical_key(Molecule(m.atoms, m.bonds)))
    rng = random.Random(3)
    keys.update(canonical_key(permuted(m, rng)) for _ in range(5))
    assert len(set(spellings)) > 5 and len(keys) == 1 and len(writes) == 1
    canonical_key(one("NC(C)C(=O)OC"))
    assert len(writes) == 2
