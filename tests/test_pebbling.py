import pytest

from gamecomonads import pebbling as pb
from gamecomonads.errors import CapExceededError, ToolkitError, VocabularyMismatchError
from gamecomonads.structures import check_hom

from helpers import S, VOCAB_R, VOCAB_RS, all_structures_upto, clique_structure


def test_universe_counts():
    a1 = S(VOCAB_R, ["a"], {})
    assert len(pb.pebble_universe(a1, 1, 2)) == 2
    a2 = S(VOCAB_R, ["a", "b"], {})
    assert len(pb.pebble_universe(a2, 2, 1)) == 4
    assert pb.pebble_universe(S(VOCAB_R, []), 2, 2) == []


def test_universe_errors():
    a = S(VOCAB_R, ["a", "b"], {})
    with pytest.raises(ToolkitError):
        pb.pebble_universe(a, 0, 1)
    with pytest.raises(ToolkitError):
        pb.pebble_universe(a, 1, 0)
    with pytest.raises(CapExceededError):
        pb.pebble_universe(a, 2, 3, cap=10)


def test_lifted_active_pebble_condition():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    lifted = pb.pebble_structure(a, 2, 2)
    s = ((1, "a"),)
    t_ok = ((1, "a"), (2, "b"))
    t_bad = ((1, "a"), (1, "b"))
    assert (s, t_ok) in lifted.tuples("R")
    assert (s, t_bad) not in lifted.tuples("R")


def test_lifted_unary_activeness_vacuous():
    a = S(VOCAB_RS, ["a", "b", "c"], {"S": [("c",)]})
    lifted = pb.pebble_structure(a, 2, 1)
    assert (((2, "c"),),) in lifted.tuples("S")
    assert (((1, "a"),),) not in lifted.tuples("S")


def test_counit_and_coextension():
    assert pb.pebble_counit(((2, "a"),)) == "a"
    plays = pb.pebble_universe(S(VOCAB_R, ["a", "b"], {}), 2, 2)
    const = {s: "c" for s in plays}
    assert pb.pebble_coextend(const, ((1, "a"), (2, "b"))) == ((1, "c"), (2, "c"))
    counit_table = {s: s[-1][1] for s in plays}
    for s in plays:
        assert pb.pebble_coextend(counit_table, s) == s


def test_laws_on_truncation():
    for a in all_structures_upto(VOCAB_R, 2, include_empty=True):
        for k in (1, 2):
            for n in (1, 2, 3):
                rep = pb.check_pebble_laws(a, k, n)
                assert rep.ok, rep.failures


def test_decide_identity():
    for a in all_structures_upto(VOCAB_R, 2):
        res = pb.decide_exist_pebble(a, a, 2)
        assert res.wins
        ok, why = pb.audit_strategy_family(res.family, a, a)
        assert ok, why


def test_decide_k3_to_k2():
    k3 = clique_structure(3)
    k2 = clique_structure(2)
    res2 = pb.decide_exist_pebble(k3, k2, 2)
    assert res2.wins
    ok, why = pb.audit_strategy_family(res2.family, k3, k2)
    assert ok, why
    res3 = pb.decide_exist_pebble(k3, k2, 3)
    assert not res3.wins
    ok, why = pb.audit_spoiler_positions(res3.refutation, k3, k2, 3)
    assert ok, why


def test_decide_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        pb.decide_exist_pebble(S(VOCAB_R, ["a"]), S((("Q", 1),), ["x"]), 1)


def test_monotonicity_in_k_is_downward_not_upward():
    """More pebbles only help Spoiler: a win with k+1 pebbles implies a win
    with k, and the converse direction has small counterexamples."""
    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                if pb.decide_exist_pebble(a, b, k + 1).wins:
                    assert pb.decide_exist_pebble(a, b, k).wins
    # upward counterexample: an edge maps into a single loop-free point with
    # one pebble but not with two
    edge = clique_structure(2)
    point = S(VOCAB_R, ["x"], {})
    assert pb.decide_exist_pebble(edge, point, 1).wins
    assert not pb.decide_exist_pebble(edge, point, 2).wins


def test_family_restriction_closure_and_forth_audited():
    a = clique_structure(3)
    b = clique_structure(2)
    res = pb.decide_exist_pebble(a, b, 2)
    fam = res.family
    for part in fam.parts:
        for pair in part:
            assert part - {pair} in fam.parts
    ok, why = pb.audit_strategy_family(fam, a, b)
    assert ok, why


def test_family_replays_to_truncated_cokleisli_hom():
    """Necessary-evidence direction: a winning positional family replays into
    a coKleisli homomorphism on any truncation (restrict to the still-pebbled
    elements, then extend by forth)."""
    a = clique_structure(3)
    b = clique_structure(2)
    k, n = 2, 3
    res = pb.decide_exist_pebble(a, b, k)
    assert res.wins
    parts = res.family.parts
    plays = pb.pebble_universe(a, k, n)
    table = {}
    part_for = {(): frozenset()}
    for s in plays:
        prev = part_for[s[:-1]]
        x = s[-1][1]
        placements = {}
        for pi, xi in s:
            placements[pi] = xi
        needed = set(placements.values())
        base = frozenset((u, v) for (u, v) in prev if u in needed and u != x)
        assert base in parts  # restriction closure
        y = next(y for y in b.universe if base | {(x, y)} in parts)  # forth
        part_for[s] = base | {(x, y)}
        table[s] = y
    assert check_hom(table, pb.pebble_structure(a, k, n), b)


def test_refutation_is_wellfounded_and_rooted():
    edge = clique_structure(2)
    point = S(VOCAB_R, ["x"], {})
    res = pb.decide_exist_pebble(edge, point, 2)
    assert not res.wins
    assert res.refutation.pos == frozenset()
    ok, why = pb.audit_spoiler_positions(res.refutation, edge, point, 2)
    assert ok, why
