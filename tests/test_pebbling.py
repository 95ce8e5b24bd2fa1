import random
from itertools import product

import pytest

from gamecomonads import equivalence as eq
from gamecomonads import pebbling as pb
from gamecomonads.errors import CapExceededError, ToolkitError, VocabularyMismatchError
from gamecomonads.game import law_report, lifted_structure
from gamecomonads.structures import check_hom

from helpers import (S, VOCAB_R, VOCAB_RS, all_structures_upto, clique_structure,
                     random_structure, reference_exist_pebble, reference_pebble_backforth)


def pebble_structure(a, k, n):
    """The pebble game's lifting of `a` to its plays of at most n moves."""
    return lifted_structure(pb.GAME, a, pb.pebble_universe(a, k, n))


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
    lifted = pebble_structure(a, 2, 2)
    s = ((1, "a"),)
    t_ok = ((1, "a"), (2, "b"))
    t_bad = ((1, "a"), (1, "b"))
    assert (s, t_ok) in lifted.tuples("R")
    assert (s, t_bad) not in lifted.tuples("R")


def test_lifted_unary_activeness_vacuous():
    a = S(VOCAB_RS, ["a", "b", "c"], {"S": [("c",)]})
    lifted = pebble_structure(a, 2, 1)
    assert (((2, "c"),),) in lifted.tuples("S")
    assert (((1, "a"),),) not in lifted.tuples("S")


def test_counit_and_coextension():
    """The comultiplication, the coextension of the identity, is the play
    of prefixes with the pebbles carried over."""
    assert pb.pebble_counit(((2, "a"),)) == "a"
    plays = pb.pebble_universe(S(VOCAB_R, ["a", "b"], {}), 2, 2)
    const = {s: "c" for s in plays}
    assert pb.pebble_coextend(const.__getitem__, ((1, "a"), (2, "b"))) == ((1, "c"), (2, "c"))
    counit_table = {s: s[-1][1] for s in plays}
    for s in plays:
        assert pb.pebble_coextend(counit_table.__getitem__, s) == s
    s = ((1, "a"), (2, "b"))
    assert pb.pebble_coextend(lambda x: x, s) == ((1, ((1, "a"),)), (2, s))


def test_laws_on_truncation():
    for a in all_structures_upto(VOCAB_R, 2, include_empty=True):
        for k in (1, 2):
            for n in (1, 2, 3):
                rep = law_report(pb.GAME, a, pb.pebble_universe(a, k, n))
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
    assert check_hom(table, pebble_structure(a, k, n), b)


def test_refutation_is_wellfounded_and_rooted():
    edge = clique_structure(2)
    point = S(VOCAB_R, ["x"], {})
    res = pb.decide_exist_pebble(edge, point, 2)
    assert not res.wins
    assert res.refutation.pos == frozenset()
    ok, why = pb.audit_spoiler_positions(res.refutation, edge, point, 2)
    assert ok, why


VOCAB_RP = (("R", 2), ("P", 1))
VOCAB_TPR = (("T", 3), ("P", 1), ("R", 2))


def _relabelled(rng: random.Random, a):
    """An isomorphic copy of `a` on other names, declared in another order."""
    names = ["p", "q", "r", "s"][:len(a.universe)]
    rng.shuffle(names)
    ren = dict(zip(a.universe, names))
    order = sorted(names)
    return S(a.vocab.symbols, order, {name: [tuple(ren[e] for e in t) for t in a.tuples(name)]
                                      for name in a.vocab.names})


def _random_tpr(rng: random.Random, size: int):
    """A structure over a ternary, a unary and a binary symbol, reflexive
    tuples included; the ternary one sparse, so that maps survive it."""
    names = ["a", "b", "c", "d"][:size]
    density = {"T": 0.12, "P": 0.4, "R": 0.3}
    return S(VOCAB_TPR, names, {name: [t for t in product(names, repeat=arity)
                                       if rng.random() < density[name]]
                                for name, arity in VOCAB_TPR})


def _cycle(n: int):
    names = [f"v{i}" for i in range(n)]
    return S(VOCAB_RP, names, {"R": [(names[i], names[(i + j) % n])
                                     for i in range(n) for j in (1, -1)]})


def test_pebble_solvers_equal_the_full_rescan_reference():
    """Both pebble games, grown families and keyed passes, against the
    exhaustive references of `helpers`, over a binary and a unary symbol,
    and over a ternary, a unary and a binary one with reflexive tuples.
    Existential: equal families and refutation trees.  Back-and-forth,
    against the game on pebble-indexed placements: equal verdicts from the
    refinement and from the deletion engine; on a win, both families of
    partial isomorphisms are the reference's safe set projected to pair sets
    and pass the audit; on a loss, the audit accepts the Spoiler tree."""
    rng = random.Random(20261018)
    cases = [(S(VOCAB_RP, []), S(VOCAB_RP, []), 1), (S(VOCAB_RP, []), S(VOCAB_RP, ["x"]), 2),
             (S(VOCAB_RP, ["x"]), S(VOCAB_RP, []), 2)]
    # odd cycles into even ones: refutations that drop pebbles over several passes
    cases += [(_cycle(m), _cycle(n), 3) for m, n in [(3, 2), (5, 2), (5, 4), (5, 6)]]
    for count, build in [(400, lambda size: random_structure(rng, size, VOCAB_RP)),
                         (550, lambda size: _random_tpr(rng, size))]:
        while len(cases) < count:
            a = build(rng.randint(0, 4))
            b = _relabelled(rng, a) if rng.random() < 0.3 else build(rng.randint(0, 4))
            cases.append((a, b, rng.randint(1, 3)))
    outcomes = set()
    for a, b, k in cases:
        got, want = pb.decide_exist_pebble(a, b, k), reference_exist_pebble(a, b, k)
        assert got == want, (a, b, k)
        got, engine = eq._solve_pebble_backforth(a, b, k), pb.decide_pebble(a, b, k, "AB")
        want = reference_pebble_backforth(a, b, k)
        assert got.wins == engine.wins == want.wins, (a, b, k)
        if got.wins:
            assert got.safe_positions == engine.family.parts == {
                frozenset((x, y) for _, x, y in pos) for pos in want.safe_positions}, (a, b, k)
            audit = pb.audit_strategy_family(engine.family, a, b, "AB")
        else:
            assert got.spoiler == engine.refutation, (a, b, k)
            audit = pb.audit_spoiler_positions(engine.refutation, a, b, k, "AB")
        assert audit == (True, "ok"), (a, b, k, audit)
        outcomes.add((a.vocab.symbols, got.wins))
    assert outcomes == {(vocab, wins) for vocab in (VOCAB_RP, VOCAB_TPR) for wins in (True, False)}


def test_placement_in_b_replied_inside_the_domain_is_a_dead_end():
    """At {x↦p}, Spoiler places on q in B; the only reply, x, is already in
    the domain, so the extended pairs are no map and the branch is None.
    Adding the pair's code to the map's code would instead read {x↦r}, a
    deleted map: the digits of x↦p and x↦q add up to that of x↦r."""
    point = S(VOCAB_R, ["x"], {})
    three = S(VOCAB_R, ["p", "q", "r"], {})
    res = pb.decide_pebble(point, three, 2, "AB")
    assert not res.wins
    assert pb.audit_spoiler_positions(res.refutation, point, three, 2, "AB") == (True, "ok")
    node = dict(res.refutation.branches)["p"]
    assert (node.pos, node.side, node.place) == (frozenset({("x", "p")}), "B", "q")
    assert node.branches == (("x", None),)
