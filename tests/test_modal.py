import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecomonads import equivalence as eq
from gamecomonads import modal
from gamecomonads.errors import ArityError, PointError
from gamecomonads.game import audit_spoiler_tree, law_report, lifted_structure, play_universe
from gamecomonads.structures import check_hom, find_hom

from helpers import (NAMES, S, VOCAB_R, all_pointed, all_structures_upto, bisim_oracle,
                     holds_along, modal_matches)


def pointed_pool(max_size=2, vocab=VOCAB_R):
    return all_pointed(all_structures_upto(vocab, max_size))


def unravel(a, k):
    """The depth-k unravelling: the modal game's lifting of `a` to its
    paths of at most k steps."""
    return lifted_structure(modal.GAME, a, play_universe(modal.GAME, a, k))


def test_unravel_two_cycle():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b"), ("b", "a")]}, point="a")
    u = unravel(a, 2)
    assert u.universe == (("a",), ("a", "R", "b"), ("a", "R", "b", "R", "a"))
    assert u.point == ("a",)


def test_unravel_isolated_point():
    a = S(VOCAB_R, ["a"], {}, point="a")
    for k in (1, 2, 3):
        assert unravel(a, k).universe == (("a",),)


def test_unravel_tree_is_isomorphic_to_itself():
    a = S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("a", "c")]}, point="a")
    u = unravel(a, 3)
    # path -> endpoint is a bijective strong homomorphism on trees
    endpoints = [s[-1] for s in u.universe]
    assert sorted(endpoints) == sorted(a.universe)
    mapping = {s: s[-1] for s in u.universe}
    assert check_hom(mapping, u, a)
    for name in modal.binary_symbols(a):
        assert len(u.tuples(name)) == len(a.tuples(name))


def test_unravel_rejects_high_arity_and_missing_point():
    with pytest.raises(ArityError):
        unravel(S((("T", 3),), ["a"], {}, point="a"), 1)
    with pytest.raises(PointError):
        unravel(S(VOCAB_R, ["a"], {}), 1)


def test_counit_comult_basics():
    """The comultiplication, the coextension of the identity, is the path
    of prefixes with the same labels."""
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]}, point="a")
    path = ("a", "R", "b")
    assert modal.modal_counit(path) == "b"
    d = modal.modal_coextend(lambda s: s, path)
    assert d == (("a",), "R", ("a", "R", "b"))
    assert modal.modal_counit(d) == path
    assert modal.modal_coextend(lambda s: s, ("a",)) == (("a",),)
    plays = play_universe(modal.GAME, a, 2)
    counit_table = {s: s[-1] for s in plays}
    for s in plays:
        assert modal.modal_coextend(counit_table.__getitem__, s) == s


def test_laws_on_pointed_pool():
    for a in pointed_pool(2):
        for k in (1, 2, 3):
            rep = law_report(modal.GAME, a, play_universe(modal.GAME, a, k))
            assert rep.ok, rep.failures


def test_sim_reflexive():
    for a in pointed_pool(2):
        assert modal.decide_sim_k(a, a, 2).wins


def test_sim_chain_into_cycle():
    chain = S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c")]}, point="a")
    cyc = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]}, point="x")
    res = modal.decide_sim_k(chain, cyc, 2)
    assert res.wins
    assert res.strategy.is_homomorphism()


def test_sim_agrees_with_unravel_hom_search():
    pool = pointed_pool(2)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                want = find_hom(unravel(a, k), b) is not None
                got = modal.decide_sim_k(a, b, k)
                assert got.wins == want
                if got.wins:
                    assert got.strategy.is_homomorphism()
                else:
                    ok, why = audit_spoiler_tree(modal.GAME, got.refutation, a, b, k,
                                                 modal.GAME.forth, "A")
                    assert ok, why


def test_bisim_stuck_duplicator():
    one = S(VOCAB_R, ["s", "t"], {"R": [("s", "t")]}, point="s")
    none = S(VOCAB_R, ["u"], {}, point="u")
    assert not eq.solve_back_forth(one, none, 1, "modal").wins
    assert not bisim_oracle(one, none, 1)


def test_bisim_three_routes_agree():
    """The generic back-and-forth game on unravellings and partition
    refinement give the same verdict across the pointed pool."""
    pool = pointed_pool(2)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                assert eq.solve_back_forth(a, b, k, "modal").wins == bisim_oracle(a, b, k)


def test_bisim_oracle_reflexive_and_unary_sensitive():
    withp = S((("R", 2), ("P", 1)), ["a"], {"P": [("a",)]}, point="a")
    without = S((("R", 2), ("P", 1)), ["x"], {}, point="x")
    assert bisim_oracle(withp, withp, 3)
    assert not bisim_oracle(withp, without, 1)


def test_bisim_implies_modal_formula_agreement():
    from gamecomonads import logic
    from gamecomonads.structures import Vocabulary
    formulas = logic.sample_formulas(Vocabulary((("R", 2), ("S", 1))), 2, "modal",
                                     150, seed=13)
    pool = all_pointed(all_structures_upto((("R", 2), ("S", 1)), 2))[:40]
    for a in pool:
        for b in pool:
            if eq.solve_back_forth(a, b, 2, "modal").wins:
                for phi in formulas:
                    va = logic.evaluate(a, phi, {logic.MODAL_FREE_VAR: a.point})
                    vb = logic.evaluate(b, phi, {logic.MODAL_FREE_VAR: b.point})
                    assert va == vb, logic.format_formula(phi)


def test_unravel_fixpoint_on_pool():
    """Unravelling an unravelling changes nothing but the path bookkeeping."""
    for a in pointed_pool(2)[:40]:
        u = unravel(a, 2)
        uu = unravel(u, 2)
        mapping = {s: s[-1] for s in uu.universe}
        assert check_hom(mapping, uu, u)
        assert sorted(s[-1] for s in uu.universe) == sorted(u.universe)
        for name in modal.binary_symbols(a):
            assert len(uu.tuples(name)) == len(u.tuples(name))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_fold_of_the_step_conditions_matches_whole_paths(data):
    """Over every prefix, the modal game's step conditions say what
    `modal_matches` says of the whole paths: the same labels, and unary
    symbols that agree (`eq`) or are kept (`le`) at each step."""
    vocab = (("P", 1), ("Q", 1), ("R", 2), ("S", 2))

    def structure(names):
        rels = {name: data.draw(st.sets(st.tuples(*[st.sampled_from(names)] * arity),
                                        max_size=4))
                for name, arity in vocab}
        return S(vocab, names, rels, point=names[0])

    a = structure(list(NAMES[:data.draw(st.integers(1, 3))]))
    b = structure(["x", "y", "z"][:data.draw(st.integers(1, 3))])
    n = data.draw(st.sampled_from((2, 3, 1, 0)))

    def path(x):
        out = [x.point]
        for _ in range(n):
            out += [data.draw(st.sampled_from(("R", "S"))), data.draw(st.sampled_from(x.universe))]
        return tuple(out)

    s, t = path(a), path(b)
    for agree, step in ((operator.eq, modal.GAME.winning), (operator.le, modal.GAME.forth)):
        assert holds_along(modal.GAME, step, s, t, a, b) == modal_matches(s, t, a, b, agree)
