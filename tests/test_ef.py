import random
import sys
from itertools import product

import pytest

from gamecomonads import ef, logic, pebbling
from gamecomonads.game import (CoKleisli, audit_spoiler_tree, chain_error, law_report,
                               lifted_structure, play_universe, prefixes)
from gamecomonads.errors import CapExceededError, ToolkitError, VocabularyMismatchError
from gamecomonads.structures import Structure, check_hom, find_hom

from helpers import (S, VOCAB_R, all_structures_upto, cokleisli_compose, counit_cokleisli,
                     path_structure, random_structure, star)


def _lifted(a, k):
    """The sequence game's lifting of `a` to its plays up to round k."""
    return lifted_structure(ef.GAME, a, play_universe(ef.GAME, a, k))


def test_universe_counts():
    a2 = S(VOCAB_R, ["a", "b"], {})
    assert len(play_universe(ef.GAME, a2, 2)) == 6
    a1 = S(VOCAB_R, ["a"], {})
    assert play_universe(ef.GAME, a1, 3) == [("a",), ("a", "a"), ("a", "a", "a")]
    assert play_universe(ef.GAME, S(VOCAB_R, []), 4) == []


def test_universe_rejects_k_zero_and_caps():
    a = S(VOCAB_R, ["a", "b"], {})
    with pytest.raises(ToolkitError):
        play_universe(ef.GAME, a, 0)
    with pytest.raises(CapExceededError):
        play_universe(ef.GAME, a, 2, cap=3)


def test_play_count_over_the_cap_is_named_while_it_prints():
    """Ten elements have 11...10 plays up to round k, a number of k + 1
    digits: a refusal names it while the interpreter prints integers that
    long, and says it is at least 10^D once it has D + 1 digits.  One
    element has k plays, counted at once for any k."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    ten = S(VOCAB_R, [f"e{i}" for i in range(10)])
    with pytest.raises(CapExceededError) as err:
        ef.check_plays(ten, digits - 1, 5)
    assert str(err.value) == f"play universe has {'1' * (digits - 1)}0 elements, cap is 5"
    with pytest.raises(CapExceededError) as err:
        ef.check_plays(ten, digits, 5)
    assert str(err.value) == f"play universe has at least 10^{digits} elements, cap is 5"
    one = S(VOCAB_R, ["a"])
    assert ef.check_plays(one, 10 ** 12, 10 ** 12) == 10 ** 12
    with pytest.raises(CapExceededError, match="^play universe has 1000000000000 elements, "):
        ef.check_plays(one, 10 ** 12, 10 ** 12 - 1)
    assert ef.check_plays(S(VOCAB_R, []), 10 ** 12, 0) == 0


def test_lifted_structure_membership():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    lifted = _lifted(a, 2)
    assert (("a",), ("a", "b")) in lifted.tuples("R")
    assert (("a",), ("b",)) not in lifted.tuples("R")


def test_lifted_unary_is_comparability_free():
    a = S((("S", 1),), ["a", "b"], {"S": [("a",)]})
    lifted = _lifted(a, 2)
    assert (("b", "a"),) in lifted.tuples("S")
    assert (("a", "b"),) not in lifted.tuples("S")


def test_lifted_ternary_needs_a_chain():
    a = S((("T", 3),), ["a", "b"], {"T": [("a", "b", "a")]})
    lifted = _lifted(a, 2)
    assert (("a",), ("a", "b"), ("a",)) in lifted.tuples("T")
    assert (("a",), ("a", "b"), ("b",)) not in lifted.tuples("T")  # b incomparable
    assert (("a",), ("a", "a"), ("a",)) not in lifted.tuples("T")  # tips not in T


def test_counit_and_comult():
    """The comultiplication, the coextension of the identity, is the play
    of prefixes."""
    assert ef.counit(("a",)) == "a"
    assert ef.counit(("a", "b")) == "b"
    assert ef.counit(("b", "b", "a")) == "a"
    assert ef.coextend(lambda s: s, ("a",)) == (("a",),)
    assert ef.coextend(lambda s: s, ("a", "b")) == (("a",), ("a", "b"))
    for s in [("a",), ("a", "b"), ("b", "a", "a")]:
        assert ef.coextend(lambda x: x, s) == tuple(prefixes(s))
        assert len(ef.coextend(lambda x: x, s)) == len(s)


def test_coextension():
    const = {("a",): "c", ("a", "b"): "c", ("b",): "c", ("b", "a"): "c",
             ("a", "a"): "c", ("b", "b"): "c"}
    assert ef.coextend(const.__getitem__, ("a", "b")) == ("c", "c")
    table = {("a",): "x", ("a", "b"): "y", ("b",): "x", ("b", "a"): "x",
             ("a", "a"): "x", ("b", "b"): "x"}
    assert ef.coextend(table.__getitem__, ("a", "b")) == ("x", "y")


def test_coextension_of_counit_is_identity():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    f = counit_cokleisli(ef.GAME, a, 2)
    for s in play_universe(ef.GAME, a, 2):
        assert star(f, s) == s


def test_cokleisli_identity_laws_and_associativity():
    rng = random.Random(3)
    a = S(VOCAB_R, ["a", "b"], {})
    b = S(VOCAB_R, ["x", "y"], {})
    c = S(VOCAB_R, ["p", "q"], {})
    k = 2

    def random_table(src, dst):
        return CoKleisli(ef.GAME, k, src, dst,
                         {s: rng.choice(dst.universe) for s in play_universe(ef.GAME, src, k)})

    for _ in range(10):
        f = random_table(a, b)
        g = random_table(b, c)
        h = random_table(c, a)
        left = cokleisli_compose(h, cokleisli_compose(g, f))
        right = cokleisli_compose(cokleisli_compose(h, g), f)
        assert left.table == right.table
        assert cokleisli_compose(counit_cokleisli(ef.GAME, b, k), f).table == f.table
        assert cokleisli_compose(f, counit_cokleisli(ef.GAME, a, k)).table == f.table


def test_decide_identity_strategy():
    for a in all_structures_upto(VOCAB_R, 2):
        res = ef.decide_exist_ef(a, a, 2)
        assert res.wins and res.strategy.is_homomorphism()


def test_decide_loop_vs_two_cycle():
    loop = S(VOCAB_R, ["a"], {"R": [("a", "a")]})
    cyc = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})
    res = ef.decide_exist_ef(loop, cyc, 2)
    assert not res.wins
    ok, why = audit_spoiler_tree(ef.GAME, res.refutation, loop, cyc, 2, ef.GAME.forth, "A")
    assert ok, why


def test_decide_path_vs_two_cycle_parity():
    path = path_structure(3)
    cyc = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})
    res = ef.decide_exist_ef(path, cyc, 3)
    assert res.wins
    assert res.strategy.is_homomorphism()


def test_decide_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        ef.decide_exist_ef(S(VOCAB_R, ["a"]), S((("Q", 1),), ["x"]), 1)


def test_decide_monotone_in_k():
    pool = all_structures_upto(VOCAB_R, 2)
    for a in pool[:8]:
        for b in pool[:8]:
            for k in (1, 2):
                if ef.decide_exist_ef(a, b, k + 1).wins:
                    assert ef.decide_exist_ef(a, b, k).wins


def test_decide_agrees_with_lifted_hom_search_small():
    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                want = find_hom(_lifted(a, k), b) is not None
                assert ef.decide_exist_ef(a, b, k).wins == want


def test_decide_agrees_with_lifted_hom_search_named_three_element():
    cases = [
        (path_structure(3), S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})),
        (S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c"), ("c", "a")]}),
         S(VOCAB_R, ["x"], {"R": [("x", "x")]})),
        (S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c")]}),
         S(VOCAB_R, ["x", "y", "z"], {"R": [("x", "y"), ("y", "z"), ("z", "x")]})),
    ]
    for a, b in cases:
        for k in (1, 2, 3):
            want = find_hom(_lifted(a, k), b) is not None
            assert ef.decide_exist_ef(a, b, k).wins == want


def test_formula_bridge_existential_positive():
    rng_pool = all_structures_upto(VOCAB_R, 2)
    formulas = logic.sample_formulas(
        Structure.build(list(VOCAB_R), []).vocab, 2, "ep", 200, seed=11)
    for a in rng_pool[:6]:
        for b in rng_pool[:6]:
            if not ef.decide_exist_ef(a, b, 2).wins:
                continue
            for phi in formulas:
                if logic.evaluate(a, phi):
                    assert logic.evaluate(b, phi), logic.format_formula(phi)


def test_counit_is_homomorphism():
    for a in all_structures_upto(VOCAB_R, 2):
        for k in (1, 2, 3):
            lifted = _lifted(a, k)
            assert check_hom({s: s[-1] for s in lifted.universe}, lifted, a)


def test_laws_exhaustive_small():
    for a in all_structures_upto(VOCAB_R, 2, include_empty=True):
        for k in (1, 2, 3):
            rep = law_report(ef.GAME, a, play_universe(ef.GAME, a, k))
            assert rep.ok, rep.failures


def test_certificate_table_matches_strategy_semantics():
    a = path_structure(3)
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})
    res = ef.decide_exist_ef(a, b, 2)
    assert res.wins
    # the table replays the game: every play's pair history is a partial hom
    from gamecomonads.structures import is_partial_hom
    for s in play_universe(ef.GAME, a, 2):
        t = star(res.strategy, s)
        assert is_partial_hom(list(zip(s, t)), a, b)


def _lift_by_filter(a, plays, last, compatible):
    """Every tuple of prefixes of each play, kept when it contains the play."""
    interp = {name: set() for name, _ in a.vocab.symbols}
    for top in plays:
        pref = prefixes(top)
        for name, arity in a.vocab.symbols:
            for combo in product(pref, repeat=arity):
                if (top in combo and tuple(map(last, combo)) in a.tuples(name)
                        and (compatible is None or compatible(combo))):
                    interp[name].add(combo)
    return Structure(a.vocab, tuple(plays), {n: frozenset(r) for n, r in interp.items()}, None)


def test_lifting_builds_each_tuple_from_its_longest_play():
    rng = random.Random(7)
    vocab = (("R", 2), ("P", 1), ("T", 3))
    for _ in range(30):
        a = random_structure(rng, rng.randint(1, 3), vocab)
        for game, universe, compatible in [
                (ef.GAME, play_universe(ef.GAME, a, 3), None),
                (pebbling.GAME, pebbling.pebble_universe(a, 2, 3),
                 lambda plays: chain_error(plays, pebbling.active_last) is None)]:
            # a random prefix-closed set of plays, so that every tuple lies inside it
            tops = rng.sample(universe, min(len(universe), 12))
            plays = [s for s in universe if any(t[:len(s)] == s for t in tops)]
            assert (lifted_structure(game, a, plays)
                    == _lift_by_filter(a, plays, game.last, compatible))
