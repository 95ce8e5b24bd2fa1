import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecomonads import ef, equivalence as eq, logic, modal
from gamecomonads import pebbling as pb
from gamecomonads.errors import CapExceededError, ToolkitError
from gamecomonads.game import (DEFAULT_PLAY_CAP, Game, audit_spoiler_tree, audit_won_positions,
                               chain_error, law_report, lifted_hom, lifted_structure,
                               play_universe, round_values, spoiler_tree, won_positions)
from gamecomonads.structures import Vocabulary, check_hom

from helpers import (NAMES, S, VOCAB_R, all_pointed, all_structures_upto, bisim_oracle,
                     clique_structure, decide_both_ways, lifting, materialised_iso_audit,
                     path_structure, quantifier_rank, search_cokleisli_iso, theta_fixpoint)

EDGE = S(VOCAB_R, ["a", "b"], {"R": [("a", "b"), ("b", "a")]})
TWOPTS = S(VOCAB_R, ["x", "y"], {})
LOOP = S(VOCAB_R, ["a"], {"R": [("a", "a")]})
TWOCYC = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})


def small_pool():
    return all_structures_upto(VOCAB_R, 2, include_empty=True)


def test_both_ways_examples():
    assert decide_both_ways(EDGE, EDGE, 2, "ef")
    assert not decide_both_ways(LOOP, TWOCYC, 2, "ef")
    arrow = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    chain3 = S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c")]})
    assert decide_both_ways(arrow, chain3, 1, "ef")


def test_backforth_copycat():
    for a in small_pool()[:10]:
        assert eq.solve_back_forth(a, a, 2, "ef").wins


def test_backforth_edge_vs_two_points():
    res = eq.solve_back_forth(EDGE, TWOPTS, 2, "ef")
    assert not res.wins
    ok, why = audit_spoiler_tree(ef.GAME, res.spoiler, EDGE, TWOPTS, 2, ef.GAME.winning, "AB")
    assert ok, why


def test_backforth_paths_until_distinguished():
    """P3 and P4 agree at rank 1; at rank 2 the all-adjacent middle vertex of
    P3 is expressible, so the game separates them from k=2 on."""
    p3, p4 = path_structure(3), path_structure(4, "wxyz")
    r1 = eq.solve_back_forth(p3, p4, 1, "ef")
    assert r1.wins
    ok, why = audit_won_positions(ef.GAME, r1.duplicator, p3, p4, 1)
    assert ok, why
    r2 = eq.solve_back_forth(p3, p4, 2, "ef")
    assert not r2.wins
    ok, why = audit_spoiler_tree(ef.GAME, r2.spoiler, p3, p4, 2, ef.GAME.winning, "AB")
    assert ok, why
    # the separating sentence, as a sanity anchor
    phi = logic.parse_formula("E x . A y . (x = y | R(x,y))")
    assert quantifier_rank(phi) == 2
    assert logic.evaluate(p3, phi) and not logic.evaluate(p4, phi)
    assert not eq.solve_back_forth(p3, p4, 3, "ef").wins


def _every_winning_pair(g, a, b, k):
    """Every pair of plays of one round below k that meets the winning
    condition: the largest claim a won-position witness can make."""
    pairs, todo = [], [(g.root(a), g.root(b))]
    while todo:
        s, t = todo.pop()
        if g.depth(s) < k and g.winning(s, t, a, b):
            pairs.append((s, t))
            todo.extend((s2, t2) for s2 in g.children(a, s) for t2 in g.children(b, t))
    return pairs


@pytest.mark.parametrize("comonad", ["ef", "modal"])
def test_won_positions_pass_the_audit_and_no_claim_wins_a_lost_game(comonad):
    """On every pair of small structures and k 1-3, the won positions of a won
    back-and-forth game pass the audit, and on a lost game the audit rejects
    even the largest claim."""
    g = eq.game(comonad)
    pool = small_pool() if comonad == "ef" else all_pointed(small_pool())
    for a in pool:
        for b in pool:
            for k in (1, 2, 3):
                res = eq.solve_back_forth(a, b, k, comonad)
                claim = res.duplicator if res.wins else _every_winning_pair(g, a, b, k)
                ok, why = audit_won_positions(g, claim, a, b, k)
                assert ok == res.wins, (a, b, k, why)


def test_backforth_empty_structures():
    empty = S(VOCAB_R, [])
    assert eq.solve_back_forth(empty, empty, 2, "ef").wins
    res = eq.solve_back_forth(empty, TWOPTS, 1, "ef")
    assert not res.wins


def test_theta_singleton_identity():
    one = S(VOCAB_R, ["a"], {})
    res = theta_fixpoint(one, one, 1, "ef")
    assert res.nonempty
    assert res.tables_ab == ({("a",): "a"},)


def test_theta_matches_game_on_two_element_pairs():
    pool = small_pool()
    for a in pool:
        for b in pool:
            for k in (1, 2):
                game = eq.solve_back_forth(a, b, k, "ef").wins
                theta = theta_fixpoint(a, b, k, "ef").nonempty
                assert game == theta, (a, b, k)


def test_theta_edge_vs_two_points_empty():
    res = theta_fixpoint(EDGE, TWOPTS, 2, "ef")
    assert not res.nonempty and res.tables_ab == ()


def test_theta_surviving_tables_respect_winning_set():
    res = theta_fixpoint(EDGE, EDGE, 2, "ef")
    assert res.nonempty
    from gamecomonads.structures import is_partial_iso
    for table in res.tables_ab:
        for s in play_universe(ef.GAME, EDGE, 2):
            t = ef.coextend(table.__getitem__, s)
            assert is_partial_iso(list(zip(s, t)), EDGE, EDGE)


def test_theta_cap():
    a = clique_structure(3)
    with pytest.raises(CapExceededError):
        theta_fixpoint(a, a, 2, "ef", cap=5)


def test_theta_rejects_pebble():
    with pytest.raises(ToolkitError):
        theta_fixpoint(EDGE, EDGE, 2, "pebble")


def test_iso_counit_pair():
    for a in small_pool()[1:6]:
        res = eq.decide_cokleisli_iso(a, a, 2, "ef")
        assert res.wins
        ok, why = eq.audit_iso_pair(res.forward, res.backward, a, a, 2, "ef")
        assert ok, why


def test_iso_size_mismatch():
    assert not eq.decide_cokleisli_iso(path_structure(3), path_structure(4, "wxyz"),
                                       2, "ef").wins


def test_iso_degree_profile_pair():
    """Two loop-free 3-element digraphs with equal in/out degree profiles are
    rank-1-counting equivalent (hence coKleisli isomorphic at k=1) but are
    separated at k=2."""
    a = S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c"), ("c", "a")]})
    b = S(VOCAB_R, ["x", "y", "z"], {"R": [("x", "y"), ("y", "x"), ("z", "z")]})
    # same number of loops? no: b has a loop, so fix profiles without loops:
    b = S(VOCAB_R, ["x", "y", "z"], {"R": [("x", "y"), ("y", "z"), ("z", "y")]})
    r1 = eq.decide_cokleisli_iso(a, b, 1, "ef")
    assert r1.wins
    ok, why = eq.audit_iso_pair(r1.forward, r1.backward, a, b, 1, "ef")
    assert ok, why
    r2 = eq.decide_cokleisli_iso(a, b, 2, "ef")
    assert not r2.wins


def test_iso_is_counting_sensitive_at_rank_one():
    """Rank-1 counting sentences count loops and universe size, so the
    isomorphism decider must track both at k=1."""
    loop_pt = S(VOCAB_R, ["a", "b"], {"R": [("a", "a")]})
    two_pts = S(VOCAB_R, ["x", "y"], {})
    assert not eq.decide_cokleisli_iso(loop_pt, two_pts, 1, "ef").wins
    other = S(VOCAB_R, ["p", "q"], {"R": [("q", "q")]})
    res = eq.decide_cokleisli_iso(loop_pt, other, 1, "ef")
    assert res.wins
    phi = logic.parse_formula("E>=1 x . R(x,x)")
    assert logic.evaluate(loop_pt, phi) and not logic.evaluate(two_pts, phi)


RP = (("R", 2), ("P", 1))


@pytest.mark.parametrize("comonad", ["ef", "modal"])
@pytest.mark.parametrize("vocab", [VOCAB_R, RP], ids=["R", "RP"])
def test_iso_game_equals_the_table_search(vocab, comonad):
    """The bijective game and the table search agree on every pair of
    structures with at most two elements (pointed, for modal) at k = 1..3:
    the same verdict and, on a win, the same forward and backward tables."""
    pool = all_structures_upto(vocab, 2, include_empty=True)
    if comonad == "modal":
        pool = all_pointed(pool)
    for a in pool:
        for b in pool:
            for k in (1, 2, 3):
                got = eq.decide_cokleisli_iso(a, b, k, comonad)
                want = search_cokleisli_iso(a, b, k, comonad)
                assert ((got.wins, got.forward, got.backward)
                        == (want.wins, want.forward, want.backward)), (a, b, k)


# Random liftings: symbols of arity 1-3 for the sequence game and 1-2 for the
# modal game, at most three elements, k <= 3.
SYMBOLS = {"ef": [("R", 2), ("P", 1), ("T", 3)], "modal": [("R", 2), ("S", 2), ("P", 1)]}


@st.composite
def _structure(draw, vocab, names, point: bool):
    names = list(draw(st.permutations(names)))
    rels = {name: draw(st.sets(st.tuples(*[st.sampled_from(names)] * arity), max_size=6))
            for name, arity in vocab}
    return S(vocab, names, rels, point=names[0] if point else None)


@st.composite
def _pair(draw):
    """A game, a vocabulary, a source, a target (often a renamed copy of the
    source, so that the solver finds tables) and k."""
    game = draw(st.sampled_from(["ef", "modal"]))
    vocab = draw(st.lists(st.sampled_from(SYMBOLS[game]), min_size=1, max_size=2,
                          unique=True))
    point = game == "modal"
    a = draw(_structure(vocab, NAMES[:draw(st.integers(1, 3))], point))
    if draw(st.booleans()):
        rename = dict(zip(a.universe, ("x", "y", "z")))
        b = S(vocab, [rename[e] for e in reversed(a.universe)],
              {name: [tuple(rename[e] for e in t) for t in a.tuples(name)] for name, _ in vocab},
              point=rename[a.point] if point else None)
    else:
        b = draw(_structure(vocab, ("x", "y", "z")[:draw(st.integers(1, 3))], point))
    return eq.game(game), a, b, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_iso_refinement_equals_the_table_search_on_random_pairs(data):
    """On random pairs (symbols of arity 1-3, at most three elements, k <= 3)
    the multiset refinement and the table search give the same verdict and,
    on a win, the same forward and backward tables.  The search may visit
    every table that is injective on each play's children, exponentially
    many in the plays (6^13 for three elements in the sequence game at
    k = 3), so a pair plays fewer rounds until each side has at most 20
    plays: two elements at k = 3 have 14, three at k = 2 have 12."""
    g, a, b, k = data.draw(_pair())
    while k > 1 and max(len(play_universe(g, s, k, DEFAULT_PLAY_CAP)) for s in (a, b)) > 20:
        k -= 1
    got = eq.decide_cokleisli_iso(a, b, k, g.name)
    want = search_cokleisli_iso(a, b, k, g.name)
    assert (got.wins, got.forward, got.backward) == (want.wins, want.forward, want.backward)


def _edited(draw, table: dict, plays: list, values) -> dict:
    """`table` with one entry, the first play (the modal root) as often as
    any other, given another value, a value outside the target, or dropped."""
    table = dict(table)
    s = plays[draw(st.one_of(st.just(0), st.integers(0, len(plays) - 1)))]
    how = draw(st.sampled_from(["value", "outside", "drop"]))
    if how == "drop":
        del table[s]
    else:
        table[s] = draw(st.sampled_from(values)) if how == "value" else "zz"
    return table


def _outcome(check):
    try:
        return check()
    except ToolkitError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lifted_hom_agrees_with_check_hom_on_the_built_lifting(data):
    """The check that walks the plays agrees with `check_hom` against the
    lifting built in full, on the solver's tables, on random tables, and on
    either with one entry edited: the same verdict or the same error.  Each
    lifted tuple counts: both refuse a total table into a target that holds
    the images of all lifted tuples but one."""
    g, a, b, k = data.draw(_pair())
    plays = play_universe(g, a, k, DEFAULT_PLAY_CAP)
    res = g.decide(a, b, k, DEFAULT_PLAY_CAP)
    if res.wins:
        table = res.strategy.table
    else:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        table = {s: rng.choice(b.universe) for s in plays}
    if data.draw(st.booleans()):
        table = _edited(data.draw, table, plays, b.universe)
    lifted = lifting(g, a, k)
    assert (_outcome(lambda: lifted_hom(g, a, b, k, table, plays))
            == _outcome(lambda: check_hom(table, lifted, b)))
    if any(lifted.interp.values()) and all(table.get(s) in b.index for s in plays):
        # a target holding the images of the lifted tuples but one, so that
        # the verdict turns on that one
        images = sorted({(name, tuple(table[s] for s in t))
                         for name in a.vocab.names for t in lifted.tuples(name)})
        images.remove(data.draw(st.sampled_from(images)))
        b = S(a.vocab.symbols, b.universe, {name: [t for n, t in images if n == name]
                                            for name in a.vocab.names}, point=b.point)
        assert not lifted_hom(g, a, b, k, table, plays) and not check_hom(table, lifted, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iso_audit_agrees_with_the_materialised_audit(data):
    """`audit_iso_pair` agrees with the audit on liftings built in full and
    whole coextensions, on the solver's isomorphism pairs and on pairs with
    one entry of one table edited or the two tables swapped."""
    g, a, b, k = data.draw(_pair())
    res = eq.decide_cokleisli_iso(a, b, k, g.name)
    if not res.wins:
        return
    fwd, bwd = res.forward, res.backward
    how = data.draw(st.sampled_from(["none", "forward", "backward", "swap"]))
    if how == "forward":
        fwd = _edited(data.draw, fwd, play_universe(g, a, k), b.universe)
    elif how == "backward":
        bwd = _edited(data.draw, bwd, play_universe(g, b, k), a.universe)
    elif how == "swap":
        fwd, bwd = bwd, fwd
    got = eq.audit_iso_pair(fwd, bwd, a, b, k, g.name)
    assert got == materialised_iso_audit(fwd, bwd, a, b, k, g.name)
    if how == "none":
        assert got == (True, "ok")


# The play universe read off the play tree, against a listing apart from it:
# symbols of arity <= 2, at most three elements, k <= 3.
def _plays_by_product(g, a, k: int) -> list:
    """The plays up to round k, length by length in lexicographic order: for
    the sequence game every tuple of elements; for the modal game, the point
    followed by every tuple of (label, element) steps along transitions."""
    if g.name == "ef":
        return [s for n in range(1, k + 1) for s in product(a.universe, repeat=n)]
    steps = [(name, e) for name, arity in a.vocab.symbols if arity == 2 for e in a.universe]
    plays = [(a.point,)]
    for n in range(1, k + 1):
        for path in product(steps, repeat=n):
            s = (a.point,) + tuple(x for step in path for x in step)
            if all((u, v) in a.tuples(label) for u, label, v in zip(s[::2], s[1::2], s[2::2])):
                plays.append(s)
    return plays


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_play_universe_lists_the_play_tree(data):
    """`play_universe` lists the plays breadth-first in declaration order, and
    refuses one play over the cap without visiting the play tree."""
    g = eq.game(data.draw(st.sampled_from(["ef", "modal"])))
    vocab = data.draw(st.lists(st.sampled_from([s for s in SYMBOLS[g.name] if s[1] <= 2]),
                               min_size=1, max_size=2, unique=True))
    size = data.draw(st.integers(0 if g.name == "ef" else 1, 3))
    a = data.draw(_structure(vocab, NAMES[:size], g.name == "modal")) if size else S(vocab, [])
    k = data.draw(st.integers(1, 3))
    want = _plays_by_product(g, a, k)
    assert play_universe(g, a, k, len(want)) == want

    def untouched(x, node):
        raise AssertionError("the play tree was visited")

    blind = Game(**{f: getattr(g, f) for f in Game._fields} | {"children": untouched})
    if want:
        with pytest.raises(CapExceededError):
            play_universe(blind, a, k, len(want) - 1)


# The comultiplication judged by each game's `hom_error`, against the
# per-tuple tests the law check made before: the images of a lifted tuple
# pairwise prefix-comparable (sequence game), and each shorter one active
# along the longer (pebble game), or one step apart with the tuple's label
# (modal game).
def _still_active(s: tuple, t: tuple) -> bool:
    return all(move[0] != s[-1][0] for move in t[len(s):])


COMULT_OK = {
    "ef": lambda name, images: chain_error(images, None) is None,
    "pebble": lambda name, images: chain_error(images, _still_active) is None,
    "modal": lambda name, images: (len(images) == 1 or images[1][:-2] == images[0]
                                   and images[1][-2] == name),
}
# The comultiplication of each game as the play of its prefixes, written
# out apart from the coextension it is derived from in `law_report`.
COMULT = {
    "ef": lambda s: tuple(s[:i] for i in range(1, len(s) + 1)),
    "pebble": lambda s: tuple((s[i][0], s[: i + 1]) for i in range(len(s))),
    "modal": lambda s: sum(((s[2 * i - 1], s[: 2 * i + 1]) for i in range(1, len(s) // 2 + 1)),
                           (s[:1],)),
}


def _plays(name: str, a, k: int) -> list:
    """The plays the law check of `name` runs on: up to round k, or of at
    most two moves with k pebbles."""
    if name == "pebble":
        return pb.pebble_universe(a, k, 2)
    return play_universe(eq.game(name), a, k)


def _lifted(name: str, a, k: int):
    return lifted_structure(eq.game(name), a, _plays(name, a, k))


@pytest.mark.parametrize("name", ["ef", "pebble", "modal"])
def test_the_comultiplication_is_the_coextension_of_the_identity(name):
    """On every play up to round 3 (two moves with 2 pebbles) of the
    structures of at most two elements, the coextension of the identity is
    the play of prefixes, e.g. (("a",), ("a", "b")) at ("a", "b")."""
    g = eq.game(name)
    pool = all_pointed(small_pool()) if name == "modal" else small_pool()
    plays = {s for a in pool for s in _plays(name, a, 2 if name == "pebble" else 3)}
    assert plays
    for s in plays:
        assert g.coextend(lambda x: x, s) == COMULT[name](s), s
    assert eq.game("ef").coextend(lambda x: x, ("a", "b")) == (("a",), ("a", "b"))


def _swap_first_two(d: tuple) -> tuple:
    return d[1:2] + d[:1] + d[2:]


# A coextension whose comultiplication is wrong at every play of two or more
# moves: two entries swapped, the last move renumbered to the first move's
# pebble, the last step relabelled.
BAD_COEXTEND = {
    "ef": lambda f, s: _swap_first_two(ef.coextend(f, s)),
    "pebble": lambda f, s: pb.pebble_coextend(f, s)[:-1] + ((s[0][0], f(s)),),
    "modal": lambda f, s: (modal.modal_coextend(f, s)[:-2] + ("Q", f(s)) if len(s) > 1
                           else (f(s),)),
}
LAW_HOSTS = {"ef": (S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]}), 2),
             "pebble": (S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]}), 2),
             "modal": (S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]}, point="a"), 2)}


@pytest.mark.parametrize("name", ["ef", "pebble", "modal"])
def test_law_report_catches_a_comultiplication_that_is_no_homomorphism(name):
    """A copy of the game's record with its coextension broken: the
    comultiplication derived from it fails as a homomorphism."""
    g, (a, k) = eq.game(name), LAW_HOSTS[name]
    plays = _plays(name, a, k)
    assert law_report(g, a, plays).ok
    broken = Game(**{f: getattr(g, f) for f in Game._fields} | {"coextend": BAD_COEXTEND[name]})
    rep = law_report(broken, a, plays)
    assert not rep.ok
    assert any(f.startswith("comult: homomorphism fails on R") for f in rep.failures), rep


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hom_error_on_the_comultiplication_agrees_with_the_per_tuple_tests(data):
    """On random liftings (symbols of arity 1-3, 1-2 for the modal game, at
    most three elements, k <= 3, or 2 pebbles on plays of length <= 2), with
    the comultiplication right or, three times in four, edited at one play:
    two entries swapped, one pebble renumbered, or one step relabelled."""
    name = data.draw(st.sampled_from(["ef", "pebble", "modal"]))
    g = eq.game(name)
    vocab = data.draw(st.lists(st.sampled_from(SYMBOLS["modal" if name == "modal" else "ef"]),
                               min_size=1, max_size=2, unique=True))
    a = data.draw(_structure(vocab, NAMES[:data.draw(st.integers(1, 3))], name == "modal"))
    k = 2 if name == "pebble" else data.draw(st.integers(1, 3))
    lifted = _lifted(name, a, k)
    delta = {s: COMULT[name](s) for s in lifted.universe}
    # the edited play is, when there is one, a play of two or more moves in a
    # lifted tuple of two or more plays
    joined = [x for sym, _ in vocab for combo in lifted.tuples(sym) if len(set(combo)) > 1
              for x in combo if len(delta[x]) > 1]
    s = data.draw(st.sampled_from(joined or lifted.universe))
    d = list(delta[s])
    if data.draw(st.integers(0, 3)):
        if name == "ef" and len(d) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(d) - 1), min_size=2, max_size=2,
                                      unique=True))
            d[i], d[j] = d[j], d[i]
        elif name == "pebble":
            i = data.draw(st.integers(0, len(d) - 1))
            d[i] = (3 - d[i][0], d[i][1])
        elif len(d) > 1:
            i = data.draw(st.sampled_from(range(1, len(d), 2)))
            d[i] = data.draw(st.sampled_from([n for n, arity in vocab if arity == 2 and n != d[i]]
                                             + ["Q"]))
    delta[s] = tuple(d)
    want = all(COMULT_OK[name](sym, tuple(delta[x] for x in combo))
               for sym, _ in vocab for combo in lifted.tuples(sym))
    assert (g.hom_error(delta, lifted) is None) == want


# Colour refinement against the pair searches: symbols of arity 1-3 (for the
# modal game, one or two binary symbols and a unary one), at most four
# elements, k <= 3.  Half of the targets are
# renamed copies of their sources declared in another order, a quarter are
# such copies with one tuple added or removed, so that some games are lost
# late, and a quarter are drawn apart.
REFINED_SYMBOLS = {"ef": SYMBOLS["ef"], "pebble": SYMBOLS["ef"], "modal": [("R", 2), ("S", 2)]}


@st.composite
def _refined_pair(draw, game: str):
    point = game == "modal"
    vocab = draw(st.lists(st.sampled_from(REFINED_SYMBOLS[game]), min_size=1, max_size=2,
                          unique=True)) + ([("P", 1)] if point else [])
    a = draw(_structure(vocab, NAMES[:draw(st.integers(1, 4))], point))
    how = draw(st.sampled_from(["copy", "copy", "edited", "apart"]))
    if how == "apart":
        b = draw(_structure(vocab, ("w", "x", "y", "z")[:draw(st.integers(1, 4))], point))
        return a, b, draw(st.integers(1, 3))
    order = draw(st.permutations(a.universe))
    rename = dict(zip(order, ("w", "x", "y", "z")))
    rels = {name: {tuple(rename[e] for e in t) for t in a.tuples(name)} for name, _ in vocab}
    if how == "edited":
        name, arity = draw(st.sampled_from(vocab))
        rels[name] ^= {draw(st.tuples(*[st.sampled_from(list(rename.values()))] * arity))}
    b = S(vocab, [rename[e] for e in order], rels, point=rename[a.point] if point else None)
    return a, b, draw(st.integers(1, 3))


def _contract_pairs(g, a, b, k):
    """Every pair of plays of one round up to k whose proper prefixes meet
    the winning condition: where a back-and-forth value is defined."""
    pairs, todo = [], [(g.root(a), g.root(b))]
    while todo:
        s, t = todo.pop()
        pairs.append((s, t))
        if g.depth(s) < k and g.winning(s, t, a, b):
            todo.extend((s2, t2) for s2 in g.children(a, s) for t2 in g.children(b, t))
    return pairs


@pytest.mark.parametrize("comonad", ["ef", "modal"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_refinement_agrees_with_the_backward_induction(comonad, data):
    """The refined values equal the backward induction's wherever the
    contract defines them, and give the same won positions or Spoiler tree."""
    g = eq.game(comonad)
    a, b, k = data.draw(_refined_pair(comonad))
    got = g.refine(a, b, k, DEFAULT_PLAY_CAP)
    want = round_values(g, a, b, k, g.winning, "AB")
    for s, t in _contract_pairs(g, a, b, k):
        assert got(s, t) == want(s, t), (s, t)
    if want(g.root(a), g.root(b)):
        assert won_positions(g, a, b, k, got) == won_positions(g, a, b, k, want)
    else:
        assert spoiler_tree(g, a, b, got, "AB") == spoiler_tree(g, a, b, want, "AB")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pebble_refinement_agrees_with_the_deletion_engine(data):
    """The verdict, and the family read off the colours or the Spoiler tree,
    equal the deletion engine's."""
    a, b, k = data.draw(_refined_pair("pebble"))
    assert pb.decide_back_forth(a, b, k) == pb.decide_pebble(a, b, k, "AB")


def test_iso_modal_copycat():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]}, point="a")
    res = eq.decide_cokleisli_iso(a, a, 2, "modal")
    assert res.wins
    ok, why = eq.audit_iso_pair(res.forward, res.backward, a, a, 2, "modal")
    assert ok, why


def test_inclusion_chain_on_pool():
    pool = all_structures_upto(VOCAB_R, 2)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                if eq.decide_cokleisli_iso(a, b, k, "ef").wins:
                    assert eq.solve_back_forth(a, b, k, "ef").wins
                if eq.solve_back_forth(a, b, k, "ef").wins:
                    assert decide_both_ways(a, b, k, "ef")


def test_monotone_in_k_all_deciders():
    pool = all_structures_upto(VOCAB_R, 2)
    rng = random.Random(1)
    sample = [(rng.choice(pool), rng.choice(pool)) for _ in range(30)]
    for a, b in sample:
        for k in (1, 2):
            if decide_both_ways(a, b, k + 1, "ef"):
                assert decide_both_ways(a, b, k, "ef")
            if eq.solve_back_forth(a, b, k + 1, "ef").wins:
                assert eq.solve_back_forth(a, b, k, "ef").wins
            if eq.decide_cokleisli_iso(a, b, k + 1, "ef").wins:
                assert eq.decide_cokleisli_iso(a, b, k, "ef").wins


def test_equivalence_relations_reflexive_symmetric_transitive():
    pool = all_structures_upto(VOCAB_R, 2)
    n = len(pool)
    verdicts = {}
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            verdicts[i, j] = (decide_both_ways(a, b, 2, "ef"),
                              eq.solve_back_forth(a, b, 2, "ef").wins,
                              eq.decide_cokleisli_iso(a, b, 2, "ef").wins)
    for i in range(n):
        assert verdicts[i, i] == (True, True, True)
        for j in range(n):
            assert verdicts[i, j] == verdicts[j, i]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for d in range(3):
                    if verdicts[i, j][d] and verdicts[j, l][d]:
                        assert verdicts[i, l][d], (i, j, l, d)


def test_pebble_backforth_cliques():
    """Cliques of size >= k are k-variable equivalent; a third pebble pins all
    of K3 and breaks injectivity into K2."""
    k3, k2 = clique_structure(3), clique_structure(2)
    res = eq.solve_back_forth(k3, k2, 2, "pebble")
    assert res.wins
    ok, why = pb.audit_strategy_family(pb.StrategyFamily(2, res.safe_positions), k3, k2, "AB")
    assert ok, why
    res3 = eq.solve_back_forth(k3, k2, 3, "pebble")
    assert not res3.wins
    ok, why = pb.audit_spoiler_positions(res3.spoiler, k3, k2, 3, "AB")
    assert ok, why


def test_pebble_backforth_implies_both_ways():
    pool = all_structures_upto(VOCAB_R, 2)
    rng = random.Random(4)
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        for k in (1, 2):
            if eq.solve_back_forth(a, b, k, "pebble").wins:
                assert decide_both_ways(a, b, k, "pebble")


def test_modal_backforth_is_bisimulation():
    pool = all_pointed(all_structures_upto(VOCAB_R, 2))
    for a in pool:
        for b in pool:
            for k in (1, 2):
                got = eq.solve_back_forth(a, b, k, "modal").wins
                want = bisim_oracle(a, b, k)
                assert got == want, (a, b, k)


def test_logical_soundness_sampled():
    """Morphisms both ways imply agreement on sampled existential-positive
    sentences, back-and-forth equivalence on full rank-bounded sentences, the
    isomorphism on counting sentences."""
    vocab = Vocabulary(VOCAB_R)
    pool = all_structures_upto(VOCAB_R, 2)
    ep = logic.sample_formulas(vocab, 2, "ep", 150, seed=19)
    full = logic.sample_formulas(vocab, 2, "full", 150, seed=23)
    counting = logic.sample_formulas(vocab, 2, "counting", 150, seed=29)
    rng = random.Random(31)
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        if decide_both_ways(a, b, 2, "ef"):
            for phi in ep:
                assert logic.evaluate(a, phi) == logic.evaluate(b, phi)
        if eq.solve_back_forth(a, b, 2, "ef").wins:
            for phi in full:
                assert logic.evaluate(a, phi) == logic.evaluate(b, phi)
        if eq.decide_cokleisli_iso(a, b, 2, "ef").wins:
            for phi in counting:
                assert logic.evaluate(a, phi) == logic.evaluate(b, phi)

