"""The closed forms the workloads are checked against agree with the
program's deciders on every small case."""

import pytest

import answers
import inputs
from gamecomonads import ef, equivalence, modal, parameters, pebbling
from gamecomonads.structures import gaifman, parse_structure


def load(graph):
    return parse_structure(graph.text())


def exists(game, a, b, k):
    if game == "ef":
        return ef.decide_exist_ef(a, b, k).wins
    if game == "pebble":
        return pebbling.decide_exist_pebble(a, b, k).wins
    return modal.decide_sim_k(a, b, k).wins


def decide(game, mode, a, b, k):
    if mode == "exists":
        return exists(game, a, b, k)
    if mode == "both":
        return exists(game, a, b, k) and exists(game, b, a, k)
    if mode == "backforth":
        return equivalence.solve_back_forth(a, b, k, game).wins
    return equivalence.decide_cokleisli_iso(a, b, k, game).wins


CLIQUE_CASES = [(game, mode, m, n, k)
                for game in ("ef", "pebble", "modal")
                for mode in ("exists", "both", "backforth", "iso")
                for m in (2, 3, 4) for n in (2, 3, 4) for k in (1, 2, 3)
                if not (game == "pebble" and mode == "iso")
                and not (mode == "iso" and k == 3 and game == "ef")]


@pytest.mark.parametrize("game, mode, m, n, k", CLIQUE_CASES)
def test_cliques(game, mode, m, n, k):
    a, b = load(inputs.clique(m, "x")), load(inputs.clique(n, "y"))
    assert decide(game, mode, a, b, k) == answers.cliques(game, mode, m, n, k)


@pytest.mark.parametrize("game, odd, even, k",
                         [("ef", c, e, k) for c in (3, 5) for e in (2, 4) for k in (1, 2, 3, 4)]
                         + [("pebble", c, e, k) for c in (3, 5, 7) for e in (4, 6)
                            for k in (1, 2, 3)])
def test_odd_cycle_to_bipartite(game, odd, even, k):
    a = load(inputs.cycle(odd, "x"))
    b = load(inputs.path(2, "y") if even == 2 else inputs.cycle(even, "y"))
    expected = answers.odd_cycle_to_bipartite(game, odd, k)
    assert exists(game, a, b, k) == expected
    assert decide(game, "both", a, b, k) == expected


@pytest.mark.parametrize("m, n, k", [(m, n, k) for m in (4, 5) for n in (4, 5, 6)
                                     for k in (1, 2, 3)])
def test_cycles_pebble_backforth(m, n, k):
    a, b = load(inputs.cycle(m, "x")), load(inputs.cycle(n, "y"))
    assert (equivalence.solve_back_forth(a, b, k, "pebble").wins
            == answers.cycles_pebble_backforth(m, n, k))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_path_and_cycle_treedepth(n):
    g = gaifman(load(inputs.path(n)))
    assert parameters.oracle_treedepth(g) == answers.path_treedepth(n)
    assert parameters.coalgebra_number(load(inputs.path(n)), "ef").kappa == max(
        1, answers.path_treedepth(n))
    if n >= 3:
        c = load(inputs.cycle(n))
        assert parameters.oracle_treedepth(gaifman(c)) == answers.cycle_treedepth(n)


def test_odd_cycle_rejects_even_lengths():
    with pytest.raises(ValueError):
        answers.odd_cycle_to_bipartite("ef", 6, 2)


@pytest.mark.parametrize("parts", [(1, 1), (2, 2), (3, 3), (2, 2, 2), (1, 2, 3), (1, 1, 1, 1)])
def test_multipartite_treewidth(parts):
    g = gaifman(load(inputs.complete_multipartite(parts)))
    assert parameters.oracle_treewidth(g) == answers.multipartite_treewidth(parts)
