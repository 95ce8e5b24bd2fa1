import random
from itertools import permutations

import pytest

import inputs
from gamecomonads.structures import parse_structure


def test_same_seed_same_inputs():
    for seed in (0, 7, 12345):
        a = inputs.random_graph(random.Random(seed), 9, 12)
        b = inputs.random_graph(random.Random(seed), 9, 12)
        assert a == b and a.text() == b.text()
    assert inputs.random_graph(random.Random(1), 9, 12) != inputs.random_graph(
        random.Random(2), 9, 12)


@pytest.mark.parametrize("n", [7, 10, 14])
def test_names_stay_distinct_beyond_six(n):
    rng = random.Random(n)
    for g in (inputs.random_graph(rng, n, n), inputs.random_regular(rng, n, 4),
              inputs.clique(n), inputs.cycle(n), inputs.path(n),
              inputs.random_tree(rng, n)[0]):
        assert len(set(g.elems)) == n
        assert len(parse_structure(g.text()).universe) == n


def test_random_graph_has_exactly_m_undirected_edges():
    g = inputs.random_graph(random.Random(3), 8, 11)
    assert len(g.tuples) == 22
    assert all((v, u) in g.tuples for u, v in g.tuples)


def test_relabel_is_an_isomorphic_copy():
    rng = random.Random(5)
    g = inputs.random_graph(rng, 6, 7, "a")
    h = inputs.relabel(rng, g, "b")
    assert set(h.elems).isdisjoint(g.elems)
    edges = set(h.tuples)
    assert any({(p[u], p[v]) for u, v in g.tuples} == edges and p[g.start] == h.start
               for p in (dict(zip(g.elems, perm)) for perm in permutations(h.elems)))


def test_random_tree_height():
    tree, height = inputs.random_tree(random.Random(9), 10)
    parent = {v: u for u, v in tree.tuples}
    def depth(v):
        return 0 if v == tree.start else 1 + depth(parent[v])
    assert height == max(depth(v) for v in tree.elems)
    assert len(tree.tuples) == 9


def test_random_regular_is_simple_and_regular():
    rng = random.Random(4)
    for n, d in ((6, 3), (8, 3), (10, 4)):
        g = inputs.random_regular(rng, n, d)
        assert all(u != v for u, v in g.tuples)
        assert len(set(g.tuples)) == len(g.tuples) == n * d
        assert all(sum(u == e for u, _ in g.tuples) == d for e in g.elems)
