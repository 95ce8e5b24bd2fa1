import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecomonads import parameters as par
from gamecomonads.errors import CapExceededError, CycleError, ToolkitError
from gamecomonads.structures import Graph, gaifman

from helpers import (NAMES, S, VOCAB_R, all_forest_covers, all_graphs, clique_structure,
                     coalgebra_to_forest_cover, graph_structure, is_synchronization_tree,
                     min_pebble_forest_cover, modal_depth, path_structure, random_graph,
                     random_tree_pointed, reference_treewidth, table_treedepth,
                     tree_decomposition_to_pfc, unbounded_forest_cover,
                     _elimination_decomposition)


def test_check_coalgebra_forced_singleton():
    a = S(VOCAB_R, ["a"], {})
    ok, why = par.check_coalgebra(par.CoalgebraMap("ef", 1, a, {"a": ("a",)}))
    assert ok, why


def test_check_coalgebra_rejects_padded_play():
    a = S(VOCAB_R, ["a"], {})
    ok, why = par.check_coalgebra(par.CoalgebraMap("ef", 2, a, {"a": ("a", "a")}))
    assert not ok and "comultiplication" in why


def test_check_coalgebra_rejects_non_prefix_closed_image():
    a = S(VOCAB_R, ["a", "b"], {})
    alpha = {"a": ("b", "a"), "b": ("b",)}
    ok, _ = par.check_coalgebra(par.CoalgebraMap("ef", 2, a, alpha))
    assert ok  # prefix-closed: alpha(b) = (b,) is the prefix
    alpha_bad = {"a": ("b", "a"), "b": ("a",)}
    ok, why = par.check_coalgebra(par.CoalgebraMap("ef", 2, a, alpha_bad))
    assert not ok and "comultiplication" in why
    # Each element's play is checked against its parent prefix only: alpha(a)
    # passes, its parent prefix being alpha(b), and the wrong prefix (c,) is
    # named at b, the element whose parent prefix it is.
    c = S(VOCAB_R, ["a", "b", "c"], {})
    alpha_deep = {"a": ("c", "b", "a"), "b": ("c", "b"), "c": ("b", "c")}
    assert par.check_coalgebra(par.CoalgebraMap("ef", 3, c, alpha_deep)) == (
        False, "comultiplication law fails: alpha('c') != prefix ('c',) of alpha('b')")


def test_check_coalgebra_rejects_wrong_counit():
    a = S(VOCAB_R, ["a", "b"], {})
    alpha = {"a": ("b",), "b": ("b",)}
    ok, why = par.check_coalgebra(par.CoalgebraMap("ef", 1, a, alpha))
    assert not ok and "counit" in why


def test_cover_coalgebra_bijection_edgeless_antichain():
    a = S(VOCAB_R, ["x", "y"], {})
    cover = par.ForestCover(("x", "y"), {"x": None, "y": None})
    c = par.forest_cover_to_coalgebra(cover, 1, a)
    assert c.alpha == {"x": ("x",), "y": ("y",)}
    assert coalgebra_to_forest_cover(c) == cover


def test_cover_coalgebra_bijection_edge_chain():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b"), ("b", "a")]})
    cover = par.ForestCover(("a", "b"), {"a": None, "b": "a"})
    c = par.forest_cover_to_coalgebra(cover, 2, a)
    ok, why = par.check_coalgebra(c)
    assert ok, why
    assert c.alpha == {"a": ("a",), "b": ("a", "b")}
    assert coalgebra_to_forest_cover(c) == cover


def test_cover_backward_rejects_triangle_height_two():
    k3 = clique_structure(3)
    for parent in ({"a": None, "b": "a", "c": "a"},
                   {"a": "b", "b": None, "c": "b"}):
        cover = par.ForestCover(("a", "b", "c"), parent)
        with pytest.raises(ToolkitError):
            par.forest_cover_to_coalgebra(cover, 2, k3)


def test_cover_roundtrip_all_covers_of_small_graphs():
    for n in (1, 2, 3):
        for g in all_graphs(n):
            a = graph_structure(g)
            for cover in all_forest_covers(g):
                k = cover.height()
                c = par.forest_cover_to_coalgebra(cover, k, a)
                ok, why = par.check_coalgebra(c)
                assert ok, why
                assert coalgebra_to_forest_cover(c) == cover


def test_forest_table_has_one_row_per_rooted_forest():
    for n in range(1, 7):
        assert len(par._forest_table(n)) == (n + 1) ** (n - 1)  # Cayley


def test_all_forest_covers_matches_brute_force():
    """The reference tries every parent map, vertex 0's choice outermost and
    None first, and keeps the acyclic maps that cover the graph."""
    for n in range(5):
        for g in all_graphs(n):
            vs = g.vertices
            want = []
            for parents in product(*[[None] + [u for u in vs if u != v] for v in vs]):
                try:
                    cover = par.ForestCover(vs, dict(zip(vs, parents)))
                except ToolkitError:
                    continue
                if par.is_forest_cover(cover, g):
                    want.append(cover)
            assert list(all_forest_covers(g)) == want


def test_pebble_cover_roundtrip_single_edge():
    g = Graph.build(["a", "b"], [("a", "b")])
    cover = par.ForestCover(("a", "b"), {"a": None, "b": "a"})
    pfc = par.PebbleForestCover(cover, {"a": 1, "b": 2})
    assert par.is_pebble_forest_cover(pfc, g, 2)
    td = par.pfc_to_tree_decomposition(pfc)
    assert par.is_tree_decomposition(td, g)
    assert td.width() == 1
    back = tree_decomposition_to_pfc(td, 2, g)
    assert par.is_pebble_forest_cover(back, g, 2)


def test_pebble_cover_rejects_reused_pebble_on_chain():
    g = Graph.build(["a", "b"], [("a", "b")])
    cover = par.ForestCover(("a", "b"), {"a": None, "b": "a"})
    pfc = par.PebbleForestCover(cover, {"a": 1, "b": 1})
    assert not par.is_pebble_forest_cover(pfc, g, 2)


def test_k3_single_bag_decomposition():
    k3 = gaifman(clique_structure(3))
    res = par.coalgebra_number(clique_structure(3), "pebble")
    assert res.kappa == 3
    td = par.pfc_to_tree_decomposition(res.pfc)
    assert par.is_tree_decomposition(td, k3)
    assert td.width() == 2
    back = tree_decomposition_to_pfc(td, 3, k3)
    assert par.is_pebble_forest_cover(back, k3, 3)


def test_c4_width_two_decomposition():
    g = Graph.build(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert par.oracle_treewidth(g) == 2
    a = graph_structure(g)
    res = par.coalgebra_number(a, "pebble")
    assert res.kappa == 3
    td = par.pfc_to_tree_decomposition(res.pfc)
    assert par.is_tree_decomposition(td, g) and td.width() <= 2
    with pytest.raises(ToolkitError):
        tree_decomposition_to_pfc(td, 2, g)  # width 2 is not < 2


def test_td_width_bound_errors():
    g = Graph.build(["a"], [])
    td = par.TreeDecomposition(("b0",), {"b0": None}, {"b0": frozenset(["a"])})
    assert par.is_tree_decomposition(td, g)
    with pytest.raises(ToolkitError):
        tree_decomposition_to_pfc(td, 0, g)


def test_kappa_ef_examples():
    edgeless = S(VOCAB_R, ["a", "b", "c"], {})
    assert par.coalgebra_number(edgeless, "ef").kappa == 1
    p4 = path_structure(4)
    res = par.coalgebra_number(p4, "ef")
    assert res.kappa == 3
    ok, why = par.check_coalgebra(res.coalgebra)
    assert ok, why
    assert par.oracle_treedepth(gaifman(p4)) == 3
    # above the oracle's cap, against the closed forms td(P_n) = ⌈log2(n + 1)⌉
    # and td(C_n) = 1 + ⌈log2 n⌉
    paths = [(n, n - 1, n.bit_length()) for n in range(1, 17)]
    cycles = [(n, n, 1 + (n - 1).bit_length()) for n in range(3, 17)]
    for n, edges, td in paths + cycles:
        names = [f"v{i}" for i in range(n)]
        a = S(VOCAB_R, names, {"R": [(names[i], names[(i + 1) % n]) for i in range(edges)]})
        res = par.coalgebra_number(a, "ef", cap=n)
        assert res.kappa == td, (n, edges)
        ok, why = par.check_coalgebra(res.coalgebra)
        assert ok, (n, edges, why)


def test_kappa_pebble_examples():
    k3 = clique_structure(3)
    res = par.coalgebra_number(k3, "pebble")
    assert res.kappa == 3
    ok, why = par.check_coalgebra(res.coalgebra)
    assert ok, why
    assert par.oracle_treewidth(gaifman(k3)) == 2
    empty = min_pebble_forest_cover(Graph.build([], []))
    assert empty.cover.vertices == () and empty.pebbles == {}
    assert par.coalgebra_number(S(VOCAB_R, [], {}), "pebble").kappa == 1
    # min-degree greedy eliminates to width 4 here, so the dynamic program
    # must beat its bound and read its own order back
    g = Graph.build([f"v{i}" for i in range(6)],
                    [(f"v{e[0]}", f"v{e[1]}") for e in "02 04 05 12 13 14 15 23 34 35".split()])
    res = par.coalgebra_number(graph_structure(g), "pebble")
    assert res.kappa == 4 and par.is_pebble_forest_cover(res.pfc, g, 4)
    ok, why = par.check_coalgebra(res.coalgebra)
    assert ok, why
    assert par.oracle_treewidth(g) == reference_treewidth(g) == 3


def test_oracle_treedepth_cliques_and_singleton():
    assert par.oracle_treedepth(Graph.build(["a"], [])) == 1
    for n in (2, 3, 4, 5):
        assert par.oracle_treedepth(gaifman(clique_structure(n))) == n


def test_oracle_treedepth_equals_the_forest_table_on_every_small_graph():
    for n in range(6):
        for g in all_graphs(n):
            assert par.oracle_treedepth(g) == table_treedepth(g), g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_treedepth_equals_the_forest_table_on_six_and_seven_vertices(data):
    """The n = 7 table (8^6 rows) is built once per session and cached."""
    names = [f"v{i}" for i in range(data.draw(st.integers(6, 7)))]
    edges = data.draw(st.sets(st.sampled_from(list(combinations(names, 2)))))
    g = Graph.build(names, sorted(edges))
    assert par.oracle_treedepth(g) == table_treedepth(g)


def _cover_inputs():
    """Seeded graphs of 1-12 vertices declared in a shuffled order: random at
    edge densities 0.1-0.9, disjoint unions of two of them, and paths,
    cycles and cliques."""
    rng = random.Random(28)
    for n in range(1, 13):
        names = [f"v{i}" for i in range(n)]
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(3):
                rng.shuffle(names)
                yield Graph.build(names, [e for e in combinations(names, 2)
                                          if rng.random() < density])
                cut = rng.randint(1, n)
                yield Graph.build(names, [(u, v) for u, v in combinations(names, 2)
                                          if (names.index(u) < cut) == (names.index(v) < cut)
                                          and rng.random() < density])
        rng.shuffle(names)
        yield Graph.build(names, list(zip(names, names[1:])))
        if n > 2:
            yield Graph.build(names, list(zip(names, names[1:] + names[:1])))
        yield Graph.build(names, list(combinations(names, 2)))


def test_min_height_cover_equals_the_unbounded_search():
    """The budget, the path bound and the early stop change only the work:
    the cover, roots and all, is the unbounded search's."""
    for g in _cover_inputs():
        assert par.min_height_forest_cover(g) == unbounded_forest_cover(g), g


def _prufer_tree(names, seq):
    import bisect
    degree = {v: 1 for v in names}
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in names if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append(tuple(leaves[:2]))
    return Graph.build(names, edges)


def test_oracle_treewidth_trees_are_width_one():
    from itertools import product as iproduct
    for n in range(2, 7):
        names = [f"v{i}" for i in range(n)]
        seqs = iproduct(names, repeat=n - 2) if n > 2 else [()]
        for seq in seqs:
            g = _prufer_tree(names, seq)
            assert par.oracle_treewidth(g) == 1
            assert par.oracle_treedepth(g) >= 2
    rng = random.Random(12)
    for _ in range(20):
        names = [f"v{i}" for i in range(7)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, 7)]
        g = Graph.build(names, edges)
        assert par.oracle_treewidth(g) == 1


def test_oracle_caps():
    g = Graph.build([f"v{i}" for i in range(8)], [])
    with pytest.raises(CapExceededError):
        par.oracle_treedepth(g)
    with pytest.raises(CapExceededError):
        par.oracle_treewidth(g)


def test_td_equals_kappa_ef_random():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 5))
        a = graph_structure(g)
        assert par.coalgebra_number(a, "ef").kappa == par.oracle_treedepth(g)


def test_pebble_cover_equals_the_elimination_decomposition_pebbled():
    """The pebbled cover of the pebble coalgebra number, read straight off
    its elimination order, is the one the paper's bijection gives for the
    order's tree decomposition (`tree_decomposition_to_pfc` of
    `_elimination_decomposition`): on seeded graphs of 1-10 vertices at edge
    densities 0-1, declared in a shuffled order, edgeless and complete graphs
    included."""
    rng = random.Random(29)
    for n in range(1, 11):
        for density in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            for _ in range(4):
                names = [f"v{i}" for i in range(n)]
                rng.shuffle(names)
                g = Graph.build(names, [e for e in combinations(names, 2)
                                        if rng.random() < density])
                res = par.coalgebra_number(graph_structure(g), "pebble", cap=n)
                width, order = par._treewidth_order(g)
                td = _elimination_decomposition(g, order)
                assert res.kappa == width + 1
                assert res.pfc == tree_decomposition_to_pfc(td, res.kappa, g), (g, order)


def test_tw_equals_kappa_pebble_random():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 4))
        a = graph_structure(g)
        assert par.coalgebra_number(a, "pebble").kappa == par.oracle_treewidth(g) + 1


def test_pruned_treewidth_equals_the_unpruned_reference():
    """Seeded graphs of 1-10 vertices at edge densities 0.1-0.9: the pruned
    program's width is the unpruned one's, and the pebble number's witness is
    a pebbled forest cover using exactly kappa = width + 1 pebbles."""
    rng = random.Random(9)
    for n in range(1, 11):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(6):
                g = Graph.build(names, [e for e in pairs if rng.random() < density])
                width = reference_treewidth(g)
                assert par.oracle_treewidth(g, cap=10) == width, g
                res = par.coalgebra_number(graph_structure(g), "pebble", cap=10)
                assert res.kappa == width + 1
                assert par.is_pebble_forest_cover(res.pfc, g, res.kappa)
                assert max(res.pfc.pebbles.values()) == res.kappa
                ok, why = par.check_coalgebra(res.coalgebra)
                assert ok, why


def test_modal_depth_examples():
    iso = S(VOCAB_R, ["a"], {}, point="a")
    assert modal_depth(iso) == 0
    assert par.coalgebra_number(iso, "modal").kappa == 1
    chain = S(VOCAB_R, ["a", "b", "c"], {"R": [("a", "b"), ("b", "c")]}, point="a")
    assert modal_depth(chain) == 2
    assert par.coalgebra_number(chain, "modal").kappa == 2
    diamond = S(VOCAB_R, list("abcd"),
                {"R": [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]}, point="a")
    assert modal_depth(diamond) == 2


def test_modal_depth_rejects_cycles():
    cyc = S(VOCAB_R, ["a", "b"], {"R": [("a", "b"), ("b", "a")]}, point="a")
    with pytest.raises(CycleError):
        modal_depth(cyc)
    with pytest.raises(CycleError):
        par.coalgebra_number(cyc, "modal")


def test_modal_kappa_rejects_non_tree_dags():
    diamond = S(VOCAB_R, list("abcd"),
                {"R": [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]}, point="a")
    with pytest.raises(ToolkitError):
        par.coalgebra_number(diamond, "modal")


def test_modal_kappa_matches_depth_on_random_trees():
    rng = random.Random(8)
    for _ in range(40):
        a = random_tree_pointed(rng, rng.randint(1, 6), labels=("R", "Q"))
        res = par.coalgebra_number(a, "modal")
        ok, why = par.check_coalgebra(res.coalgebra)
        assert ok, why
        assert res.kappa == max(1, modal_depth(a))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_modal_kappa_exactly_on_synchronization_trees(data):
    """On random pointed structures with two labels, the modal coalgebra
    number exists exactly when the reachable part is a tree that reaches
    every element, and is then the tree's depth (at least 1)."""
    names = NAMES[:data.draw(st.integers(1, 5))]
    edges = data.draw(st.sets(st.tuples(st.sampled_from("RT"), st.sampled_from(names),
                                        st.sampled_from(names)), max_size=7))
    rels = {label: [(u, v) for lab, u, v in edges if lab == label] for label in "RT"}
    a = S((("R", 2), ("T", 2)), names, rels, point=data.draw(st.sampled_from(names)))
    if is_synchronization_tree(a):
        res = par.coalgebra_number(a, "modal")
        assert res.kappa == max(1, modal_depth(a))
        ok, why = par.check_coalgebra(res.coalgebra)
        assert ok, why
    else:
        with pytest.raises(ToolkitError):
            par.coalgebra_number(a, "modal")


def test_every_search_witness_passes_check_coalgebra():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 4))
        a = graph_structure(g)
        for comonad in ("ef", "pebble"):
            res = par.coalgebra_number(a, comonad)
            ok, why = par.check_coalgebra(res.coalgebra)
            assert ok, why


def test_pfc_to_td_width_bound_general():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4))
        res = par.coalgebra_number(graph_structure(g), "pebble")
        td = par.pfc_to_tree_decomposition(res.pfc)
        assert par.is_tree_decomposition(td, g)
        assert td.width() <= res.kappa - 1
        back = tree_decomposition_to_pfc(td, res.kappa, g)
        assert par.is_pebble_forest_cover(back, g, res.kappa)
        assert max(back.pebbles.values(), default=1) <= res.kappa
