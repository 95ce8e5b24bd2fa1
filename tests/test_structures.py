import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecomonads.errors import StructureParseError, ToolkitError, VocabularyMismatchError
from gamecomonads.structures import (Graph, Structure, check_hom, find_hom, gaifman,
                                     is_partial_hom, is_partial_iso, parse_structure,
                                     serialize_structure)

from helpers import S, VOCAB_R, all_structures_upto


def test_parse_basic():
    a = parse_structure("vocab R 2\nelem a\nelem b\nrel R a b")
    assert len(a.universe) == 2
    assert a.tuples("R") == frozenset({("a", "b")})


def test_parse_arity_mismatch():
    with pytest.raises(StructureParseError) as exc:
        parse_structure("vocab R 2\nelem a\nrel R a a a")
    assert "line 3" in str(exc.value)


def test_parse_empty_text():
    a = parse_structure("")
    assert a.universe == () and a.vocab.symbols == ()


def test_parse_errors_carry_line_numbers():
    cases = [
        ("vocab R 2\nvocab R 1", "duplicate symbol"),
        ("elem a\nelem a", "duplicate element"),
        ("vocab R 1\nrel R zz", "unknown element"),
        ("rel R", "unknown"),
        ("vocab R 0", "arity"),
        ("frob x", "unknown directive"),
        ("start a", "unknown element"),
    ]
    for text, needle in cases:
        with pytest.raises(StructureParseError) as exc:
            parse_structure(text)
        assert needle in str(exc.value)


def test_parse_comments_and_point():
    a = parse_structure("# header\nvocab R 2 # symbol\nelem a\nelem b\nrel R a b\nstart b\n")
    assert a.point == "b"


def test_roundtrip_parse_serialize():
    text = "vocab R 2\nvocab S 1\nelem a\nelem b\nrel R b a\nrel S a\nstart a\n"
    a = parse_structure(text)
    assert parse_structure(serialize_structure(a)) == a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random_structures(data):
    size = data.draw(st.integers(0, 4))
    names = [f"e{i}" for i in range(size)]
    tuples = data.draw(st.sets(st.tuples(st.sampled_from(names or ["e0"]),
                                         st.sampled_from(names or ["e0"])),
                               max_size=8)) if size else set()
    a = S(VOCAB_R, names, {"R": list(tuples)})
    assert parse_structure(serialize_structure(a)) == a


def test_check_hom_identity():
    for a in all_structures_upto(VOCAB_R, 2, include_empty=True):
        assert check_hom({e: e for e in a.universe}, a, a)


def test_check_hom_constant_into_loop():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    b = S(VOCAB_R, ["c"], {"R": [("c", "c")]})
    assert check_hom({"a": "c", "b": "c"}, a, b)


def test_check_hom_nothing_to_preserve_into():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    b = S(VOCAB_R, ["x", "y"], {})
    for fx, fy in product("xy", repeat=2):
        assert not check_hom({"a": fx, "b": fy}, a, b)


def test_check_hom_rejects_partial_or_stray_maps():
    a = S(VOCAB_R, ["a", "b"], {})
    b = S(VOCAB_R, ["x"], {})
    with pytest.raises(ToolkitError):
        check_hom({"a": "x"}, a, b)
    with pytest.raises(ToolkitError):
        check_hom({"a": "x", "b": "zz"}, a, b)


def test_check_hom_point_preservation():
    a = S(VOCAB_R, ["a", "b"], {}, point="a")
    b = S(VOCAB_R, ["x", "y"], {}, point="y")
    assert not check_hom({"a": "x", "b": "x"}, a, b)
    assert check_hom({"a": "y", "b": "x"}, a, b)


def test_find_hom_path_into_two_cycle():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})
    hom = find_hom(a, b)
    assert hom is not None and hom.mapping == {"a": "x", "b": "y"}


def test_find_hom_loop_into_two_cycle_absent():
    a = S(VOCAB_R, ["a"], {"R": [("a", "a")]})
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y"), ("y", "x")]})
    assert find_hom(a, b) is None


def test_find_hom_identity_case():
    for a in all_structures_upto(VOCAB_R, 2):
        hom = find_hom(a, a)
        assert hom is not None and check_hom(hom.mapping, a, a)


def test_find_hom_vocabulary_mismatch():
    a = S(VOCAB_R, ["a"], {})
    b = S((("Q", 2),), ["x"], {})
    with pytest.raises(VocabularyMismatchError):
        find_hom(a, b)


def test_find_hom_agrees_with_exhaustive_enumeration():
    from helpers import random_structure
    rng = random.Random(7)
    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    pairs += [(random_structure(rng, rng.randint(1, 4)),
               random_structure(rng, rng.randint(1, 4))) for _ in range(60)]
    for a, b in pairs:
        exists = not a.universe or (bool(b.universe) and any(
            check_hom(dict(zip(a.universe, values)), a, b)
            for values in product(b.universe, repeat=len(a.universe))))
        got = find_hom(a, b)
        assert (got is not None) == exists
        if got is not None:
            assert check_hom(got.mapping, a, b)


def test_hom_into_empty_only_from_empty():
    empty = S(VOCAB_R, [])
    a = S(VOCAB_R, ["a"], {})
    assert find_hom(empty, empty) is not None
    assert find_hom(a, empty) is None
    assert find_hom(empty, a) is not None


def test_partial_maps_vacuous():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y")]})
    assert is_partial_hom([], a, b)
    assert is_partial_iso([], a, b)


def test_partial_maps_single_edge():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y")]})
    good = [("a", "x"), ("b", "y")]
    assert is_partial_hom(good, a, b) and is_partial_iso(good, a, b)
    bad = [("a", "y"), ("b", "x")]
    assert not is_partial_hom(bad, a, b)


def test_partial_iso_requires_reflection():
    a = S(VOCAB_R, ["a", "b"], {})
    b = S(VOCAB_R, ["x", "y"], {"R": [("x", "y")]})
    p = [("a", "x"), ("b", "y")]
    assert is_partial_hom(p, a, b)
    assert not is_partial_iso(p, a, b)


def test_partial_maps_functionality_and_injectivity():
    a = S(VOCAB_R, ["a", "b"], {})
    b = S(VOCAB_R, ["x", "y"], {})
    assert not is_partial_hom([("a", "x"), ("a", "y")], a, b)
    assert not is_partial_iso([("a", "x"), ("b", "x")], a, b)


def test_gaifman_single_tuple():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    assert gaifman(a).edges == frozenset({("a", "b")})


def test_gaifman_ternary_triangle():
    a = S((("T", 3),), ["a", "b", "c"], {"T": [("a", "b", "c")]})
    g = gaifman(a)
    assert g.edges == frozenset({("a", "b"), ("a", "c"), ("b", "c")})


def test_gaifman_loop_is_edgeless():
    a = S(VOCAB_R, ["a"], {"R": [("a", "a")]})
    assert gaifman(a).edges == frozenset()


def test_gaifman_always_simple():
    for a in all_structures_upto(VOCAB_R, 3):
        g = gaifman(a)
        idx = g.index
        for u, v in g.edges:
            assert u != v
            assert g.adjacency[idx[u]] >> idx[v] & 1 and g.adjacency[idx[v]] >> idx[u] & 1


def test_graph_rejects_self_loop():
    with pytest.raises(ToolkitError):
        Graph(("a",), frozenset({("a", "a")}))
