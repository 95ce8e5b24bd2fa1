import random

import pytest

from gamecomonads import logic
from gamecomonads.errors import ToolkitError, UnboundVariableError
from gamecomonads.structures import Vocabulary, check_hom

from helpers import (S, VOCAB_R, VOCAB_RS, is_existential_positive, naive_eval,
                     quantifier_rank, random_structure)

L = logic
VR = Vocabulary(VOCAB_R)
VRS = Vocabulary(VOCAB_RS)


def test_quantifier_rank():
    assert quantifier_rank(L.parse_formula("R(x,y)")) == 0
    assert quantifier_rank(L.parse_formula("E x . E y . R(x,y)")) == 2
    assert quantifier_rank(L.parse_formula("E x . (R(x,x) & A y . S(y))")) == 2
    assert quantifier_rank(L.parse_formula("E>=2 x . R(x,x)")) == 1


def test_existential_positive_predicate():
    assert is_existential_positive(L.parse_formula("E x . R(x,x)"))
    assert not is_existential_positive(L.parse_formula("~R(x,x)"))
    assert not is_existential_positive(L.parse_formula("A x . R(x,x)"))
    assert not is_existential_positive(L.parse_formula("E>=2 x . R(x,x)"))
    assert is_existential_positive(L.parse_formula("x = y"))
    assert is_existential_positive(L.parse_formula("T"))
    assert not is_existential_positive(L.parse_formula("F"))


def test_eval_basics():
    a = S(VOCAB_R, ["a", "b"], {"R": [("a", "b")]})
    assert L.evaluate(a, L.parse_formula("E x . E y . R(x,y)"))
    assert not L.evaluate(a, L.parse_formula("E>=2 x . E y . R(x,y)"))
    assert L.evaluate(a, L.parse_formula("E<=1 x . E y . R(x,y)"))


def test_eval_empty_universe():
    a = S(VOCAB_R, [])
    assert L.evaluate(a, L.parse_formula("A x . F"))
    assert not L.evaluate(a, L.parse_formula("E x . T"))


def test_eval_unbound_variable():
    a = S(VOCAB_R, ["a"], {})
    with pytest.raises(UnboundVariableError):
        L.evaluate(a, L.parse_formula("R(x,x)"))


def test_eval_env_outside_universe():
    a = S(VOCAB_R, ["a"], {})
    with pytest.raises(ToolkitError):
        L.evaluate(a, L.parse_formula("R(x,x)"), {"x": "zz"})


def test_parse_format_roundtrip():
    texts = [
        "E x . R(x,x)",
        "A x . (R(x,x) -> E y . R(x,y))",
        "E>=2 x . (S(x) | ~R(x,x))",
        "E<=3 x . x = x",
        "(T & F) -> T",
        "~(E x . S(x))",
    ]
    for text in texts:
        phi = L.parse_formula(text)
        assert L.parse_formula(L.format_formula(phi)) == phi


def test_parse_precedence():
    phi = L.parse_formula("S(x) & S(y) | S(z)")
    assert isinstance(phi, L.Or) and isinstance(phi.left, L.And)
    phi2 = L.parse_formula("S(x) -> S(y) -> S(z)")
    assert isinstance(phi2, L.Implies) and isinstance(phi2.right, L.Implies)
    phi3 = L.parse_formula("E x . S(x) & R(x,x)")
    assert isinstance(phi3, L.Exists) and isinstance(phi3.body, L.And)


def test_sampler_deterministic_and_in_fragment():
    for fragment in ("ep", "full", "counting"):
        one = L.sample_formulas(VRS, 2, fragment, 50, seed=9)
        two = L.sample_formulas(VRS, 2, fragment, 50, seed=9)
        assert one == two
        other = L.sample_formulas(VRS, 2, fragment, 50, seed=10)
        assert one != other
        for phi in one:
            assert quantifier_rank(phi) <= 2
            assert not L.free_vars(phi)
            if fragment == "ep":
                assert is_existential_positive(phi)
                assert not _mentions_equality(phi)


def _mentions_equality(phi) -> bool:
    if isinstance(phi, L.Eq):
        return True
    kids = []
    if isinstance(phi, (L.And, L.Or, L.Implies)):
        kids = [phi.left, phi.right]
    elif isinstance(phi, L.Not):
        kids = [phi.body]
    elif isinstance(phi, (L.Exists, L.Forall, L.CountAtLeast, L.CountAtMost)):
        kids = [phi.body]
    return any(_mentions_equality(k) for k in kids)


def test_sampler_empty_count_and_rank_zero():
    assert L.sample_formulas(VR, 2, "ep", 0, seed=1) == []
    for phi in L.sample_formulas(VR, 0, "full", 20, seed=3):
        assert quantifier_rank(phi) == 0


def test_modal_fragment_shape():
    formulas = L.sample_formulas(VRS, 2, "modal", 40, seed=5)
    for phi in formulas:
        assert L.free_vars(phi) <= {L.MODAL_FREE_VAR}
        assert quantifier_rank(phi) <= 2


def test_eval_agrees_with_naive_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 500:
        a = random_structure(rng, rng.randint(1, 3), VOCAB_RS)
        phi = L.sample_formulas(VRS, 2, "counting", 1, seed=rng.randrange(10 ** 6))[0]
        assert L.evaluate(a, phi) == naive_eval(a, phi), L.format_formula(phi)
        checked += 1


def test_hom_preservation_of_ep_sentences():
    rng = random.Random(99)
    formulas = L.sample_formulas(VR, 2, "ep", 40, seed=17)
    done = 0
    while done < 200:
        a = random_structure(rng, rng.randint(1, 3))
        f = {e: rng.choice("xyz"[: rng.randint(1, 3)]) for e in a.universe}
        belems = sorted(set(f.values()))
        image = {"R": [(f[u], f[v]) for u, v in a.tuples("R")]}
        extra = [(u, v) for u in belems for v in belems if rng.random() < 0.2]
        b = S(VOCAB_R, belems, {"R": image["R"] + extra})
        assert check_hom(f, a, b)
        for phi in formulas:
            if L.evaluate(a, phi):
                assert L.evaluate(b, phi), L.format_formula(phi)
        done += 1
