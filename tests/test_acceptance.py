"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Ensembles are exhaustive at the stated small sizes and seeded-random above
them; every tolerance is exact (boolean or integer equality), so a criterion
passes only with zero disagreements.
"""

import random
from itertools import product

from gamecomonads import ef, equivalence as eq, logic, modal, parameters as par
from gamecomonads import pebbling as pb
from gamecomonads.structures import Structure, Vocabulary, find_hom

from helpers import (S, VOCAB_R, VOCAB_RS, all_forest_covers, all_graphs, all_pointed,
                     all_structures, all_structures_upto, bisim_oracle, clique_structure,
                     coalgebra_to_forest_cover, decide_both_ways, graph_structure,
                     min_pebble_forest_cover, path_structure, random_graph, theta_fixpoint)


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_comonad_laws():
    failures = []
    for vocab in (VOCAB_R, VOCAB_RS):
        pool = all_structures_upto(vocab, 3, include_empty=True)
        for a in pool:
            for k in (1, 2, 3):
                if not ef.check_ef_laws(a, k).ok:
                    failures.append(("ef", a, k))
        for a in all_pointed(pool):
            for k in (1, 2, 3):
                if not modal.check_modal_laws(a, k).ok:
                    failures.append(("modal", a, k))
        for a in all_structures_upto(vocab, 2, include_empty=True):
            for k in (1, 2, 3):
                for n in (1, 2, 3):
                    if not pb.check_pebble_laws(a, k, n).ok:
                        failures.append(("pebble", a, k, n))
    report(1, "comonad-law suite", not failures)


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_existential_triangle():
    vocab = Vocabulary(VOCAB_R)
    formulas = {k: logic.sample_formulas(vocab, k, "ep", 200, seed=100 + k)
                for k in (1, 2, 3)}
    disagreements = []
    counterexamples = []

    def check(a, b, k):
        decided = ef.decide_exist_ef(a, b, k).wins
        oracle = find_hom(ef.ef_structure(a, k), b) is not None
        if decided != oracle:
            disagreements.append((a, b, k))
        if decided:
            for phi in formulas[k]:
                if logic.evaluate(a, phi) and not logic.evaluate(b, phi):
                    counterexamples.append((a, b, k, logic.format_formula(phi)))

    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    for a in pool:
        for b in pool:
            for k in (1, 2, 3):
                check(a, b, k)
    rng = random.Random(202)
    three = all_structures(VOCAB_R, 3)
    for _ in range(100):
        a, b = rng.choice(three), rng.choice(three)
        for k in (1, 2, 3):
            check(a, b, k)
    report(2, "existential game triangle", not disagreements and not counterexamples)


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_treedepth_is_kappa():
    bad = []

    def check(g):
        a = graph_structure(g)
        if par.coalgebra_number(a, "ef").kappa != par.oracle_treedepth(g):
            bad.append(g)

    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            check(g)
    rng = random.Random(303)
    for _ in range(200):
        check(random_graph(rng, rng.randint(5, 6)))
    report(3, "tree-depth equals sequence-game coalgebra number", not bad)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_treewidth_is_kappa_minus_one():
    """The coalgebra number and the oracle share one elimination-order
    dynamic program, so the number is also checked against the exhaustive
    search over forest covers and their pebblings."""
    bad = []

    def check(g):
        a = graph_structure(g)
        kappa = par.coalgebra_number(a, "pebble").kappa
        exhaustive = max(1, max(min_pebble_forest_cover(g).pebbles.values(), default=0))
        if not kappa == exhaustive == par.oracle_treewidth(g) + 1:
            bad.append(g)

    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            check(g)
    rng = random.Random(404)
    for _ in range(100):
        check(random_graph(rng, 5))
    report(4, "tree-width equals pebble coalgebra number minus one", not bad)


# -- 5 -----------------------------------------------------------------------

def _named_three_element_cases():
    cyc3 = S(VOCAB_R, list("abc"), {"R": [("a", "b"), ("b", "c"), ("c", "a")]})
    rev3 = S(VOCAB_R, list("xyz"), {"R": [("y", "x"), ("z", "y"), ("x", "z")]})
    chain3 = S(VOCAB_R, list("abc"), {"R": [("a", "b"), ("b", "c")]})
    edgeless3 = S(VOCAB_R, list("abc"), {})
    k3 = clique_structure(3)
    p3 = path_structure(3)
    loop_iso = S(VOCAB_R, list("abc"), {"R": [("a", "a")]})
    twocyc_iso = S(VOCAB_R, list("abc"), {"R": [("a", "b"), ("b", "a")]})
    return [
        (k3, k3, 1), (k3, k3, 2), (cyc3, rev3, 2), (chain3, cyc3, 2),
        (p3, p3, 2), (p3, k3, 2), (edgeless3, edgeless3, 2),
        (loop_iso, twocyc_iso, 2), (cyc3, chain3, 1), (twocyc_iso, edgeless3, 2),
    ]


def test_criterion_5_fixpoint_agrees_with_game():
    bad = []
    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    for a in pool:
        for b in pool:
            for k in (1, 2):
                if (theta_fixpoint(a, b, k, "ef").nonempty
                        != eq.solve_back_forth(a, b, k, "ef").wins):
                    bad.append((a, b, k))
    for a, b, k in _named_three_element_cases():
        if (theta_fixpoint(a, b, k, "ef").nonempty
                != eq.solve_back_forth(a, b, k, "ef").wins):
            bad.append((a, b, k))
    report(5, "fixpoint/game agreement", not bad)


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_inclusions_and_monotonicity():
    bad = []
    pool = all_structures_upto(VOCAB_R, 2, include_empty=True)
    for a in pool:
        for b in pool:
            results = {}
            for k in (1, 2, 3):
                iso = eq.decide_cokleisli_iso(a, b, k, "ef").wins
                bf = eq.solve_back_forth(a, b, k, "ef").wins
                both = decide_both_ways(a, b, k, "ef")
                pbf = eq.solve_back_forth(a, b, k, "pebble").wins
                pboth = decide_both_ways(a, b, k, "pebble")
                if iso and not bf:
                    bad.append(("iso=>bf", a, b, k))
                if bf and not both:
                    bad.append(("bf=>both", a, b, k))
                if pbf and not pboth:
                    bad.append(("pebble bf=>both", a, b, k))
                results[k] = (iso, bf, both, pbf, pboth)
            for k in (1, 2):
                for i in range(5):
                    if results[k + 1][i] and not results[k][i]:
                        bad.append(("monotone", i, a, b, k))
    # modal inclusions on the pointed pool
    ppool = all_pointed(all_structures_upto(VOCAB_R, 2))
    for a in ppool:
        for b in ppool:
            prev = None
            for k in (1, 2, 3):
                iso = eq.decide_cokleisli_iso(a, b, k, "modal").wins
                bf = eq.solve_back_forth(a, b, k, "modal").wins
                both = decide_both_ways(a, b, k, "modal")
                if iso and not bf:
                    bad.append(("modal iso=>bf", a, b, k))
                if bf and not both:
                    bad.append(("modal bf=>both", a, b, k))
                now = (iso, bf, both)
                if prev is not None:
                    for i in range(3):
                        if now[i] and not prev[i]:
                            bad.append(("modal monotone", i, a, b, k))
                prev = now
    report(6, "equivalence inclusion chain and k-monotonicity", not bad)


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_modal_agreement():
    bad = []

    def check(a, b, k):
        if eq.solve_back_forth(a, b, k, "modal").wins != bisim_oracle(a, b, k):
            bad.append(("game", a, b, k))

    # exhaustive: point pairs within every 3-state single-label structure
    for base in all_structures(VOCAB_R, 3):
        for p in base.universe:
            for q in base.universe:
                a = Structure(base.vocab, base.universe, base.interp, p)
                b = Structure(base.vocab, base.universe, base.interp, q)
                for k in (1, 2, 3):
                    check(a, b, k)
    # seeded cross-structure sample over <= 3 states, <= 2 labels
    rng = random.Random(707)
    vocab2 = (("R", 2), ("Q", 2))
    def rand_pointed():
        size = rng.randint(1, 3)
        names = [f"s{i}" for i in range(size)]
        interp = {}
        for name, _ in vocab2:
            interp[name] = [(u, v) for u in names for v in names if rng.random() < 0.3]
        return S(vocab2, names, interp, point=names[rng.randrange(size)])
    for _ in range(500):
        a, b = rand_pointed(), rand_pointed()
        for k in (1, 2, 3):
            check(a, b, k)
    report(7, "bisimulation game agrees with partition refinement", not bad)


# -- 8 -----------------------------------------------------------------------

def _decomposition_fault(td, g, kk):
    """Why the decomposition `td` of a pebble forest cover of `g` with kk
    pebbles breaks the bounds, or None: it must be a tree decomposition of
    width < kk that turns back into a pebble forest cover with at most kk
    pebbles."""
    if not par.is_tree_decomposition(td, g) or td.width() > kk - 1:
        return "pfc->td bound"
    back = par.tree_decomposition_to_pfc(td, kk, g)
    if not par.is_pebble_forest_cover(back, g, kk) or max(back.pebbles.values()) > kk:
        return "td->pfc bound"
    return None


def test_criterion_8_bijection_roundtrips():
    """Every forest cover of every graph on at most four vertices round-trips
    through its coalgebra, and every valid pebbling of it through its tree
    decomposition within the bounds.  Many pebblings give one decomposition;
    the checks on a decomposition are pure, so each is judged once per
    (decomposition, pebble count)."""
    bad = []
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            a = graph_structure(g)
            faults: dict = {}  # (nodes, parents, bags, kk) -> `_decomposition_fault`
            for cover in all_forest_covers(g):
                k = cover.height()
                c = par.forest_cover_to_coalgebra(cover, k, a)
                ok, _ = par.check_coalgebra(c)
                if not ok or coalgebra_to_forest_cover(c) != cover:
                    bad.append(("cover roundtrip", g, cover))
                    continue
                for assignment in product(range(1, n + 1), repeat=n):
                    pfc = par.PebbleForestCover(
                        cover, dict(zip(g.vertices, assignment)))
                    kk = max(assignment)
                    if not par.is_pebble_forest_cover(pfc, g, kk):
                        continue
                    td = par.pfc_to_tree_decomposition(pfc)
                    key = td.nodes, tuple(td.parent.items()), tuple(td.bags.items()), kk
                    if key not in faults:
                        faults[key] = _decomposition_fault(td, g, kk)
                    if faults[key] is not None:
                        bad.append((faults[key], g, pfc))
    report(8, "bijection round-trips within bounds", not bad)


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_certificates_reverify(tmp_path):
    from gamecomonads import cli

    def run(argv):
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    texts = {
        "edge": "vocab R 2\nelem a\nelem b\nrel R a b\nrel R b a\n",
        "twopts": "vocab R 2\nelem x\nelem y\n",
        "k3": ("vocab R 2\nelem u\nelem v\nelem w\nrel R u v\nrel R v u\n"
               "rel R v w\nrel R w v\nrel R u w\nrel R w u\n"),
        "loop": "vocab R 2\nelem a\nrel R a a\n",
        "chain": "vocab R 2\nelem a\nelem b\nelem c\nrel R a b\nrel R b c\nstart a\n",
        "cycle": "vocab R 2\nelem x\nelem y\nrel R x y\nrel R y x\nstart x\n",
        "p4": ("vocab R 2\nelem w\nelem x\nelem y\nelem z\nrel R w x\nrel R x w\n"
               "rel R x y\nrel R y x\nrel R y z\nrel R z y\n"),
    }
    paths = {}
    for name, text in texts.items():
        p = tmp_path / f"{name}.str"
        p.write_text(text)
        paths[name] = str(p)

    emitted = []
    jobs = []
    for mode in ("exists", "both", "backforth"):
        jobs += [("ef", mode, "edge", "edge"), ("ef", mode, "edge", "twopts"),
                 ("ef", mode, "loop", "edge"), ("pebble", mode, "k3", "edge"),
                 ("pebble", mode, "edge", "edge"), ("modal", mode, "chain", "cycle"),
                 ("modal", mode, "cycle", "chain")]
    jobs += [("ef", "iso", "edge", "edge"), ("modal", "iso", "chain", "chain")]
    for game, mode, a, b in jobs:
        cert = tmp_path / f"{game}-{mode}-{a}-{b}.cert"
        code, out = run(["equiv", "--game", game, "--mode", mode, "-k", "2",
                         "--certificate", str(cert), paths[a], paths[b]])
        assert code in (0, 1)
        if "certificate: none" not in out:
            emitted.append((str(cert), paths[a], paths[b]))
    for comonad, target in [("ef", "p4"), ("ef", "k3"), ("pebble", "k3"),
                            ("pebble", "p4"), ("modal", "chain")]:
        cert = tmp_path / f"param-{comonad}-{target}.cert"
        code, _ = run(["param", "--comonad", comonad, "--certificate", str(cert),
                       paths[target]])
        assert code == 0
        emitted.append((str(cert), paths[target], None))
    cert = tmp_path / "hom.cert"
    code, _ = run(["hom", paths["edge"], paths["k3"], "--certificate", str(cert)])
    assert code == 0
    emitted.append((str(cert), paths["edge"], paths["k3"]))

    failures = []
    for cert, a, b in emitted:
        argv = ["verify", "--certificate", cert, a] + ([b] if b else [])
        code, out = run(argv)
        if code != 0 or "result: true" not in out:
            failures.append((cert, out))
    report(9, "all emitted certificates re-verify", not failures and emitted)
