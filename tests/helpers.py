"""Shared test fixtures: structure builders, exhaustive ensembles, an
independent set-based formula evaluator used as the evaluation oracle, and a
full-rescan reference for the two pebble games."""

from __future__ import annotations

import random
from itertools import combinations, product

from gamecomonads import equivalence, logic, pebbling
from gamecomonads.structures import Graph, Structure, is_partial_hom, is_partial_iso

VOCAB_R = (("R", 2),)
VOCAB_RS = (("R", 2), ("S", 1))

NAMES = ("a", "b", "c", "d", "e", "f")


def S(symbols, elems, rels=None, point=None) -> Structure:
    return Structure.build(list(symbols), list(elems), rels or {}, point)


def sym_edges(pairs):
    out = []
    for u, v in pairs:
        out.append((u, v))
        out.append((v, u))
    return out


def path_structure(n, names=None) -> Structure:
    names = list(names or NAMES[:n])
    return S(VOCAB_R, names, {"R": sym_edges((names[i], names[i + 1]) for i in range(n - 1))})


def clique_structure(n) -> Structure:
    names = list(NAMES[:n])
    return S(VOCAB_R, names, {"R": sym_edges(combinations(names, 2))})


def all_structures(vocab, size) -> list[Structure]:
    """Every structure on `size` named elements over the vocabulary."""
    names = NAMES[:size]
    per_symbol = []
    for name, arity in vocab:
        cells = list(product(names, repeat=arity))
        per_symbol.append((name, cells))
    out = []
    masks = [range(2 ** len(cells)) for _, cells in per_symbol]
    for combo in product(*masks):
        interp = {}
        for (name, cells), mask in zip(per_symbol, combo):
            interp[name] = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        out.append(S(vocab, names, interp))
    return out


def all_structures_upto(vocab, max_size, include_empty=False) -> list[Structure]:
    out = [S(vocab, [])] if include_empty else []
    for size in range(1, max_size + 1):
        out.extend(all_structures(vocab, size))
    return out


def all_pointed(structures) -> list[Structure]:
    out = []
    for a in structures:
        for p in a.universe:
            out.append(Structure(a.vocab, a.universe, a.interp, p))
    return out


def all_graphs(n) -> list[Graph]:
    names = NAMES[:n]
    pairs = list(combinations(names, 2))
    out = []
    for mask in range(2 ** len(pairs)):
        out.append(Graph.build(names, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
    return out


def graph_structure(g: Graph) -> Structure:
    return S(VOCAB_R, g.vertices, {"R": sym_edges(g.edges)})


def random_graph(rng: random.Random, n: int) -> Graph:
    names = NAMES[:n]
    edges = [p for p in combinations(names, 2) if rng.random() < 0.5]
    return Graph.build(names, edges)


def random_structure(rng: random.Random, size: int, vocab=VOCAB_R) -> Structure:
    names = NAMES[:size]
    interp = {}
    for name, arity in vocab:
        cells = list(product(names, repeat=arity))
        interp[name] = [c for c in cells if rng.random() < 0.4]
    return S(vocab, names, interp)


def random_tree_pointed(rng: random.Random, size: int, labels=("R",)) -> Structure:
    """A random labelled tree rooted at its point (for modal coalgebras)."""
    names = list(NAMES[:size])
    rels = {lab: [] for lab in labels}
    for i in range(1, size):
        parent = names[rng.randrange(i)]
        rels[labels[rng.randrange(len(labels))]].append((parent, names[i]))
    vocab = tuple((lab, 2) for lab in labels)
    return S(vocab, names, rels, point=names[0])


# ---------------------------------------------------------------------------
# Independent evaluation oracle: set-of-assignments semantics


def naive_eval(a: Structure, phi, env=None) -> bool:
    """Satisfaction via satisfying-assignment sets, no shared code with the
    recursive evaluator."""
    fv = sorted(logic.free_vars(phi))
    sat = _sat(a, phi, tuple(fv))
    key = tuple((env or {})[v] for v in fv)
    return key in sat


def _sat(a: Structure, phi, varlist: tuple) -> set:
    univ = list(a.universe)
    everything = set(product(univ, repeat=len(varlist)))
    pos = {v: i for i, v in enumerate(varlist)}
    L = logic
    if isinstance(phi, L.Top):
        return everything
    if isinstance(phi, L.Bottom):
        return set()
    if isinstance(phi, L.Rel):
        rel = a.tuples(phi.name)
        return {t for t in everything if tuple(t[pos[v]] for v in phi.args) in rel}
    if isinstance(phi, L.Eq):
        return {t for t in everything if t[pos[phi.left]] == t[pos[phi.right]]}
    if isinstance(phi, L.Not):
        return everything - _sat(a, phi.body, varlist)
    if isinstance(phi, L.And):
        return _sat(a, phi.left, varlist) & _sat(a, phi.right, varlist)
    if isinstance(phi, L.Or):
        return _sat(a, phi.left, varlist) | _sat(a, phi.right, varlist)
    if isinstance(phi, L.Implies):
        return (everything - _sat(a, phi.left, varlist)) | _sat(a, phi.right, varlist)
    if isinstance(phi, (L.Exists, L.Forall, L.CountAtLeast, L.CountAtMost)):
        inner_vars = tuple(v for v in varlist if v != phi.var) + (phi.var,)
        inner = _sat(a, phi.body, inner_vars)
        out = set()
        for t in everything:
            witnesses = sum(
                tuple(t[pos[v]] for v in inner_vars[:-1]) + (c,) in inner for c in univ)
            if isinstance(phi, L.Exists):
                keep = witnesses >= 1
            elif isinstance(phi, L.Forall):
                keep = witnesses == len(univ)
            elif isinstance(phi, L.CountAtLeast):
                keep = witnesses >= phi.bound
            else:
                keep = witnesses <= phi.bound
            if keep:
                out.add(t)
        return out
    raise AssertionError(f"unknown node {phi!r}")


# ---------------------------------------------------------------------------
# Reference pebble solvers: exhaustive initial families and a fixpoint that
# rebuilds every reply position of every move on each pass


def rescan_to_fixpoint(positions, obligations):
    """`obligations(pos)` yields (move, replies), with replies an iterable of
    (reply, next position); a pass deletes each position whose first move has
    no next position alive at the start of the pass."""
    alive = set(positions)
    trace = {}
    while True:
        removed = {}
        for pos in alive:
            for move, replies in obligations(pos):
                if alive.isdisjoint(nxt for _, nxt in replies):
                    removed[pos] = move
                    break
        if not removed:
            return alive, trace
        alive.difference_update(removed)
        trace.update(removed)


def _refute(trace, root, obligations, node):
    def refute(pos):
        move = trace[pos]
        replies = next(pairs for m, pairs in obligations(pos) if m == move)
        return node(pos, move, tuple((reply, refute(nxt) if nxt in trace else None)
                                     for reply, nxt in replies))

    return refute(root)


def reference_exist_pebble(a: Structure, b: Structure, k: int) -> pebbling.PebbleResult:
    family = set()
    for size in range(min(k, len(a.universe)) + 1):
        for dom in combinations(a.universe, size):
            for img in product(b.universe, repeat=size):
                part = frozenset(zip(dom, img))
                if is_partial_hom(part, a, b):
                    family.add(part)

    def obligations(part):
        for pair in sorted(part, key=lambda xy: (a.index[xy[0]], b.index[xy[1]])):
            yield ("drop", pair), ((None, part - {pair}),)
        if len(part) < k:
            dom = {x for x, _ in part}
            for x in a.universe:
                if x not in dom:
                    yield ("place", x), ((y, part | {(x, y)}) for y in b.universe)

    def node(part, move, branches):
        if move[0] == "drop":
            return pebbling.SpoilerPosition(part, drop=move[1], child=branches[0][1])
        return pebbling.SpoilerPosition(part, place=move[1], branches=branches)

    family, trace = rescan_to_fixpoint(family, obligations)
    if family:
        return pebbling.PebbleResult(True, family=pebbling.StrategyFamily(k, frozenset(family)))
    return pebbling.PebbleResult(False, refutation=_refute(trace, frozenset(), obligations, node))


def reference_pebble_backforth(a: Structure, b: Structure, k: int) -> equivalence.BackForthResult:
    good = set()
    for size in range(k + 1):
        for idxs in combinations(range(1, k + 1), size):
            for xs in product(a.universe, repeat=size):
                for ys in product(b.universe, repeat=size):
                    if is_partial_iso(list(zip(xs, ys)), a, b):
                        good.add(frozenset(zip(idxs, xs, ys)))

    def obligations(pos):
        for i in range(1, k + 1):
            rest = frozenset(tr for tr in pos if tr[0] != i)
            for e in a.universe:
                yield (i, "A", e), ((y, rest | {(i, e, y)}) for y in b.universe)
            for e in b.universe:
                yield (i, "B", e), ((x, rest | {(i, x, e)}) for x in a.universe)

    safe, trace = rescan_to_fixpoint(good, obligations)
    if frozenset() in safe:
        return equivalence.BackForthResult(True, safe_positions=frozenset(safe))
    return equivalence.BackForthResult(False, pebble_spoiler=_refute(
        trace, frozenset(), obligations,
        lambda pos, move, branches: equivalence.PebbleBFNode(pos, *move, branches)))
