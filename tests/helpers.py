"""Shared test fixtures and the oracles that only tests call.

- Structure builders and exhaustive ensembles.
- Morphisms both ways, and coKleisli counits, coextension (`star`) and
  composition.
- Liftings built in full by filtering, the audit of coKleisli isomorphism
  pairs on them, and the table search for coKleisli isomorphism.
- The strategy-set fixpoint (`theta_fixpoint`): the greatest fixpoint of
  the two inversion operators on sets of strategy tables, an independent
  route to the back-and-forth verdict.
- An independent set-based formula evaluator, and the quantifier-rank and
  existential-positive checks of the samplers' output.
- A full-rescan reference for the two pebble games (the back-and-forth one
  on pebble-indexed placements), and a partition-refinement check of
  depth-k bisimilarity.
- Exhaustive references for the coalgebra numbers: every forest cover with
  its minimum pebbling, the unpruned tree-width dynamic program (the
  independent check of tree-width), a coalgebra's forest cover, and the
  synchronization tree shape and depth.
- The bijection from tree decompositions of width < k to k-pebble forest
  covers (`tree_decomposition_to_pfc`), and the tree decomposition of an
  elimination order (`_elimination_decomposition`): their round trip is the
  reference for the pebble coalgebra number's cover."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from dataclasses import dataclass
from typing import Iterator, Optional

from gamecomonads import equivalence, logic, modal, pebbling
from gamecomonads import parameters as par
from gamecomonads.errors import (CapExceededError, CycleError, ToolkitError,
                                 VocabularyMismatchError)
from gamecomonads.game import DEFAULT_PLAY_CAP, CoKleisli, Game, play_universe
from gamecomonads.parameters import (ForestCover, PebbleForestCover, TreeDecomposition, _bits,
                                     _eliminate, is_pebble_forest_cover, is_tree_decomposition)
from gamecomonads.structures import (Elem, Graph, Structure, check_hom, is_partial_hom,
                                     is_partial_iso)

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
# Morphisms both ways, and the coKleisli category's identities and composition


def decide_both_ways(a: Structure, b: Structure, k: int, comonad: str) -> bool:
    """Conjunction of the two existential decisions."""
    g = equivalence.game(comonad)
    return (g.decide(a, b, k, DEFAULT_PLAY_CAP).wins
            and g.decide(b, a, k, DEFAULT_PLAY_CAP).wins)


def counit_cokleisli(game: Game, a: Structure, k: int) -> CoKleisli:
    return CoKleisli(game, k, a, a, {s: game.last(s) for s in play_universe(game, a, k)})


def star(f: CoKleisli, s: tuple) -> tuple:
    """The coextension f*(s) of the coKleisli morphism `f` at the play `s`."""
    return f.game.coextend(f.table.__getitem__, s)


def cokleisli_compose(g: CoKleisli, f: CoKleisli) -> CoKleisli:
    """(g after f)(s) = g(f*(s))."""
    if g.game is not f.game or f.target.universe != g.source.universe or f.k != g.k:
        raise ToolkitError("coKleisli composition shape mismatch")
    table = {s: g.table[star(f, s)] for s in play_universe(f.game, f.source, f.k)}
    return CoKleisli(f.game, f.k, f.source, g.target, table)


def lifting(game: Game, a: Structure, k: int) -> Structure:
    """The lifted structure of `a` up to round k of the sequence or modal
    game, built in full and apart from `Game.lifted_at`: every tuple of
    prefixes of a play that contains the play, kept when its last elements
    form a tuple of `a`; in the modal game a binary symbol relates a path only
    to its one-step extensions with that label."""
    plays = play_universe(game, a, k, DEFAULT_PLAY_CAP)
    interp = {name: set() for name in a.vocab.names}
    for top in plays:
        for name, arity in a.vocab.symbols:
            for combo in product(game.prefixes(top), repeat=arity):
                if game.name == "modal" and arity == 2:
                    related = combo[1][:-2] == combo[0] and combo[1][-2] == name
                else:
                    related = tuple(map(game.last, combo)) in a.tuples(name)
                if top in combo and related:
                    interp[name].add(combo)
    return Structure(a.vocab, tuple(plays), {n: frozenset(r) for n, r in interp.items()},
                     game.root(a) if game.name == "modal" else None)


def materialised_iso_audit(forward, backward, a: Structure, b: Structure, k: int,
                           comonad: str) -> tuple[bool, str]:
    """The oracle for `equivalence.audit_iso_pair`: both liftings built in
    full, both tables checked by `check_hom`, and both composites' whole
    coextensions compared with every play."""
    g = equivalence.game(comonad)
    lifted_a, lifted_b = lifting(g, a, k), lifting(g, b, k)
    try:
        if not check_hom(forward, lifted_a, b):
            return False, "forward table is not a homomorphism"
        if not check_hom(backward, lifted_b, a):
            return False, "backward table is not a homomorphism"
    except ToolkitError as exc:
        return False, str(exc)
    for s in lifted_a.universe:
        if g.coextend(backward.__getitem__, g.coextend(forward.__getitem__, s)) != s:
            return False, f"backward after forward is not the identity at {s!r}"
    for t in lifted_b.universe:
        if g.coextend(forward.__getitem__, g.coextend(backward.__getitem__, t)) != t:
            return False, f"forward after backward is not the identity at {t!r}"
    return True, "ok"


def search_cokleisli_iso(a: Structure, b: Structure, k: int,
                         comonad: str) -> equivalence.IsoResult:
    """The small-size oracle for coKleisli isomorphism: a depth-first search
    over forward tables, assigning the plays of `a` in universe order and the
    elements of `b` in declaration order, pruned by injectivity of the
    coextension and by every lifted tuple whose longest play is assigned;
    each full table's inverse is then checked as a homomorphism back.  The
    first pair found is returned."""
    g = equivalence.game(comonad)
    lifted_a, lifted_b = lifting(g, a, k), lifting(g, b, k)
    plays_a, plays_b = list(lifted_a.universe), list(lifted_b.universe)
    if len(plays_a) != len(plays_b):
        return equivalence.IsoResult(False)
    order = {s: i for i, s in enumerate(plays_a)}
    constraints: dict = {s: [] for s in plays_a}  # lifted tuples by their longest play
    for name, _ in a.vocab.symbols:
        for combo in lifted_a.tuples(name):
            constraints[max(combo, key=order.__getitem__)].append((name, combo))
    free_b = set(plays_b)  # the plays of `b` no coextension has taken yet
    f, fstar = {}, {}

    def search(i: int) -> Optional[equivalence.IsoResult]:
        if i == len(plays_a):
            back = {t: g.last(s) for s, t in fstar.items()}
            if not check_hom(back, lifted_b, a):
                return None
            return equivalence.IsoResult(True, dict(f), back)
        s = plays_a[i]
        for y in b.universe:
            st = g.coextend(lambda p: y if p == s else f[p], s)
            if st not in free_b:
                continue
            f[s], fstar[s] = y, st
            if all(tuple(f[c] for c in combo) in b.tuples(name)
                   for name, combo in constraints[s]):
                free_b.remove(st)
                found = search(i + 1)
                if found is not None:
                    return found
                free_b.add(st)
            del f[s], fstar[s]
        return None

    return search(0) or equivalence.IsoResult(False)


# ---------------------------------------------------------------------------
# Strategy-set fixpoint (greatest fixpoint of composing the two inversion
# operators on sets of winning-position-respecting tables)

DEFAULT_TABLE_CAP = 200_000


@dataclass(frozen=True)
class ThetaResult:
    nonempty: bool
    tables_ab: tuple  # surviving tables, each a dict play -> target element
    tables_ba: tuple
    iterations: int


def _enumerate_tables(a: Structure, b: Structure, k: int, g: Game,
                      cap: int) -> tuple[list, list]:
    """All tables f with (s, f*(s)) winning for every play s, found by DFS
    along the play forest in declaration order, pruning mid-branch since the
    winning condition is absorbing.  Every coextension must also be a play of
    `b` (a valid path, for modal tables).  Each table comes with its
    coextension, as the universe index of f*(s) for each play s in order."""
    plays = play_universe(g, a, k)
    index_b = {t: i for i, t in enumerate(play_universe(g, b, k))}

    tables: list[dict] = []
    stars: list[tuple] = []
    f: dict = {}
    fstar: dict = {}

    def dfs(i: int):
        if i == len(plays):
            tables.append(dict(f))
            stars.append(tuple(index_b[fstar[s]] for s in plays))
            if len(tables) > cap:
                raise CapExceededError(f"more than {cap} strategy tables; "
                                       "fall back to the game solver")
            return
        s = plays[i]
        for y in b.universe:
            f[s] = y  # the candidate reply, which the coextension reads
            st = g.coextend(f.__getitem__, s)
            if st in index_b and g.winning(s, st, a, b):
                fstar[s] = st
                dfs(i + 1)
        f.pop(s, None)

    dfs(0)
    return tables, stars


def _inversion(stars: list, others: list):
    """The inversion operator onto the tables with coextensions `stars` (play
    indices to play indices), from sets of the tables with coextensions
    `others`, as bitmasks: a table survives iff, for every play t, some table
    of the set sends its image of t back to t."""
    sends: dict = {}  # (u, v) -> bitmask of the tables whose coextension sends play u to v
    for i, star in enumerate(others):
        for u, v in enumerate(star):
            sends[u, v] = sends.get((u, v), 0) | 1 << i
    return lambda mask: sum(1 << i for i, star in enumerate(stars)
                            if all(sends.get((v, t), 0) & mask for t, v in enumerate(star)))


def theta_fixpoint(a: Structure, b: Structure, k: int, comonad: str = "ef",
                   cap: int = DEFAULT_TABLE_CAP) -> ThetaResult:
    """Literal descending iteration to the greatest fixpoint of the composite
    inversion operator on strategy-table sets; nonempty iff the back-and-forth
    equivalence holds.  Sequence and modal games only."""
    g = equivalence.game(comonad)
    if g.children is None:
        raise ToolkitError(f"the strategy-set fixpoint is not decided for the {comonad} game")
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("theta_fixpoint requires a shared vocabulary")
    # the winning conditions are symmetric, so tables back from b are judged alike
    tabs_s, fstars = _enumerate_tables(a, b, k, g, cap)
    tabs_t, gstars = _enumerate_tables(b, a, k, g, cap)
    gamma, delta = _inversion(gstars, fstars), _inversion(fstars, gstars)
    fmask = (1 << len(fstars)) - 1
    iters = 0
    while True:
        iters += 1
        nxt = delta(gamma(fmask))
        if nxt == fmask:
            break
        fmask = nxt
    gmask = gamma(fmask)
    surviving_f = tuple(tabs_s[i] for i in range(len(tabs_s)) if fmask >> i & 1)
    surviving_g = tuple(tabs_t[i] for i in range(len(tabs_t)) if gmask >> i & 1)
    # Over an empty play universe the inversion conditions hold vacuously, so
    # one side can survive while the other is empty; the pair must be nonempty
    # on both sides to witness the equivalence.
    return ThetaResult(bool(fmask) and bool(gmask), surviving_f, surviving_g, iters)


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
# Independent checks of the samplers' output: rank and fragment


def quantifier_rank(phi: logic.Formula) -> int:
    """Maximum quantifier nesting depth; counting quantifiers count one level."""
    if isinstance(phi, (logic.Rel, logic.Eq, logic.Top, logic.Bottom)):
        return 0
    if isinstance(phi, logic.Not):
        return quantifier_rank(phi.body)
    if isinstance(phi, (logic.And, logic.Or, logic.Implies)):
        return max(quantifier_rank(phi.left), quantifier_rank(phi.right))
    if isinstance(phi, (logic.Exists, logic.Forall, logic.CountAtLeast, logic.CountAtMost)):
        return 1 + quantifier_rank(phi.body)
    raise ToolkitError(f"unknown formula node {phi!r}")


def is_existential_positive(phi: logic.Formula) -> bool:
    """Only atoms, truth, conjunction, disjunction, existentials."""
    if isinstance(phi, (logic.Rel, logic.Eq, logic.Top)):
        return True
    if isinstance(phi, (logic.And, logic.Or)):
        return is_existential_positive(phi.left) and is_existential_positive(phi.right)
    if isinstance(phi, logic.Exists):
        return is_existential_positive(phi.body)
    return False


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
    """The back-and-forth pebble game on pebble-indexed placements: a safe
    set of (pebble, x, y) triples whose pairs form partial isomorphisms, with
    Spoiler moving any pebble to any element of either side.  The verdict and,
    on a win, the safe placements."""
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

    safe, _ = rescan_to_fixpoint(good, obligations)
    if frozenset() in safe:
        return equivalence.BackForthResult(True, safe_positions=frozenset(safe))
    return equivalence.BackForthResult(False)


def bisim_oracle(a: Structure, b: Structure, k: int) -> bool:
    """Independent partition-refinement check of depth-k bisimilarity.

    Colors elements of the disjoint union: round 0 by unary signature, then k
    rounds of refinement by multisets-as-sets of (label, successor color).
    """
    modal.require_modal(a)
    modal.require_modal(b)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("bisim_oracle requires a shared vocabulary")
    elems = [("A", e) for e in a.universe] + [("B", e) for e in b.universe]
    side = {"A": a, "B": b}

    def signature(tag: str, e) -> tuple:
        st = side[tag]
        return tuple((s, (e,) in st.tuples(s)) for s, ar in st.vocab.symbols if ar == 1)

    color = {te: signature(*te) for te in elems}
    for _ in range(k):
        nxt = {}
        for tag, e in elems:
            outs = frozenset((label, color[(tag, e2)])
                             for label, e2 in modal.successors(side[tag], e))
            nxt[(tag, e)] = (color[(tag, e)], outs)
        color = nxt
    return color[("A", a.point)] == color[("B", b.point)]


# ---------------------------------------------------------------------------
# Coalgebra-number references: exhaustive covers and the unpruned width DP


def all_forest_covers(g: Graph) -> Iterator[par.ForestCover]:
    """Every forest cover of g, in the order of `_forest_table`."""
    vs = g.vertices
    need = par._edge_mask(g)
    for codes, _, mask in par._forest_table(len(vs)):
        if mask & need == need:
            yield par.ForestCover(vs, {v: None if p is None else vs[p]
                                       for v, p in zip(vs, codes)})


def _min_coloring(vertices, conflicts: set[tuple], limit: int) -> Optional[dict]:
    """Smallest proper coloring of the conflict pairs with at most `limit`
    colors, by backtracking in vertex order; None if impossible."""
    vs = list(vertices)
    neighbors = {v: set() for v in vs}
    for x, y in conflicts:
        neighbors[x].add(y)
        neighbors[y].add(x)

    def attempt(bound: int) -> Optional[dict]:
        colors: dict = {}

        def rec(i: int) -> bool:
            if i == len(vs):
                return True
            v = vs[i]
            used = {colors[u] for u in neighbors[v] if u in colors}
            for col in range(1, bound + 1):
                if col not in used:
                    colors[v] = col
                    if rec(i + 1):
                        return True
                    del colors[v]
            return False

        return dict(colors) if rec(0) else None

    for bound in range(limit + 1):
        got = attempt(bound)
        if got is not None:
            return got
    return None


def min_pebble_forest_cover(g: Graph) -> par.PebbleForestCover:
    """Exhaustive search over forest covers, each given its exact minimum
    pebbling; the overall minimum is the pebble-game coalgebra number."""
    n = len(g.vertices)
    best = None
    best_k = n + 1
    for cover in all_forest_covers(g):
        conflicts = set(cover.conflicts(g))
        coloring = _min_coloring(g.vertices, conflicts, best_k - 1)
        if coloring is not None:
            used = max(coloring.values(), default=0)
            if used < best_k:
                best_k = used
                best = par.PebbleForestCover(cover, coloring)
    assert best is not None
    return best


def tree_decomposition_to_pfc(td: TreeDecomposition, k: int, g: Graph) -> PebbleForestCover:
    """From a width < k decomposition: order vertices by their introduction
    nodes, then pebble greedily avoiding the already-pebbled bag mates."""
    if not is_tree_decomposition(td, g):
        raise ToolkitError("not a tree decomposition of the graph")
    if td.width() >= k:
        raise ToolkitError(f"width {td.width()} is not < k={k}")
    vidx = g.index
    children: dict = {x: [] for x in td.nodes}
    for x in td.nodes:
        if td.parent[x] is not None:
            children[td.parent[x]].append(x)
    order = [td.root()]
    for x in order:
        order.extend(sorted(children[x], key=repr))

    # each vertex is introduced at the first node (breadth first) holding it
    new_at: dict = {x: [] for x in td.nodes}
    seen: set = set()
    for x in order:
        for v in sorted(td.bags[x], key=vidx.__getitem__):
            if v not in seen:
                seen.add(v)
                new_at[x].append(v)

    # forest order: u < v iff intro(u) is a strict tree-ancestor of intro(v),
    # or they share an introduction node and u was listed first; so v's
    # parent is the vertex listed just before it on its path from the root
    parent: dict = {}
    last: dict = {}  # node -> the last vertex introduced at it or above it
    for x in order:
        above = last.get(td.parent[x])
        for v in new_at[x]:
            parent[v] = above
            above = v
        last[x] = above
    cover = ForestCover(tuple(g.vertices), {v: parent[v] for v in g.vertices})

    pebbles: dict[Elem, int] = {}
    for x in order:
        for v in new_at[x]:
            taken = {pebbles[u] for u in td.bags[x] if u in pebbles and u != v}
            pebbles[v] = next(i for i in range(1, k + 1) if i not in taken)

    pfc = PebbleForestCover(cover, pebbles)
    if not is_pebble_forest_cover(pfc, g, k):
        raise ToolkitError("internal: constructed pebbled cover fails validation")
    return pfc




def _elimination_decomposition(g: Graph, order: tuple[Elem, ...]) -> TreeDecomposition:
    """The tree decomposition of an elimination order: v's bag is v and its
    later neighbours in the filled graph, its parent node the first of those
    to be eliminated; the roots of the forest hang below the last vertex."""
    nbrs = g.adjacency[:]
    later = {v: frozenset(g.vertices[u] for u in _bits(_eliminate(nbrs, g.index[v])))
             for v in order}
    pos = {v: i for i, v in enumerate(order)}
    last = order[-1]
    parent = {v: min(later[v], key=pos.__getitem__) if later[v] else last for v in order}
    parent[last] = None
    return TreeDecomposition(tuple(order), parent, {v: later[v] | {v} for v in order})


def reference_treewidth(g: Graph) -> int:
    """Exact tree-width by the unpruned elimination-ordering dynamic program
    over vertex subsets (fill-in neighborhoods via reachability through the
    eliminated prefix)."""
    n = len(g.vertices)
    if n == 0:
        return -1
    idx = g.index
    adj = [0] * n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]

    def reach_outside(v: int, prefix: int) -> int:
        """Vertices outside `prefix` (and != v) reachable from v through it."""
        visited = 1 << v
        frontier = adj[v]
        result = 0
        while frontier:
            new = frontier & ~visited
            if not new:
                break
            visited |= new
            result |= new & ~prefix
            inner = new & prefix
            nxt = 0
            m = inner
            while m:
                u = (m & -m).bit_length() - 1
                nxt |= adj[u]
                m &= m - 1
            frontier = nxt & ~visited
        return bin(result & ~(1 << v)).count("1")

    @lru_cache(maxsize=None)
    def best(prefix: int) -> int:
        if prefix == 0:
            return -1
        out = n
        m = prefix
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = prefix & ~(1 << v)
            out = min(out, max(best(rest), reach_outside(v, rest)))
        return out

    return best((1 << n) - 1)


def coalgebra_to_forest_cover(c: par.CoalgebraMap) -> par.ForestCover:
    """v <= v' iff alpha(v) is a prefix of alpha(v')."""
    if c.comonad != "ef":
        raise ToolkitError("expected a sequence-game coalgebra")
    ok, why = par.check_coalgebra(c)
    if not ok:
        raise ToolkitError(f"not a coalgebra: {why}")
    parent = {}
    for v in c.host.universe:
        play = c.alpha[v]
        parent[v] = play[-2] if len(play) >= 2 else None
    return par.ForestCover(tuple(c.host.universe), parent)


def is_synchronization_tree(a: Structure) -> bool:
    """The part of the pointed `a` reachable from its point is a tree that
    reaches every element: each element is reachable, the point has no
    incoming transition, and every other element exactly one (a transition
    is a labelled pair)."""
    incoming = {v: 0 for v in a.universe}
    for name in modal.binary_symbols(a):
        for _, v in a.tuples(name):
            incoming[v] += 1
    reached, todo = {a.point}, [a.point]
    while todo:
        for _, v in modal.successors(a, todo.pop()):
            if v not in reached:
                reached.add(v)
                todo.append(v)
    return (len(reached) == len(a.universe)
            and all(n == (v != a.point) for v, n in incoming.items()))


def modal_depth(a: Structure) -> int:
    """Synchronization tree depth: the longest transition path from the point
    over the (required acyclic) reachable part, by a depth-first search that
    raises CycleError on a transition back to an element on its path."""
    modal.require_modal(a)
    longest: dict = {}

    def visit(u: Elem, path: frozenset) -> int:
        if u in path:
            raise CycleError("a cycle is reachable from the distinguished element")
        if u not in longest:
            longest[u] = max((1 + visit(v, path | {u}) for _, v in modal.successors(a, u)),
                             default=0)
        return longest[u]

    return visit(a.point, frozenset())
