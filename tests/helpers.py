"""Shared test fixtures and the oracles that only tests call.

- Structure builders and exhaustive ensembles.
- Morphisms both ways, and coKleisli counits, coextension (`star`) and
  composition.
- The round-bounded games' conditions on whole play pairs, judged apart
  from their step code, the fold of a step condition along the prefix pairs
  read off `Game.parent`, and the lifting at one top play built by
  `product`.
- Liftings built in full by filtering, the audit of coKleisli isomorphism
  pairs on them, and the table search for coKleisli isomorphism.
- The strategy-set fixpoint (`theta_fixpoint`): the greatest fixpoint of
  the two inversion operators on sets of strategy tables, an independent
  route to the back-and-forth verdict.
- An independent set-based formula evaluator, and the quantifier-rank and
  existential-positive checks of the samplers' output.
- A full-rescan reference for the two pebble games (the back-and-forth one
  on pebble-indexed placements), the audit of a pebble family on pair sets,
  each part judged whole (the check of the audit on codes), the deletion
  engine with Spoiler on side A or on both sides (`deletion_engine`, the
  reference Spoiler tree builder of the back-and-forth game), and a
  partition-refinement check of depth-k bisimilarity.
- Exhaustive references for the coalgebra numbers: every forest cover with
  its minimum pebbling, tree-depth read off the forest table (the check of
  the tree-depth oracle), the removal recursion without budget or bound
  (the check of the minimum-height cover), the unpruned tree-width dynamic
  program (the independent check of tree-width), a coalgebra's forest
  cover, and the synchronization tree shape and depth.
- The bijection from tree decompositions of width < k to k-pebble forest
  covers (`tree_decomposition_to_pfc`), and the tree decomposition of an
  elimination order (`_elimination_decomposition`): their round trip is the
  reference for the pebble coalgebra number's cover."""

from __future__ import annotations

import operator
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, count, product
from dataclasses import dataclass
from typing import Iterator, Optional

from gamecomonads import equivalence, logic, modal, pebbling
from gamecomonads import parameters as par
from gamecomonads.errors import (CapExceededError, CycleError, ToolkitError,
                                 VocabularyMismatchError)
from gamecomonads.game import DEFAULT_PLAY_CAP, CoKleisli, Game, play_universe
from gamecomonads.parameters import (ForestCover, PebbleForestCover, TreeDecomposition, _bits,
                                     _eliminate, is_pebble_forest_cover, is_tree_decomposition)
from gamecomonads.pebbling import (PebbleResult, SpoilerPosition, StrategyFamily, _codes,
                                   _gained, _kept, _tuples_through)
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


def cfi_structure(base: Graph, twisted: bool, rng: random.Random) -> Structure:
    """The Cai-Fürer-Immerman graph over `base`, or its twist, its elements
    declared in an order drawn from `rng`.  Per vertex v, one node per even
    subset S of v's edges; per edge and endpoint v, two ends of bits 0 and 1.
    The node of S is joined to the end of bit 1 of each edge in S and of
    bit 0 of v's other edges, and the two endpoints' ends of an edge are
    joined when their bits are equal, or, on the first edge of the twist,
    when they differ.  The two are equivalent in the k-pebble counting game
    when `base` has tree-width at least k, and told apart by more pebbles
    (Cai-Fürer-Immerman 1992; Dawar-Richerby 2007)."""
    edges = sorted(base.edges)
    names, rel = [], []
    for i, (u, w) in enumerate(edges):
        for bit in (0, 1):
            names += [f"t{u}{i}{bit}", f"t{w}{i}{bit}"]
            rel.append((f"t{u}{i}{bit}", f"t{w}{i}{bit ^ (twisted and i == 0)}"))
    for v in base.vertices:
        mine = [i for i, e in enumerate(edges) if v in e]
        for size in range(0, len(mine) + 1, 2):
            for subset in combinations(mine, size):
                node = f"n{v}" + "".join(str(int(i in subset)) for i in mine)
                names.append(node)
                rel += [(node, f"t{v}{i}{int(i in subset)}") for i in mine]
    rng.shuffle(names)
    return S(VOCAB_R, names, {"R": sym_edges(rel)})


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


def modal_matches(s: tuple, t: tuple, a: Structure, b: Structure, agree=operator.eq) -> bool:
    """The modal game's condition on a whole pair of paths: the same labels
    along both and, at each step, unary symbols that `agree`: the same ones
    at both ends (`eq`), or those of the source element at the target too
    (`le`)."""
    if s[1::2] != t[1::2]:
        return False
    for x, y in zip(s[0::2], t[0::2]):
        for name in modal.unary_symbols(a):
            if not agree((x,) in a.tuples(name), (y,) in b.tuples(name)):
                return False
    return True


def whole_holds(g: Game, s: tuple, t: tuple, a: Structure, b: Structure,
                iso: bool = True) -> bool:
    """The winning (`iso`) or forth condition of the sequence or modal game
    on a whole pair of equal-depth plays, judged apart from the games' step
    conditions: the play pairs form a partial isomorphism or homomorphism,
    or the paths pass `modal_matches`."""
    if g.name == "modal":
        return modal_matches(s, t, a, b, operator.eq if iso else operator.le)
    return (is_partial_iso if iso else is_partial_hom)(list(zip(s, t)), a, b)


def prefix_chain(game: Game, s: tuple) -> list:
    """The nonempty plays from the top of the play tree down to `s`, `s`
    last, read off `Game.parent`: the prefixes of `s` of each round."""
    chain = []
    while s:
        chain.append(s)
        s = game.parent(s)
    return chain[::-1]


def holds_along(game: Game, holds, s: tuple, t: tuple, a: Structure, b: Structure) -> bool:
    """The step condition `holds` on the whole pair (s, t), as the fold of
    its prefix pairs: the reference for what `game.audit_won_positions`
    judges off each pair's parent pair."""
    return all(holds(p, q, a, b) for p, q in zip(prefix_chain(game, s), prefix_chain(game, t)))


def product_prefix_lifting(a: Structure, tips: list, labels: list):
    """The reference for `game.prefix_lifting`: each tuple of the prefixes of
    the top play (`tips[j]` the last element of the j-th, `labels[j]` what
    stands for it) whose first place that holds the top is `first`, the
    places before it drawn from the proper prefixes, built by `product`."""
    d = len(tips) - 1
    low_t, low_l = tips[:d], labels[:d]
    for name, arity in a.vocab.symbols:
        base = a.tuples(name)
        for first in range(arity):
            rest = arity - 1 - first
            for tip, label in zip(product(*[low_t] * first, tips[d:], *[tips] * rest),
                                  product(*[low_l] * first, labels[d:], *[labels] * rest)):
                if tip in base:
                    yield name, label


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
            for combo in product(prefix_chain(game, top), repeat=arity):
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
            if st in index_b and whole_holds(g, s, st, a, b):
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
    no next position alive at the start of the pass.  Returns the survivors
    and, per deleted position, its pass (counted from 1) and that move."""
    alive = set(positions)
    trace = {}
    for n in count(1):
        removed = {}
        for pos in alive:
            for move, replies in obligations(pos):
                if alive.isdisjoint(nxt for _, nxt in replies):
                    removed[pos] = n, move
                    break
        if not removed:
            return alive, trace
        alive.difference_update(removed)
        trace.update(removed)


def _refute(trace, root, obligations, node):
    def refute(pos):
        _, move = trace[pos]
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
    on a win, the safe placements.

    On a loss, the Spoiler tree that `pebbling.decide_back_forth` builds,
    from the ranks of this game instead of the refinement's passes: a map's
    rank is the pass that deletes its placement on pebbles 1, 2, ... in
    domain order (0 when it is no partial isomorphism, and infinite when
    none does), and at each map Spoiler takes the first move, drops in
    domain order, then placements on A, then on B, whose every reply lowers
    the map's (rank, size)."""
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

    def in_order(part):
        return sorted(part, key=lambda xy: a.index[xy[0]])

    def rank(part) -> float:
        pos = frozenset((i, x, y) for i, (x, y) in enumerate(in_order(part), 1))
        return trace[pos][0] if pos in trace else float("inf") if pos in safe else 0

    def tree(part, r):
        for pair in in_order(part):
            if part - {pair} and rank(part - {pair}) <= r:
                return SpoilerPosition(part, drop=pair,
                                       child=tree(part - {pair}, rank(part - {pair})))
        dom, rng = {x for x, _ in part}, {y for _, y in part}
        moves = [("A", x, [(y, part | {(x, y)}) for y in b.universe])
                 for x in a.universe if x not in dom]
        moves += [("B", y, [(x, None if x in dom else part | {(x, y)}) for x in a.universe])
                  for y in b.universe if y not in rng]
        for side, e, replies in moves if len(part) < k else ():
            ranks = [0 if nxt is None else rank(nxt) for _, nxt in replies]
            if all(s < r for s in ranks):
                return SpoilerPosition(part, place=e, side=side, branches=tuple(
                    (reply, tree(nxt, s) if s else None) for (reply, nxt), s in zip(replies, ranks)))

    return equivalence.BackForthResult(False, spoiler=tree(frozenset(), rank(frozenset())))


def whole_family_audit(fam: pebbling.StrategyFamily, a: Structure, b: Structure,
                       sides: str = "A") -> tuple[bool, str]:
    """The reference for `pebbling.audit_strategy_family`, on pair sets: every
    part sorted, judged whole by `is_partial_hom`/`is_partial_iso`, its
    restrictions looked up as sets, and each one-pair extension collected as
    the placement it answers.  Elements outside the universes share one
    place in the order, so which of their pairs is named may depend on the
    hash seed."""
    parts, k = fam.parts, fam.k
    if not parts:
        return False, "family is empty"
    if frozenset() not in parts:
        return False, "family does not contain the empty map"
    check, name = pebbling._partial_check(sides)
    ia, ib, na, nb = a.index, b.index, len(a.universe), len(b.universe)
    ordered = sorted(parts, key=lambda p: (len(p), sorted((ia.get(x, na), ib.get(y, nb))
                                                          for x, y in p)))
    for part in ordered:
        if len(part) > k:
            return False, f"part {sorted(part)!r} exceeds {k} pairs"
        if not check(part, a, b):
            return False, f"part {sorted(part)!r} is not a partial {name}"
        for pair in part:
            if part - {pair} not in parts:
                return False, f"family not closed under restriction at {sorted(part)!r}"

    moves = (("A", a, 0, "forth"), ("B", b, 1, "back"))[:len(sides)]
    answered = {(part - {pair}, side, pair[j])
                for part in parts for pair in part for side, _, j, _ in moves}
    for part in ordered:
        if len(part) < k:
            for side, host, j, prop in moves:
                placed = {pair[j] for pair in part}
                for e in host.universe:
                    if e not in placed and (part, side, e) not in answered:
                        return False, f"{prop} fails at {sorted(part)!r} on {e!r}"
    return True, "ok"


# ---------------------------------------------------------------------------
# The deletion engine with Spoiler on side A or on both sides: the
# existential engine of `pebbling` with the back-and-forth game's B-side
# moves, the reference for the verdicts and families of
# `pebbling.decide_back_forth`, and a second builder of its Spoiler tree,
# read off deletion passes instead of refinement passes


def engine_partial_maps(a: Structure, b: Structure, k: int, back: bool, pairs: list) -> dict:
    """Every partial homomorphism (partial isomorphism, when `back`) from `a`
    to `b` with at most k pairs, as a dict from its code to its pair
    records in domain order.  The maps grow one domain element at a time, in
    declaration order: a map passes only if it does without its last pair,
    so each size extends the good maps of the size below, and an extension
    is judged on the tuples through its new pair alone: those of `a` through
    the new element and, when `back`, those of `b` through the new image,
    which must also be outside the range."""
    na, nb = len(a.universe), len(b.universe)
    forth = _tuples_through(a, b)
    backs = _tuples_through(b, a) if back else None
    every = [(j, ()) for j in range(nb)]  # each image, with no tuple of b to check
    parts = {0: ()}
    level = [0]
    for _ in range(min(k, na)):
        grown = []
        for p in level:
            part = parts[p]
            img, inv = [-1] * na, [-1] * nb
            dom = rng = 0
            for i, j, _ in part:
                img[i], inv[j] = j, i
                dom, rng = dom | 1 << i, rng | 1 << j
            images = every
            if back:
                images = [(j, _gained(backs, j, rng)) for j in range(nb) if inv[j] < 0]
            for i in range(part[-1][0] + 1 if part else 0, na):
                gained = _gained(forth, i, dom)
                for j, gained_b in images:
                    img[i] = j
                    if not _kept(gained, img):
                        continue
                    if gained_b:
                        inv[j] = i
                        kept = _kept(gained_b, inv)
                        inv[j] = -1
                        if not kept:
                            continue
                    q = p + pairs[i][j][2]
                    parts[q] = part + (pairs[i][j],)
                    grown.append(q)
                img[i] = -1
        level = grown
    return parts


def engine_delete_to_fixpoint(parts: dict, k: int, back: bool, codes: tuple) -> tuple[set, dict]:
    """The greatest subfamily of `parts` (codes to pair records, as
    `engine_partial_maps` gives them) in which every Spoiler move has a reply
    leading back into the subfamily.

    Spoiler's moves at a map are dropping one of its pairs, in domain order,
    then, below k pairs, placing a pebble on an element of A outside its
    domain and, when `back`, on an element of B outside its range.  A drop's
    key is the map without the pair, and a placement's its key in `_codes`.
    A map answers a drop key by being it, and a placement key by extending
    the key's map with one pair on the key's element, so a move has a reply
    in the family exactly when some live map answers its key.  The engine
    counts, per placement key, the live maps that answer it.

    Deletion runs in simultaneous passes.  A pass judges maps against the
    family as it stood at the start of the pass, and deletes each at its
    first move whose key is unanswered.  The first pass judges every map;
    each later one only the maps with a move whose key lost its last answer
    in the pass before: the map of a placement key, and the live one-pair
    extensions of a deleted map.  Every other map keeps the answers with
    which it survived.  Every reply of a failing move was therefore deleted
    in an earlier pass or never was in the family, which keeps the
    refutation well-founded.  Returns the survivors and, per deleted map,
    the key of its first move without a surviving reply."""
    _, pairs, place_a, place_b = codes
    alive = set(parts)
    answers = Counter(p - d + place_a[i] for p, part in parts.items() for i, _, d in part)
    if back:
        answers.update(p - d + place_b[j] for p, part in parts.items() for _, j, d in part)
    answers = dict(answers)  # a plain dict deletes faster than a Counter

    def failing(p: int) -> Optional[int]:
        part = parts[p]
        for _, _, d in part:
            if p - d not in alive:
                return p - d
        if len(part) < k:
            # a placement key on an element of the domain is never answered
            for i, at in enumerate(place_a):
                if p + at not in answers and all(x != i for x, _, _ in part):
                    return p + at
            if back:
                for j, at in enumerate(place_b):
                    if p + at not in answers and all(y != j for _, y, _ in part):
                        return p + at
        return None

    trace: dict = {}
    judged = alive
    while True:
        removed = {}
        for p in judged:
            key = failing(p)
            if key is not None:
                removed[p] = key
        if not removed:
            return alive, trace
        alive.difference_update(removed)
        trace.update(removed)
        judged = set()
        for p in removed:
            for i, j, d in parts[p]:
                rest = p - d
                for key in (rest + place_a[i], rest + place_b[j]) if back else (rest + place_a[i],):
                    left = answers[key] - 1
                    if left:
                        answers[key] = left
                    else:
                        del answers[key]
                        if rest in alive:
                            judged.add(rest)
        for p in removed:
            if len(parts[p]) < k:
                for i, at in enumerate(place_a):
                    if p + at in answers:
                        judged.update(q for q in (p + d for _, _, d in pairs[i]) if q in alive)


def _frozen(part: tuple, a: Structure, b: Structure) -> PartialMapSet:
    """The pairs of elements behind a map's pair records."""
    return frozenset((a.universe[i], b.universe[j]) for i, j, _ in part)


def engine_refutation(parts: dict, trace: dict, codes: tuple, a: Structure,
                b: Structure) -> SpoilerPosition:
    """Spoiler's strategy from the empty map, read off the trace of
    `engine_delete_to_fixpoint`: at each map, the recorded move with every reply
    paired with the strategy at its next map, or with None when that map
    never was in the family.  A reply on a placement in B that is already
    in the domain makes no map, and so gets None."""
    na, (top, pairs, _, _) = len(a.universe), codes
    ua, ub = a.universe, b.universe

    def child(q: int) -> Optional[SpoilerPosition]:
        return refute(q) if q in trace else None

    def refute(p: int) -> SpoilerPosition:
        key, part = trace[p], parts[p]
        pos = _frozen(part, a, b)
        if key < top:
            i, j, _ = next(pair for pair in part if p - pair[2] == key)
            return SpoilerPosition(pos, drop=(ua[i], ub[j]), child=child(key))
        e = key // top - 1
        if e < na:
            return SpoilerPosition(pos, place=ua[e], branches=tuple(
                (ub[j], child(p + d)) for _, j, d in pairs[e]))
        dom = {i for i, _, _ in part}
        return SpoilerPosition(pos, place=ub[e - na], side="B", branches=tuple(
            (ua[i], None if i in dom else child(p + pairs[i][e - na][2])) for i in range(na)))

    return refute(0)


def deletion_engine(a: Structure, b: Structure, k: int, sides: str) -> PebbleResult:
    """The k-pebble game from `a` to `b` with Spoiler moving on `sides`: the
    existential game ("A") or the back-and-forth game ("AB").

    The greatest family of partial homomorphisms ("A") or partial
    isomorphisms ("AB") with at most k pairs closed under restriction, forth
    and, for "AB", back; Duplicator wins iff it is nonempty (Kolaitis-Vardi).
    Maps are integer codes (`_codes`) inside the engine, and pair sets in
    its results."""
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("deletion_engine requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    back = sides == "AB"
    codes = _codes(len(a.universe), len(b.universe))
    parts = engine_partial_maps(a, b, k, back, codes[1])
    alive, trace = engine_delete_to_fixpoint(parts, k, back, codes)
    if alive:
        return PebbleResult(True, family=StrategyFamily(
            k, frozenset(_frozen(parts[p], a, b) for p in alive)))
    return PebbleResult(False, refutation=engine_refutation(parts, trace, codes, a, b))


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


def edge_mask(g: Graph) -> int:
    """The edges of g as pair bits i*n+j (i < j), as in `_forest_table`'s masks."""
    n, idx = len(g.vertices), g.index
    return sum(1 << (idx[u] * n + idx[v]) for u, v in g.edges)


def all_forest_covers(g: Graph) -> Iterator[par.ForestCover]:
    """Every forest cover of g, in the order of `_forest_table`."""
    vs = g.vertices
    need = edge_mask(g)
    for codes, _, mask in par._forest_table(len(vs)):
        if mask & need == need:
            yield par.ForestCover(vs, {v: None if p is None else vs[p]
                                       for v, p in zip(vs, codes)})


def table_treedepth(g: Graph) -> int:
    """Tree-depth as the least height of the `_forest_table` rows whose
    comparable pairs hold every edge: the reference for `oracle_treedepth`."""
    need = edge_mask(g)
    return min(h for _, h, mask in par._forest_table(len(g.vertices)) if mask & need == need)


def unbounded_forest_cover(g: Graph) -> par.ForestCover:
    """The reference for `min_height_forest_cover`: the removal recursion
    td(S) = 1 + min over roots v of max td(C), over the components C of
    S - v, with no budget and no lower bound.  Roots are tried in index
    order and the first minimum is kept; a root is dropped as soon as one of
    its components reaches the best height found so far.  The memo keeps
    (height, root) per set, and the parent map is read off the roots."""
    adj = g.adjacency
    memo: dict[int, tuple[int, int]] = {}

    def solve(s: int) -> int:
        if s in memo:
            return memo[s][0]
        best, root = s.bit_count() + 1, -1  # every root beats |S| + 1
        for v in _bits(s):
            h = 1
            for comp, _ in par._components(adj, s & ~(1 << v)):
                h = max(h, 1 + solve(comp))
                if h >= best:
                    break
            else:
                best, root = h, v
        memo[s] = (best, root)
        return best

    vs = g.vertices
    parent: dict = {}
    todo = [(comp, None) for comp, _ in par._components(adj, (1 << len(vs)) - 1)]
    for s, above in todo:
        solve(s)
        v = memo[s][1]
        parent[vs[v]] = above
        todo.extend((comp, vs[v]) for comp, _ in par._components(adj, s & ~(1 << v)))
    return par.ForestCover(tuple(vs), parent)


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
