"""The registry of the three games, and the equivalences each game induces:
morphisms both ways, the winning-set-parameterized back-and-forth game, the
strategy-set fixpoint, and coKleisli isomorphism.

`GAMES` maps each game's name to the `Game` record its module builds; every
decider here looks the game up once and reads the play tree, lifting and
built-in winning set from that record.

Positions of the back-and-forth game are equal-depth pairs of play-tree nodes;
the initial position pairs the roots: the empty play for the sequence game and
the one-element paths at the distinguished elements for the modal game.  The
winning set is data, so other instantiations can be plugged in; the built-in
instances are partial isomorphism of the play-pair history (sequence game) and
label-matched histories with pointwise unary agreement (modal).

The pebble game has no play tree (its universe is infinite), so its
back-and-forth decision runs on positional states, pebble placements starting
from the empty one, with unbounded rounds: a safety greatest fixpoint whose
winning condition is partial isomorphism of the current placements.  The
strategy-set fixpoint and coKleisli isomorphism are decided for the sequence
and modal games only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Optional

from . import ef as ef_mod
from . import modal as modal_mod
from . import pebbling as pebble_mod
from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import Game, WinningSet
from .structures import Elem, Structure, check_hom, is_partial_iso

GAMES: dict[str, Game] = {g.name: g for g in (ef_mod.GAME, pebble_mod.GAME, modal_mod.GAME)}
COMONADS = tuple(GAMES)

DEFAULT_TABLE_CAP = 200_000


def game(name: str) -> Game:
    try:
        return GAMES[name]
    except KeyError:
        raise ToolkitError(f"unknown comonad {name!r}; choose from {COMONADS}") from None


def _tree_game(name: str, what: str) -> Game:
    """The game `name`, which must have a play tree for `what`."""
    g = game(name)
    if g.children is None:
        raise ToolkitError(f"{what} is not decided for the {name} game")
    return g


# ---------------------------------------------------------------------------
# Winning sets


def table_w(positions: frozenset, name: str = "user-table") -> WinningSet:
    """A user-supplied winning set given extensionally as position pairs."""
    def holds(s, t, a, b):
        return (s, t) in positions
    return WinningSet(name, holds, absorbing=False)


# ---------------------------------------------------------------------------
# Morphisms both ways


def decide_both_ways(a: Structure, b: Structure, k: int, comonad: str) -> bool:
    """Conjunction of the two existential decisions."""
    g = game(comonad)
    return g.decide(a, b, k).wins and g.decide(b, a, k).wins


# ---------------------------------------------------------------------------
# The back-and-forth game


@dataclass(frozen=True)
class SpoilerBFNode:
    """Spoiler strategy for the back-and-forth game.

    `side` is None for a stalled position that already fails the winning set.
    A branch child of None claims the reply position terminal and losing
    (final round reached).  Empty branches mean Duplicator cannot reply.
    """

    side: Optional[str]
    move: Optional[tuple]
    branches: tuple = ()


@dataclass(frozen=True)
class PebbleBFNode:
    """Spoiler strategy for the positional pebble game: place pebble `index`
    on `elem` of `side`; branch child None means the reply placement is not a
    partial isomorphism."""

    pos: frozenset
    index: int
    side: str
    elem: Elem
    branches: tuple = ()


@dataclass(frozen=True)
class BackForthResult:
    wins: bool
    comonad: str
    duplicator: Optional[Mapping] = None  # (s, t) -> {(side, moved-node): reply-node}
    spoiler: Optional[SpoilerBFNode] = None
    safe_positions: Optional[frozenset] = None
    pebble_spoiler: Optional[PebbleBFNode] = None


def solve_back_forth(a: Structure, b: Structure, k: int, comonad: str,
                     w: Optional[WinningSet] = None) -> BackForthResult:
    """Decide the k-resource back-and-forth game with winning set `w`.

    Sequence and modal games run k rounds by backward induction on play pairs;
    the pebble game runs as an unbounded positional safety game.
    """
    g = game(comonad)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("solve_back_forth requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    if g.children is None:
        if w is not None and w.name != g.winning.name:
            raise ToolkitError("the positional pebble game fixes its winning set")
        return _solve_pebble_backforth(a, b, k)
    w = w or g.winning
    children, depth = g.children, g.depth

    memo: dict[tuple, bool] = {}
    root_s, root_t = g.root(a), g.root(b)

    def win(s: tuple, t: tuple) -> bool:
        key = (s, t)
        if key in memo:
            return memo[key]
        d = depth(s)
        cs = children(a, s) if d < k else []
        ct = children(b, t) if d < k else []
        if d == k or (not cs and not ct):
            res = w.holds(s, t, a, b)
        elif w.absorbing and not w.holds(s, t, a, b):
            res = False
        elif cs and not ct:
            res = False
        elif ct and not cs:
            res = False
        else:
            res = (all(any(win(s2, t2) for t2 in ct) for s2 in cs)
                   and all(any(win(s2, t2) for s2 in cs) for t2 in ct))
        memo[key] = res
        return res

    if win(root_s, root_t):
        entries: dict[tuple, dict] = {}
        queue = [(root_s, root_t)]
        seen = {(root_s, root_t)}
        while queue:
            s, t = queue.pop(0)
            d = depth(s)
            if d == k:
                continue
            cs, ct = children(a, s), children(b, t)
            if not cs and not ct:
                continue
            here: dict = {}
            for s2 in cs:
                t2 = next(t2 for t2 in ct if win(s2, t2))
                here[("A", s2)] = t2
                if (s2, t2) not in seen:
                    seen.add((s2, t2))
                    queue.append((s2, t2))
            for t2 in ct:
                s2 = next(s2 for s2 in cs if win(s2, t2))
                here[("B", t2)] = s2
                if (s2, t2) not in seen:
                    seen.add((s2, t2))
                    queue.append((s2, t2))
            entries[(s, t)] = here
        return BackForthResult(True, comonad, duplicator=entries)

    def spoiler(s: tuple, t: tuple) -> SpoilerBFNode:
        cs, ct = children(a, s), children(b, t)
        if not cs and not ct:
            return SpoilerBFNode(None, None)
        for side, mine, theirs in (("A", cs, ct), ("B", ct, cs)):
            for m in mine:
                replies = []
                okmove = True
                for r in theirs:
                    s2, t2 = (m, r) if side == "A" else (r, m)
                    if win(s2, t2):
                        okmove = False
                        break
                    child = None if depth(s2) == k else spoiler(s2, t2)
                    replies.append((r, child))
                if okmove:
                    return SpoilerBFNode(side, m, tuple(replies))
        raise ToolkitError("internal: losing position without a winning Spoiler move")

    return BackForthResult(False, comonad, spoiler=spoiler(root_s, root_t))


def audit_bf_duplicator(entries: Mapping, a: Structure, b: Structure, k: int,
                        comonad: str, w: Optional[WinningSet] = None) -> tuple[bool, str]:
    """Walk the strategy from the root; every Spoiler option must have a reply
    and every final or stalled position must lie in the winning set."""
    g = _tree_game(comonad, "a back-and-forth strategy table")
    w = w or g.winning
    root = g.root(a), g.root(b)
    queue, seen = [root], {root}
    while queue:
        s, t = queue.pop(0)
        d = g.depth(s)
        cs = g.children(a, s) if d < k else []
        ct = g.children(b, t) if d < k else []
        if d == k or (not cs and not ct):
            if not w.holds(s, t, a, b):
                return False, f"final position {s!r}/{t!r} outside the winning set"
            continue
        here = entries.get((s, t))
        if here is None:
            return False, f"no strategy entry for reachable position {s!r}/{t!r}"
        for side, mine, theirs in (("A", cs, ct), ("B", ct, cs)):
            for m in mine:
                r = here.get((side, m))
                if r is None:
                    return False, f"no reply recorded for {side} move {m!r} at {s!r}/{t!r}"
                if r not in theirs:
                    return False, f"reply {r!r} is not an immediate successor"
                nxt = (m, r) if side == "A" else (r, m)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True, "ok"


def audit_bf_spoiler(node: SpoilerBFNode, a: Structure, b: Structure, k: int,
                     comonad: str, w: Optional[WinningSet] = None) -> tuple[bool, str]:
    g = _tree_game(comonad, "a back-and-forth Spoiler tree")
    w = w or g.winning
    root = g.root(a), g.root(b)

    def walk(nd: SpoilerBFNode, s: tuple, t: tuple) -> tuple[bool, str]:
        d = g.depth(s)
        cs = g.children(a, s) if d < k else []
        ct = g.children(b, t) if d < k else []
        if nd.side is None:
            if cs or ct:
                return False, "stall claimed at a position with moves"
            if w.holds(s, t, a, b):
                return False, "stalled position lies in the winning set"
            return True, "ok"
        if d >= k:
            return False, "Spoiler move after the final round"
        mine, theirs = (cs, ct) if nd.side == "A" else (ct, cs)
        if nd.move not in mine:
            return False, f"move {nd.move!r} is not an immediate successor"
        if [r for r, _ in nd.branches] != theirs:
            return False, "replies not exhaustive"
        for r, child in nd.branches:
            s2, t2 = (nd.move, r) if nd.side == "A" else (r, nd.move)
            if child is None:
                if g.depth(s2) != k:
                    return False, "terminal claim before the final round"
                if w.holds(s2, t2, a, b):
                    return False, f"final position {s2!r}/{t2!r} lies in the winning set"
            else:
                ok, why = walk(child, s2, t2)
                if not ok:
                    return ok, why
        return True, "ok"

    return walk(node, *root)


# ---------------------------------------------------------------------------
# Positional pebble game (unbounded rounds, safety fixpoint)


def _pebble_position_pairs(pos: frozenset) -> list[tuple[Elem, Elem]]:
    return [(x, y) for _, x, y in pos]


def _all_pebble_positions(a: Structure, b: Structure, k: int) -> list[frozenset]:
    out = []
    for size in range(k + 1):
        for idxs in combinations(range(1, k + 1), size):
            for xs in product(a.universe, repeat=size):
                for ys in product(b.universe, repeat=size):
                    out.append(frozenset(zip(idxs, xs, ys)))
    return out


def _solve_pebble_backforth(a: Structure, b: Structure, k: int) -> BackForthResult:
    def iso(pos: frozenset) -> bool:
        return is_partial_iso(_pebble_position_pairs(pos), a, b)

    def canon(pos: frozenset):
        return sorted((i, a.index[x], b.index[y]) for i, x, y in pos)

    positions = _all_pebble_positions(a, b, k)
    good = {pos for pos in positions if iso(pos)}
    trace: dict[frozenset, tuple[int, tuple]] = {}
    rnd = 0
    while True:
        rnd += 1
        removed = {}
        for pos in sorted(good, key=canon):
            reason = None
            for i in range(1, k + 1):
                rest = frozenset(tr for tr in pos if tr[0] != i)
                for side, elems, others in (("A", a.universe, b.universe),
                                             ("B", b.universe, a.universe)):
                    for e in elems:
                        replies = (rest | {(i, e, y)} for y in others) if side == "A" \
                            else (rest | {(i, x, e)} for x in others)
                        if not any(np in good for np in replies):
                            reason = (i, side, e)
                            break
                    if reason:
                        break
                if reason:
                    break
            if reason:
                removed[pos] = (rnd, reason)
        if not removed:
            break
        for pos, why in removed.items():
            good.discard(pos)
            trace[pos] = why

    start = frozenset()
    if start in good:
        return BackForthResult(True, "pebble", safe_positions=frozenset(good))

    def refute(pos: frozenset) -> PebbleBFNode:
        _, (i, side, e) = trace[pos]
        rest = frozenset(tr for tr in pos if tr[0] != i)
        branches = []
        others = b.universe if side == "A" else a.universe
        for r in others:
            np = rest | ({(i, e, r)} if side == "A" else {(i, r, e)})
            branches.append((r, refute(np) if np in trace else None))
        return PebbleBFNode(pos, i, side, e, tuple(branches))

    return BackForthResult(False, "pebble", pebble_spoiler=refute(start))


def audit_pebble_safe(safe: frozenset, a: Structure, b: Structure, k: int) -> tuple[bool, str]:
    """The safe set must contain the empty placement, consist of partial
    isomorphisms, and be closed under every Spoiler move."""
    if frozenset() not in safe:
        return False, "empty placement missing from the safe set"
    for pos in safe:
        if not is_partial_iso(_pebble_position_pairs(pos), a, b):
            return False, "safe position is not a partial isomorphism"
        if any(i < 1 or i > k for i, _, _ in pos):
            return False, "pebble index out of range"
        for i in range(1, k + 1):
            rest = frozenset(tr for tr in pos if tr[0] != i)
            for e in a.universe:
                if not any(rest | {(i, e, y)} in safe for y in b.universe):
                    return False, f"no safe reply to placing {i} on {e!r} in A"
            for e in b.universe:
                if not any(rest | {(i, x, e)} in safe for x in a.universe):
                    return False, f"no safe reply to placing {i} on {e!r} in B"
    return True, "ok"


def audit_pebble_spoiler(node: PebbleBFNode, a: Structure, b: Structure,
                         k: int) -> tuple[bool, str]:
    seen: set[int] = set()

    def walk(nd: PebbleBFNode, expected: frozenset) -> tuple[bool, str]:
        if id(nd) in seen:
            return False, "refutation revisits a node along a path"
        seen.add(id(nd))
        try:
            if nd.pos != expected:
                return False, "position does not match the play so far"
            if not is_partial_iso(_pebble_position_pairs(nd.pos), a, b):
                return False, "interior position is not a partial isomorphism"
            if not (1 <= nd.index <= k):
                return False, "pebble index out of range"
            rest = frozenset(tr for tr in nd.pos if tr[0] != nd.index)
            others = b.universe if nd.side == "A" else a.universe
            if [r for r, _ in nd.branches] != list(others):
                return False, "replies not exhaustive"
            for r, child in nd.branches:
                np = rest | ({(nd.index, nd.elem, r)} if nd.side == "A"
                             else {(nd.index, r, nd.elem)})
                if child is None:
                    if is_partial_iso(_pebble_position_pairs(np), a, b):
                        return False, "reply claimed losing but placements form a partial iso"
                else:
                    ok, why = walk(child, np)
                    if not ok:
                        return ok, why
            return True, "ok"
        finally:
            seen.discard(id(nd))

    if node.pos != frozenset():
        return False, "root is not the empty placement"
    return walk(node, frozenset())


# ---------------------------------------------------------------------------
# Strategy-set fixpoint (greatest fixpoint of composing the two inversion
# operators on sets of winning-position-respecting tables)


@dataclass(frozen=True)
class ThetaResult:
    nonempty: bool
    tables_ab: tuple  # surviving tables, each a dict play -> target element
    tables_ba: tuple
    iterations: int


def _enumerate_tables(a: Structure, b: Structure, k: int, g: Game,
                      w: WinningSet, cap: int) -> tuple[list, list, list]:
    """All tables f with (s, f*(s)) in W for every play s, found by DFS along
    the play forest in declaration order.  Pruning mid-branch relies on W
    being absorbing; otherwise tables are enumerated in full and filtered.
    Every coextension must also be a play of `b` (a valid path, for modal
    tables)."""
    plays = g.universe(a, k)
    plays_b = set(g.universe(b, k))

    tables: list[dict] = []
    stars: list[dict] = []
    f: dict = {}
    fstar: dict = {}

    def dfs(i: int):
        if i == len(plays):
            tables.append(dict(f))
            stars.append(dict(fstar))
            if len(tables) > cap:
                raise CapExceededError(f"more than {cap} strategy tables; "
                                       "fall back to the game solver")
            return
        s = plays[i]
        for y in b.universe:
            st = g.extend(fstar, s, y)
            if st not in plays_b:
                continue
            if w.absorbing and not w.holds(s, st, a, b):
                continue
            f[s] = y
            fstar[s] = st
            dfs(i + 1)
            del f[s], fstar[s]

    dfs(0)
    if not w.absorbing:
        keep = [i for i, st in enumerate(stars)
                if all(w.holds(s, st[s], a, b) for s in plays)]
        tables = [tables[i] for i in keep]
        stars = [stars[i] for i in keep]
    return plays, tables, stars


def theta_fixpoint(a: Structure, b: Structure, k: int, comonad: str = "ef",
                   w: Optional[WinningSet] = None,
                   cap: int = DEFAULT_TABLE_CAP) -> ThetaResult:
    """Literal descending iteration to the greatest fixpoint of the composite
    inversion operator on strategy-table sets; nonempty iff the back-and-forth
    equivalence holds.  Sequence and modal games only."""
    g = _tree_game(comonad, "the strategy-set fixpoint")
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("theta_fixpoint requires a shared vocabulary")
    w = w or g.winning
    w_flip = WinningSet(w.name, lambda t, s, bb, aa: w.holds(s, t, aa, bb), w.absorbing)

    plays_a, tabs_s, stars_s = _enumerate_tables(a, b, k, g, w, cap)
    plays_b, tabs_t, stars_t = _enumerate_tables(b, a, k, g, w_flip, cap)
    idx_a = {s: i for i, s in enumerate(plays_a)}
    idx_b = {t: i for i, t in enumerate(plays_b)}
    fstars = [tuple(idx_b[st[s]] for s in plays_a) for st in stars_s]
    gstars = [tuple(idx_a[st[t]] for t in plays_b) for st in stars_t]

    # cond_s[(u, t_idx)]: bitmask of f with f*(play_b u) ... f* sends play u of A
    cond_s: dict[tuple[int, int], int] = {}
    for fi, fs in enumerate(fstars):
        for u, tv in enumerate(fs):
            key = (u, tv)
            cond_s[key] = cond_s.get(key, 0) | (1 << fi)
    cond_t: dict[tuple[int, int], int] = {}
    for gi, gs in enumerate(gstars):
        for u, sv in enumerate(gs):
            key = (u, sv)
            cond_t[key] = cond_t.get(key, 0) | (1 << gi)

    full_f = (1 << len(fstars)) - 1

    def gamma(fmask: int) -> int:
        out = 0
        for gi, gs in enumerate(gstars):
            if all(cond_s.get((gs[t], t), 0) & fmask for t in range(len(plays_b))):
                out |= 1 << gi
        return out

    def delta(gmask: int) -> int:
        out = 0
        for fi, fs in enumerate(fstars):
            if all(cond_t.get((fs[s], s), 0) & gmask for s in range(len(plays_a))):
                out |= 1 << fi
        return out

    fmask = full_f
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
# CoKleisli isomorphism


@dataclass(frozen=True)
class IsoResult:
    wins: bool
    forward: Optional[Mapping] = None  # play of A -> element of B
    backward: Optional[Mapping] = None


def decide_cokleisli_iso(a: Structure, b: Structure, k: int, comonad: str = "ef",
                         cap: int = DEFAULT_TABLE_CAP) -> IsoResult:
    """Search for mutually inverse coKleisli morphisms.

    A witness forward morphism must have a bijective coextension (prefix
    closure makes the induced inverse table the only candidate back), so the
    search enumerates homomorphism tables in play order with injectivity and
    relation pruning, then checks the induced backward table.  Sequence and
    modal games only."""
    g = _tree_game(comonad, "coKleisli isomorphism")
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_cokleisli_iso requires a shared vocabulary")
    lifted_a = g.lifted(a, k)
    lifted_b = g.lifted(b, k)
    plays_a = list(lifted_a.universe)
    plays_b = list(lifted_b.universe)
    if len(plays_a) != len(plays_b):
        return IsoResult(False)
    order_index = {s: i for i, s in enumerate(plays_a)}
    playset_b = set(plays_b)

    # Constraints of a's lifted tuples indexed by their longest component.
    constraints: dict[tuple, list[tuple[str, tuple]]] = {s: [] for s in plays_a}
    for name, _ in a.vocab.symbols:
        for combo in lifted_a.tuples(name):
            top = max(combo, key=lambda c: order_index[c])
            constraints[top].append((name, combo))

    nodes_budget = cap
    f: dict = {}
    fstar: dict = {}
    used: set = set()

    def dfs(i: int) -> Optional[IsoResult]:
        nonlocal nodes_budget
        if i == len(plays_a):
            inv = {fstar[s]: s for s in plays_a}
            back = {t: inv[t][-1] for t in plays_b}
            if check_hom(back, lifted_b, a):
                return IsoResult(True, forward=dict(f), backward=back)
            return None
        s = plays_a[i]
        for y in b.universe:
            nodes_budget -= 1
            if nodes_budget < 0:
                raise CapExceededError("coKleisli isomorphism search budget exceeded")
            st = g.extend(fstar, s, y)
            if st in used or st not in playset_b:
                continue
            f[s] = y
            ok = all(tuple(f[c] for c in combo) in b.tuples(name)
                     for name, combo in constraints[s])
            if ok:
                fstar[s] = st
                used.add(st)
                res = dfs(i + 1)
                if res is not None:
                    return res
                used.discard(st)
                del fstar[s]
            del f[s]
        return None

    res = dfs(0)
    return res if res is not None else IsoResult(False)


def audit_iso_pair(forward: Mapping, backward: Mapping, a: Structure, b: Structure,
                   k: int, comonad: str) -> tuple[bool, str]:
    """Check both tables are homomorphisms and mutually inverse under
    coextension; pure table work, no search."""
    g = _tree_game(comonad, "coKleisli isomorphism")
    lifted_a = g.lifted(a, k)
    lifted_b = g.lifted(b, k)
    star = g.coextend
    try:
        if not check_hom(forward, lifted_a, b):
            return False, "forward table is not a homomorphism"
        if not check_hom(backward, lifted_b, a):
            return False, "backward table is not a homomorphism"
    except ToolkitError as exc:
        return False, str(exc)
    for s in lifted_a.universe:
        if star(backward, star(forward, s)) != s:
            return False, f"backward after forward is not the identity at {s!r}"
    for t in lifted_b.universe:
        if star(forward, star(backward, t)) != t:
            return False, f"forward after backward is not the identity at {t!r}"
    return True, "ok"
