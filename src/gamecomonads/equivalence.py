"""The registry of the three games, and the equivalences each game induces
beyond morphisms both ways: the back-and-forth game, the strategy-set
fixpoint, and coKleisli isomorphism.

`GAMES` maps each game's name to the `Game` record its module builds; every
decider here looks the game up once and reads the play tree, lifting and
winning condition from that record.

Positions of the back-and-forth game are equal-depth pairs of play-tree nodes;
the initial position pairs the roots: the empty play for the sequence game and
the one-element paths at the distinguished elements for the modal game.  The
winning conditions are partial isomorphism of the play-pair history (sequence
game) and label-matched histories with pointwise unary agreement (modal); the
game is solved by `game.round_values` with Spoiler moving on both sides.  A
loss is witnessed by `game.spoiler_tree`, which stops at the first reply that
leaves the winning set; a win by `game.won_positions`, one won play pair per
(position, round) below round k, read off only once the plays of both sides
fit the cap.

The pebble game has no play tree (its universe is infinite), so its
back-and-forth decision is positional, with unbounded rounds: the pebble game
of `pebbling` with Spoiler moving on both sides, whose family is of partial
isomorphisms with at most k pairs, closed under restriction, forth and back.
`solve_back_forth` refuses a pebble game whose candidate partial maps exceed
its cap.  The strategy-set fixpoint and coKleisli isomorphism are decided
for the sequence and modal games only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import ef as ef_mod
from . import modal as modal_mod
from . import pebbling as pebble_mod
from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import DEFAULT_PLAY_CAP, Game, round_values, spoiler_tree, won_positions
from .structures import Structure, check_hom

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
# The back-and-forth game


@dataclass(frozen=True)
class BackForthResult:
    wins: bool
    duplicator: Optional[tuple] = None  # won play pairs, one per (position, round) below k
    spoiler: Optional[object] = None  # SpoilerNode; pebbling.SpoilerPosition for pebble
    safe_positions: Optional[frozenset] = None  # the pebble game's family of partial isos


def solve_back_forth(a: Structure, b: Structure, k: int, comonad: str,
                     cap: int = DEFAULT_PLAY_CAP) -> BackForthResult:
    """Decide the k-resource back-and-forth game.

    Sequence and modal games run k rounds by backward induction on positions;
    the pebble game runs as an unbounded positional safety game, refused when
    its candidate partial maps exceed `cap`.
    """
    g = game(comonad)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("solve_back_forth requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    if g.children is None:
        pebble_mod.check_candidates(a, b, k, cap)
        return _solve_pebble_backforth(a, b, k)
    value = round_values(g, a, b, k, g.winning, "AB")
    if value(g.root(a), g.root(b)):
        g.universe(a, k, cap)  # enforce --cap-plays on the plays of each side
        g.universe(b, k, cap)
        return BackForthResult(True, duplicator=won_positions(g, a, b, k, value))
    return BackForthResult(False, spoiler=spoiler_tree(g, a, b, value, "AB"))


# ---------------------------------------------------------------------------
# Positional pebble game (unbounded rounds, safety fixpoint)


def _solve_pebble_backforth(a: Structure, b: Structure, k: int) -> BackForthResult:
    """The pebble game of `pebbling` with Spoiler on both sides: the family of
    partial isomorphisms on a win, Spoiler's tree on a loss."""
    res = pebble_mod.decide_pebble(a, b, k, "AB")
    if res.wins:
        return BackForthResult(True, safe_positions=res.family.parts)
    return BackForthResult(False, spoiler=res.refutation)


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
                      cap: int) -> tuple[list, list, list]:
    """All tables f with (s, f*(s)) winning for every play s, found by DFS
    along the play forest in declaration order, pruning mid-branch since the
    winning condition is absorbing.  Every coextension must also be a play of
    `b` (a valid path, for modal tables)."""
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
            if not g.winning(s, st, a, b):
                continue
            f[s] = y
            fstar[s] = st
            dfs(i + 1)
            del f[s], fstar[s]

    dfs(0)
    return plays, tables, stars


def theta_fixpoint(a: Structure, b: Structure, k: int, comonad: str = "ef",
                   cap: int = DEFAULT_TABLE_CAP) -> ThetaResult:
    """Literal descending iteration to the greatest fixpoint of the composite
    inversion operator on strategy-table sets; nonempty iff the back-and-forth
    equivalence holds.  Sequence and modal games only."""
    g = _tree_game(comonad, "the strategy-set fixpoint")
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("theta_fixpoint requires a shared vocabulary")
    # the winning conditions are symmetric, so tables back from b are judged alike
    plays_a, tabs_s, stars_s = _enumerate_tables(a, b, k, g, cap)
    plays_b, tabs_t, stars_t = _enumerate_tables(b, a, k, g, cap)
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
    # Depth-first along plays_a with an explicit stack holding, per play, the
    # replies not yet tried; a last level past the final play marks a full table.
    stack = [iter(b.universe)]
    while stack:
        i = len(stack) - 1
        if i == len(plays_a):
            inv = {fstar[s]: s for s in plays_a}
            back = {t: inv[t][-1] for t in plays_b}
            if check_hom(back, lifted_b, a):
                return IsoResult(True, forward=dict(f), backward=back)
            stack.pop()
            continue
        s = plays_a[i]
        if s in f:  # the reply tried last led to no witness
            used.discard(fstar.pop(s))
            del f[s]
        for y in stack[-1]:
            nodes_budget -= 1
            if nodes_budget < 0:
                raise CapExceededError("coKleisli isomorphism search budget exceeded")
            st = g.extend(fstar, s, y)
            if st in used or st not in playset_b:
                continue
            f[s] = y
            if all(tuple(f[c] for c in combo) in b.tuples(name)
                   for name, combo in constraints[s]):
                fstar[s] = st
                used.add(st)
                break
            del f[s]
        else:
            stack.pop()
            continue
        stack.append(iter(b.universe))
    return IsoResult(False)


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
