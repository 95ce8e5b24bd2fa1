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
for the sequence and modal games only; coKleisli isomorphism is their
bijective game, `game.bijective_game`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import ef as ef_mod
from . import modal as modal_mod
from . import pebbling as pebble_mod
from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, bijective_game, coextensions, lifted_hom, read_off,
                   round_values, spoiler_tree, won_positions)
from .structures import Structure

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
                      cap: int) -> tuple[list, list]:
    """All tables f with (s, f*(s)) winning for every play s, found by DFS
    along the play forest in declaration order, pruning mid-branch since the
    winning condition is absorbing.  Every coextension must also be a play of
    `b` (a valid path, for modal tables).  Each table comes with its
    coextension, as the universe index of f*(s) for each play s in order."""
    plays = g.universe(a, k)
    index_b = {t: i for i, t in enumerate(g.universe(b, k))}

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
            st = g.coextend(f, s)
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
    g = _tree_game(comonad, "the strategy-set fixpoint")
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
# CoKleisli isomorphism


@dataclass(frozen=True)
class IsoResult:
    wins: bool
    forward: Optional[Mapping] = None  # play of A -> element of B
    backward: Optional[Mapping] = None


def decide_cokleisli_iso(a: Structure, b: Structure, k: int, comonad: str = "ef",
                         cap: int = DEFAULT_PLAY_CAP) -> IsoResult:
    """Decide coKleisli isomorphism as the bijective k-round game
    (`game.bijective_game`).  On a win the forward table answers each play
    along the lexicographically first matching at each pair, and the backward
    table is its inverse.  Both play universes are listed first, so a game
    over the play cap is refused before it is solved.  Sequence and modal
    games only."""
    g = _tree_game(comonad, "coKleisli isomorphism")
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_cokleisli_iso requires a shared vocabulary")
    plays = g.universe(a, k, cap)
    g.universe(b, k, cap)
    value, matching = bijective_game(g, a, b, k)
    if not value(g.root(a), g.root(b)):
        return IsoResult(False)
    reply = read_off(g, a, b, k, matching)
    return IsoResult(True, forward={s: g.last(reply[s]) for s in plays},
                     backward={reply[s]: g.last(s) for s in plays})


def audit_iso_pair(forward: Mapping, backward: Mapping, a: Structure, b: Structure,
                   k: int, comonad: str, cap: int = DEFAULT_PLAY_CAP) -> tuple[bool, str]:
    """Check both tables are homomorphisms from the liftings
    (`game.lifted_hom`, which builds neither) and mutually inverse under
    coextension; pure table work, no search, on play universes under `cap`.  Once both are homomorphisms,
    each coextension is a play of the other side, and a composite's
    coextension at a play extends its parent's by one step, so it is the
    identity at a play iff it is at the parent and the second table sends the
    first one's coextension back to the play's last element."""
    g = _tree_game(comonad, "coKleisli isomorphism")
    plays_a, plays_b = g.universe(a, k, cap), g.universe(b, k, cap)
    try:
        if not lifted_hom(g, a, b, k, forward, plays_a):
            return False, "forward table is not a homomorphism"
        if not lifted_hom(g, b, a, k, backward, plays_b):
            return False, "backward table is not a homomorphism"
    except ToolkitError as exc:
        return False, str(exc)
    for there, back, source, what in ((forward, backward, a, "backward after forward"),
                                      (backward, forward, b, "forward after backward")):
        for s, star in coextensions(g, source, there, k):
            if back[star] != g.last(s):
                return False, f"{what} is not the identity at {s!r}"
    return True, "ok"
