"""The registry of the three games, and the equivalences each game induces
beyond morphisms both ways: the back-and-forth game and coKleisli
isomorphism.

`GAMES` maps each game's name to the `Game` record its module builds; every
decider here looks the game up once and reads the play tree, lifting and
winning condition from that record.

Positions of the back-and-forth game are equal-depth pairs of play-tree nodes;
the initial position pairs the roots: the empty play for the sequence game and
the one-element paths at the distinguished elements for the modal game.  The
winning conditions are partial isomorphism of the play-pair history (sequence
game) and label-matched histories with pointwise unary agreement (modal); the
game is solved by colour refinement on each structure alone (`Game.refine`,
`game.refined_values`), once the keys it colours fit the cap.  A loss is
witnessed by `game.spoiler_tree`, which stops at the first reply that
leaves the winning set; a win by `game.won_positions`, one won play pair per
(position, round) below round k, read off only once the plays of both sides
fit the cap.

The pebble game has no play tree (its universe is infinite), so its
back-and-forth decision is positional, with unbounded rounds: the pebble game
of `pebbling` with Spoiler moving on both sides, whose family is of partial
isomorphisms with at most k pairs, closed under restriction, forth and back.
`pebbling.decide_back_forth` decides it, and builds its witness, by tuple refinement.
`solve_back_forth` refuses a pebble game whose candidate partial maps, or
whose tuples on either side, exceed its cap.  CoKleisli isomorphism is
decided for the sequence and modal games only, as their bijective game, by
the same refinement with multisets of colours (`Game.iso_colours`).
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import ef as ef_mod
from . import modal as modal_mod
from . import pebbling as pebble_mod
from .errors import ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, coextensions, lifted_hom, play_count, play_universe,
                   read_off, spoiler_tree, won_positions)
from .structures import Record, Structure

GAMES: dict[str, Game] = {g.name: g for g in (ef_mod.GAME, pebble_mod.GAME, modal_mod.GAME)}
COMONADS = tuple(GAMES)


def game(name: str) -> Game:
    try:
        return GAMES[name]
    except KeyError:
        raise ToolkitError(f"unknown comonad {name!r}; choose from {COMONADS}") from None


def _iso_game(name: str) -> Game:
    """The game `name`, which must have a play tree for coKleisli isomorphism."""
    g = game(name)
    if g.children is None:
        raise ToolkitError(f"coKleisli isomorphism is not decided for the {name} game")
    return g


# ---------------------------------------------------------------------------
# The back-and-forth game


class BackForthResult(Record):
    wins: bool
    duplicator: Optional[tuple] = None  # won play pairs, one per (position, round) below k
    spoiler: Optional[object] = None  # SpoilerNode; pebbling.SpoilerPosition for pebble
    safe_positions: Optional[frozenset] = None  # the pebble game's family of partial isos


def solve_back_forth(a: Structure, b: Structure, k: int, comonad: str,
                     cap: int = DEFAULT_PLAY_CAP) -> BackForthResult:
    """Decide the k-resource back-and-forth game.

    Sequence and modal games run k rounds, decided by `Game.refine`; the
    pebble game runs as an unbounded positional safety game, refused when its
    candidate partial maps or refined tuples exceed `cap`.
    """
    g = game(comonad)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("solve_back_forth requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    if g.children is None:
        pebble_mod.check_candidates(a, b, k, cap)
        pebble_mod.check_tuples(a, b, k, cap)
        return _solve_pebble_backforth(a, b, k)
    value = g.refine(a, b, k, cap)
    if value(g.root(a), g.root(b)):
        g.check_plays(a, k, cap)  # the won positions answer every play of each side
        g.check_plays(b, k, cap)
        return BackForthResult(True, duplicator=won_positions(g, a, b, k, value))
    return BackForthResult(False, spoiler=spoiler_tree(g, a, b, value, "AB"))


# ---------------------------------------------------------------------------
# Positional pebble game (unbounded rounds, safety fixpoint)


def _solve_pebble_backforth(a: Structure, b: Structure, k: int) -> BackForthResult:
    """The pebble game of `pebbling` with Spoiler on both sides
    (`pebbling.decide_back_forth`): the family of partial isomorphisms on a
    win, Spoiler's tree on a loss."""
    res = pebble_mod.decide_back_forth(a, b, k)
    if res.wins:
        return BackForthResult(True, safe_positions=res.family.parts)
    return BackForthResult(False, spoiler=res.refutation)


# ---------------------------------------------------------------------------
# CoKleisli isomorphism


class IsoResult(Record):
    wins: bool
    forward: Optional[Mapping] = None  # play of A -> element of B
    backward: Optional[Mapping] = None


def decide_cokleisli_iso(a: Structure, b: Structure, k: int, comonad: str = "ef",
                         cap: int = DEFAULT_PLAY_CAP) -> IsoResult:
    """Decide coKleisli isomorphism as Hella's bijective k-round game, by
    colour refinement with multisets (`Game.iso_colours`), once both sides'
    plays are counted under the cap; unequal counts lose at once.  On a win
    each child of a play answered by t is answered by the first still free
    child of t of its colour: winning is an equivalence, so this is the
    lexicographically first perfect matching.  The backward table is the
    forward one's inverse.  Sequence and modal games only."""
    g = _iso_game(comonad)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_cokleisli_iso requires a shared vocabulary")
    if play_count(g, a, k, cap) != play_count(g, b, k, cap):
        return IsoResult(False)
    colour_a, colour_b = g.iso_colours(a, b, k)
    if colour_a(g.root(a)) != colour_b(g.root(b)):
        return IsoResult(False)

    def replies(s: tuple, t: tuple) -> list:
        free: dict = {}  # colour -> the children of t of that colour, in order
        for u in g.children(b, t):
            free.setdefault(colour_b(u), []).append(u)
        return [free[colour_a(c)].pop(0) for c in g.children(a, s)]

    reply = dict(read_off(g, a, b, k, replies))
    return IsoResult(True, forward={s: g.last(t) for s, t in reply.items()},
                     backward={t: g.last(s) for s, t in reply.items()})


def audit_iso_pair(forward: Mapping, backward: Mapping, a: Structure, b: Structure,
                   k: int, comonad: str, cap: int = DEFAULT_PLAY_CAP) -> tuple[bool, str]:
    """Check both tables are homomorphisms from the liftings
    (`game.lifted_hom`, which builds neither) and mutually inverse under
    coextension; pure table work, no search, on play universes under `cap`.  Once both are homomorphisms,
    each coextension is a play of the other side, and a composite's
    coextension at a play extends its parent's by one step, so it is the
    identity at a play iff it is at the parent and the second table sends the
    first one's coextension back to the play's last element."""
    g = _iso_game(comonad)
    plays_a, plays_b = play_universe(g, a, k, cap), play_universe(g, b, k, cap)
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
