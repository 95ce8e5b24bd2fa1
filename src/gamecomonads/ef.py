"""The round-bounded game construction on sequences: its play tree, lifted
relations, its comonad as a Kleisli triple (counit and coextension), and the
existential decision.

A play over a structure is a nonempty tuple of universe elements of length at
most k, a child of the empty root.  `game.play_universe` lists the plays
length-first, then lexicographically by element declaration order.

The existential decision is `game.decide_exist` on this game's record: a
coKleisli table on a win, a `game.SpoilerNode` tree on a loss, whose steps
are one element each.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from .game import (ExistResult, Game, capped_count, decide_exist, law_report, multiset,
                   play_universe, powers, prefix_hom_error, prefix_lifting,
                   refined_colours, refined_values, won_within)
from .structures import Elem, Structure, _through, extend_type

Play = tuple  # nonempty tuple of elements


def check_plays(a: Structure, k: int, cap: int) -> int:
    """The number of plays of length <= k, counted without listing them;
    more than `cap` are refused."""
    return capped_count(powers(len(a.universe), k), cap,
                        "play universe has {count} elements, cap is {cap}")


def counit(s: Play) -> Elem:
    return s[-1]


def coextend(f: Callable[[Play], Elem], s: Play) -> Play:
    """f*[a_1..a_j] = [f[a_1], f[a_1,a_2], ..., f[a_1..a_j]]."""
    return tuple([f(s[:i]) for i in range(1, len(s) + 1)])


def decide_exist_ef(a: Structure, b: Structure, k: int) -> ExistResult:
    """Solve the k-round existential game from `a` to `b` by backward induction.

    True iff a homomorphism from the lifted `a` to `b` exists.  On a win the
    certificate is the full coKleisli table (first winning reply in declaration
    order); on a loss, a Spoiler winning tree.
    """
    return decide_exist(GAME, a, b, k)


def _play_error(play: Play, k: int, host: Structure) -> Optional[str]:
    if len(play) > k:
        return f"longer than k={k}"
    return None if all(e in host.index for e in play) else "element outside the universe"


def _step(s: Play, t: Play, a: Structure, b: Structure, iso: bool) -> bool:
    """The step of partial isomorphism (`iso`) or homomorphism of the play
    pairs: the last pair, judged by where its elements first occur and, when
    new, by the tuples of positions through the last (as `extend_type`)."""
    if not s:
        return True
    i, j = s.index(s[-1]), len(s) - 1
    if t[i] != t[-1] or iso and t.index(t[-1]) != i:
        return False
    if i < j:
        return True
    for name, arity in a.vocab.symbols:
        here, there = a.tuples(name), b.tuples(name)
        for get in _through(j, arity):
            held = get(s) in here
            if held != (get(t) in there) and (iso or held):
                return False
    return True


def _distinct(s: Play) -> tuple:
    """The distinct elements of a play in first-occurrence order: all that the
    back-and-forth game sees of it once its pairs form a partial isomorphism."""
    return tuple(dict.fromkeys(s))


def _counted_type(a: Structure, s: Play, parent) -> tuple:
    """The atomic type of `extend_type` without its equality entry: the
    bijective game sees which tuples along a play hold, but not which of its
    elements are equal, since coKleisli morphisms do not see equality."""
    whole = extend_type(a, s, parent)
    return whole[:1] + whole[2:]


GAME = Game(
    name="ef",
    root=lambda x: (),
    children=lambda x, node: [node + (e,) for e in x.universe],
    depth=len,
    check_plays=check_plays,
    lifted_at=prefix_lifting,  # a play lists its prefixes' last elements; any may join it
    pointed=False,
    winning=partial(_step, iso=True),
    forth=partial(_step, iso=False),
    position=lambda s, t: frozenset(zip(s, t)),
    refine=lambda a, b, k, cap: refined_values(GAME, a, b, k, cap, _distinct, extend_type),
    iso_colours=lambda a, b, k: refined_colours(GAME, a, b, k, lambda s: s, _counted_type,
                                                multiset),
    coextend=coextend,
    last=counit,
    parent=lambda s: s[:-1],
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, None),
    decide=lambda a, b, k, cap: won_within(GAME, decide_exist_ef(a, b, k), a, k, cap),
    laws=lambda a, k, trunc, cap: law_report(GAME, a, play_universe(GAME, a, k, cap)),
    exists_kinds=("ef-table", "ef-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="forest-cover",
)
