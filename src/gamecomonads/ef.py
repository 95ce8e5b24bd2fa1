"""The round-bounded game construction on sequences: its play tree, lifted
relations, counit/comultiplication/coextension, and the existential decision.

A play over a structure is a nonempty tuple of universe elements of length at
most k, a child of the empty root.  `game.play_universe` lists the plays
length-first, then lexicographically by element declaration order.

The existential decision is `game.decide_exist` on this game's record: a
coKleisli table on a win, a `game.SpoilerNode` tree on a loss, whose steps
are one element each.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, ExistResult, Game, LawReport, decide_exist, law_report,
                   lifted_structure, multiset, play_universe, prefix_hom_error, prefix_lifting,
                   prefixes, refined_colours, refined_values, won_within)
from .structures import Elem, Structure, extend_type, is_partial_hom, is_partial_iso

Play = tuple  # nonempty tuple of elements


def _play_count(size: int, k: int) -> int:
    return sum(size ** i for i in range(1, k + 1))


def check_plays(a: Structure, k: int, cap: int) -> int:
    """The number of plays of length <= k, counted without listing them;
    more than `cap` are refused."""
    count = _play_count(len(a.universe), k)
    if count > cap:
        raise CapExceededError(f"play universe has {count} elements, cap is {cap}")
    return count


def counit(s: Play) -> Elem:
    return s[-1]


def comult(s: Play) -> tuple[Play, ...]:
    """The play-of-plays of prefixes: coextension of the identity."""
    return tuple(prefixes(s))


def coextend(f: Mapping[Play, Elem] | Callable[[Play], Elem], s: Play) -> Play:
    """f*[a_1..a_j] = [f[a_1], f[a_1,a_2], ..., f[a_1..a_j]]."""
    get = f if callable(f) else f.__getitem__
    return tuple([get(s[:i]) for i in range(1, len(s) + 1)])


def ef_structure(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> Structure:
    """Lift `a` to its play universe: a tuple of plays is related iff the plays
    are pairwise prefix-comparable and their last elements form a tuple of `a`."""
    return lifted_structure(GAME, a, play_universe(GAME, a, k, cap))


def decide_exist_ef(a: Structure, b: Structure, k: int) -> ExistResult:
    """Solve the k-round existential game from `a` to `b` by backward induction.

    True iff a homomorphism from the lifted `a` to `b` exists.  On a win the
    certificate is the full coKleisli table (first winning reply in declaration
    order); on a loss, a Spoiler winning tree.
    """
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_exist_ef requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    return decide_exist(GAME, a, b, k)


def check_ef_laws(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Comonad laws over the full play universe."""
    return law_report(GAME, a, ef_structure(a, k, cap), comult)


def _play_error(play: Play, k: int, host: Structure) -> Optional[str]:
    if len(play) > k:
        return f"longer than k={k}"
    return None if all(e in host.index for e in play) else "element outside the universe"


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
    winning=lambda s, t, a, b: is_partial_iso(zip(s, t), a, b),
    forth=lambda s, t, a, b: is_partial_hom(zip(s, t), a, b),
    position=lambda s, t: frozenset(zip(s, t)),
    refine=lambda a, b, k, cap: refined_values(GAME, a, b, k, cap, _distinct, extend_type),
    iso_colours=lambda a, b, k: refined_colours(GAME, a, b, k, lambda s: s, _counted_type,
                                                multiset),
    coextend=coextend,
    last=counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, None),
    decide=lambda a, b, k, cap: won_within(GAME, decide_exist_ef(a, b, k), a, k, cap),
    laws=lambda a, k, trunc, cap: check_ef_laws(a, k, cap=cap),
    exists_kinds=("ef-table", "ef-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="forest-cover",
)
