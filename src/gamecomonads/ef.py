"""The round-bounded game construction on sequences: play universes, lifted
relations, counit/comultiplication/coextension, and the existential decision.

A play over a structure is a nonempty tuple of universe elements of length at
most k.  Plays are ordered length-first, then lexicographically by element
declaration order; every enumeration below respects that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Optional

from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, CoKleisli, Game, LawReport, chain_error, first_replies,
                   law_report, lift_along_prefixes, prefix_hom_error, prefixes, round_values,
                   run, spoiler_moves, walk_tree)
from .structures import Elem, Structure, is_partial_hom, is_partial_iso

Play = tuple  # nonempty tuple of elements


def _play_count(size: int, k: int) -> int:
    return sum(size ** i for i in range(1, k + 1))


def ef_universe(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> list[Play]:
    """All nonempty plays of length <= k, in length-then-lex order."""
    if k < 1:
        raise ToolkitError("k must be >= 1")
    if _play_count(len(a.universe), k) > cap:
        raise CapExceededError(
            f"play universe has {_play_count(len(a.universe), k)} elements, cap is {cap}")
    plays: list[Play] = []
    for length in range(1, k + 1):
        plays.extend(product(a.universe, repeat=length))
    return plays


def counit(s: Play) -> Elem:
    return s[-1]


def comult(s: Play) -> tuple[Play, ...]:
    """The play-of-plays of prefixes: coextension of the identity."""
    return tuple(prefixes(s))


def coextend(f: Mapping[Play, Elem] | Callable[[Play], Elem], s: Play) -> Play:
    """f*[a_1..a_j] = [f[a_1], f[a_1,a_2], ..., f[a_1..a_j]]."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    return tuple(get(s[:i]) for i in range(1, len(s) + 1))


def ef_structure(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> Structure:
    """Lift `a` to its play universe: a tuple of plays is related iff the plays
    are pairwise prefix-comparable and their last elements form a tuple of `a`."""
    return lift_along_prefixes(a, ef_universe(a, k, cap), counit, None)


@dataclass(frozen=True)
class SpoilerNode:
    """One node of a Spoiler winning tree for the existential game.

    `move` is Spoiler's choice in the source; `branches` pairs each Duplicator
    reply with a subtree, or with None when the reply already breaks the
    partial-homomorphism condition.  No branches at all means the target
    universe is empty and Duplicator cannot reply.
    """

    move: Elem
    branches: tuple[tuple[Elem, Optional["SpoilerNode"]], ...]


@dataclass(frozen=True)
class ExistResult:
    wins: bool
    strategy: Optional[CoKleisli] = None
    refutation: Optional[SpoilerNode] = None


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

    value = round_values(GAME, a, b, k, GAME.forth, "A")
    if value((), ()):
        return ExistResult(True, strategy=first_replies(GAME, a, b, k, value))

    def spoiler(s: Play, t: Play):
        # value(s, t) is False: Spoiler has a move that every reply loses.
        _, s2, replies = next(move for move in spoiler_moves(GAME, a, b, s, t, "A")
                              if not any(value(*pair) for _, pair in move[2]))
        branches = []
        for t2, pair in replies:
            branches.append((t2[-1], None if value(*pair) is None else (yield spoiler(*pair))))
        return SpoilerNode(s2[-1], tuple(branches))

    return ExistResult(False, refutation=run(spoiler((), ())))


def audit_spoiler_tree(node: SpoilerNode, a: Structure, b: Structure, k: int) -> tuple[bool, str]:
    """Re-check a Spoiler tree using only partial-map audits (no game solving)."""
    def step(nd: Optional[SpoilerNode], pairs: tuple):
        if nd is None:
            if is_partial_hom(pairs, a, b):
                return f"leaf after reply {pairs[-1][1]!r} is still a partial homomorphism"
            return ()
        if len(pairs) >= k:
            return f"tree deeper than {k} rounds"
        if nd.move not in a.index:
            return f"move {nd.move!r} outside source universe"
        if b.universe and {y for y, _ in nd.branches} != set(b.universe):
            return f"replies not exhaustive at move {nd.move!r}"
        return [(child, pairs + ((nd.move, y),)) for y, child in nd.branches]

    return walk_tree(node, (), step)


def check_ef_laws(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Comonad laws over the full play universe: the comultiplication images
    of a lifted tuple must be pairwise prefix-comparable."""
    return law_report(GAME, a, ef_structure(a, k, cap), comult, lambda f, d: tuple(map(f, d)),
                      lambda name, images: chain_error(images, None) is None)


def _play_error(play: Play, k: int, host: Structure) -> Optional[str]:
    return f"longer than k={k}" if len(play) > k else None


def _extend(fstar: Mapping, s: Play, y: Elem) -> Play:
    return fstar[s[:-1]] + (y,) if len(s) > 1 else (y,)


GAME = Game(
    name="ef",
    root=lambda x: (),
    children=lambda x, node: [node + (e,) for e in x.universe],
    depth=len,
    universe=ef_universe,
    lifted=ef_structure,
    extend=_extend,
    winning=lambda s, t, a, b: is_partial_iso(list(zip(s, t)), a, b),
    forth=lambda s, t, a, b: is_partial_hom(list(zip(s, t)), a, b),
    position=lambda s, t: frozenset(zip(s, t)),
    coextend=coextend,
    last=counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, None),
    decide=lambda a, b, k, cap: decide_exist_ef(a, b, k),
    laws=lambda a, k, trunc, cap: check_ef_laws(a, k, cap=cap),
    exists_kinds=("ef-table", "ef-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="forest-cover",
)
