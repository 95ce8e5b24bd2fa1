"""The pebble-indexed game construction: truncated play universes with the
active-pebble relation lifting, and a positional fixpoint decision of the
existential k-pebble game.

The untruncated play universe is infinite even over a finite structure, so it
is never materialized: laws are checked on an explicit truncation, and the
decision procedure works on positional strategies (families of partial
homomorphisms with domains of size <= k).

Both pebble games are decided by one deletion engine.  `delete_to_fixpoint`
takes an initial family of positions and two callables: `obligations(pos)`
yields each Spoiler move at `pos` with a key, and `answers(pos)` yields the
keys of the moves that `pos` is itself a reply to.  A move's replies depend
only on its key, so a move has a reply in the family exactly when some
position of the family answers its key; a pass collects the answered keys in
one sweep and deletes each position with an unanswered move, without building
any reply position.  `refutation` reads Spoiler's strategy off the deletions,
and only it enumerates replies, through a third callable `replies(pos, move)`.
The existential game here and the back-and-forth game in `equivalence` each
supply their own family, moves, keys, replies and node type.  Both grow their
initial family one pebble at a time: partial homomorphisms and partial
isomorphisms are closed under restriction, so only the good positions of one
size are extended to the next.  Both refuse, before building any position, a
game with more candidate positions than the cap (`check_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Callable, Iterable, Mapping, Optional

from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, LawReport, chain_error, law_report,
                   lift_along_prefixes, prefix_hom_error, prefixes, walk_tree)
from .structures import Elem, Structure, is_partial_hom

Move = tuple  # (pebble index, element)
PebblePlay = tuple  # nonempty tuple of moves


def _pplay_count(size: int, k: int, n: int) -> int:
    return sum((k * size) ** i for i in range(1, n + 1))


def pebble_universe(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> list[PebblePlay]:
    """All plays of length <= n over moves (pebble, element), length-then-lex;
    moves ordered by pebble index first, then element declaration order."""
    if k < 1 or n < 1:
        raise ToolkitError("k and n must be >= 1")
    if _pplay_count(len(a.universe), k, n) > cap:
        raise CapExceededError(
            f"truncated universe has {_pplay_count(len(a.universe), k, n)} plays, cap is {cap}")
    moves = [(p, e) for p in range(1, k + 1) for e in a.universe]
    plays: list[PebblePlay] = []
    for length in range(1, n + 1):
        plays.extend(product(moves, repeat=length))
    return plays


def pebble_counit(s: PebblePlay) -> Elem:
    return s[-1][1]


def pebble_comult(s: PebblePlay) -> PebblePlay:
    """Prefix play with pebble indices carried over."""
    return tuple((s[i][0], s[: i + 1]) for i in range(len(s)))


def pebble_coextend(f, s: PebblePlay) -> PebblePlay:
    get = f.__getitem__ if isinstance(f, Mapping) else f
    return tuple((s[i][0], get(s[: i + 1])) for i in range(len(s)))


def active_last(s: PebblePlay, t: PebblePlay) -> bool:
    """For s a prefix of t: the pebble of s's last move is not reused in the
    strict suffix of s in t."""
    p = s[-1][0]
    return all(move[0] != p for move in t[len(s):])


def _on_one_branch(plays: tuple) -> bool:
    return chain_error(plays, active_last) is None


def pebble_structure(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> Structure:
    """Lift `a` to the truncated play universe with the active-pebble condition."""
    return lift_along_prefixes(a, pebble_universe(a, k, n, cap), pebble_counit, _on_one_branch)


PartialMapSet = frozenset  # frozenset of (source elem, target elem) pairs


@dataclass(frozen=True)
class StrategyFamily:
    """Positional Duplicator strategy: partial homomorphisms closed under
    restriction and satisfying the forth property."""

    k: int
    parts: frozenset  # frozenset of PartialMapSet


@dataclass(frozen=True)
class SpoilerPosition:
    """One node of a positional Spoiler refutation DAG.

    At `pos` (a partial map, known to be a partial homomorphism) Spoiler either
    picks up the pair `drop` (single child, no reply needed) or places a pebble
    on `place`; branches map each Duplicator reply to a child node or to None
    when the extended map is not a partial homomorphism.  Children were deleted
    strictly earlier by the fixpoint, so the recursion is well-founded.
    """

    pos: PartialMapSet
    drop: Optional[tuple] = None
    place: Optional[Elem] = None
    branches: tuple = ()  # ((reply, child-or-None), ...) when placing
    child: Optional["SpoilerPosition"] = None  # when dropping


@dataclass(frozen=True)
class PebbleResult:
    wins: bool
    family: Optional[StrategyFamily] = None
    refutation: Optional[SpoilerPosition] = None


def delete_to_fixpoint(positions: Iterable, obligations: Callable,
                       answers: Callable) -> tuple[set, dict]:
    """The greatest subfamily of `positions` in which every Spoiler move has a
    reply leading back into the subfamily.

    `obligations(pos)` yields each Spoiler move at `pos`, in the order in
    which Spoiler tries them, as a pair `(move, key)`.  `answers(pos)` yields
    the key of every move that has `pos` among its next positions.  The
    contract: a position answers a key exactly when it is one of the next
    positions of the moves with that key, so those moves all have the same
    next positions.  The next positions themselves are never built here.

    Deletion runs in simultaneous passes.  A pass judges every position
    against the family as it stood at the start of the pass: one sweep over
    the family collects the answered keys, then each position's first move
    whose key is not among them is its failing move.  Every next position of
    a failing move was therefore deleted in an earlier pass or never was in
    the family, which keeps `refutation` well-founded.  Returns the survivors
    and, per deleted position, its first move without a surviving reply.
    """
    alive = set(positions)
    trace: dict = {}
    while True:
        answered = {key for pos in alive for key in answers(pos)}
        removed = {}
        for pos in alive:
            for move, key in obligations(pos):
                if key not in answered:
                    removed[pos] = move
                    break
        if not removed:
            return alive, trace
        alive.difference_update(removed)
        trace.update(removed)


def refutation(trace: Mapping, root, replies: Callable, node: Callable):
    """Spoiler's strategy from the deleted position `root`, read off the trace
    of `delete_to_fixpoint`: at each position, the recorded move with every
    reply paired with the strategy at its next position, or with None when
    that position never was in the family.  `replies(pos, move)` yields the
    (reply, next position) pairs of a move, and `node(pos, move, branches)`
    builds one node."""
    def refute(pos):
        move = trace[pos]
        return node(pos, move, tuple((reply, refute(nxt) if nxt in trace else None)
                                     for reply, nxt in replies(pos, move)))

    return refute(root)


def check_candidates(count: int, cap: int) -> None:
    """Refuse a pebble game with more than `cap` candidate positions, before
    any of them is built."""
    if count > cap:
        raise CapExceededError(f"pebble game has {count} candidate positions, cap is {cap}")


def _partial_hom_family(a: Structure, b: Structure, k: int) -> set:
    """Every partial homomorphism with at most k pairs.  The family grows one
    domain element at a time, in declaration order: a map is a partial
    homomorphism only if it is one without its last domain element, so each
    size extends the good maps of the size below, and each map is judged
    once."""
    level = [(frozenset(), 0)]  # (map, index in `a` of the next domain element)
    family = {frozenset()}
    for _ in range(min(k, len(a.universe))):
        grown = []
        for part, start in level:
            for i in range(start, len(a.universe)):
                for y in b.universe:
                    ext = part | {(a.universe[i], y)}
                    if is_partial_hom(ext, a, b):
                        grown.append((ext, i + 1))
        family.update(ext for ext, _ in grown)
        level = grown
    return family


def decide_exist_pebble(a: Structure, b: Structure, k: int) -> PebbleResult:
    """Greatest family of partial homomorphisms with |dom| <= k closed under
    restriction and forth; Duplicator wins iff it is nonempty.

    Spoiler's moves at a part are dropping one of its pairs (in index order),
    then, below k pairs, placing a pebble on an element outside its domain.
    The key of a drop is the part without the pair, and the key of a placement
    is the part with the element to place.
    """
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_exist_pebble requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")

    def obligations(part: PartialMapSet):
        for pair in sorted(part, key=lambda xy: (a.index[xy[0]], b.index[xy[1]])):
            yield ("drop", pair), part - {pair}
        if len(part) < k:
            dom = {x for x, _ in part}
            for x in a.universe:
                if x not in dom:
                    yield ("place", x), (part, x)

    def answers(part: PartialMapSet):
        yield part
        for pair in part:
            yield part - {pair}, pair[0]

    def replies(part: PartialMapSet, move: tuple):
        if move[0] == "drop":
            return ((None, part - {move[1]}),)
        return ((y, part | {(move[1], y)}) for y in b.universe)

    def node(part: PartialMapSet, move: tuple, branches: tuple) -> SpoilerPosition:
        if move[0] == "drop":
            return SpoilerPosition(part, drop=move[1], child=branches[0][1])
        return SpoilerPosition(part, place=move[1], branches=branches)

    family, trace = delete_to_fixpoint(_partial_hom_family(a, b, k), obligations, answers)
    if family:
        return PebbleResult(True, family=StrategyFamily(k, frozenset(family)))
    return PebbleResult(False, refutation=refutation(trace, frozenset(), replies, node))


def _decide(a: Structure, b: Structure, k: int, cap: int) -> PebbleResult:
    """The existential decision of `GAME`: `decide_exist_pebble`, once the
    partial maps it may judge, those with at most k pairs and distinct domain
    elements, are known to fit in `cap`."""
    na, nb = len(a.universe), len(b.universe)
    check_candidates(sum(comb(na, s) * nb ** s for s in range(min(k, na) + 1)), cap)
    return decide_exist_pebble(a, b, k)


def declaration_rank(a: Structure, b: Structure) -> Callable[[tuple], tuple]:
    """Rank a pair (x, y), or a placement (i, x, y), by pebble index and then
    by the declaration indices of x in `a` and y in `b`; an element outside
    its universe ranks last."""
    ia, ib, na, nb = a.index, b.index, len(a.universe), len(b.universe)
    return lambda m: (*m[:-2], ia.get(m[-2], na), ib.get(m[-1], nb))


def in_declaration_order(sets: Iterable, rank: Callable[[tuple], tuple]) -> list:
    """`sets` (partial maps or placements) sorted by size, then by the sorted
    ranks of their members, so that an audit meets them, and names its first
    fault, in the same order whatever the hash seed."""
    return sorted(sets, key=lambda p: (len(p), sorted(map(rank, p))))


def audit_strategy_family(fam: StrategyFamily, a: Structure, b: Structure) -> tuple[bool, str]:
    """Independent audit: partial homs, restriction closure, and forth below
    k pairs.  Reusing a pebble at a full part needs nothing more: closure puts
    the part without the pair in the family, where forth is checked."""
    parts = fam.parts
    k = fam.k
    if not parts:
        return False, "family is empty"
    if frozenset() not in parts:
        return False, "family does not contain the empty map"
    rank = declaration_rank(a, b)
    ordered = in_declaration_order(parts, rank)
    for part in ordered:
        if len(part) > k:
            return False, f"part {sorted(part)!r} exceeds {k} pairs"
        if not is_partial_hom(part, a, b):
            return False, f"part {sorted(part)!r} is not a partial homomorphism"
        for pair in part:
            if part - {pair} not in parts:
                return False, f"family not closed under restriction at {sorted(part)!r}"

    def extends(base: PartialMapSet, x: Elem) -> bool:
        if x in {u for u, _ in base}:
            return True
        return any(base | {(x, y)} in parts for y in b.universe)

    for part in ordered:
        if len(part) < k:
            for x in a.universe:
                if not extends(part, x):
                    return False, f"forth fails at {sorted(part)!r} on {x!r}"
    return True, "ok"


def audit_spoiler_positions(node: SpoilerPosition, a: Structure, b: Structure,
                            k: int) -> tuple[bool, str]:
    """Audit a positional refutation: root empty, moves legal, replies
    exhaustive, terminal maps broken, and each position matching the play so far."""
    def step(nd: Optional[SpoilerPosition], at: tuple):
        expected, reply = at
        if nd is None:
            if is_partial_hom(expected, a, b):
                return f"reply {reply!r} claimed losing but map is a partial hom"
            return ()
        if nd.pos != expected:
            return "position does not match the play so far"
        if not is_partial_hom(nd.pos, a, b):
            return "interior position is not a partial homomorphism"
        if nd.drop is not None:
            if nd.drop not in nd.pos or nd.child is None:
                return "drop move malformed"
            return [(nd.child, (nd.pos - {nd.drop}, None))]
        if nd.place is None or nd.place not in a.index:
            return "placement move malformed"
        if len(nd.pos) >= k and nd.place not in {x for x, _ in nd.pos}:
            return "placement exceeds the pebble budget"
        if {y for y, _ in nd.branches} != set(b.universe):
            return "replies not exhaustive"
        return [(child, (nd.pos | {(nd.place, y)}, y)) for y, child in nd.branches]

    if node.pos != frozenset():
        return False, "root position is not the empty map"
    return walk_tree(node, (frozenset(), None), step)


def check_pebble_laws(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Comonad laws on the n-truncation, pointwise; truncation keeps every play
    involved inside the cap (comultiplication preserves length).  The
    comultiplication images of a lifted tuple must lie on one branch with
    their pebbles active."""
    return law_report(GAME, a, pebble_structure(a, k, n, cap), pebble_comult,
                      lambda f, d: tuple((p, f(s)) for p, s in d),
                      lambda name, images: _on_one_branch(images))


def _play_error(play: PebblePlay, k: int, host: Structure) -> Optional[str]:
    for move in play:
        if not (isinstance(move, tuple) and len(move) == 2):
            return "move is not a (pebble, element) pair"
        if not (1 <= move[0] <= k):
            return f"pebble index {move[0]!r} outside 1..{k}"
    return None


GAME = Game(
    name="pebble",
    root=None,
    children=None,
    depth=None,
    universe=None,
    lifted=None,
    extend=None,
    # the positional game checks partial isomorphism of the placements itself
    winning=None,
    forth=None,
    position=None,
    coextend=pebble_coextend,
    last=pebble_counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, active_last),
    decide=_decide,
    laws=lambda a, k, trunc, cap: check_pebble_laws(a, k, trunc, cap=cap),
    exists_kinds=("pebble-family", "pebble-refutation"),
    backforth_kinds=("pebble-safe", "pebble-bf-spoiler"),
    iso_kind=None,
    cover_kind="pebble-forest-cover",
)
