"""The pebble-indexed game construction: truncated play universes with the
active-pebble relation lifting, and a positional fixpoint decision of the
existential k-pebble game.

The untruncated play universe is infinite even over a finite structure, so it
is never materialized: laws are checked on an explicit truncation, and the
decision procedure works on positional strategies (families of partial
homomorphisms with domains of size <= k).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Optional

from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, LawReport, WinningSet, lift_along_prefixes,
                   pointwise_law_failure, prefix_hom_error, prefixes)
from .structures import Elem, Structure, check_hom, is_partial_hom

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


def _lifted_ok(combo: tuple[PebblePlay, ...]) -> bool:
    for u, v in combinations(combo, 2):
        if len(u) > len(v):
            u, v = v, u
        if v[: len(u)] != u:
            return False
        if len(u) < len(v) and not active_last(u, v):
            return False
    return True


def pebble_structure(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> Structure:
    """Lift `a` to the truncated play universe with the active-pebble condition."""
    return lift_along_prefixes(a, pebble_universe(a, k, n, cap), pebble_counit, _lifted_ok)


@dataclass(frozen=True)
class PebbleCoKleisli:
    """Total table on the n-truncated play universe."""

    k: int
    n: int
    source: Structure
    target: Structure
    table: Mapping[PebblePlay, Elem]

    def __post_init__(self):
        for s in pebble_universe(self.source, self.k, self.n):
            if s not in self.table:
                raise ToolkitError(f"table not total: play {s!r} unassigned")

    def __call__(self, s: PebblePlay) -> Elem:
        return self.table[s]

    def star(self, s: PebblePlay) -> PebblePlay:
        return pebble_coextend(self.table, s)

    def is_homomorphism(self, cap: int = DEFAULT_PLAY_CAP) -> bool:
        return check_hom(dict(self.table),
                         pebble_structure(self.source, self.k, self.n, cap), self.target)


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


def _sorted_parts(parts, a: Structure, b: Structure):
    ai, bi = a.index, b.index
    return sorted(parts, key=lambda p: (len(p), sorted((ai[x], bi[y]) for x, y in p)))


def decide_exist_pebble(a: Structure, b: Structure, k: int) -> PebbleResult:
    """Greatest family of partial homomorphisms with |dom| <= k closed under
    restriction and forth; Duplicator wins iff it is nonempty.

    Deletion runs in simultaneous passes, so the refutation DAG extracted from
    the deletion trace is well-founded by pass number.
    """
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_exist_pebble requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")

    family: set[PartialMapSet] = set()
    width = min(k, len(a.universe))
    for size in range(width + 1):
        for dom in combinations(a.universe, size):
            for img in product(b.universe, repeat=size):
                part = frozenset(zip(dom, img))
                if is_partial_hom(part, a, b):
                    family.add(part)

    # part -> (pass number, ('forth', elem) | ('restriction', pair))
    trace: dict[PartialMapSet, tuple[int, tuple]] = {}
    rnd = 0
    while True:
        rnd += 1
        removed = {}
        for part in _sorted_parts(family, a, b):
            reason = None
            for pair in sorted(part, key=lambda xy: (a.index[xy[0]], b.index[xy[1]])):
                if part - {pair} not in family:
                    reason = ("restriction", pair)
                    break
            if reason is None and len(part) < k:
                dom = {x for x, _ in part}
                for x in a.universe:
                    if x in dom:
                        continue
                    if not any(part | {(x, y)} in family for y in b.universe):
                        reason = ("forth", x)
                        break
            if reason is not None:
                removed[part] = (rnd, reason)
        if not removed:
            break
        for part, why in removed.items():
            family.discard(part)
            trace[part] = why

    if family:
        return PebbleResult(True, family=StrategyFamily(k, frozenset(family)))

    def refute(part: PartialMapSet) -> SpoilerPosition:
        _, reason = trace[part]
        if reason[0] == "restriction":
            pair = reason[1]
            return SpoilerPosition(part, drop=pair, child=refute(part - {pair}))
        x = reason[1]
        branches = []
        for y in b.universe:
            ext = part | {(x, y)}
            branches.append((y, refute(ext) if ext in trace else None))
        return SpoilerPosition(part, place=x, branches=tuple(branches))

    return PebbleResult(False, refutation=refute(frozenset()))


def audit_strategy_family(fam: StrategyFamily, a: Structure, b: Structure) -> tuple[bool, str]:
    """Independent audit: partial homs, restriction closure, forth, and the
    pebble-reuse (drop one pair, then extend) property at full domains."""
    parts = fam.parts
    k = fam.k
    if not parts:
        return False, "family is empty"
    if frozenset() not in parts:
        return False, "family does not contain the empty map"
    for part in parts:
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

    for part in parts:
        if len(part) < k:
            for x in a.universe:
                if not extends(part, x):
                    return False, f"forth fails at {sorted(part)!r} on {x!r}"
        else:
            for pair in part:
                rest = part - {pair}
                for x in a.universe:
                    if not extends(rest, x):
                        return False, f"pebble reuse fails at {sorted(part)!r} dropping {pair!r}"
    return True, "ok"


def audit_spoiler_positions(node: SpoilerPosition, a: Structure, b: Structure,
                            k: int) -> tuple[bool, str]:
    """Audit a positional refutation: root empty, moves legal, replies
    exhaustive, terminal maps broken, and strictly decreasing node depth."""
    seen: set[int] = set()

    def walk(nd: SpoilerPosition, expected: PartialMapSet) -> tuple[bool, str]:
        if id(nd) in seen:
            return False, "refutation DAG revisits a node along a path"
        seen.add(id(nd))
        try:
            if nd.pos != expected:
                return False, "position does not match the play so far"
            if not is_partial_hom(nd.pos, a, b):
                return False, "interior position is not a partial homomorphism"
            if nd.drop is not None:
                if nd.drop not in nd.pos or nd.child is None:
                    return False, "drop move malformed"
                return walk(nd.child, nd.pos - {nd.drop})
            if nd.place is None or nd.place not in a.index:
                return False, "placement move malformed"
            if len(nd.pos) >= k and nd.place not in {x for x, _ in nd.pos}:
                return False, "placement exceeds the pebble budget"
            replies = {y for y, _ in nd.branches}
            if replies != set(b.universe):
                return False, "replies not exhaustive"
            for y, child in nd.branches:
                ext = nd.pos | {(nd.place, y)}
                if child is None:
                    if is_partial_hom(ext, a, b):
                        return False, f"reply {y!r} claimed losing but map is a partial hom"
                else:
                    ok, why = walk(child, ext)
                    if not ok:
                        return ok, why
            return True, "ok"
        finally:
            seen.discard(id(nd))

    if node.pos != frozenset():
        return False, "root position is not the empty map"
    return walk(node, frozenset())


def check_pebble_laws(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Comonad laws on the n-truncation, pointwise; truncation keeps every play
    involved inside the cap (comultiplication preserves length)."""
    failure = pointwise_law_failure(pebble_universe(a, k, n, cap), pebble_counit,
                                    pebble_comult,
                                    lambda f, d: tuple((p, f(s)) for p, s in d),
                                    pebble_coextend)
    failures = [failure] if failure else []
    lifted = pebble_structure(a, k, n, cap)
    for name, _ in a.vocab.symbols:
        base = a.tuples(name)
        for combo in lifted.tuples(name):
            if tuple(c[-1][1] for c in combo) not in base:
                failures.append(f"counit not a homomorphism on {name} at {combo!r}")
                break
            if not _lifted_ok(tuple(pebble_comult(c) for c in combo)):
                failures.append(f"comult images violate the lifting on {combo!r}")
                break
        if failures:
            break
    return LawReport(not failures, tuple(failures))


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
    winning=WinningSet("pebble-partial-iso", lambda s, t, a, b: True, absorbing=True),
    coextend=pebble_coextend,
    last=pebble_counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, active_last),
    decide=lambda a, b, k: decide_exist_pebble(a, b, k),
    laws=lambda a, k, trunc, cap: check_pebble_laws(a, k, trunc, cap=cap),
    exists_kinds=("pebble-family", "pebble-refutation"),
    backforth_kinds=("pebble-safe", "pebble-bf-spoiler"),
    iso_kind=None,
    cover_kind="pebble-forest-cover",
)
