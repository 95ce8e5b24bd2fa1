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
from .game import (DEFAULT_PLAY_CAP, Game, LawReport, WinningSet, lift_along_prefixes,
                   pointwise_law_failure, prefix_hom_error, prefixes)
from .structures import Elem, Structure, check_hom, is_partial_hom, is_partial_iso

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
class EfCoKleisli:
    """A total table from plays of the source to elements of the target.

    Encodes a Duplicator strategy for the existential game; it is a morphism
    when `is_homomorphism` holds (checked against the lifted structure).
    """

    k: int
    source: Structure
    target: Structure
    table: Mapping[Play, Elem]

    def __post_init__(self):
        for s in ef_universe(self.source, self.k):
            if s not in self.table:
                raise ToolkitError(f"coKleisli table not total: play {s!r} unassigned")

    def __call__(self, s: Play) -> Elem:
        return self.table[s]

    def star(self, s: Play) -> Play:
        return coextend(self.table, s)

    def is_homomorphism(self, cap: int = DEFAULT_PLAY_CAP) -> bool:
        return check_hom(dict(self.table), ef_structure(self.source, self.k, cap), self.target)


def counit_cokleisli(a: Structure, k: int) -> EfCoKleisli:
    return EfCoKleisli(k, a, a, {s: s[-1] for s in ef_universe(a, k)})


def cokleisli_compose(g: EfCoKleisli, f: EfCoKleisli) -> EfCoKleisli:
    """(g after f)(s) = g(f*(s))."""
    if f.target.universe != g.source.universe or f.k != g.k:
        raise ToolkitError("coKleisli composition shape mismatch")
    table = {s: g.table[f.star(s)] for s in ef_universe(f.source, f.k)}
    return EfCoKleisli(f.k, f.source, g.target, table)


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

    def depth(self) -> int:
        subs = [n.depth() for _, n in self.branches if n is not None]
        return 1 + max(subs, default=0)


@dataclass(frozen=True)
class ExistResult:
    wins: bool
    strategy: Optional[EfCoKleisli] = None
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

    memo: dict[tuple[Play, Play], bool] = {}

    def ok(s: Play, t: Play) -> bool:
        return is_partial_hom(list(zip(s, t)), a, b)

    def win(s: Play, t: Play) -> bool:
        key = (s, t)
        if key in memo:
            return memo[key]
        if not ok(s, t):
            res = False
        elif len(s) == k:
            res = True
        else:
            res = all(any(win(s + (x,), t + (y,)) for y in b.universe) for x in a.universe)
        memo[key] = res
        return res

    if win((), ()):
        table: dict[Play, Elem] = {}
        response: dict[Play, Play] = {(): ()}
        for s in ef_universe(a, k):
            t = response[s[:-1]]
            y = next(y for y in b.universe if win(s, t + (y,)))
            response[s] = t + (y,)
            table[s] = y
        return ExistResult(True, strategy=EfCoKleisli(k, a, b, table))

    def spoiler(s: Play, t: Play) -> SpoilerNode:
        # win(s, t) is False and the current pairs still form a partial hom.
        x = next(x for x in a.universe
                 if not any(win(s + (x,), t + (y,)) for y in b.universe))
        branches = []
        for y in b.universe:
            s2, t2 = s + (x,), t + (y,)
            branches.append((y, None if not ok(s2, t2) else spoiler(s2, t2)))
        return SpoilerNode(x, tuple(branches))

    return ExistResult(False, refutation=spoiler((), ()))


def audit_spoiler_tree(node: SpoilerNode, a: Structure, b: Structure, k: int) -> tuple[bool, str]:
    """Re-check a Spoiler tree using only partial-map audits (no game solving)."""
    def walk(nd: SpoilerNode, pairs: list, depth: int) -> tuple[bool, str]:
        if depth > k:
            return False, f"tree deeper than {k} rounds"
        if nd.move not in a.index:
            return False, f"move {nd.move!r} outside source universe"
        seen = {y for y, _ in nd.branches}
        if seen != set(b.universe):
            if b.universe:
                return False, f"replies not exhaustive at move {nd.move!r}"
        for y, child in nd.branches:
            here = pairs + [(nd.move, y)]
            if child is None:
                if is_partial_hom(here, a, b):
                    return False, f"leaf after reply {y!r} is still a partial homomorphism"
            else:
                ok, why = walk(child, here, depth + 1)
                if not ok:
                    return ok, why
        return True, "ok"

    return walk(node, [], 1)


def check_ef_laws(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Pointwise comonad-law check over the full play universe.

    Verifies both counit identities, coassociativity, identity coextension of
    the counit, and the homomorphism property of counit and comultiplication.
    """
    failure = pointwise_law_failure(ef_universe(a, k, cap), counit, comult,
                                    lambda f, d: tuple(map(f, d)), coextend)
    failures = [failure] if failure else []
    lifted = ef_structure(a, k, cap)
    for name, _ in a.vocab.symbols:
        base = a.tuples(name)
        for combo in lifted.tuples(name):
            if tuple(c[-1] for c in combo) not in base:
                failures.append(f"counit not a homomorphism on {name} at {combo!r}")
                break
            images = [comult(c) for c in combo]
            for i, u in enumerate(images):
                for v in images[i + 1:]:
                    if u[:len(v)] != v and v[:len(u)] != u:
                        failures.append(f"comult images not prefix-comparable on {combo!r}")
                        break
        if failures:
            break
    return LawReport(not failures, tuple(failures))


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
    winning=WinningSet("ef-partial-iso",
                       lambda s, t, a, b: is_partial_iso(list(zip(s, t)), a, b),
                       absorbing=True),
    coextend=coextend,
    last=counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, None),
    decide=lambda a, b, k: decide_exist_ef(a, b, k),
    laws=lambda a, k, trunc, cap: check_ef_laws(a, k, cap=cap),
    exists_kinds=("ef-table", "ef-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="forest-cover",
)
