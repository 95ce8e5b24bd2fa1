"""What the three game constructions share.

Each game module (`ef`, `pebbling`, `modal`) builds one `Game` record that
says how its plays are shaped, lifted, extended and read back from a
coalgebra, which procedures decide it, and which certificate kinds witness
its verdicts.  It states the game's comonad once, as a Kleisli triple: the
play tree, the counit (`Game.last`) and the coextension of a function
(`Game.coextend`); `equivalence.GAMES` collects the three.  Callables in a
record that the benchmark tracer rebinds (the deciders) are wrapped so that
they look the module attribute up at call time.

This module also holds the pieces the constructions would otherwise repeat:
the play cap and the one cap check on a count (`capped_count`), the one walk
of a round-bounded game's play tree (`walk_plays`) off which its plays, a
table's coextensions and Duplicator's replies are read, the cap on a won
table (`won_within`), the lifting along play prefixes at one top play, the
one comonad-law report (`law_report`, which lifts a structure to a list of
its plays and derives the comultiplication as the coextension of the
identity), the one coKleisli morphism record and the homomorphism check run
on it (which builds no lifted structure), the one Spoiler-tree walk that the
refutation audits and the certificate writer run on, and the driver (`run`)
that runs recursion written as generators on an explicit stack.

The round-bounded games (sequence and modal) are solved here, in two ways.
`round_values` is the backward induction, for the sides Spoiler may move on
and the condition Duplicator must keep, and decides the existential game.
Colour refinement on each structure alone (`refined_colours`) decides the two
equivalences: with the set of the children's colours the back-and-forth game
(`refined_values`, with the contract of the backward induction, which stays
as its test oracle), and with their multiset the bijective game, whose wins
are the coKleisli isomorphisms.  Their witnesses are read off in one way
each: Duplicator's tables of the existential game (`first_replies`) and of
the bijective game, by the play walk (`read_off`); Duplicator's won
positions of the back-and-forth game (`won_positions`, one play pair per
position and round, which `audit_won_positions` checks without solving); and
Spoiler's tree of the existential or back-and-forth game (`spoiler_tree`,
one `SpoilerNode` type), which `audit_spoiler_tree` replays without solving.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import combinations, repeat
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional

from .errors import CapExceededError, ToolkitError, VocabularyMismatchError
from .structures import Elem, Record, Structure, _through, check_hom

DEFAULT_PLAY_CAP = 10 ** 6


def capped_count(terms: Iterable[int], cap: int, refusal: str) -> int:
    """The sum of `terms`, a count of what a decision would list, refused
    with CapExceededError when it exceeds `cap`; `refusal` is the message,
    with `{count}` and `{cap}` fields.  The interpreter converts an integer
    of at most D digits to a string (`sys.get_int_max_str_digits`, 4300 by
    default), so summing stops once the count passes both the cap and
    10 ** D, and the message then names it as at least 10^D."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    shown = 10 ** digits
    stop = max(cap + 1, shown)
    count = 0
    for term in terms:
        count += term
        if count >= stop:
            break
    if count > cap:
        raise CapExceededError(refusal.format(
            count=count if count < shown else f"at least 10^{digits}", cap=cap))
    return count


def powers(base: int, top: int) -> Iterator[int]:
    """base ** i for i = 1..top, the number of plays of each length over
    `base` moves; below base 2 they are all equal and come as their sum."""
    if base < 2:
        yield base * top
        return
    term = 1
    for _ in range(top):
        term *= base
        yield term


class LawReport(Record):
    ok: bool
    failures: tuple[str, ...] = ()


def pointwise_law_failure(game: Game, plays: list, comult: Callable) -> Optional[str]:
    """The first play at which a comonad law fails: both counit identities,
    coassociativity, or coextension of the counit being the identity.  The
    functor maps `f` over a play of plays as the coextension of `f` after the
    counit."""
    counit, coextend = game.last, game.coextend
    for s in plays:
        d = comult(s)
        if counit(d) != s:
            return f"counit(comult({s!r})) != {s!r}"
        if coextend(lambda x: counit(counit(x)), d) != s:
            return f"mapped-counit of comult({s!r}) != {s!r}"
        if comult(d) != coextend(lambda x: comult(counit(x)), d):
            return f"coassociativity fails at {s!r}"
        if coextend(counit, s) != s:
            return f"coextension of counit not identity at {s!r}"
    return None


def prefixes(s: tuple) -> list[tuple]:
    """Nonempty prefixes, ending with s: `Game.lifted_at`'s label at each position."""
    return [s[:i] for i in range(1, len(s) + 1)]


def prefix_lifting(a: Structure, tips: list, labels: list) -> Iterator[tuple[str, tuple]]:
    """The lifted tuples of `a` whose longest play is one play `top`, drawn
    from the prefixes of `top` that may join it, `top` last: `tips[j]` is the
    last element of the j-th and `labels[j]` what stands for it (the prefix
    itself, or its image).  A tuple is related iff its last elements form a
    tuple of `a`, and is yielded as its symbol and labels.  Its positions
    are a tuple of positions through the last (`structures._through`), so
    it is built once."""
    d = len(tips) - 1
    for name, arity in a.vocab.symbols:
        base = a.tuples(name)
        for get in _through(d, arity):
            if get(tips) in base:
                yield name, get(labels)


def lifted_structure(game: Game, a: Structure, plays: list) -> Structure:
    """The lifting of `a` to `plays`, a prefix-closed set of its plays: the
    tuples of `game.lifted_at` at each play, labelled by the prefixes, and
    the root play as the point when the game's lifting is pointed."""
    interp: dict[str, set] = {name: set() for name in a.vocab.names}
    for top in plays:
        for name, chain in game.lifted_at(a, top, prefixes(top)):
            interp[name].add(chain)
    return Structure(a.vocab, tuple(plays), {n: frozenset(r) for n, r in interp.items()},
                     game.root(a) if game.pointed else None)


def chain_error(plays, active: Optional[Callable[[tuple, tuple], bool]]) -> Optional[str]:
    """Why `plays` do not lie on one branch of the play tree: they must be
    pairwise prefix-comparable and, unless `active` is None, each shorter one
    must stay active along each longer one."""
    for s, t in combinations(plays, 2):
        if len(s) > len(t):
            s, t = t, s
        if t[: len(s)] != s:
            return "images not prefix-comparable"
        if active is not None and len(s) < len(t) and not active(s, t):
            return "active-pebble condition violated"
    return None


def prefix_hom_error(alpha: Mapping[Elem, tuple], a: Structure,
                     active: Optional[Callable[[tuple, tuple], bool]]) -> Optional[str]:
    """Why `alpha` is not a homomorphism into a prefix-lifted structure: the
    images of each tuple must pass `chain_error`."""
    for name, _ in a.vocab.symbols:
        for tup in a.tuples(name):
            why = chain_error([alpha[e] for e in tup], active)
            if why is not None:
                return f"homomorphism fails on {name}{tup!r}: {why}"
    return None


def walk_tree(root, state, step: Callable) -> tuple[bool, str]:
    """Visit a Spoiler tree in preorder with an explicit stack, so a deep tree
    does not exhaust the interpreter's recursion limit.

    `step(node, state)` is called on each node, and on None for a reply
    claimed to lose at once.  It returns the reason the node fails, or the
    node's (child, state) pairs in branch order.  The walk stops at the first
    failure."""
    todo = [(root, state)]
    while todo:
        got = step(*todo.pop())
        if isinstance(got, str):
            return False, got
        todo.extend(reversed(got))
    return True, "ok"


def run(gen: Generator):
    """Run a recursion written as generators on an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit: a generator
    makes each recursive call as `(yield f(...))`, where `f(...)` is again
    such a generator, and receives the value it returns."""
    stack, result = [gen], None
    while stack:
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(call)
            result = None
    return result


class Game(Record):
    """One game construction, as the deciders, coalgebra checks, certificates
    and the command line see it."""

    name: str
    # Play tree of the round-bounded games; None for the positional pebble game.
    root: Optional[Callable[[Structure], tuple]]  # validates the structure too
    children: Optional[Callable[[Structure, tuple], list]]
    depth: Optional[Callable[[tuple], int]]
    # (x, k, cap) -> the number of plays of depth <= k, counted without listing
    # them; more than `cap` are refused
    check_plays: Optional[Callable[[Structure, int, int], int]]
    # The lifting: `lifted_at(a, top, labels)` yields each lifted tuple whose
    # longest play is `top`, as its symbol and the labels at its positions,
    # where `labels[j]` stands for the prefix `top[:j + 1]`; `pointed` when
    # the root is a play and the lifting is pointed at it.
    lifted_at: Callable[[Structure, tuple, list], Iterator[tuple[str, tuple]]]
    pointed: bool
    # Winning conditions of the back-and-forth and the existential game, as step
    # conditions (s, t, a, b) -> bool on equal-depth plays: does (s, t) meet it,
    # given that its parent pair (`parent` of each play) does?
    winning: Optional[Callable[[tuple, tuple, Structure, Structure], bool]]
    forth: Optional[Callable[[tuple, tuple, Structure, Structure], bool]]
    # What the value of (s, t) depends on besides its depth, once every
    # proper prefix of (s, t) meets the game's condition; `round_values` and
    # `refined_values` memoise on it, and `audit_won_positions` relies on it.
    position: Optional[Callable[[tuple, tuple], object]]
    # The back-and-forth game by colour refinement on each structure alone:
    # `(a, b, k, cap) -> value` with the contract of `round_values` under
    # `winning` with Spoiler on both sides (`refined_values`); None for the
    # positional pebble game, whose tuples `pebbling.decide_back_forth` refines.
    refine: Optional[Callable]
    # The bijective game, whose wins are the coKleisli isomorphisms, by the
    # same refinement with multisets: `(a, b, k) -> (colour_a, colour_b)`
    # (`refined_colours`), run once both sides' plays are counted under the
    # cap; None for the pebble game.
    iso_colours: Optional[Callable]
    # The comonad as a Kleisli triple with the play tree: `coextend(f, s)` is
    # f*(s) for a function f from plays to elements, and `last` the counit.
    coextend: Callable
    # Reading a coalgebra play: `parent(s)` is s one step up the play tree, and
    # `play_error(play, k, host)` says why a tuple is no play of `host` of depth
    # <= k (only its shape, in the pebble game).
    last: Callable[[tuple], Elem]
    parent: Callable[[tuple], tuple]
    play_error: Callable[[tuple, int, Structure], Optional[str]]
    hom_error: Callable[[Mapping, Structure], Optional[str]]
    # (a, b, k, cap) -> result with .wins and .refutation; refused when a won
    # table answers more than `cap` plays, or, in the pebble game, before it
    # is solved when its candidate positions exceed `cap`
    decide: Callable
    laws: Callable  # (a, k, trunc, cap) -> LawReport
    # Certificate kinds: (true, false) pairs, then the iso and coalgebra witnesses.
    exists_kinds: tuple[str, str]
    backforth_kinds: tuple[str, str]
    iso_kind: Optional[str]
    cover_kind: str

    @property
    def kinds(self) -> frozenset:
        """Every certificate kind that may name this game."""
        return frozenset((*self.exists_kinds, *self.backforth_kinds, self.iso_kind,
                          self.cover_kind, "both-pair")) - {None}


def walk_plays(game: Game, a: Structure, k: int, value=None,
               carry: Optional[Callable] = None) -> Iterator[tuple[tuple, object]]:
    """Each play of `a` up to round k with its value, breadth-first, children
    in declaration order; the root is a play only when the lifting is
    pointed.  `value` is the root's, and `carry(s, v, kids)` gives the values
    of the children `kids` of s, in order, from the value v of s (None
    without `carry`).  Only the plays before round k are kept."""
    root = game.root(a)
    if game.pointed:
        yield root, value
    level = [(root, value)]
    for depth in range(1, k + 1):
        if not level:  # the play tree has ended
            return
        below = []
        for s, v in level:
            kids = game.children(a, s)
            for c, cv in zip(kids, carry(s, v, kids) if carry else repeat(None)):
                yield c, cv
                if depth < k:
                    below.append((c, cv))
        level = below


def play_count(game: Game, a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> int:
    """The number of plays of `a` up to round k, refused over `cap` without
    listing them; `game.root` validates `a`."""
    game.root(a)
    if k < 1:
        raise ToolkitError("k must be >= 1")
    return game.check_plays(a, k, cap)


def play_universe(game: Game, a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> list:
    """The plays of `a` up to round k, in `walk_plays` order, once
    `play_count` admits them."""
    play_count(game, a, k, cap)
    return [s for s, _ in walk_plays(game, a, k)]


def won_within(game: Game, res, a: Structure, k: int, cap: int):
    """`res`, an existential decision from `a` up to round k, once a won table
    is known to answer at most `cap` plays; a lost game lists none."""
    if res.wins:
        game.check_plays(a, k, cap)
    return res


class CoKleisli(Record):
    """A coKleisli morphism of a round-bounded game: a table from the plays of
    depth <= k of `source` to elements of `target`.

    It encodes a Duplicator strategy for the existential game and is a
    morphism when `is_homomorphism` holds (`lifted_hom`: total, and checked
    one lifted tuple at a time, the lifting never built) on the plays listed
    under `cap`.
    """

    game: Game
    k: int
    source: Structure
    target: Structure
    table: Mapping[tuple, Elem]
    cap: int = DEFAULT_PLAY_CAP

    def is_homomorphism(self) -> bool:
        return lifted_hom(self.game, self.source, self.target, self.k, self.table,
                          play_universe(self.game, self.source, self.k, self.cap))


def coextensions(game: Game, a: Structure, table: Mapping, k: int) -> Iterator[tuple]:
    """Each play s of `a` up to round k, in `walk_plays` order, with its
    coextension f*(s) under the total `table`, carried from its parent's: a
    step ends with the element it adds, which the coextension maps."""
    root = game.root(a)
    return walk_plays(game, a, k, (table[root],) if game.pointed else (),
                      lambda s, star, kids: [star + c[len(s):-1] + (table[c],) for c in kids])


def lifted_hom(game: Game, a: Structure, b: Structure, k: int, table: Mapping,
               plays: list) -> bool:
    """`check_hom(table, lifting of a, b)` without building the lifting:
    `plays` are the plays of `a` up to round k (`play_universe`).
    The table must be total on them with values in `b` (else ToolkitError),
    send a pointed lifting's root to the point of a pointed `b`, and map each
    lifted tuple at each play into `b`, the tuple's images read off the play's
    coextension at its positions; the walk stops at the first failure."""
    for s in plays:
        if s not in table:
            raise ToolkitError(f"mapping not total: {s!r} unassigned")
    for s in plays:
        if table[s] not in b.index:
            raise ToolkitError(f"mapping value {table[s]!r} outside target universe")
    if game.pointed and b.is_pointed and table[game.root(a)] != b.point:
        return False
    targets = {name: b.tuples(name) for name in a.vocab.names}
    for top, star in coextensions(game, a, table, k):
        for name, image in game.lifted_at(a, top, star):
            if image not in targets[name]:
                return False
    return True


def spoiler_moves(game: Game, a: Structure, b: Structure, s: tuple, t: tuple, sides: str):
    """Spoiler's moves at (s, t) on each side in `sides` ("A": children of s,
    "B": children of t), each as (side, move, replies), where a reply is
    (Duplicator's child, the pair of plays it leads to); all in declaration
    order."""
    cs, ct = game.children(a, s), game.children(b, t)
    for side in sides:
        mine, theirs = (cs, ct) if side == "A" else (ct, cs)
        for m in mine:
            yield side, m, [(r, (m, r) if side == "A" else (r, m)) for r in theirs]


def round_values(game: Game, a: Structure, b: Structure, k: int, holds: Callable,
                 sides: str) -> Callable[[tuple, tuple], Optional[bool]]:
    """Solve the k-round game from `a` to `b` in which Spoiler moves on the
    sides in `sides` and Duplicator must keep `holds` (`game.forth` or
    `game.winning`) true, by backward induction run under `run`.

    The returned `value(s, t)`, for equal-depth plays whose proper prefixes
    all hold, is True when Duplicator wins from (s, t), False when Spoiler
    does, and None when (s, t) itself fails `holds`, a step condition that
    relies on that contract.  The value is fixed by `game.position(s, t)` and
    the depth, which is the memo key."""
    memo: dict = {}

    def wins(s: tuple, t: tuple, d: int):  # (s, t) holds, in round d < k
        for _, _, replies in spoiler_moves(game, a, b, s, t, sides):
            for _, pair in replies:
                at = game.position(*pair), d + 1
                if at not in memo and holds(*pair, a, b):
                    memo[at] = d + 1 == k or (yield wins(*pair, d + 1))
                if memo.setdefault(at, None):
                    break
            else:
                return False
        return True

    def value(s: tuple, t: tuple) -> Optional[bool]:
        key = game.position(s, t), game.depth(s)
        if key not in memo and holds(s, t, a, b):
            memo[key] = key[1] == k or run(wins(s, t, key[1]))
        return memo.setdefault(key, None)

    return value


def refined_values(game: Game, a: Structure, b: Structure, k: int, cap: int,
                   key: Callable[[tuple], tuple], atomic: Callable):
    """Solve the k-round back-and-forth game from `a` to `b` with the
    contract of `round_values` under `game.winning` with Spoiler on both
    sides: a position of the winning set is won iff its plays have one
    colour under `refined_colours` with sets (the rank-r type of Fraïssé for
    the sequence game, k-bisimulation for the modal game).  More than `cap`
    keys on either side are refused."""
    colour_a, colour_b = refined_colours(game, a, b, k, key, atomic, frozenset, cap)
    memo: dict = {}

    def value(s: tuple, t: tuple) -> Optional[bool]:
        at = game.position(s, t), game.depth(s)
        if at not in memo:
            memo[at] = colour_a(s) == colour_b(t) if game.winning(s, t, a, b) else None
        return memo[at]

    return value


def multiset(colours) -> tuple:
    """The children's colours as a multiset: their sorted tuple."""
    return tuple(sorted(colours))


def refined_colours(game: Game, a: Structure, b: Structure, k: int, key: Callable[[tuple], tuple],
                    atomic: Callable, collect: Callable, cap: Optional[int] = None):
    """The colours of the plays of `a` and of `b` up to round k, found by
    colour refinement on each structure alone, as two functions of the play.

    `key(s)` keeps what the game's condition sees of a play, and is itself a
    node of the play tree.  A key's colour with r rounds left is its atomic
    type and, when r > 0, its children's colours with r - 1 rounds left,
    gathered by `collect`: as a set (`frozenset`, the back-and-forth game)
    or as a `multiset` (the bijective game).  Colours are interned in tables
    shared by both sides, so plays of one round have one colour iff
    Duplicator wins from their pair.  Each side's keys are listed round by
    round from the root and, under a `cap`, refused once they exceed it,
    before any is coloured; colours are then found from the last round back.
    `atomic(x, key, parent)` is the key's atomic type, given the interned
    type of the key it is first found below (None at the root)."""
    types: dict = {}
    colours: dict = {}
    return (_key_colours(game, a, k, cap, key, atomic, collect, types, colours),
            _key_colours(game, b, k, cap, key, atomic, collect, types, colours))


def _key_colours(game: Game, x: Structure, k: int, cap: Optional[int], key: Callable,
                 atomic: Callable, collect: Callable, types: dict,
                 colours: dict) -> Callable[[tuple], int]:
    """The colour of each play of `x` up to round k, as `refined_colours`
    finds it: interned in `types` (atomic types) and `colours`."""
    root = key(game.root(x))
    own = {root: types.setdefault(atomic(x, root, None), len(types))}  # key -> its type
    kids: dict = {}  # key -> its children's keys, in play-tree order
    rounds = [[root]]
    count = 1
    while len(rounds) <= k and rounds[-1]:  # until round k or the tree's end
        below: dict = {}
        for u in rounds[-1]:
            if u not in kids:
                kids[u] = [key(c) for c in game.children(x, u)]
                for c in kids[u]:
                    if c not in own:
                        own[c] = types.setdefault(atomic(x, c, own[u]), len(types))
            below.update(dict.fromkeys(kids[u]))
        count += len(below)
        if cap is not None and count > cap:
            raise CapExceededError(f"colour refinement exceeds {cap} keys")
        rounds.append(list(below))
    by_round, after = [], {}
    for d in range(len(rounds) - 1, -1, -1):
        after = {u: colours.setdefault(
            (own[u], collect(map(after.__getitem__, kids[u]) if d < k else ())), len(colours))
            for u in rounds[d]}
        by_round.append(after)
    by_round.reverse()
    return lambda s: by_round[game.depth(s)][key(s)]


def won_positions(game: Game, a: Structure, b: Structure, k: int, value: Callable) -> tuple:
    """Duplicator's witness read off the values of a won back-and-forth game:
    one play pair per (position, round) key below round k, found breadth-first
    from the roots by answering each Spoiler move with its first winning reply."""
    root = game.root(a), game.root(b)
    pairs, seen = [root], {(game.position(*root), 0)}
    for s, t in pairs:  # grows while it is walked: the breadth-first queue
        d = game.depth(s) + 1
        if d == k:
            continue
        for _, _, replies in spoiler_moves(game, a, b, s, t, "AB"):
            pair = next(pair for _, pair in replies if value(*pair))
            key = game.position(*pair), d
            if key not in seen:
                seen.add(key)
                pairs.append(pair)
    return tuple(pairs)


def read_off(game: Game, a: Structure, b: Structure, k: int,
             replies: Callable) -> Iterator[tuple[tuple, tuple]]:
    """Each play of `a` up to round k, in `walk_plays` order, with
    Duplicator's reply in `b`: the root answers the root, and `replies(s, t)`
    the children of s, in order, once s is answered by t."""
    return walk_plays(game, a, k, game.root(b), lambda s, t, kids: replies(s, t))


def first_replies(game: Game, a: Structure, b: Structure, k: int,
                  value: Callable) -> CoKleisli:
    """Duplicator's table read off the values of a won existential game: each
    play of `a` is answered by the first child, in declaration order, of its
    parent's answer from which Duplicator still wins.  The plays are counted
    first, so a table over the play cap is refused before any is built.

    The children of a play, and the values of their pairs, depend on a pair
    of plays only through its position and round, so the steps of the first
    winning replies are found once per key."""
    game.check_plays(a, k, DEFAULT_PLAY_CAP)
    firsts: dict = {}

    def replies(s: tuple, t: tuple) -> list:
        key = game.position(s, t), game.depth(s)
        if key not in firsts:
            theirs = game.children(b, t)
            firsts[key] = [next(t2 for t2 in theirs if value(s2, t2))[len(t):]
                           for s2 in game.children(a, s)]
        return [t + step for step in firsts[key]]

    return CoKleisli(game, k, a, b,
                     {s: game.last(t) for s, t in read_off(game, a, b, k, replies)})


class SpoilerNode(Record):
    """One node of Spoiler's winning tree in a round-bounded game.

    Spoiler extends the play on `side` ("A" or "B") by `step`: an element in
    the sequence game, a label and an element in the modal game.  `branches`
    pairs each of Duplicator's reply steps with the subtree after it, or with
    None when the reply loses at once.  A node with `side` None is a root that
    has already lost."""

    side: Optional[str]
    step: Optional[tuple]
    branches: tuple = ()


class ExistResult(Record):
    wins: bool
    strategy: Optional[CoKleisli] = None
    refutation: Optional[SpoilerNode] = None


def spoiler_tree(game: Game, a: Structure, b: Structure, value: Callable,
                 sides: str) -> SpoilerNode:
    """Spoiler's tree read off the values of a lost game (`round_values` with
    the same `sides`, or `refined_values` for "AB"): at each position, the
    first move to which every reply loses; a reply that fails the condition
    at once is a leaf.  Equal-depth plays have equal length, so a step is
    what a child adds past `len(s)`."""
    def build(s: tuple, t: tuple):
        side, moved, replies = next(move for move in spoiler_moves(game, a, b, s, t, sides)
                                    if not any(value(*pair) for _, pair in move[2]))
        branches = []
        for r, pair in replies:
            branches.append((r[len(s):],
                             None if value(*pair) is None else (yield build(*pair))))
        return SpoilerNode(side, moved[len(s):], tuple(branches))

    root = game.root(a), game.root(b)
    return SpoilerNode(None, None) if value(*root) is None else run(build(*root))


def audit_spoiler_tree(game: Game, node: SpoilerNode, a: Structure, b: Structure, k: int,
                       holds: Callable, sides: str) -> tuple[bool, str]:
    """Replay a Spoiler tree on the play trees of `a` and `b` without solving:
    every move is on a side in `sides`, before round k, and extends its play by
    one child; the replies are Duplicator's, each once in any order; and every
    leaf, like a stalled root, fails `holds` on its whole pair, which is
    carried down the walk one step a node."""
    def step(nd: Optional[SpoilerNode], at: tuple):
        s, t, held = at
        held = held and holds(s, t, a, b)  # its prefix pairs all held
        d = game.depth(s)
        if nd is None or nd.side is None:
            return f"position after round {d} does not lose" if held else ()
        if d >= k:
            return f"move in round {d + 1}, after the last round {k}"
        if nd.side not in sides:
            return f"move on side {nd.side} in round {d + 1}"
        mine, host, theirs, other = (s, a, t, b) if nd.side == "A" else (t, b, s, a)
        moved = mine + nd.step
        if moved not in game.children(host, mine):
            return f"illegal move in round {d + 1}"
        replies = {r[len(s):] for r in game.children(other, theirs)}
        if len(nd.branches) != len(replies) or {r for r, _ in nd.branches} != replies:
            return f"replies in round {d + 1} are not Duplicator's"
        return [(child, (moved, theirs + r, held) if nd.side == "A" else (theirs + r, moved, held))
                for r, child in nd.branches]

    return walk_tree(node, (game.root(a), game.root(b), True), step)


def audit_won_positions(game: Game, pairs, a: Structure, b: Structure,
                        k: int) -> tuple[bool, str]:
    """Check a `won_positions` witness without solving.  Each pair must be a
    play of `a` and a play of `b` of one round d < k that meets `game.winning`
    whole, and claims its (position, d) key.  The roots' key must be claimed,
    and every Spoiler move at a pair, on either side, needs a reply whose step
    meets it and that ends the game or has its key claimed.  By the
    `Game.position` contract, Duplicator then wins from every claimed key."""
    held: dict = {}  # pair -> it meets `game.winning` whole: its step and parent pair do

    def holds(s: tuple, t: tuple):
        if (s, t) not in held:
            up = game.depth(s) == 0 or (yield holds(game.parent(s), game.parent(t)))
            held[s, t] = up and game.winning(s, t, a, b)
        return held[s, t]

    claimed = set()
    for s, t in pairs:
        why = game.play_error(s, k, a) or game.play_error(t, k, b)
        if why is None and not game.depth(s) == game.depth(t) < k:
            why = f"plays of rounds {game.depth(s)} and {game.depth(t)}, not of one round below {k}"
        if why is None and not run(holds(s, t)):
            why = "outside the winning set"
        if why is not None:
            return False, f"position {s!r}/{t!r}: {why}"
        claimed.add((game.position(s, t), game.depth(s)))
    if (game.position(game.root(a), game.root(b)), 0) not in claimed:
        return False, "the initial position is not claimed"
    # A reply extends a pair that meets `game.winning`, so whether its step
    # meets it is fixed by the reply's key, and is found once per key.
    won: dict = {}
    for s, t in pairs:
        d = game.depth(s) + 1
        for side, m, replies in spoiler_moves(game, a, b, s, t, "AB"):
            for _, pair in replies:
                key = game.position(*pair), d
                if d == k or key in claimed:
                    if key not in won:
                        won[key] = game.winning(*pair, a, b)
                    if won[key]:
                        break
            else:
                return False, f"no claimed reply to {side} move {m!r} at {s!r}/{t!r}"
    return True, "ok"


def decide_exist(game: Game, a: Structure, b: Structure, k: int) -> ExistResult:
    """The existential k-round game from `a` to `b`: Duplicator's table on a
    win, Spoiler's tree on a loss.  Both structures are validated by
    `game.root` before their vocabularies are compared."""
    game.root(a)
    game.root(b)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_exist requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    value = round_values(game, a, b, k, game.forth, "A")
    if value(game.root(a), game.root(b)):
        return ExistResult(True, strategy=first_replies(game, a, b, k, value))
    return ExistResult(False, refutation=spoiler_tree(game, a, b, value, "A"))


def law_report(game: Game, a: Structure, plays: list) -> LawReport:
    """The comonad laws of `game` over `plays`, a prefix-closed set of plays
    of `a`, on their lifting (`lifted_structure`).  The comonad is given as a
    Kleisli triple, the counit `game.last` and the coextension
    `game.coextend`, so the comultiplication is the coextension of the
    identity.  Checked: the pointwise laws; the counit and the
    comultiplication as homomorphisms, the latter judged by the game's own
    coalgebra condition (`game.hom_error`), since it is the structure map of
    the cofree coalgebra; and, for a pointed lifting, the root play as its
    point."""
    lifted = lifted_structure(game, a, plays)
    comult = partial(game.coextend, lambda s: s)
    counit = {s: game.last(s) for s in lifted.universe}
    why = game.hom_error({s: comult(s) for s in lifted.universe}, lifted)
    failures = [pointwise_law_failure(game, lifted.universe, comult),
                None if check_hom(counit, lifted, a) else "counit not a homomorphism",
                why and f"comult: {why}"]
    if lifted.is_pointed and lifted.point != game.root(a):
        failures.append(f"lifted point {lifted.point!r} is not the root play")
    failures = tuple(f for f in failures if f is not None)
    return LawReport(not failures, failures)
