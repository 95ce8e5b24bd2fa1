"""What the three game constructions share.

Each game module (`ef`, `pebbling`, `modal`) builds one `Game` record that
says how its plays are shaped, lifted, extended and read back from a
coalgebra, which procedures decide it, and which certificate kinds witness
its verdicts; `equivalence.GAMES` collects the three.  Callables in a record
that the benchmark tracer rebinds (the deciders) are wrapped so that they look
the module attribute up at call time.

This module also holds the pieces the constructions would otherwise repeat:
the play cap, the lifting along play prefixes at one top play, the one
comonad-law report, the one coKleisli morphism record (a total table on the
plays of a round-bounded game) with the walk of a table's plays and their
coextensions and the homomorphism check run on it (which builds no lifted
structure), the one Spoiler-tree walk that the refutation audits and the
certificate writer run on, and the driver (`run`) that runs recursion written
as generators on an explicit stack.

The round-bounded games (sequence and modal, existential and back-and-forth)
are solved here in one way: `round_values` is the backward induction, for the
sides Spoiler may move on and the condition Duplicator must keep; their
bijective game (`bijective_game`), whose wins are the coKleisli isomorphisms,
memoises on the same keys.  Their witnesses are read off the values in one
way each: Duplicator's tables of the existential game (`first_replies`) and of
the bijective game, by one play-tree walk (`read_off`); Duplicator's won
positions of the back-and-forth game (`won_positions`, one play pair per
position and round, which `audit_won_positions` checks without solving); and
Spoiler's tree of any of the four (`spoiler_tree`, one `SpoilerNode` type),
which `audit_spoiler_tree` replays without solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Generator, Iterator, Mapping, Optional

from .errors import ToolkitError
from .structures import Elem, Structure

DEFAULT_PLAY_CAP = 10 ** 6


@dataclass(frozen=True)
class LawReport:
    ok: bool
    failures: tuple[str, ...] = ()


def pointwise_law_failure(plays: list, counit: Callable, comult: Callable, fmap: Callable,
                          coextend: Callable) -> Optional[str]:
    """The first play at which a comonad law fails: both counit identities,
    coassociativity, or coextension of the counit being the identity.
    `fmap(f, s)` applies `f` to the entries of a play of plays."""
    counit_table = {s: counit(s) for s in plays}
    for s in plays:
        d = comult(s)
        if counit(d) != s:
            return f"counit(comult({s!r})) != {s!r}"
        if fmap(counit, d) != s:
            return f"mapped-counit of comult({s!r}) != {s!r}"
        if comult(d) != fmap(comult, d):
            return f"coassociativity fails at {s!r}"
        if coextend(counit_table, s) != s:
            return f"coextension of counit not identity at {s!r}"
    return None


def prefixes(s: tuple) -> list[tuple]:
    """Nonempty prefixes in increasing length, ending with s itself."""
    return [s[:i] for i in range(1, len(s) + 1)]


def prefix_lifting(a: Structure, tips: list, labels: list) -> Iterator[tuple[str, tuple]]:
    """The lifted tuples of `a` whose longest play is one play `top`, drawn
    from the prefixes of `top` that may join it, `top` last: `tips[j]` is the
    last element of the j-th and `labels[j]` what stands for it (the prefix
    itself, or its image).  A tuple is related iff its last elements form a
    tuple of `a`, and is yielded as its symbol and labels.  It is built once:
    its components before the first `top` are proper prefixes."""
    d = len(tips) - 1
    low_t, low_l = tips[:d], labels[:d]
    for name, arity in a.vocab.symbols:
        base = a.tuples(name)
        for first in range(arity):
            rest = arity - 1 - first
            for tip, label in zip(product(*[low_t] * first, tips[d:], *[tips] * rest),
                                  product(*[low_l] * first, labels[d:], *[labels] * rest)):
                if tip in base:
                    yield name, label


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


@dataclass(frozen=True)
class Game:
    """One game construction, as the deciders, coalgebra checks, certificates
    and the command line see it."""

    name: str
    # Play tree of the round-bounded games; None for the positional pebble game.
    root: Optional[Callable[[Structure], tuple]]  # validates the structure too
    children: Optional[Callable[[Structure, tuple], list]]
    depth: Optional[Callable[[tuple], int]]
    universe: Optional[Callable[[Structure, int], list]]  # plays of depth <= k
    # The lifting: `lifted_at(a, top, labels)` yields each lifted tuple whose
    # longest play is `top`, as its symbol and the labels at its positions,
    # where `labels[j]` stands for the prefix `top[:j + 1]`; `pointed` when
    # the root is a play and the lifting is pointed at it.
    lifted_at: Callable[[Structure, tuple, list], Iterator[tuple[str, tuple]]]
    pointed: bool
    # Winning conditions (s, t, a, b) -> bool on equal-depth plays, all
    # absorbing: of the back-and-forth game, of the existential game, and of
    # the bijective game (each lifted tuple along the pair holds on both
    # sides or on neither).
    winning: Optional[Callable[[tuple, tuple, Structure, Structure], bool]]
    forth: Optional[Callable[[tuple, tuple, Structure, Structure], bool]]
    reflects: Optional[Callable[[tuple, tuple, Structure, Structure], bool]]
    # What the value of (s, t) depends on besides its depth, once every
    # proper prefix of (s, t) meets the game's condition; `round_values` and
    # `bijective_game` memoise on it, and `audit_won_positions` relies on it.
    position: Optional[Callable[[tuple, tuple], object]]
    coextend: Callable
    # Reading a coalgebra play; `play_error(play, k, host)` says why a tuple is
    # no play of `host` of depth <= k (only its shape, in the pebble game).
    last: Callable[[tuple], Elem]
    prefixes: Callable[[tuple], list]
    play_error: Callable[[tuple, int, Structure], Optional[str]]
    hom_error: Callable[[Mapping, Structure], Optional[str]]
    # (a, b, k, cap) -> result with .wins and .refutation; `cap` bounds the
    # candidate positions of the pebble solver, and the others ignore it
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


@dataclass(frozen=True)
class CoKleisli:
    """A coKleisli morphism of a round-bounded game: a total table from the
    plays of depth <= k of `source` to elements of `target`.

    It encodes a Duplicator strategy for the existential game and is a
    morphism when `is_homomorphism` holds (`lifted_hom`: checked one lifted
    tuple at a time, the lifting is never built).  Both list the plays under
    `cap`.
    """

    game: Game
    k: int
    source: Structure
    target: Structure
    table: Mapping[tuple, Elem]
    cap: int = DEFAULT_PLAY_CAP

    def __post_init__(self):
        for s in self.game.universe(self.source, self.k, self.cap):
            if s not in self.table:
                raise ToolkitError(f"coKleisli table not total: play {s!r} unassigned")

    def star(self, s: tuple) -> tuple:
        return self.game.coextend(self.table, s)

    def is_homomorphism(self) -> bool:
        return lifted_hom(self.game, self.source, self.target, self.k, self.table,
                          self.game.universe(self.source, self.k, self.cap))


def coextensions(game: Game, a: Structure, table: Mapping, k: int) -> Iterator[tuple]:
    """Each play s of `a` up to round k, in universe order (breadth-first,
    children in declaration order), with its coextension f*(s) under the total
    `table`, built from its parent's: a step ends with the element it adds,
    and the coextension keeps the rest of the step and maps that element.
    Only the plays before round k are kept, to be extended in turn."""
    root = game.root(a)
    level, first = [(root, ())], [root] if game.pointed else None
    while level:
        below = []
        for parent, star in level:
            for s in first or game.children(a, parent):
                s_star = star + s[len(parent):-1] + (table[s],)
                yield s, s_star
                if game.depth(s) < k:
                    below.append((s, s_star))
        level, first = below, None


def lifted_hom(game: Game, a: Structure, b: Structure, k: int, table: Mapping,
               plays: list) -> bool:
    """`check_hom(table, lifting of a, b)` without building the lifting:
    `plays` are the plays of `a` up to round k (`game.universe(a, k)`).
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
    does, and None when (s, t) itself fails `holds`.  The winning conditions
    are absorbing, so that value is fixed by `game.position(s, t)` and the
    depth, which is the memo key."""
    memo: dict = {}

    def solve(s: tuple, t: tuple):
        key = game.position(s, t), game.depth(s)
        if key not in memo:
            won = True if holds(s, t, a, b) else None
            if won and key[1] < k:
                for _, _, replies in spoiler_moves(game, a, b, s, t, sides):
                    for _, pair in replies:
                        if (yield solve(*pair)):
                            break
                    else:
                        won = False
                        break
            memo[key] = won
        return memo[key]

    return lambda s, t: run(solve(s, t))


def bijective_game(game: Game, a: Structure, b: Structure, k: int):
    """Solve Hella's bijective k-round game from `a` to `b`: a play pair wins
    iff it meets `game.reflects` and, before round k, a perfect matching pairs
    the children of its plays into winning pairs.  Values are memoised on
    (`game.position`, round) and found lazily under `run`.  Returns `value(s,
    t)`, and `matching(s, t)`: at a won pair below round k, the replies to the
    children of s in the lexicographically first such matching."""
    memo: dict = {}

    def solve(s: tuple, t: tuple):
        key = game.position(s, t), game.depth(s)
        if key not in memo:
            memo[key] = game.reflects(s, t, a, b) and (key[1] == k or (
                yield matching(s, t)) is not None)
        return memo[key]

    def matching(s: tuple, t: tuple):
        return _first_matching(game.children(a, s), game.children(b, t), solve)

    return (lambda s, t: run(solve(s, t))), (lambda s, t: run(matching(s, t)))


def _first_matching(left: list, right: list, edge: Callable):
    """Pair `left` one to one with `right` along the pairs where the generator
    `edge(x, y)` returns true under `run`: each left in turn takes the first
    right still free.  Returns the partners of `left` in order, or None when a
    left finds none.  In the bijective game this finds a perfect matching
    whenever there is one, and the lexicographically first: winning is an
    equivalence (coKleisli isomorphisms compose and invert), so the winning
    pairs of children form complete bipartite blocks."""
    if len(left) != len(right):
        return None
    free, partners = list(right), []
    for x in left:
        for y in free:
            if (yield edge(x, y)):
                free.remove(y)
                partners.append(y)
                break
        else:
            return None
    return partners


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


def read_off(game: Game, a: Structure, b: Structure, k: int, replies: Callable) -> dict:
    """Duplicator's reply to every node of the play tree of `a` up to round k,
    walked from the roots: `replies(s, t)` answers the children of s, in
    order, once s is answered by t."""
    reply = {game.root(a): game.root(b)}
    todo = [game.root(a)]
    while todo:
        s = todo.pop()
        if game.depth(s) < k:
            for s2, t2 in zip(game.children(a, s), replies(s, reply[s])):
                reply[s2] = t2
                todo.append(s2)
    return reply


def first_replies(game: Game, a: Structure, b: Structure, k: int,
                  value: Callable) -> CoKleisli:
    """Duplicator's table read off the values of a won existential game: each
    play of `a` is answered by the first child, in declaration order, of its
    parent's answer from which Duplicator still wins.  The play universe is
    listed first, so a table over the play cap is refused before any is built."""
    plays = game.universe(a, k)
    reply = read_off(game, a, b, k, lambda s, t: [
        next(t2 for t2 in game.children(b, t) if value(s2, t2)) for s2 in game.children(a, s)])
    return CoKleisli(game, k, a, b, {s: game.last(reply[s]) for s in plays})


@dataclass(frozen=True)
class SpoilerNode:
    """One node of Spoiler's winning tree in a round-bounded game.

    Spoiler extends the play on `side` ("A" or "B") by `step`: an element in
    the sequence game, a label and an element in the modal game.  `branches`
    pairs each of Duplicator's reply steps with the subtree after it, or with
    None when the reply loses at once.  A node with `side` None is a root that
    has already lost."""

    side: Optional[str]
    step: Optional[tuple]
    branches: tuple = ()


@dataclass(frozen=True)
class ExistResult:
    wins: bool
    strategy: Optional[CoKleisli] = None
    refutation: Optional[SpoilerNode] = None


def spoiler_tree(game: Game, a: Structure, b: Structure, value: Callable,
                 sides: str) -> SpoilerNode:
    """Spoiler's tree read off the values of a lost game (`round_values` with
    the same `sides`): at each position, the first move to which every reply
    loses; a reply that fails the condition at once is a leaf.  Equal-depth
    plays have equal length, so a step is what a child adds past `len(s)`."""
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
    leaf, like a stalled root, fails `holds`."""
    def step(nd: Optional[SpoilerNode], plays: tuple):
        s, t = plays
        d = game.depth(s)
        if nd is None or nd.side is None:
            return f"position after round {d} does not lose" if holds(s, t, a, b) else ()
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
        return [(child, (moved, theirs + r) if nd.side == "A" else (theirs + r, moved))
                for r, child in nd.branches]

    return walk_tree(node, (game.root(a), game.root(b)), step)


def audit_won_positions(game: Game, pairs, a: Structure, b: Structure,
                        k: int) -> tuple[bool, str]:
    """Check a `won_positions` witness without solving.  Each pair must be a
    play of `a` and a play of `b` of one round d < k that meets
    `game.winning`, and claims its (position, d) key.  The roots' key must be
    claimed, and every Spoiler move at a pair, on either side, needs a reply
    that meets `game.winning` and ends the game or has its key claimed.  By
    the `Game.position` contract, Duplicator then wins from every claimed key."""
    claimed = set()
    for s, t in pairs:
        why = game.play_error(s, k, a) or game.play_error(t, k, b)
        if why is None and not game.depth(s) == game.depth(t) < k:
            why = f"plays of rounds {game.depth(s)} and {game.depth(t)}, not of one round below {k}"
        if why is None and not game.winning(s, t, a, b):
            why = "outside the winning set"
        if why is not None:
            return False, f"position {s!r}/{t!r}: {why}"
        claimed.add((game.position(s, t), game.depth(s)))
    if (game.position(game.root(a), game.root(b)), 0) not in claimed:
        return False, "the initial position is not claimed"
    # A reply extends a pair that meets `game.winning`, so whether it meets it
    # too is fixed by the reply's key, and is found once per key.
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
    win, Spoiler's tree on a loss."""
    value = round_values(game, a, b, k, game.forth, "A")
    if value(game.root(a), game.root(b)):
        return ExistResult(True, strategy=first_replies(game, a, b, k, value))
    return ExistResult(False, refutation=spoiler_tree(game, a, b, value, "A"))


def law_report(game: Game, a: Structure, lifted: Structure, comult: Callable, fmap: Callable,
               comult_ok: Callable[[str, tuple], bool]) -> LawReport:
    """The comonad laws of `game` over the plays of `lifted`, its lifting of
    `a`: the pointwise laws; the counit and the comultiplication as
    homomorphisms, the latter holding when `comult_ok(name, images)` accepts
    the comultiplication images of every lifted `name` tuple; and, for a
    pointed lifting, the root play as its point."""
    failures = [pointwise_law_failure(lifted.universe, game.last, comult, fmap, game.coextend),
                _lifted_hom_failure(game, a, lifted, comult, comult_ok)]
    if lifted.is_pointed and lifted.point != game.root(a):
        failures.append(f"lifted point {lifted.point!r} is not the root play")
    failures = tuple(f for f in failures if f is not None)
    return LawReport(not failures, failures)


def _lifted_hom_failure(game: Game, a: Structure, lifted: Structure, comult: Callable,
                        comult_ok: Callable[[str, tuple], bool]) -> Optional[str]:
    for name, _ in a.vocab.symbols:
        base = a.tuples(name)
        for combo in lifted.tuples(name):
            if tuple(map(game.last, combo)) not in base:
                return f"counit not a homomorphism on {name} at {combo!r}"
            if not comult_ok(name, tuple(map(comult, combo))):
                return f"comult not a homomorphism on {name} at {combo!r}"
    return None
