"""The pebble-indexed game construction: its comonad as a Kleisli triple
(counit and coextension) on plays of (pebble, element) moves, truncated play
universes with the active-pebble relation lifting, and one positional
fixpoint decision of the k-pebble games, existential and back-and-forth.

The untruncated play universe is infinite even over a finite structure, so it
is never materialized.  The laws are checked by `game.law_report` on the
plays of at most n moves (`pebble_universe`), which the comultiplication
maps to plays of the same length.  The decision procedure works on
positional strategies: families of partial homomorphisms (existential game)
or partial isomorphisms (back-and-forth game, Kolaitis-Vardi) with at most k
pairs.

Both pebble games are one game with Spoiler moving on side A or on both
sides (`decide_pebble`), decided by one deletion engine.  The back-and-forth
game is decided first by refining the k-tuples of each side alone
(`decide_back_forth`): on a win its family is read off the colours, and only
a loss runs the engine, for Spoiler's tree.
Inside the engine a partial map is an integer code (`_codes`), a mixed-radix
number with one digit per element of A (0 outside the domain, 1 + the index
of the image inside it), kept with one shared tuple of its pairs.  The
initial family grows one pair at a time (`_partial_maps`): partial
homomorphisms and partial isomorphisms are closed under restriction, so only
the good maps of one size are extended to the next, and each extension is
checked on the tuples through its new pair alone, indexed by element for any
arity.  Each Spoiler move has an integer key, answered by the maps that are
its replies, and `delete_to_fixpoint` counts the live answers of each
placement key: its first pass judges every map, and each later pass only the
maps with a move whose key lost its last answer in the pass before.
`_refutation` reads Spoiler's strategy off the deletions.  Codes become pair
sets only in the results: `StrategyFamily.parts` and `SpoilerPosition.pos`.
A game with more candidate positions than the cap is refused before any
position is built (`check_candidates`).  `audit_strategy_family` and
`audit_spoiler_positions` check a win or a loss of either game without the
solver, on pair sets.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb
from operator import itemgetter
from typing import Callable, Optional

from .errors import ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, capped_count, law_report, powers, prefix_hom_error,
                   prefix_lifting, prefixes, walk_tree)
from .structures import (Elem, Record, Structure, extend_type, is_partial_hom,
                         is_partial_iso)

PebblePlay = tuple  # nonempty tuple of moves


def pebble_universe(a: Structure, k: int, n: int, cap: int = DEFAULT_PLAY_CAP) -> list[PebblePlay]:
    """All plays of length <= n over moves (pebble, element), length-then-lex;
    moves ordered by pebble index first, then element declaration order."""
    if k < 1 or n < 1:
        raise ToolkitError("k and n must be >= 1")
    capped_count(powers(k * len(a.universe), n), cap,
                 "truncated universe has {count} plays, cap is {cap}")
    moves = [(p, e) for p in range(1, k + 1) for e in a.universe]
    plays: list[PebblePlay] = []
    for length in range(1, n + 1):
        plays.extend(product(moves, repeat=length))
    return plays


def pebble_counit(s: PebblePlay) -> Elem:
    return s[-1][1]


def pebble_coextend(f: Callable[[PebblePlay], Elem], s: PebblePlay) -> PebblePlay:
    """f* keeps each move's pebble and maps its element to f of the prefix
    the move ends."""
    return tuple((s[i][0], f(s[: i + 1])) for i in range(len(s)))


def active(play: PebblePlay) -> list[int]:
    """The positions of `play` whose pebble is not reused later in it, in
    order: the prefixes `play[:i + 1]` still active at the end of the play."""
    later, keep = set(), []
    for i in range(len(play) - 1, -1, -1):
        if play[i][0] not in later:
            later.add(play[i][0])
            keep.append(i)
    return keep[::-1]


def active_last(s: PebblePlay, t: PebblePlay) -> bool:
    """For s a prefix of t: s is still active at the end of t."""
    return len(s) - 1 in active(t)


def _lifted_at(a: Structure, top: PebblePlay, labels: list):
    """The lifted tuples at `top`: the prefixes that may join it are the
    active ones, so that every pair of components is on one branch with its
    pebbles active."""
    keep = active(top)
    return prefix_lifting(a, [top[i][1] for i in keep], [labels[i] for i in keep])


PartialMapSet = frozenset  # frozenset of (source elem, target elem) pairs


class StrategyFamily(Record):
    """Positional Duplicator strategy: partial homomorphisms (partial
    isomorphisms in the back-and-forth game) with at most k pairs, closed
    under restriction and satisfying the forth property (and the back
    property)."""

    k: int
    parts: frozenset  # frozenset of PartialMapSet


class SpoilerPosition(Record):
    """One node of a positional Spoiler refutation DAG.

    At `pos` (a partial map, known to be a partial homomorphism, or a partial
    isomorphism in the back-and-forth game) Spoiler either picks up the pair
    `drop` (single child, no reply needed) or places a pebble on the element
    `place` of `side`; branches map each Duplicator reply, an element of the
    other side, to a child node or to None when the extended map is not a
    partial homomorphism (isomorphism).  Children were deleted strictly
    earlier by the fixpoint, so the recursion is well-founded.
    """

    pos: PartialMapSet
    drop: Optional[tuple] = None
    place: Optional[Elem] = None
    side: str = "A"  # of `place`: "A" or "B"
    branches: tuple = ()  # ((reply, child-or-None), ...) when placing
    child: Optional["SpoilerPosition"] = None  # when dropping


class PebbleResult(Record):
    wins: bool
    family: Optional[StrategyFamily] = None
    refutation: Optional[SpoilerPosition] = None


def check_candidates(a: Structure, b: Structure, k: int, cap: int) -> None:
    """Refuse a pebble game, before any position is built, when its candidate
    positions exceed `cap`: the partial maps from `a` to `b` with at most k
    pairs and distinct domain elements."""
    na, nb = len(a.universe), len(b.universe)
    capped_count((comb(na, s) * nb ** s for s in range(min(k, na) + 1)), cap,
                 "pebble game has {count} candidate positions, cap is {cap}")


def _codes(na: int, nb: int) -> tuple[int, list, list, list]:
    """The integer codes of the partial maps from an `na`-element structure
    to an `nb`-element one.  A map's code has one digit per element of the
    source, in radix nb + 1: digit i is 0 when element i is outside the
    domain and 1 + the index of its image otherwise, so a map's code is the
    sum of the codes of its pairs.  Returns `(top, pairs, place_a,
    place_b)`: every code is below `top`; `pairs[i][j]` is the one shared
    `(i, j, code)` record of the pair of element i and element j; and a
    placement on element i of the source at the map coded p has the key
    `p + place_a[i]`, and one on element j of the target `p + place_b[j]`.
    Placement keys lie above every code, so a key names its map and move."""
    top = (nb + 1) ** na
    return (top, [[(i, j, (1 + j) * (nb + 1) ** i) for j in range(nb)] for i in range(na)],
            [top * (1 + i) for i in range(na)], [top * (1 + na + j) for j in range(nb)])


def _tuples_through(x: Structure, y: Structure) -> list[list]:
    """Per element index of `x`, each tuple of `x` through that element: the
    bitmask of the indices of its other elements, a getter of its image
    from a list of images by index, and the same symbol's relation in `y`,
    as a set of what that getter returns."""
    ix, iy = x.index, y.index
    through: list[list] = [[] for _ in x.universe]
    for name, arity in x.vocab.symbols:
        rel = {tuple(iy[e] for e in tup) if arity > 1 else iy[tup[0]] for tup in y.tuples(name)}
        for tup in x.tuples(name):
            coded = {ix[e] for e in tup}
            get = itemgetter(*(ix[e] for e in tup))
            for c in coded:
                through[c].append((sum(1 << o for o in coded if o != c), get, rel))
    return through


def _gained(through: list, new: int, have: int) -> list:
    """The tuples through `new` whose other elements are all in the bitmask
    `have`: the tuples a map with domain `have` gains by adding `new`."""
    return [(get, rel) for others, get, rel in through[new] if others & have == others]


def _kept(gained: list, img: list) -> bool:
    """`img`, a list of images by index, sends every tuple of `gained` into
    its relation."""
    return all(get(img) in rel for get, rel in gained)


def _partial_maps(a: Structure, b: Structure, k: int, back: bool, pairs: list) -> dict:
    """Every partial homomorphism (partial isomorphism, when `back`) from `a`
    to `b` with at most k pairs, as a dict from its code to its pair
    records in domain order.  The maps grow one domain element at a time, in
    declaration order: a map passes only if it does without its last pair,
    so each size extends the good maps of the size below, and an extension
    is judged on the tuples through its new pair alone: those of `a` through
    the new element and, when `back`, those of `b` through the new image,
    which must also be outside the range."""
    na, nb = len(a.universe), len(b.universe)
    forth = _tuples_through(a, b)
    backs = _tuples_through(b, a) if back else None
    every = [(j, ()) for j in range(nb)]  # each image, with no tuple of b to check
    parts = {0: ()}
    level = [0]
    for _ in range(min(k, na)):
        grown = []
        for p in level:
            part = parts[p]
            img, inv = [-1] * na, [-1] * nb
            dom = rng = 0
            for i, j, _ in part:
                img[i], inv[j] = j, i
                dom, rng = dom | 1 << i, rng | 1 << j
            images = every
            if back:
                images = [(j, _gained(backs, j, rng)) for j in range(nb) if inv[j] < 0]
            for i in range(part[-1][0] + 1 if part else 0, na):
                gained = _gained(forth, i, dom)
                for j, gained_b in images:
                    img[i] = j
                    if not _kept(gained, img):
                        continue
                    if gained_b:
                        inv[j] = i
                        kept = _kept(gained_b, inv)
                        inv[j] = -1
                        if not kept:
                            continue
                    q = p + pairs[i][j][2]
                    parts[q] = part + (pairs[i][j],)
                    grown.append(q)
                img[i] = -1
        level = grown
    return parts


def delete_to_fixpoint(parts: dict, k: int, back: bool, codes: tuple) -> tuple[set, dict]:
    """The greatest subfamily of `parts` (codes to pair records, as
    `_partial_maps` gives them) in which every Spoiler move has a reply
    leading back into the subfamily.

    Spoiler's moves at a map are dropping one of its pairs, in domain order,
    then, below k pairs, placing a pebble on an element of A outside its
    domain and, when `back`, on an element of B outside its range.  A drop's
    key is the map without the pair, and a placement's its key in `_codes`.
    A map answers a drop key by being it, and a placement key by extending
    the key's map with one pair on the key's element, so a move has a reply
    in the family exactly when some live map answers its key.  The engine
    counts, per placement key, the live maps that answer it.

    Deletion runs in simultaneous passes.  A pass judges maps against the
    family as it stood at the start of the pass, and deletes each at its
    first move whose key is unanswered.  The first pass judges every map;
    each later one only the maps with a move whose key lost its last answer
    in the pass before: the map of a placement key, and the live one-pair
    extensions of a deleted map.  Every other map keeps the answers with
    which it survived.  Every reply of a failing move was therefore deleted
    in an earlier pass or never was in the family, which keeps the
    refutation well-founded.  Returns the survivors and, per deleted map,
    the key of its first move without a surviving reply."""
    _, pairs, place_a, place_b = codes
    alive = set(parts)
    answers = Counter(p - d + place_a[i] for p, part in parts.items() for i, _, d in part)
    if back:
        answers.update(p - d + place_b[j] for p, part in parts.items() for _, j, d in part)
    answers = dict(answers)  # a plain dict deletes faster than a Counter

    def failing(p: int) -> Optional[int]:
        part = parts[p]
        for _, _, d in part:
            if p - d not in alive:
                return p - d
        if len(part) < k:
            # a placement key on an element of the domain is never answered
            for i, at in enumerate(place_a):
                if p + at not in answers and all(x != i for x, _, _ in part):
                    return p + at
            if back:
                for j, at in enumerate(place_b):
                    if p + at not in answers and all(y != j for _, y, _ in part):
                        return p + at
        return None

    trace: dict = {}
    judged = alive
    while True:
        removed = {}
        for p in judged:
            key = failing(p)
            if key is not None:
                removed[p] = key
        if not removed:
            return alive, trace
        alive.difference_update(removed)
        trace.update(removed)
        judged = set()
        for p in removed:
            for i, j, d in parts[p]:
                rest = p - d
                for key in (rest + place_a[i], rest + place_b[j]) if back else (rest + place_a[i],):
                    left = answers[key] - 1
                    if left:
                        answers[key] = left
                    else:
                        del answers[key]
                        if rest in alive:
                            judged.add(rest)
        for p in removed:
            if len(parts[p]) < k:
                for i, at in enumerate(place_a):
                    if p + at in answers:
                        judged.update(q for q in (p + d for _, _, d in pairs[i]) if q in alive)


def _frozen(part: tuple, a: Structure, b: Structure) -> PartialMapSet:
    """The pairs of elements behind a map's pair records."""
    return frozenset((a.universe[i], b.universe[j]) for i, j, _ in part)


def _refutation(parts: dict, trace: dict, codes: tuple, a: Structure,
                b: Structure) -> SpoilerPosition:
    """Spoiler's strategy from the empty map, read off the trace of
    `delete_to_fixpoint`: at each map, the recorded move with every reply
    paired with the strategy at its next map, or with None when that map
    never was in the family.  A reply on a placement in B that is already
    in the domain makes no map, and so gets None."""
    na, (top, pairs, _, _) = len(a.universe), codes
    ua, ub = a.universe, b.universe

    def child(q: int) -> Optional[SpoilerPosition]:
        return refute(q) if q in trace else None

    def refute(p: int) -> SpoilerPosition:
        key, part = trace[p], parts[p]
        pos = _frozen(part, a, b)
        if key < top:
            i, j, _ = next(pair for pair in part if p - pair[2] == key)
            return SpoilerPosition(pos, drop=(ua[i], ub[j]), child=child(key))
        e = key // top - 1
        if e < na:
            return SpoilerPosition(pos, place=ua[e], branches=tuple(
                (ub[j], child(p + d)) for _, j, d in pairs[e]))
        dom = {i for i, _, _ in part}
        return SpoilerPosition(pos, place=ub[e - na], side="B", branches=tuple(
            (ua[i], None if i in dom else child(p + pairs[i][e - na][2])) for i in range(na)))

    return refute(0)


def decide_pebble(a: Structure, b: Structure, k: int, sides: str) -> PebbleResult:
    """The k-pebble game from `a` to `b` with Spoiler moving on `sides`: the
    existential game ("A") or the back-and-forth game ("AB").

    The greatest family of partial homomorphisms ("A") or partial
    isomorphisms ("AB") with at most k pairs closed under restriction, forth
    and, for "AB", back; Duplicator wins iff it is nonempty (Kolaitis-Vardi).
    Maps are integer codes (`_codes`) inside the engine, and pair sets in
    its results."""
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_pebble requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    back = sides == "AB"
    codes = _codes(len(a.universe), len(b.universe))
    parts = _partial_maps(a, b, k, back, codes[1])
    alive, trace = delete_to_fixpoint(parts, k, back, codes)
    if alive:
        return PebbleResult(True, family=StrategyFamily(
            k, frozenset(_frozen(parts[p], a, b) for p in alive)))
    return PebbleResult(False, refutation=_refutation(parts, trace, codes, a, b))


def _tuple_length(a: Structure, b: Structure, k: int) -> int:
    """The length of the tuples `decide_back_forth` refines: k, or the size of
    the larger universe when that is smaller.  Every partial isomorphism then
    still fits, and no placement that k pebbles allow is lost, so the game is
    the same."""
    return min(k, max(len(a.universe), len(b.universe)))


def _strides(n: int, m: int) -> list[int]:
    """The place values of the digits of an m-tuple over n elements, coded by
    the indices of its elements with the first digit most significant."""
    return [n ** (m - 1 - j) for j in range(m)]


def check_tuples(a: Structure, b: Structure, k: int, cap: int) -> None:
    """Refuse the back-and-forth game, before any tuple is coloured, when the
    tuples `decide_back_forth` refines on either side exceed `cap`."""
    m = _tuple_length(a, b, k)
    for x in (a, b):
        capped_count([len(x.universe) ** m], cap,
                     "pebble refinement has {count} tuples on one side, cap is {cap}")


def _tuple_colours(a: Structure, b: Structure, m: int) -> Optional[list]:
    """The colours of the m-tuples of `a` and of `b` at the fixpoint of
    k-tuple refinement with sets (Immerman-Lander), or None once the colours
    of the constant tuples differ between the sides.

    A tuple is coded by the indices of its elements (`_strides`).  Its first
    colour is its atomic type, built along its prefixes; each pass gives it
    its colour and, per position, the set of colours of the tuples that
    differ from it at that position only.  Colours are interned in tables
    shared by both sides, and the passes stop when one splits no class.  Duplicator
    wins the game from a placement iff its padded tuples have one colour, so
    she wins from the start iff both sides have the same constant-tuple
    colours; those only split further, so a difference is final."""
    sides = [(len(x.universe), _strides(len(x.universe), m)) for x in (a, b)]
    types: dict = {}
    table: dict = {}
    cols = []
    for x in (a, b):
        level = [((), None)]  # the tuples of one length, in code order, with their types
        for _ in range(m):
            level = [(t + (e,), types.setdefault(extend_type(x, t + (e,), ty), len(types)))
                     for t, ty in level for e in x.universe]
        cols.append([table.setdefault(ty, len(table)) for _, ty in level])
    while True:
        diagonals = [{col[v * sum(strides)] for v in range(n)}
                     for (n, strides), col in zip(sides, cols)]
        if diagonals[0] != diagonals[1]:
            return None
        classes, sets, table = len(table), {}, {}
        for side, ((n, strides), col) in enumerate(zip(sides, cols)):
            groups = []
            for stride in strides:
                group = [0] * len(col)
                for top in range(0, len(col), stride * n):
                    for base in range(top, top + stride):
                        group[base:base + stride * n:stride] = [sets.setdefault(
                            frozenset(col[base:base + stride * n:stride]), len(sets))] * n
                groups.append(group)
            cols[side] = [table.setdefault(sig, len(table)) for sig in zip(col, *groups)]
        if len(table) == classes:
            return cols


def _safe_parts(a: Structure, b: Structure, k: int, m: int, cols: list) -> set:
    """The partial isomorphisms with at most k pairs whose padded m-tuples
    (the domain in declaration order, its last element repeated, and the
    partners in the same order) have one colour in `cols`.  They grow one
    domain element at a time, in declaration order, as in `_partial_maps`:
    they are closed under restriction, so only those of one size are
    extended to the next."""
    col_a, col_b = cols
    strides_a, strides_b = _strides(len(a.universe), m), _strides(len(b.universe), m)
    tail_a, tail_b = ([sum(strides[j:]) for j in range(m)] for strides in (strides_a, strides_b))
    level = [(frozenset(), 0, 0, 0)]  # (map, next domain index, codes of its unpadded tuples)
    family = {frozenset()}
    for size in range(min(k, len(a.universe))):
        grown = []
        for part, start, code_a, code_b in level:
            partners: dict = {}  # colour -> the partners that give it, in declaration order
            for j, y in enumerate(b.universe):
                partners.setdefault(col_b[code_b + j * tail_b[size]], []).append((j, y))
            for i in range(start, len(a.universe)):
                for j, y in partners.get(col_a[code_a + i * tail_a[size]], ()):
                    grown.append((part | {(a.universe[i], y)}, i + 1,
                                  code_a + i * strides_a[size], code_b + j * strides_b[size]))
        family.update(part for part, *_ in grown)
        level = grown
    return family


def decide_back_forth(a: Structure, b: Structure, k: int) -> PebbleResult:
    """The k-pebble back-and-forth game by refining the tuples of each side
    (`_tuple_colours`): on a win, the greatest family of `decide_pebble`,
    read off the colours (`_safe_parts`); on a loss, `decide_pebble`'s
    Spoiler tree, read off its deletion trace."""
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_back_forth requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    m = _tuple_length(a, b, k)
    cols = _tuple_colours(a, b, m)
    if cols is None:
        return decide_pebble(a, b, k, "AB")
    return PebbleResult(True, family=StrategyFamily(k, frozenset(_safe_parts(a, b, k, m, cols))))


def decide_exist_pebble(a: Structure, b: Structure, k: int) -> PebbleResult:
    """The existential k-pebble game from `a` to `b`."""
    return decide_pebble(a, b, k, "A")


def _decide(a: Structure, b: Structure, k: int, cap: int) -> PebbleResult:
    """The existential decision of `GAME`: `decide_exist_pebble`, once its
    candidate positions are known to fit in `cap`."""
    check_candidates(a, b, k, cap)
    return decide_exist_pebble(a, b, k)


def _partial_check(sides: str) -> tuple[Callable, str]:
    """The partial-map check of the game with Spoiler on `sides`, and its
    short name."""
    return (is_partial_iso, "iso") if sides == "AB" else (is_partial_hom, "hom")


def audit_strategy_family(fam: StrategyFamily, a: Structure, b: Structure,
                          sides: str = "A") -> tuple[bool, str]:
    """Independent audit of a family for the game with Spoiler on `sides`:
    partial homomorphisms ("A") or partial isomorphisms ("AB") of at most k
    pairs, closed under restriction, with forth (and, for "AB", back) below k
    pairs.  Each one-pair extension in the family is collected once as the
    placement it answers, so forth and back are one lookup per move.  Parts
    are met in declaration order, so the first fault named does not depend on
    the hash seed."""
    parts, k = fam.parts, fam.k
    if not parts:
        return False, "family is empty"
    if frozenset() not in parts:
        return False, "family does not contain the empty map"
    check, name = _partial_check(sides)
    ia, ib, na, nb = a.index, b.index, len(a.universe), len(b.universe)
    ordered = sorted(parts, key=lambda p: (len(p), sorted((ia.get(x, na), ib.get(y, nb))
                                                          for x, y in p)))
    for part in ordered:
        if len(part) > k:
            return False, f"part {sorted(part)!r} exceeds {k} pairs"
        if not check(part, a, b):
            return False, f"part {sorted(part)!r} is not a partial {name}"
        for pair in part:
            if part - {pair} not in parts:
                return False, f"family not closed under restriction at {sorted(part)!r}"

    moves = (("A", a, 0, "forth"), ("B", b, 1, "back"))[:len(sides)]
    answered = {(part - {pair}, side, pair[j])
                for part in parts for pair in part for side, _, j, _ in moves}
    for part in ordered:
        if len(part) < k:
            for side, host, j, prop in moves:
                placed = {pair[j] for pair in part}
                for e in host.universe:
                    if e not in placed and (part, side, e) not in answered:
                        return False, f"{prop} fails at {sorted(part)!r} on {e!r}"
    return True, "ok"


def audit_spoiler_positions(node: SpoilerPosition, a: Structure, b: Structure,
                            k: int, sides: str = "A") -> tuple[bool, str]:
    """Audit a positional refutation of the game with Spoiler on `sides`:
    root empty, moves legal, replies exhaustive, terminal maps broken, and
    each position matching the play so far."""
    check, name = _partial_check(sides)

    def step(nd: Optional[SpoilerPosition], at: tuple):
        expected, reply = at
        if nd is None:
            if check(expected, a, b):
                return f"reply {reply!r} claimed losing but map is a partial {name}"
            return ()
        if nd.pos != expected:
            return "position does not match the play so far"
        if not check(nd.pos, a, b):
            return f"interior position is not a partial {name}"
        if nd.drop is not None:
            if nd.drop not in nd.pos or nd.child is None:
                return "drop move malformed"
            return [(nd.child, (nd.pos - {nd.drop}, None))]
        if nd.side not in sides:
            return f"placement on side {nd.side!r}"
        host, other, j = (a, b, 0) if nd.side == "A" else (b, a, 1)
        if nd.place is None or nd.place not in host.index:
            return "placement move malformed"
        if len(nd.pos) >= k and nd.place not in {pair[j] for pair in nd.pos}:
            return "placement exceeds the pebble budget"
        if {r for r, _ in nd.branches} != set(other.universe):
            return "replies not exhaustive"
        return [(child, (nd.pos | {(nd.place, r) if j == 0 else (r, nd.place)}, r))
                for r, child in nd.branches]

    if node.pos != frozenset():
        return False, "root position is not the empty map"
    return walk_tree(node, (frozenset(), None), step)


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
    check_plays=None,
    lifted_at=_lifted_at,
    pointed=False,
    # the positional game checks partial isomorphism of the placements itself
    winning=None,
    forth=None,
    position=None,
    refine=None,
    iso_colours=None,
    coextend=pebble_coextend,
    last=pebble_counit,
    prefixes=prefixes,
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, active_last),
    decide=_decide,
    laws=lambda a, k, trunc, cap: law_report(GAME, a, pebble_universe(a, k, trunc, cap)),
    exists_kinds=("pebble-family", "pebble-refutation"),
    backforth_kinds=("pebble-safe", "pebble-bf-spoiler"),
    iso_kind=None,
    cover_kind="pebble-forest-cover",
)
