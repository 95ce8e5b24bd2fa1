"""The pebble-indexed game construction: its comonad as a Kleisli triple
(counit and coextension) on plays of (pebble, element) moves, truncated play
universes with the active-pebble relation lifting, and the positional
decisions of the k-pebble games, existential and back-and-forth.

The untruncated play universe is infinite even over a finite structure, so it
is never materialized.  The laws are checked by `game.law_report` on the
plays of at most n moves (`pebble_universe`), which the comultiplication
maps to plays of the same length.  The decisions work on positional
strategies: families of partial homomorphisms (existential game) or partial
isomorphisms (back-and-forth game, Kolaitis-Vardi) with at most k pairs.

The existential game is decided by a deletion engine (`decide_exist_pebble`),
inside which a partial map is an integer code (`_codes`), a mixed-radix
number with one digit per element of A (0 outside the domain, 1 + the index
of the image inside it), kept with one shared tuple of its pairs.  The
initial family grows one pair at a time (`_partial_maps`), each extension
checked on the tuples through its new pair alone.  Each Spoiler move has an
integer key, answered by the maps that are its replies, and
`delete_to_fixpoint` counts the live answers of each placement key: its
first pass judges every map, and each later pass only the maps with a move
whose key lost its last answer in the pass before.  The back-and-forth
game is decided by refining the k-tuples of each side alone
(`decide_back_forth`), its family read off the colours on a win.  One
reader (`_spoiler_tree`) gives Spoiler's tree in either lost game, from
how long each map held out: its deletion pass, or its refinement rank
(`_rank`).  A game with more candidate positions than the cap is refused
before any position is built (`check_candidates`).  `audit_strategy_family`
checks a win of either game without the solver, on the engine's codes, each
part judged on the tuples through one of its pairs, and
`audit_spoiler_positions` a loss, on pair sets.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from math import comb
from operator import itemgetter, mul
from typing import Callable, Optional

from .errors import ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, Game, capped_count, law_report, powers, prefix_hom_error,
                   prefix_lifting, walk_tree)
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
    partial homomorphism (isomorphism).  Every child lost strictly earlier
    under one order, the value `_spoiler_tree` reads (a deletion pass, or a
    refinement rank and size), so the recursion is well-founded.
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


def _partial_maps(a: Structure, b: Structure, k: int, pairs: list) -> dict:
    """Every partial homomorphism from `a` to `b` with at most k pairs, as a
    dict from its code to its pair records in domain order.  The maps grow
    one domain element at a time, in declaration order: a map passes only
    if it does without its last pair, so each size extends the good maps of
    the size below, and an extension is judged on the tuples of `a` through
    its new element alone."""
    na, nb = len(a.universe), len(b.universe)
    forth = _tuples_through(a, b)
    parts, level = {0: ()}, [0]
    for _ in range(min(k, na)):
        grown = []
        for p in level:
            part = parts[p]
            img, dom = [-1] * na, 0
            for i, j, _ in part:
                img[i], dom = j, dom | 1 << i
            for i in range(part[-1][0] + 1 if part else 0, na):
                gained = _gained(forth, i, dom)
                for j in range(nb):
                    img[i] = j
                    if _kept(gained, img):
                        q = p + pairs[i][j][2]
                        parts[q] = part + (pairs[i][j],)
                        grown.append(q)
                img[i] = -1
        level = grown
    return parts


def delete_to_fixpoint(parts: dict, k: int, codes: tuple) -> tuple[set, dict]:
    """The greatest subfamily of `parts` (codes to pair records, as
    `_partial_maps` gives them) in which every Spoiler move has a reply
    leading back into the subfamily.

    Spoiler's moves at a map are dropping one of its pairs, in domain order,
    then, below k pairs, placing a pebble on an element of A outside its
    domain.  A drop's key is the map without the pair, and a placement's its
    key in `_codes`.  A map answers a drop key by being it, and a placement
    key by extending the key's map with one pair on the key's element, so a
    move has a reply in the family exactly when some live map answers its
    key.  The engine counts, per placement key, the live maps answering it.

    Deletion runs in simultaneous passes.  A pass judges maps against the
    family as it stood at the start of the pass, and deletes each with a
    move whose key is unanswered.  The first pass judges every map; each
    later one only the maps with a move whose key lost its last answer in
    the pass before: the map of a placement key, and the live one-pair
    extensions of a deleted map.  Every other map keeps the answers with
    which it survived.  Returns the survivors and, per deleted map, its pass
    (from 1): the first in which a move's every reply was gone."""
    _, pairs, place_a, _ = codes
    alive = set(parts)
    # a plain dict deletes faster than a Counter
    answers = dict(Counter(p - d + place_a[i] for p, part in parts.items() for i, _, d in part))

    def failing(p: int) -> bool:
        part = parts[p]
        for _, _, d in part:
            if p - d not in alive:
                return True
        if len(part) < k:
            # a placement key on an element of the domain is never answered
            for i, at in enumerate(place_a):
                if p + at not in answers and all(x != i for x, _, _ in part):
                    return True
        return False

    deleted: dict = {}
    judged, n = alive, 0
    while True:
        removed = [p for p in judged if failing(p)]
        if not removed:
            return alive, deleted
        n += 1
        alive.difference_update(removed)
        deleted.update(dict.fromkeys(removed, n))
        judged = set()
        for p in removed:
            for i, _, d in parts[p]:
                rest = p - d
                key = rest + place_a[i]
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


def decide_exist_pebble(a: Structure, b: Structure, k: int) -> PebbleResult:
    """The existential k-pebble game from `a` to `b`: the greatest family of
    partial homomorphisms with at most k pairs closed under restriction and
    forth; Duplicator wins iff it is nonempty (Kolaitis-Vardi).  On a loss
    every map was deleted, and Spoiler's tree reads each map's pass."""
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_exist_pebble requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    codes = _codes(len(a.universe), len(b.universe))
    pairs = codes[1]
    parts = _partial_maps(a, b, k, pairs)
    alive, deleted = delete_to_fixpoint(parts, k, codes)
    if alive:
        return PebbleResult(True, family=StrategyFamily(k, frozenset(
            frozenset((a.universe[i], b.universe[j]) for i, j, _ in parts[p]) for p in alive)))
    return PebbleResult(False, refutation=_spoiler_tree(
        a, b, k, "A", lambda part: deleted.get(sum(pairs[i][j][2] for i, j in part))))


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


def _tuple_colours(a: Structure, b: Structure, m: int) -> tuple[list, Optional[list]]:
    """The colours of the m-tuples of `a` and of `b` under k-tuple refinement
    with sets (Immerman-Lander), and on a loss each pass, as the colour before
    it of each colour after it (None on a win).

    A tuple is coded by the indices of its elements (`_strides`).  Its first
    colour is its atomic type, built along its prefixes; each pass gives it
    its colour and, per position, the set of colours of the tuples that
    differ from it at that position only.  Colours are interned in tables
    shared by both sides, and the passes stop when one splits no class.  Duplicator
    wins the game from a placement iff its padded tuples have one colour, so
    she wins from the start iff both sides have the same constant-tuple
    colours; those only split further, so a difference is final."""
    sides = [(len(x.universe), _strides(len(x.universe), m)) for x in (a, b)]
    types, table, cols, passes = {}, {}, [], []
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
            return cols, passes
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
            return cols, None
        passes.append([sig[0] for sig in table])


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


def _rank(a: Structure, b: Structure, m: int, cols: list, passes: list) -> Callable:
    """How long each map held out in a lost refinement: the first pass at
    which its padded m-tuples (as `_safe_parts` pads them) differ, then its
    size; None for no partial isomorphism, and above the last pass when they
    never differ, as for the empty map.  A pass is a round of moving one of
    m pebbles, however the tuples are padded, so below the last pass a map
    has a placement whose replies rank lower or a drop to a map that has one."""
    top = len(passes)
    strides = _strides(len(a.universe), m), _strides(len(b.universe), m)

    @cache
    def rank(part: tuple) -> Optional[tuple]:
        if not part:
            return top + 1, 0
        pad = zip(*part, *part[-1:] * (m - len(part)))
        ca, cb = (col[sum(map(mul, xs, st))] for col, xs, st in zip(cols, pad, strides))
        if ca == cb:
            return top + 1, len(part)
        p = top
        while p and passes[p - 1][ca] != passes[p - 1][cb]:
            p -= 1
            ca, cb = passes[p][ca], passes[p][cb]
        return (p, len(part)) if p else None

    return rank


def _spoiler_tree(a: Structure, b: Structure, k: int, sides: str,
                  lost: Callable) -> SpoilerPosition:
    """Spoiler's tree, each subtree built once, in the lost game with
    Spoiler on `sides`.  `lost(part)`, for a map as index pairs in domain
    order, is None for no partial map of the game and otherwise grows with
    how long the map held out.  At each map Spoiler takes the first move
    (drops in domain order, then placements on A, then, for "AB", on B) all
    of whose replies lost earlier: a smaller value, or no map, a leaf."""
    ua, ub = a.universe, b.universe

    def placements(part: tuple):  # (side, element, ((reply, its pair or None), ...))
        dom, rng = {i for i, _ in part}, {j for _, j in part}
        yield from (("A", ua[x], ((ub[y], (x, y)) for y in range(len(ub))))
                    for x in range(len(ua)) if x not in dom)
        if sides == "AB":
            yield from (("B", ub[y], ((ua[x], None if x in dom else (x, y))
                                      for x in range(len(ua))))
                        for y in range(len(ub)) if y not in rng)

    @cache
    def tree(part: tuple) -> SpoilerPosition:
        pos, held = frozenset((ua[i], ub[j]) for i, j in part), lost(part)
        for n, (i, j) in enumerate(part):
            rest = part[:n] + part[n + 1:]
            if lost(rest) < held:
                return SpoilerPosition(pos, drop=(ua[i], ub[j]), child=tree(rest))
        for side, e, replies in placements(part) if len(part) < k else ():
            branches = []
            for reply, pair in replies:
                q = pair and tuple(sorted(part + (pair,)))
                value = q and lost(q)
                if value is not None and not value < held:
                    break
                branches.append((reply, None if value is None else q))
            else:
                return SpoilerPosition(pos, place=e, side=side, branches=tuple(
                    (reply, q and tree(q)) for reply, q in branches))

    return tree(())


def decide_back_forth(a: Structure, b: Structure, k: int) -> PebbleResult:
    """The k-pebble back-and-forth game by refining the tuples of each side
    (`_tuple_colours`): on a win, the greatest family of partial isos, read
    off the colours (`_safe_parts`); on a loss, Spoiler's tree off the passes."""
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_back_forth requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    m = _tuple_length(a, b, k)
    cols, passes = _tuple_colours(a, b, m)
    if passes is not None:
        return PebbleResult(False, refutation=_spoiler_tree(
            a, b, k, "AB", _rank(a, b, m, cols, passes)))
    return PebbleResult(True, family=StrategyFamily(k, frozenset(_safe_parts(a, b, k, m, cols))))


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
    pairs.

    It shares with the engine the codes of `_codes` and the step on the
    tuples through one pair (`_tuples_through`, `_gained`, `_kept`).  A part
    of at most k pairs drawn from the universes that is a map (for "AB", an
    injective one) is coded as the sum of its pair codes, so no two parts
    share a code; its restrictions are looked up by code, and it is judged
    on the tuples through one of its pairs alone (for "AB", also those
    through that pair's image).  Each one-pair extension answers one
    placement key, so forth and back are one lookup per move.

    A part found at fault has one, but the step alone can miss the fault of
    a part whose restriction has one.  So the parts found are sorted, by
    size and then by their pairs in declaration order (an element outside
    its universe after those in it, by its string), and judged whole in
    that order.  The least part with a fault is among them, since every part
    before it is a partial map closed under restriction, on which the step
    is exact, and its first fault is named: too many pairs, a pair outside
    the universes, not a partial map, or not closed under restriction.
    Forth and back faults are looked for only when no part has one, in the
    same order, so the fault named does not depend on the hash seed."""
    parts, k = fam.parts, fam.k
    if not parts:
        return False, "family is empty"
    if frozenset() not in parts:
        return False, "family does not contain the empty map"
    back = sides == "AB"
    ia, ib, na, nb = a.index, b.index, len(a.universe), len(b.universe)
    _, pairs, place_a, place_b = _codes(na, nb)
    forth, backs = _tuples_through(a, b), (_tuples_through(b, a) if back else None)
    records: dict = {}  # pair of elements -> its (i, j, code) record
    coded: dict = {}  # code -> (part, pair records, (domain bitmask, range bitmask))
    faulty = []
    for part in parts:
        if len(part) <= k:
            recs, dom, rng, code = [], 0, 0, 0
            for pair in part:
                rec = records.get(pair)
                if rec is None:
                    x, y = pair
                    if x not in ia or y not in ib:
                        break
                    rec = records[pair] = pairs[ia[x]][ib[y]]
                recs.append(rec)
                dom, rng, code = dom | 1 << rec[0], rng | 1 << rec[1], code + rec[2]
            else:
                if dom.bit_count() == len(recs) and not (back and rng.bit_count() < len(recs)):
                    coded[code] = part, recs, (dom, rng)
                    continue
        faulty.append(part)
    for code, (part, recs, (dom, rng)) in coded.items():
        for _, _, d in recs:
            if code - d not in coded:
                faulty.append(part)
                break
        else:
            if recs:
                i, j, _ = recs[-1]
                if (not _kept(_gained(forth, i, dom), {p: q for p, q, _ in recs})
                        or back and not _kept(_gained(backs, j, rng),
                                              {q: p for p, q, _ in recs})):
                    faulty.append(part)

    # an element outside its universe goes after those in it, by its string
    rank = lambda pair: ((ia[pair[0]], "") if pair[0] in ia else (na, str(pair[0])),
                         (ib[pair[1]], "") if pair[1] in ib else (nb, str(pair[1])))
    order = lambda part: (len(part), sorted(map(rank, part)))
    check, name = _partial_check(sides)
    for part in sorted(faulty, key=order):
        if len(part) > k:
            return False, f"part {sorted(part)!r} exceeds {k} pairs"
        unknown = [pair for pair in part if pair[0] not in ia or pair[1] not in ib]
        if unknown:
            x, y = min(unknown, key=rank)
            raise ToolkitError(f"pair ({x!r}, {y!r}) not drawn from the two universes")
        if not check(part, a, b):
            return False, f"part {sorted(part)!r} is not a partial {name}"
        for pair in part:
            if part - {pair} not in parts:
                return False, f"family not closed under restriction at {sorted(part)!r}"

    answered = {code - d + place_a[i] for code, (_, recs, _) in coded.items()
                for i, _, d in recs}
    if back:
        answered.update(code - d + place_b[j] for code, (_, recs, _) in coded.items()
                        for _, j, d in recs)
    # per side: its structure, its placement keys, and the name of its property
    moves = ((a, place_a, "forth"), (b, place_b, "back"))[:len(sides)]
    lacking = []  # (part, its first placement without a reply)
    for code, (part, recs, masks) in coded.items():
        if len(recs) < k:
            miss = next(((prop, host.universe[e])
                         for (host, places, prop), placed in zip(moves, masks)
                         for e, key in enumerate(places)
                         if not placed >> e & 1 and code + key not in answered), None)
            if miss:
                lacking.append((part, miss))
    if lacking:
        part, (prop, e) = min(lacking, key=lambda held: order(held[0]))
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
    parent=lambda s: s[:-1],
    play_error=_play_error,
    hom_error=lambda alpha, a: prefix_hom_error(alpha, a, active_last),
    decide=_decide,
    laws=lambda a, k, trunc, cap: law_report(GAME, a, pebble_universe(a, k, trunc, cap)),
    exists_kinds=("pebble-family", "pebble-refutation"),
    backforth_kinds=("pebble-safe", "pebble-bf-spoiler"),
    iso_kind=None,
    cover_kind="pebble-forest-cover",
)
