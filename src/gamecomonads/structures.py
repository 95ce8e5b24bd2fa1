"""Finite relational structures, homomorphisms, Gaifman graphs, and the text format.

Universe elements are arbitrary hashables: parsed structures use string
identifiers, lifted structures (play universes) use tuples.  Declaration order
is significant everywhere; all searches enumerate in that order so that every
"returns some witness" operation is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import StructureParseError, ToolkitError, VocabularyMismatchError

Elem = Hashable

_IDENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.'+-]*$")


@dataclass(frozen=True)
class Vocabulary:
    """An ordered family of relation symbols with positive arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise ToolkitError(f"duplicate relation symbol {name!r}")
            seen.add(name)
            if arity < 1:
                raise ToolkitError(f"symbol {name!r} has arity {arity}; arities must be >= 1")

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.symbols)

    def arity(self, name: str) -> int:
        return self.arities[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def max_arity(self) -> int:
        return max((a for _, a in self.symbols), default=0)


@dataclass(frozen=True, eq=False)
class Structure:
    """A finite relational structure, optionally pointed.

    `interp` maps each symbol name to a frozenset of tuples over the universe.
    Instances are immutable; all operations on them are pure.
    """

    vocab: Vocabulary
    universe: tuple[Elem, ...]
    interp: Mapping[str, frozenset]
    point: Optional[Elem] = None

    def __post_init__(self):
        elems = set(self.universe)
        if len(elems) != len(self.universe):
            raise ToolkitError("duplicate element in universe")
        for name, arity in self.vocab.symbols:
            for tup in self.interp.get(name, ()):
                if len(tup) != arity:
                    raise ToolkitError(
                        f"tuple {tup!r} has length {len(tup)}, expected arity {arity} of {name!r}")
                for e in tup:
                    if e not in elems:
                        raise ToolkitError(f"tuple component {e!r} not in universe")
        extra = set(self.interp) - set(self.vocab.names)
        if extra:
            raise ToolkitError(f"interpretation of undeclared symbol(s): {sorted(map(repr, extra))}")
        if self.point is not None and self.point not in elems:
            raise ToolkitError(f"distinguished element {self.point!r} not in universe")

    @classmethod
    def build(cls, symbols: Sequence[tuple[str, int]], elems: Sequence[Elem],
              rels: Mapping[str, Iterable[Sequence[Elem]]] | None = None,
              point: Optional[Elem] = None) -> "Structure":
        rels = rels or {}
        interp = {name: frozenset(tuple(t) for t in rels.get(name, ())) for name, _ in symbols}
        return cls(Vocabulary(tuple(symbols)), tuple(elems), interp, point)

    @cached_property
    def index(self) -> dict[Elem, int]:
        return {e: i for i, e in enumerate(self.universe)}

    def tuples(self, name: str) -> frozenset:
        return self.interp.get(name, frozenset())

    def all_tuples(self) -> Iterable[tuple[str, tuple]]:
        for name in self.vocab.names:
            for tup in sorted(self.tuples(name), key=lambda t: tuple(self.index[e] for e in t)):
                yield name, tup

    @property
    def is_pointed(self) -> bool:
        return self.point is not None

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.vocab == other.vocab and self.universe == other.universe
                and {n: self.tuples(n) for n in self.vocab.names}
                == {n: other.tuples(n) for n in other.vocab.names}
                and self.point == other.point)

    def __repr__(self):
        pt = f", point={self.point!r}" if self.point is not None else ""
        return f"Structure(|A|={len(self.universe)}, {dict((n, len(self.tuples(n))) for n in self.vocab.names)}{pt})"


@dataclass(frozen=True)
class Hom:
    """A homomorphism witness; construction re-checks relation preservation."""

    source: Structure
    target: Structure
    mapping: Mapping[Elem, Elem]

    def __post_init__(self):
        if not check_hom(self.mapping, self.source, self.target):
            raise ToolkitError("mapping is not a homomorphism")

    def __call__(self, e: Elem) -> Elem:
        return self.mapping[e]


@dataclass(frozen=True, eq=False)
class Graph:
    """A finite simple graph: symmetric irreflexive adjacency."""

    vertices: tuple[Elem, ...]
    edges: frozenset  # frozenset of 2-tuples (u, v), stored with index(u) < index(v)

    def __post_init__(self):
        idx = {v: i for i, v in enumerate(self.vertices)}
        for u, v in self.edges:
            if u == v:
                raise ToolkitError(f"self-loop at {u!r}")
            if u not in idx or v not in idx:
                raise ToolkitError(f"edge endpoint outside vertex set: {(u, v)!r}")
            if idx[u] > idx[v]:
                raise ToolkitError(f"edge {(u, v)!r} not stored in index order")

    @classmethod
    def build(cls, vertices: Sequence[Elem], edges: Iterable[Sequence[Elem]]) -> "Graph":
        idx = {v: i for i, v in enumerate(vertices)}
        norm = frozenset(tuple(sorted(e, key=idx.__getitem__)) for e in edges if e[0] != e[1])
        return cls(tuple(vertices), norm)

    @cached_property
    def index(self) -> dict[Elem, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> list[int]:
        """Neighbour bitmasks by vertex index: bit j of entry i is set when
        vertices i and j are adjacent.  Shared; copy before changing it."""
        idx = self.index
        adj = [0] * len(self.vertices)
        for u, v in self.edges:
            adj[idx[u]] |= 1 << idx[v]
            adj[idx[v]] |= 1 << idx[u]
        return adj

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges


def parse_structure(text: str | bytes) -> Structure:
    """Parse the line-oriented structure format.

    Directives: `vocab <name> <arity>`, `elem <id>`, `rel <name> <id>...`,
    `start <id>`.  `#` starts a comment; tokens are whitespace-separated.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    symbols: list[tuple[str, int]] = []
    elems: list[str] = []
    rels: dict[str, list[tuple]] = {}
    point = None
    arity_of: dict[str, int] = {}
    known = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "vocab":
            if len(rest) != 2:
                raise StructureParseError("vocab expects <name> <arity>", lineno)
            name, arity_s = rest
            _check_ident(name, lineno)
            if name in arity_of:
                raise StructureParseError(f"duplicate symbol {name!r}", lineno)
            try:
                arity = int(arity_s)
            except ValueError:
                raise StructureParseError(f"arity {arity_s!r} is not an integer", lineno) from None
            if arity < 1:
                raise StructureParseError(f"arity must be >= 1, got {arity}", lineno)
            arity_of[name] = arity
            symbols.append((name, arity))
            rels[name] = []
        elif head == "elem":
            if len(rest) != 1:
                raise StructureParseError("elem expects a single identifier", lineno)
            (e,) = rest
            _check_ident(e, lineno)
            if e in known:
                raise StructureParseError(f"duplicate element {e!r}", lineno)
            known.add(e)
            elems.append(e)
        elif head == "rel":
            if not rest:
                raise StructureParseError("rel expects <name> <id>...", lineno)
            name, args = rest[0], rest[1:]
            if name not in arity_of:
                raise StructureParseError(f"unknown symbol {name!r}", lineno)
            if len(args) != arity_of[name]:
                raise StructureParseError(
                    f"{name!r} has arity {arity_of[name]}, got {len(args)} arguments", lineno)
            for e in args:
                if e not in known:
                    raise StructureParseError(f"unknown element {e!r}", lineno)
            rels[name].append(tuple(args))
        elif head == "start":
            if len(rest) != 1:
                raise StructureParseError("start expects a single identifier", lineno)
            if point is not None:
                raise StructureParseError("duplicate start directive", lineno)
            (e,) = rest
            if e not in known:
                raise StructureParseError(f"unknown element {e!r}", lineno)
            point = e
        else:
            raise StructureParseError(f"unknown directive {head!r}", lineno)
    return Structure.build(symbols, elems, rels, point)


def _check_ident(token: str, lineno: int) -> None:
    if not _IDENT_RE.match(token):
        raise StructureParseError(f"invalid identifier {token!r}", lineno)


def serialize_structure(a: Structure) -> str:
    """Canonical text form: vocab, elem, rel (declaration order), start."""
    for e in a.universe:
        if not isinstance(e, str):
            raise ToolkitError("only string-identified structures serialize to text")
    lines = [f"vocab {name} {arity}" for name, arity in a.vocab.symbols]
    lines += [f"elem {e}" for e in a.universe]
    for name, tup in a.all_tuples():
        lines.append(f"rel {name} " + " ".join(tup))
    if a.point is not None:
        lines.append(f"start {a.point}")
    return "\n".join(lines) + ("\n" if lines else "")


def check_hom(f: Mapping[Elem, Elem], a: Structure, b: Structure) -> bool:
    """True iff `f` preserves every tuple (and the point, when both are pointed)."""
    for e in a.universe:
        if e not in f:
            raise ToolkitError(f"mapping not total: {e!r} unassigned")
    belems = set(b.universe)
    for e in a.universe:
        if f[e] not in belems:
            raise ToolkitError(f"mapping value {f[e]!r} outside target universe")
    if a.is_pointed and b.is_pointed and f[a.point] != b.point:
        return False
    for name, _ in a.vocab.symbols:
        target = b.tuples(name)
        for tup in a.tuples(name):
            if tuple(f[e] for e in tup) not in target:
                return False
    return True


def find_hom(a: Structure, b: Structure) -> Optional[Hom]:
    """Backtracking search for a homomorphism, in universe order, with
    one-step lookahead pruning on almost-decided tuples.

    Deterministic: the witness found is the lexicographically least in the
    target's declaration order.  Preserves points when both ends are pointed.
    """
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("find_hom requires a shared vocabulary")
    n = len(a.universe)
    if n == 0:
        return Hom(a, b, {})
    if len(b.universe) == 0:
        return None
    pos_of = a.index
    # For each element, the tuples it occurs in (with the symbol's target set).
    occurs: dict[Elem, list[tuple[tuple, frozenset]]] = {e: [] for e in a.universe}
    all_constraints: list[tuple[tuple, frozenset]] = []
    for name, _ in a.vocab.symbols:
        target = b.tuples(name)
        for tup in a.tuples(name):
            item = (tup, target)
            all_constraints.append(item)
            for e in set(tup):
                occurs[e].append(item)

    assignment: dict[Elem, Elem] = {}

    def consistent(e: Elem) -> bool:
        for tup, target in occurs[e]:
            decided = [assignment.get(x) for x in tup]
            missing = [i for i, v in enumerate(decided) if v is None]
            if not missing:
                if tuple(decided) not in target:
                    return False
            elif len(missing) == 1:
                i = missing[0]
                if not any(tuple(decided[:i]) + (c,) + tuple(decided[i + 1:]) in target
                           for c in b.universe):
                    return False
        return True

    pointed = a.is_pointed and b.is_pointed

    def candidates(e: Elem):
        return iter((b.point,) if (pointed and e == a.point) else b.universe)

    # Depth-first over the universe with an explicit stack holding, per
    # assigned element, the candidates not yet tried, so a long universe does
    # not exhaust the interpreter's recursion limit.
    stack = [candidates(a.universe[0])]
    while stack:
        e = a.universe[len(stack) - 1]
        for c in stack[-1]:
            assignment[e] = c
            if consistent(e):
                break
        else:
            assignment.pop(e, None)
            stack.pop()
            continue
        if len(stack) == n:
            return Hom(a, b, dict(assignment))
        stack.append(candidates(a.universe[len(stack)]))
    return None


def _maps(p, a: Structure, b: Structure, inverse: bool) -> Optional[tuple[dict, dict]]:
    """One pass over `p` (pairs or mapping): the map it defines and, if
    `inverse`, the inverse map; None when either is not a function.  A pair
    outside the two universes is an error."""
    fn: dict[Elem, Elem] = {}
    inv: dict[Elem, Elem] = {}
    functional = True
    a_index, b_index = a.index, b.index
    for x, y in (p.items() if isinstance(p, Mapping) else p):
        if x not in a_index or y not in b_index:
            raise ToolkitError(f"pair ({x!r}, {y!r}) not drawn from the two universes")
        if fn.setdefault(x, y) != y or inverse and inv.setdefault(y, x) != x:
            functional = False
    return (fn, inv) if functional else None


def _preserves(fn: Mapping[Elem, Elem], a: Structure, b: Structure) -> bool:
    """`fn` sends every tuple of `a` whose components all lie in its domain
    to a tuple of `b`.  The tuples inside a small domain are found by
    enumerating the domain, the others by scanning the relation."""
    for name, arity in a.vocab.symbols:
        source, target = a.tuples(name), b.tuples(name)
        if len(fn) ** arity < len(source):
            inside = (tup for tup in product(fn, repeat=arity) if tup in source)
        else:
            inside = (tup for tup in source if all(e in fn for e in tup))
        for tup in inside:
            if tuple(fn[e] for e in tup) not in target:
                return False
    return True


def is_partial_hom(p, a: Structure, b: Structure) -> bool:
    """`p` (pairs or mapping) is functional and preserves every tuple of `a`
    whose components all lie in its domain."""
    maps = _maps(p, a, b, inverse=False)
    return maps is not None and _preserves(maps[0], a, b)


def is_partial_iso(p, a: Structure, b: Structure) -> bool:
    """Partial hom, injective, and the inverse is a partial hom back."""
    maps = _maps(p, a, b, inverse=True)
    return maps is not None and _preserves(maps[0], a, b) and _preserves(maps[1], b, a)


def gaifman(a: Structure) -> Graph:
    """Vertices = universe; edges join distinct elements co-occurring in a tuple."""
    idx = a.index
    edges = set()
    for name, _ in a.vocab.symbols:
        for tup in a.tuples(name):
            for i, u in enumerate(tup):
                for v in tup[i + 1:]:
                    if u != v:
                        edges.add(tuple(sorted((u, v), key=idx.__getitem__)))
    return Graph(tuple(a.universe), frozenset(edges))
