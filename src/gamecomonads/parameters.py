"""Coalgebras for the three game constructions, their correspondence with
forest covers / pebbled forest covers / tree decompositions, coalgebra numbers
(tree-depth, tree-width + 1, synchronization tree depth), and brute-force
oracles that are independent of all of that machinery.

The tree-depth oracle enumerates forest covers outright (as acyclic parent
maps, vectorized); the tree-width oracle runs the exact elimination-ordering
dynamic program over vertex subsets.  Coalgebra-number searches go through the
structural characterizations instead: recursive minimum-height covers for the
sequence game, exhaustive cover-plus-pebbling search for the pebble game, and
the unique candidate tree shape for the modal game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Optional

import numpy as np

from . import modal as modal_mod
from .equivalence import GAMES, game
from .pebbling import active_last
from .errors import CapExceededError, CycleError, ToolkitError
from .structures import Elem, Graph, Structure, gaifman

DEFAULT_VERTEX_CAP = 7


# ---------------------------------------------------------------------------
# Cover / decomposition value types


@dataclass(frozen=True, eq=False)
class ForestCover:
    """A forest order on the vertex set, stored as an immediate-parent map."""

    vertices: tuple[Elem, ...]
    parent: Mapping[Elem, Optional[Elem]]

    def __post_init__(self):
        vs = set(self.vertices)
        for v in self.vertices:
            if v not in self.parent:
                raise ToolkitError(f"no parent entry for {v!r}")
            p = self.parent[v]
            if p is not None and p not in vs:
                raise ToolkitError(f"parent {p!r} outside the vertex set")
        for v in self.vertices:
            if len(self.chain(v)) == 0:
                raise ToolkitError("parent map has a cycle")

    def chain(self, v: Elem) -> tuple[Elem, ...]:
        """Predecessors of v in ascending order, ending at v; () on a cycle."""
        out = [v]
        seen = {v}
        while self.parent[out[-1]] is not None:
            p = self.parent[out[-1]]
            if p in seen:
                return ()
            seen.add(p)
            out.append(p)
        return tuple(reversed(out))

    def leq(self, u: Elem, v: Elem) -> bool:
        return u in self.chain(v)

    def height(self) -> int:
        return max((len(self.chain(v)) for v in self.vertices), default=0)

    def __eq__(self, other):
        if not isinstance(other, ForestCover):
            return NotImplemented
        return self.vertices == other.vertices and dict(self.parent) == dict(other.parent)


def is_forest_cover(cover: ForestCover, g: Graph) -> bool:
    if tuple(cover.vertices) != tuple(g.vertices):
        return False
    return all(cover.leq(u, v) or cover.leq(v, u) for u, v in g.edges)


@dataclass(frozen=True, eq=False)
class PebbleForestCover:
    cover: ForestCover
    pebbles: Mapping[Elem, int]

    def __eq__(self, other):
        if not isinstance(other, PebbleForestCover):
            return NotImplemented
        return self.cover == other.cover and dict(self.pebbles) == dict(other.pebbles)


def is_pebble_forest_cover(pfc: PebbleForestCover, g: Graph, k: int) -> bool:
    """Cover plus: an edge's lower endpoint keeps its pebble untouched on the
    half-open chain up to the upper endpoint."""
    if not is_forest_cover(pfc.cover, g):
        return False
    for v in g.vertices:
        p = pfc.pebbles.get(v)
        if p is None or not (1 <= p <= k):
            return False
    return all(pfc.pebbles[x] != pfc.pebbles[y] for x, y in _cover_conflicts(pfc.cover, g))


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """A rooted tree of bags; `parent` has exactly one None entry (the root)."""

    nodes: tuple
    parent: Mapping
    bags: Mapping

    def root(self):
        roots = [x for x in self.nodes if self.parent[x] is None]
        if len(roots) != 1:
            raise ToolkitError("tree decomposition must have exactly one root")
        return roots[0]

    def width(self) -> int:
        return max((len(self.bags[x]) for x in self.nodes), default=0) - 1

    def __eq__(self, other):
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return (self.nodes == other.nodes and dict(self.parent) == dict(other.parent)
                and {x: frozenset(self.bags[x]) for x in self.nodes}
                == {x: frozenset(other.bags[x]) for x in other.nodes})


def is_tree_decomposition(td: TreeDecomposition, g: Graph) -> bool:
    try:
        root = td.root()
    except ToolkitError:
        return False
    # tree shape: every node reaches the root
    for x in td.nodes:
        seen = set()
        cur = x
        while cur is not None:
            if cur in seen:
                return False
            seen.add(cur)
            cur = td.parent[cur]
        if root not in seen:
            return False
    covered = set()
    for x in td.nodes:
        covered |= set(td.bags[x])
    if not set(g.vertices) <= covered or not covered <= set(g.vertices):
        return False
    for u, v in g.edges:
        if not any({u, v} <= set(td.bags[x]) for x in td.nodes):
            return False
    # connectivity: the nodes holding v form one subtree
    for v in g.vertices:
        holders = [x for x in td.nodes if v in td.bags[x]]
        if not holders:
            return False
        tops = [x for x in holders
                if td.parent[x] is None or v not in td.bags[td.parent[x]]]
        if len(tops) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Coalgebras


@dataclass(frozen=True, eq=False)
class CoalgebraMap:
    """A structure map into the k-indexed construction on the host, tagged by
    which game it belongs to ('ef', 'pebble', 'modal')."""

    comonad: str
    k: int
    host: Structure
    alpha: Mapping[Elem, tuple]

    def __eq__(self, other):
        if not isinstance(other, CoalgebraMap):
            return NotImplemented
        return (self.comonad == other.comonad and self.k == other.k
                and self.host == other.host and dict(self.alpha) == dict(other.alpha))


def check_coalgebra(c: CoalgebraMap) -> tuple[bool, Optional[str]]:
    """Both coalgebra laws plus the homomorphism condition, pointwise, with a
    first-failure report."""
    a = c.host
    g = GAMES.get(c.comonad)
    if g is None:
        return False, f"unknown comonad tag {c.comonad!r}"
    elems = set(a.universe)
    for v in a.universe:
        if v not in c.alpha:
            return False, f"alpha not total: {v!r} unassigned"
    for v in a.universe:
        play = c.alpha[v]
        why = (g.play_error(play, c.k, a) if isinstance(play, tuple) and play
               else "not a nonempty tuple")
        if why is not None:
            return False, f"alpha({v!r}) = {play!r} invalid: {why}"
        if g.last(play) != v:
            return False, f"counit law fails: alpha({v!r}) ends at {g.last(play)!r}"
        for pref in g.prefixes(play):
            elem = g.last(pref)
            if elem not in elems:
                return False, f"alpha({v!r}) mentions {elem!r} outside the universe"
            if c.alpha.get(elem) != pref:
                return False, (f"comultiplication law fails: alpha({elem!r}) != "
                               f"prefix {pref!r} of alpha({v!r})")
    why = g.hom_error(c.alpha, a)
    return why is None, why


# ---------------------------------------------------------------------------
# Coalgebra <-> forest cover (sequence game)


def coalgebra_to_forest_cover(c: CoalgebraMap) -> ForestCover:
    """v <= v' iff alpha(v) is a prefix of alpha(v')."""
    if c.comonad != "ef":
        raise ToolkitError("expected a sequence-game coalgebra")
    ok, why = check_coalgebra(c)
    if not ok:
        raise ToolkitError(f"not a coalgebra: {why}")
    parent = {}
    for v in c.host.universe:
        play = c.alpha[v]
        parent[v] = play[-2] if len(play) >= 2 else None
    return ForestCover(tuple(c.host.universe), parent)


def forest_cover_to_coalgebra(cover: ForestCover, k: int, host: Structure) -> CoalgebraMap:
    """alpha(v) = the chain of predecessors of v; requires height <= k and the
    cover condition against the host's Gaifman graph."""
    if cover.height() > k:
        raise ToolkitError(f"cover height {cover.height()} exceeds k={k}")
    if not is_forest_cover(cover, gaifman(host)):
        raise ToolkitError("order does not cover the Gaifman graph")
    alpha = {v: cover.chain(v) for v in cover.vertices}
    return CoalgebraMap("ef", k, host, alpha)


def pebble_coalgebra_to_pfc(c: CoalgebraMap) -> PebbleForestCover:
    if c.comonad != "pebble":
        raise ToolkitError("expected a pebble-game coalgebra")
    ok, why = check_coalgebra(c)
    if not ok:
        raise ToolkitError(f"not a coalgebra: {why}")
    parent = {}
    pebbles = {}
    for v in c.host.universe:
        play = c.alpha[v]
        parent[v] = play[-2][1] if len(play) >= 2 else None
        pebbles[v] = play[-1][0]
    return PebbleForestCover(ForestCover(tuple(c.host.universe), parent), pebbles)


def pfc_to_pebble_coalgebra(pfc: PebbleForestCover, k: int, host: Structure) -> CoalgebraMap:
    if not is_pebble_forest_cover(pfc, gaifman(host), k):
        raise ToolkitError("not a k-pebble forest cover of the host's Gaifman graph")
    alpha = {v: tuple((pfc.pebbles[u], u) for u in pfc.cover.chain(v))
             for v in pfc.cover.vertices}
    return CoalgebraMap("pebble", k, host, alpha)


def modal_coalgebra(host: Structure, k: Optional[int] = None) -> CoalgebraMap:
    """The unique candidate modal coalgebra: root paths of a tree-shaped host."""
    modal_mod.require_modal(host)
    depth, paths = _tree_paths(host)
    kk = max(1, depth) if k is None else k
    if depth > kk:
        raise ToolkitError(f"tree depth {depth} exceeds k={kk}")
    return CoalgebraMap("modal", kk, host, paths)


def _tree_paths(host: Structure) -> tuple[int, dict]:
    """Root paths of a synchronization tree; raises CycleError on reachable
    cycles and ToolkitError when the reachable part is not a spanning tree."""
    point = host.point
    _reachable_postorder(host)  # raises CycleError on a reachable cycle
    paths = {point: (point,)}
    queue = [point]
    depth = 0
    while queue:
        nxt = []
        for u in queue:
            for label, v in modal_mod.successors(host, u):
                if v in paths:
                    raise ToolkitError(
                        "no modal coalgebra: an element is reachable along two "
                        "different labelled paths (the reachable part is not a tree)")
                paths[v] = paths[u] + (label, v)
                nxt.append(v)
        queue = nxt
        if queue:
            depth += 1
    missing = [v for v in host.universe if v not in paths]
    if missing:
        raise ToolkitError(f"no modal coalgebra: {missing[0]!r} is unreachable "
                           "from the distinguished element")
    return depth, paths


def _reachable_postorder(host: Structure) -> list[Elem]:
    """Elements reachable from the point, each after all its successors, by an
    explicit-stack depth-first search; raises CycleError on a reachable cycle."""
    order: list[Elem] = []
    on_path = {host.point}
    done: set = set()
    stack = [(host.point, iter(modal_mod.successors(host, host.point)))]
    while stack:
        u, succ = stack[-1]
        for _, v in succ:
            if v in on_path:
                raise CycleError("a cycle is reachable from the distinguished element")
            if v not in done:
                on_path.add(v)
                stack.append((v, iter(modal_mod.successors(host, v))))
                break
        else:
            stack.pop()
            on_path.discard(u)
            done.add(u)
            order.append(u)
    return order


def modal_depth(a: Structure) -> int:
    """Synchronization tree depth: the longest transition path from the point
    over the (required acyclic) reachable part."""
    modal_mod.require_modal(a)
    longest: dict[Elem, int] = {}
    for u in _reachable_postorder(a):
        longest[u] = max((1 + longest[v] for _, v in modal_mod.successors(a, u)), default=0)
    return longest[a.point]


# ---------------------------------------------------------------------------
# Pebbled forest cover <-> tree decomposition


def active_ancestors(pfc: PebbleForestCover, v: Elem) -> list[Elem]:
    """Ancestors u <= v (inclusive) whose pebble is untouched on (u, v]."""
    play = tuple((pfc.pebbles[u], u) for u in pfc.cover.chain(v))
    return [u for i, (_, u) in enumerate(play) if active_last(play[: i + 1], play)]


def pfc_to_tree_decomposition(pfc: PebbleForestCover) -> TreeDecomposition:
    """Bags collect the active pebbled ancestors at each vertex; a synthetic
    empty root joins the trees of the forest when needed."""
    vertices = pfc.cover.vertices
    node_of = {v: f"b{i}" for i, v in enumerate(vertices)}
    nodes = [node_of[v] for v in vertices]
    bags = {node_of[v]: frozenset(active_ancestors(pfc, v)) for v in vertices}
    parent = {}
    roots = [v for v in vertices if pfc.cover.parent[v] is None]
    need_root = len(roots) != 1
    for v in vertices:
        p = pfc.cover.parent[v]
        parent[node_of[v]] = node_of[p] if p is not None else ("r" if need_root else None)
    if need_root:
        nodes.append("r")
        bags["r"] = frozenset()
        parent["r"] = None
    return TreeDecomposition(tuple(nodes), parent, bags)


def tree_decomposition_to_pfc(td: TreeDecomposition, k: int, g: Graph) -> PebbleForestCover:
    """From a width < k decomposition: order vertices by their introduction
    nodes, then pebble greedily avoiding the already-pebbled bag mates."""
    if not is_tree_decomposition(td, g):
        raise ToolkitError("not a tree decomposition of the graph")
    if td.width() >= k:
        raise ToolkitError(f"width {td.width()} is not < k={k}")
    root = td.root()
    vidx = g.index

    children: dict = {x: [] for x in td.nodes}
    for x in td.nodes:
        p = td.parent[x]
        if p is not None:
            children[p].append(x)
    order = [root]
    i = 0
    while i < len(order):
        order.extend(sorted(children[order[i]], key=repr))
        i += 1
    node_depth = {x: (0 if td.parent[x] is None else None) for x in td.nodes}
    for x in order[1:]:
        node_depth[x] = node_depth[td.parent[x]] + 1

    intro: dict[Elem, object] = {}
    for x in order:
        for v in sorted(td.bags[x], key=vidx.__getitem__):
            if v not in intro:
                intro[v] = x
    new_at: dict = {x: [] for x in td.nodes}
    for v in g.vertices:
        new_at[intro[v]].append(v)
    for x in td.nodes:
        new_at[x].sort(key=vidx.__getitem__)

    # forest order: u < v iff intro(u) is a strict tree-ancestor of intro(v),
    # or they share an introduction node and u was listed first
    anc_path: dict = {}
    for x in order:
        anc_path[x] = (anc_path[td.parent[x]] + [x]) if td.parent[x] is not None else [x]

    pos = {v: (node_depth[intro[v]], new_at[intro[v]].index(v)) for v in g.vertices}

    def predecessors(v: Elem) -> list[Elem]:
        out = []
        for x in anc_path[intro[v]]:
            for u in new_at[x]:
                if pos[u] < pos[v]:
                    out.append(u)
        return out

    parent = {}
    for v in g.vertices:
        pred = predecessors(v)
        parent[v] = pred[-1] if pred else None
    cover = ForestCover(tuple(g.vertices), parent)

    pebbles: dict[Elem, int] = {}
    for x in order:
        for v in new_at[x]:
            taken = {pebbles[u] for u in td.bags[x] if u in pebbles and u != v}
            pebbles[v] = next(i for i in range(1, k + 1) if i not in taken)

    pfc = PebbleForestCover(cover, pebbles)
    if not is_pebble_forest_cover(pfc, g, k):
        raise ToolkitError("internal: constructed pebbled cover fails validation")
    return pfc


# ---------------------------------------------------------------------------
# Brute-force oracles


@lru_cache(maxsize=None)
def _forest_table(n: int):
    """Every forest order on n labelled vertices, as parent codes (code n =
    root), with per-row height and a comparability bitmask per vertex pair."""
    total = (n + 1) ** n
    rows = np.arange(total, dtype=np.int64)
    parent = np.empty((total, n), dtype=np.int8)
    for v in range(n):
        parent[:, v] = (rows // (n + 1) ** v) % (n + 1)
    valid = np.ones(total, dtype=bool)
    for v in range(n):
        valid &= parent[:, v] != v

    cur = parent.astype(np.int8).copy()
    depth = np.zeros((total, n), dtype=np.int8)
    for _ in range(n):
        active = cur != n
        depth += active
        idx = np.minimum(cur, n - 1).astype(np.int64)
        nxt = np.take_along_axis(parent, idx, axis=1)
        cur = np.where(active, nxt, np.int8(n))
    valid &= (cur == n).all(axis=1)

    anc = np.zeros((total, n), dtype=np.uint8 if n <= 8 else np.uint32)
    for v in range(n):
        anc[:, v] = 1 << v
    pidx = np.minimum(parent, n - 1).astype(np.int64)
    rootmask = parent == n
    for _ in range(n):
        gathered = np.take_along_axis(anc, pidx, axis=1)
        gathered[rootmask] = 0
        anc |= gathered

    pairmask = np.zeros(total, dtype=np.uint64)
    for i in range(n):
        for j in range(i + 1, n):
            comp = (((anc[:, j] >> i) | (anc[:, i] >> j)) & 1).astype(np.uint64)
            pairmask |= comp << np.uint64(i * n + j)

    heights = (depth.max(axis=1).astype(np.int32) + 1)
    return parent[valid], heights[valid], pairmask[valid]


def oracle_treedepth(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact tree-depth by exhaustive search over forest covers."""
    n = len(g.vertices)
    if n == 0:
        return 0
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds the oracle cap {cap}")
    _, heights, pairmask = _forest_table(n)
    need = np.uint64(0)
    idx = g.index
    for u, v in g.edges:
        i, j = sorted((idx[u], idx[v]))
        need |= np.uint64(1 << (i * n + j))
    sel = (pairmask & need) == need
    return int(heights[sel].min())


def oracle_treewidth(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact tree-width by the elimination-ordering dynamic program over
    vertex subsets (fill-in neighborhoods via reachability through the
    eliminated prefix)."""
    n = len(g.vertices)
    if n == 0:
        return -1
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds the oracle cap {cap}")
    idx = g.index
    adj = [0] * n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]

    def reach_outside(v: int, prefix: int) -> int:
        """Vertices outside `prefix` (and != v) reachable from v through it."""
        visited = 1 << v
        frontier = adj[v]
        result = 0
        while frontier:
            new = frontier & ~visited
            if not new:
                break
            visited |= new
            result |= new & ~prefix
            inner = new & prefix
            nxt = 0
            m = inner
            while m:
                u = (m & -m).bit_length() - 1
                nxt |= adj[u]
                m &= m - 1
            frontier = nxt & ~visited
        return bin(result & ~(1 << v)).count("1")

    @lru_cache(maxsize=None)
    def best(prefix: int) -> int:
        if prefix == 0:
            return -1
        out = n
        m = prefix
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = prefix & ~(1 << v)
            out = min(out, max(best(rest), reach_outside(v, rest)))
        return out

    result = best((1 << n) - 1)
    best.cache_clear()
    return result


# ---------------------------------------------------------------------------
# Coalgebra-number searches (structural characterizations)


def all_forest_covers(g: Graph) -> Iterator[ForestCover]:
    """Deterministic enumeration of every forest cover of g (pure Python)."""
    vs = list(g.vertices)
    n = len(vs)
    options = [[None] + [u for u in vs if u != v] for v in vs]

    def acyclic(par: dict) -> bool:
        for v in vs:
            seen = set()
            cur = v
            while cur is not None:
                if cur in seen:
                    return False
                seen.add(cur)
                cur = par[cur]
        return True

    def rec(i: int, par: dict):
        if i == n:
            if acyclic(par):
                cover = ForestCover(tuple(vs), dict(par))
                if is_forest_cover(cover, g):
                    yield cover
            return
        for p in options[i]:
            par[vs[i]] = p
            yield from rec(i + 1, par)

    yield from rec(0, {})


def _cover_conflicts(cover: ForestCover, g: Graph) -> Iterator[tuple[Elem, Elem]]:
    """Pairs that must carry distinct pebbles: an edge's lower endpoint
    against every vertex on the half-open chain up to the upper endpoint."""
    for u, v in g.edges:
        for lo, hi in ((u, v), (v, u)):
            if cover.leq(lo, hi):
                chain = cover.chain(hi)
                for w in chain[chain.index(lo) + 1:]:
                    yield lo, w


def _min_coloring(vertices, conflicts: set[tuple], limit: int) -> Optional[dict]:
    """Smallest proper coloring of the conflict pairs with at most `limit`
    colors, by backtracking in vertex order; None if impossible."""
    vs = list(vertices)
    neighbors = {v: set() for v in vs}
    for x, y in conflicts:
        neighbors[x].add(y)
        neighbors[y].add(x)

    def attempt(bound: int) -> Optional[dict]:
        colors: dict = {}

        def rec(i: int) -> bool:
            if i == len(vs):
                return True
            v = vs[i]
            used = {colors[u] for u in neighbors[v] if u in colors}
            for col in range(1, bound + 1):
                if col not in used:
                    colors[v] = col
                    if rec(i + 1):
                        return True
                    del colors[v]
            return False

        return dict(colors) if rec(0) else None

    for bound in range(1, limit + 1):
        got = attempt(bound)
        if got is not None:
            return got
    return None


def min_height_forest_cover(g: Graph) -> ForestCover:
    """A minimum-height forest cover by the removal recursion on connected
    induced subgraphs (memoized); deterministic root choices."""
    adj = g.adjacency
    vidx = g.index

    def components(sub: frozenset) -> list[frozenset]:
        left = set(sub)
        out = []
        while left:
            seed = min(left, key=vidx.__getitem__)
            comp = {seed}
            queue = [seed]
            while queue:
                u = queue.pop()
                for w in adj[u]:
                    if w in sub and w not in comp:
                        comp.add(w)
                        queue.append(w)
            out.append(frozenset(comp))
            left -= comp
        return out

    memo: dict[frozenset, tuple[int, dict]] = {}

    def solve(sub: frozenset) -> tuple[int, dict]:
        """Minimum height and a witness parent map for a connected sub."""
        if sub in memo:
            return memo[sub]
        if len(sub) == 1:
            (v,) = sub
            memo[sub] = (1, {v: None})
            return memo[sub]
        best: Optional[tuple[int, dict]] = None
        for v in sorted(sub, key=vidx.__getitem__):
            h = 1
            par = {v: None}
            for comp in components(sub - {v}):
                ch, cpar = solve(comp)
                h = max(h, 1 + ch)
                for u, p in cpar.items():
                    par[u] = v if p is None else p
            if best is None or h < best[0]:
                best = (h, par)
        memo[sub] = best
        return best

    parent: dict = {}
    for comp in components(frozenset(g.vertices)):
        _, par = solve(comp)
        parent.update(par)
    return ForestCover(tuple(g.vertices), parent)


def min_pebble_forest_cover(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> PebbleForestCover:
    """Exhaustive search over forest covers, each given its exact minimum
    pebbling; the overall minimum is the pebble-game coalgebra number."""
    n = len(g.vertices)
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds the search cap {cap}")
    best: Optional[PebbleForestCover] = None
    best_k = n + 1
    for cover in all_forest_covers(g):
        conflicts = set(_cover_conflicts(cover, g))
        coloring = _min_coloring(g.vertices, conflicts, best_k - 1)
        if coloring is not None:
            used = max(coloring.values(), default=0)
            if used < best_k:
                best_k = used
                best = PebbleForestCover(cover, coloring)
    if best is None:
        raise ToolkitError("internal: no pebbled cover found")
    return best


@dataclass(frozen=True)
class KappaResult:
    comonad: str
    kappa: int
    coalgebra: CoalgebraMap
    cover: Optional[ForestCover] = None
    pfc: Optional[PebbleForestCover] = None


def coalgebra_number(a: Structure, comonad: str, cap: int = DEFAULT_VERTEX_CAP) -> KappaResult:
    """Least k admitting a coalgebra, with a witness.

    Sequence game: minimum-height forest cover of the Gaifman graph.  Pebble
    game: minimum over covers of the exact conflict coloring.  Modal game:
    the unique candidate tree shape (errors on cycles and non-tree shapes).
    k is at least 1 by construction, so an empty or edgeless structure gets 1.
    """
    return _KAPPA_SEARCHES[game(comonad).name](a, cap)


def _kappa_ef(a: Structure, cap: int) -> KappaResult:
    g = gaifman(a)
    if len(g.vertices) > cap:
        raise CapExceededError(f"{len(g.vertices)} vertices exceeds the search cap {cap}")
    cover = min_height_forest_cover(g)
    kappa = max(1, cover.height())
    return KappaResult("ef", kappa, forest_cover_to_coalgebra(cover, kappa, a), cover=cover)


def _kappa_pebble(a: Structure, cap: int) -> KappaResult:
    g = gaifman(a)
    if len(g.vertices) == 0:
        empty = PebbleForestCover(ForestCover((), {}), {})
        return KappaResult("pebble", 1, CoalgebraMap("pebble", 1, a, {}), pfc=empty)
    pfc = min_pebble_forest_cover(g, cap)
    kappa = max(1, max(pfc.pebbles.values(), default=0))
    return KappaResult("pebble", kappa, pfc_to_pebble_coalgebra(pfc, kappa, a), pfc=pfc)


def _kappa_modal(a: Structure, cap: int) -> KappaResult:
    c = modal_coalgebra(a)
    return KappaResult("modal", c.k, c)


_KAPPA_SEARCHES = {"ef": _kappa_ef, "pebble": _kappa_pebble, "modal": _kappa_modal}
