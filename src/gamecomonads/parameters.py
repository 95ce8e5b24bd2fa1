"""Coalgebras for the three game constructions, their correspondence with
forest covers / pebbled forest covers / tree decompositions, coalgebra numbers
(tree-depth, tree-width + 1, synchronization tree depth), and the tree-depth
and tree-width oracles.

The tree-depth oracle builds forest orders one depth at a time, apart from
the sequence game's search.  Tree-width comes from one pruned
elimination-order dynamic program, `_treewidth_order`: the tree-width oracle
reports its width, and the pebble coalgebra number reads a pebbled forest
cover straight off its order (`_elimination_cover`).  The sequence game's
number is a recursive minimum-height cover on the same neighbour bitmasks
and component split, solved under a budget and cut by a path bound, and the
modal game's is the unique candidate tree shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Mapping, Optional

from . import modal as modal_mod
from . import pebbling as pebble_mod
from .equivalence import GAMES, game
from .errors import CapExceededError, CycleError, ToolkitError
from .game import walk_plays
from .structures import Elem, Graph, Record, Structure, gaifman

DEFAULT_VERTEX_CAP = 7


# ---------------------------------------------------------------------------
# Cover / decomposition value types


class ForestCover(Record):
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
        chains: dict[Elem, tuple[Elem, ...]] = {}
        for v in self.vertices:
            path: list[Elem] = []
            u = v
            while u is not None and u not in chains:
                if u in path:
                    raise ToolkitError("parent map has a cycle")
                path.append(u)
                u = self.parent[u]
            chain = () if u is None else chains[u]
            for w in reversed(path):
                chain += (w,)
                chains[w] = chain
        object.__setattr__(self, "_chains", chains)
        object.__setattr__(self, "_conflicts", {})

    def chain(self, v: Elem) -> tuple[Elem, ...]:
        """Predecessors of v in ascending order, ending at v."""
        return self._chains[v]

    def height(self) -> int:
        return max((len(self.chain(v)) for v in self.vertices), default=0)

    def conflicts(self, g: Graph) -> Optional[tuple[tuple[Elem, Elem], ...]]:
        """Pairs that must carry distinct pebbles: an edge's lower endpoint
        against every vertex on the half-open chain up to the upper endpoint;
        None when an edge joins two incomparable vertices.  Derived once per
        edge set; the edges must join vertices of the cover."""
        if g.edges not in self._conflicts:
            pairs: Optional[list] = []
            for u, v in g.edges:
                lo, hi = (u, v) if u in self._chains[v] else (v, u)
                chain = self._chains[hi]
                if lo not in chain:
                    pairs = None
                    break
                pairs.extend((lo, w) for w in chain[chain.index(lo) + 1:])
            self._conflicts[g.edges] = None if pairs is None else tuple(pairs)
        return self._conflicts[g.edges]


def is_forest_cover(cover: ForestCover, g: Graph) -> bool:
    return tuple(cover.vertices) == tuple(g.vertices) and cover.conflicts(g) is not None


class PebbleForestCover(Record):
    cover: ForestCover
    pebbles: Mapping[Elem, int]


def is_pebble_forest_cover(pfc: PebbleForestCover, g: Graph, k: int) -> bool:
    """Cover plus: an edge's lower endpoint keeps its pebble untouched on the
    half-open chain up to the upper endpoint."""
    if not is_forest_cover(pfc.cover, g):
        return False
    for v in g.vertices:
        p = pfc.pebbles.get(v)
        if p is None or not (1 <= p <= k):
            return False
    return all(pfc.pebbles[x] != pfc.pebbles[y] for x, y in pfc.cover.conflicts(g))


class TreeDecomposition(Record):
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


def is_tree_decomposition(td: TreeDecomposition, g: Graph) -> bool:
    try:
        root = td.root()
    except ToolkitError:
        return False
    # tree shape: every node reaches the root
    rooted = {root}
    for x in td.nodes:
        path = []
        cur = x
        while cur not in rooted:
            if cur is None or cur in path:
                return False
            path.append(cur)
            cur = td.parent[cur]
        rooted.update(path)
    bags = {x: frozenset(td.bags[x]) for x in td.nodes}
    if frozenset().union(*bags.values()) != frozenset(g.vertices):
        return False
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in bags.values()):
            return False
    # connectivity: the nodes holding v form one subtree, so exactly one of
    # them has a parent without v
    tops = [v for x in td.nodes for v in bags[x]
            if td.parent[x] is None or v not in bags[td.parent[x]]]
    return len(tops) == len(set(tops))


# ---------------------------------------------------------------------------
# Coalgebras


class CoalgebraMap(Record):
    """A structure map into the k-indexed construction on the host, tagged by
    which game it belongs to ('ef', 'pebble', 'modal')."""

    comonad: str
    k: int
    host: Structure
    alpha: Mapping[Elem, tuple]


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
        pref = g.parent(play) or play  # the parent's element's check covers its own prefixes
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


def forest_cover_to_coalgebra(cover: ForestCover, k: int, host: Structure) -> CoalgebraMap:
    """alpha(v) = the chain of predecessors of v; requires height <= k and the
    cover condition against the host's Gaifman graph."""
    if cover.height() > k:
        raise ToolkitError(f"cover height {cover.height()} exceeds k={k}")
    if not is_forest_cover(cover, gaifman(host)):
        raise ToolkitError("order does not cover the Gaifman graph")
    alpha = {v: cover.chain(v) for v in cover.vertices}
    return CoalgebraMap("ef", k, host, alpha)


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
    """Root paths of a synchronization tree and its depth, read off its modal
    plays up to |universe| steps (a tree's paths are shorter; a path that
    long meets an element twice).  The walk stops at the first fault met:
    CycleError when a path returns to an element on it, ToolkitError when an
    element is reached twice; ToolkitError too when one is never reached."""
    paths: dict = {}
    for path, _ in walk_plays(modal_mod.GAME, host, len(host.universe)):
        v = path[-1]
        if v in path[:-1:2]:
            raise CycleError("a cycle is reachable from the distinguished element")
        if v in paths:
            raise ToolkitError(
                "no modal coalgebra: an element is reachable along two "
                "different labelled paths (the reachable part is not a tree)")
        paths[v] = path
    missing = [v for v in host.universe if v not in paths]
    if missing:
        raise ToolkitError(f"no modal coalgebra: {missing[0]!r} is unreachable "
                           "from the distinguished element")
    return modal_mod.path_steps(path), paths  # the last path of the walk is a deepest


# ---------------------------------------------------------------------------
# Pebbled forest cover -> tree decomposition


def active_ancestors(pfc: PebbleForestCover, v: Elem) -> list[Elem]:
    """Ancestors u <= v (inclusive) whose pebble is untouched on (u, v]."""
    chain = pfc.cover.chain(v)
    return [chain[i] for i in pebble_mod.active([(pfc.pebbles[u], u) for u in chain])]


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


# ---------------------------------------------------------------------------
# Oracles: tree-depth by a forest search, tree-width by elimination orders


@lru_cache(maxsize=None)
def _forest_table(n: int) -> tuple:
    """Every forest order on vertices 0..n-1 as rows (parent codes, height,
    comparable-pair mask): parent codes are vertex indices or None for a root,
    and bit i*n+j (i < j) of the mask is set when i and j are comparable.
    No command reads it: the exhaustive test references do, and the
    benchmark's tracer clears its cache between rounds.

    Parents are chosen depth-first with vertex 0 outermost, None first and
    then the other vertices in index order; a choice that closes a cycle is
    cut at once, so there are (n+1)^(n-1) rows."""
    rows = []
    par: list = [None] * n

    def leaf():
        height = mask = 0
        for v in range(n):
            depth, u = 1, par[v]
            while u is not None:
                depth += 1
                mask |= 1 << (u * n + v if u < v else v * n + u)
                u = par[u]
            height = max(height, depth)
        rows.append((tuple(par), height, mask))

    def choose(i: int):
        if i == n:
            leaf()
            return
        for p in (None, *range(n)):
            if p == i:
                continue
            u = p
            while u is not None and u < i:
                u = par[u]
            if u != i:  # following p's assigned ancestors did not return to i
                par[i] = p
                choose(i + 1)

    choose(0)
    return tuple(rows)


def oracle_treedepth(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact tree-depth: the least height of a rooted forest whose closure
    holds every edge, built one depth at a time.  At each depth every vertex
    not yet placed, in index order, either takes a parent one depth up
    (depth 1 hangs off an empty root) whose ancestors include each of its
    neighbours placed so far, or waits for a deeper one; a neighbour placed
    at its own depth is no ancestor, so it refuses the place.  A depth that
    places nothing ends its branch, and so does reaching the best height
    found, which starts at a chain's n."""
    n = len(g.vertices)
    if n == 0:
        return 0
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds the oracle cap {cap}")
    adj = g.adjacency
    best = n

    def place(todo: int, depth: int, above: tuple[int, ...], placed: int, here: list[int],
              wait: int) -> None:
        """Place the lowest vertex of `todo`, then the rest; `above` holds
        the ancestor masks of the vertices one depth up, `here` those placed
        at this depth, and `wait` the vertices left for a deeper one."""
        nonlocal best
        if depth >= best:
            return
        if not todo:
            if not wait:
                best = depth
            elif here:
                place(wait, depth + 1, tuple(here), placed, [], 0)
            return
        bit = todo & -todo
        need = adj[bit.bit_length() - 1] & placed
        for ancestors in above:
            if need & ~ancestors == 0:
                here.append(ancestors | bit)
                place(todo ^ bit, depth, above, placed | bit, here, wait)
                here.pop()
        place(todo ^ bit, depth, above, placed, here, wait | bit)

    place((1 << n) - 1, 1, (0,), 0, [], 0)
    return best


def oracle_treewidth(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact tree-width, by the elimination-order dynamic program."""
    n = len(g.vertices)
    if n == 0:
        return -1
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds the oracle cap {cap}")
    return _treewidth_order(g)[0]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(adj: list[int], s: int) -> list[tuple[int, int]]:
    """The components of G[s], lowest vertex first, each with its neighbours
    outside s."""
    comps = []
    rest = s
    while rest:
        comp = reach = rest & -rest
        out = 0
        while reach:
            around = 0
            for u in _bits(reach):
                around |= adj[u]
            out |= around & ~s
            reach = around & s & ~comp
            comp |= reach
        comps.append((comp, out))
        rest &= ~comp
    return comps


def _eliminate(nbrs: list[int], v: int) -> int:
    """Eliminate v from the filled graph `nbrs`, in place: its neighbours
    become a clique and lose v.  Returns v's neighbours."""
    later = nbrs[v]
    for u in _bits(later):
        nbrs[u] = (nbrs[u] | later) & ~(1 << u) & ~(1 << v)
    return later


def _treewidth_order(g: Graph) -> tuple[int, tuple[Elem, ...]]:
    """Tree-width of a nonempty graph with an elimination order attaining it.

    Eliminating v after the set S costs |Q(S, v)|, the vertices outside
    S + v that v reaches through S, so TW(S + v) = min max(TW(S), |Q(S, v)|)
    over elimination prefixes, run forward one layer per |S|.  Each S finds
    the components of G[S] and their outside neighbours once; Q(S, v) joins
    v's neighbours outside S with those of the components it touches.  Two
    exact bounds prune (Bodlaender, Fomin, Koster, Kratsch, Thilikos): the
    greedy min-degree order is the first upper bound, and a prefix S followed
    by the rest in any order costs at most max(TW(S), n - |S| - 1); a prefix
    that cannot beat the bound is dropped.  Ties go to the first prefix and
    the lowest vertex index."""
    n = len(g.vertices)
    adj = g.adjacency
    full = (1 << n) - 1

    # greedy min-degree elimination on the filled graph
    nbrs = adj[:]
    left = full
    order = []
    best = -1
    while left:
        v = min(_bits(left), key=lambda u: nbrs[u].bit_count())
        best = max(best, _eliminate(nbrs, v).bit_count())
        left &= ~(1 << v)
        order.append(v)
    best_prefix = None  # the greedy order stays the witness unless a prefix beats it

    came_from = {}  # prefix -> the prefix it extends
    layer = {0: -1}  # prefix -> TW(prefix)
    for size in range(n):
        nxt: dict[int, int] = {}
        for s, tw in layer.items():
            if tw >= best:
                continue
            bound = max(tw, n - size - 1)
            if bound < best:
                best, best_prefix = bound, s
            comps = _components(adj, s)
            for v in _bits(full & ~s):
                q = adj[v] & ~s
                for comp, out in comps:
                    if adj[v] & comp:
                        q |= out
                w = max(tw, (q & ~(1 << v)).bit_count())
                t = s | 1 << v
                if w < best and w < nxt.get(t, n):
                    nxt[t] = w
                    came_from[t] = s
        layer = nxt

    if best_prefix is not None:
        prefix = []
        s = best_prefix
        while s:
            prev = came_from[s]
            prefix.append((s & ~prev).bit_length() - 1)
            s = prev
        prefix.reverse()
        order = prefix + list(_bits(full & ~best_prefix))
    return best, tuple(g.vertices[v] for v in order)


def _elimination_cover(g: Graph, order: tuple[Elem, ...]) -> PebbleForestCover:
    """The pebbled forest cover of an elimination order.  A vertex's parent
    is the first eliminated of its later neighbours in the filled graph, or
    the last vertex when it has none; the last vertex is the root.  Those
    neighbours are all ancestors of the vertex, so pebbles are given in
    reverse elimination order: each vertex gets the least pebble that none
    of its later neighbours carries.  This is the cover that pebbling the
    order's tree decomposition breadth-first gives, read without building
    the decomposition."""
    nbrs = g.adjacency[:]
    later = {v: [g.vertices[u] for u in _bits(_eliminate(nbrs, g.index[v]))] for v in order}
    pos = {v: i for i, v in enumerate(order)}
    last = order[-1]
    parent = {v: min(later[v], key=pos.__getitem__) if later[v] else last for v in order}
    parent[last] = None
    pebbles: dict = {}
    for v in reversed(order):
        taken = {pebbles[u] for u in later[v]}
        pebbles[v] = next(i for i in range(1, len(taken) + 2) if i not in taken)
    return PebbleForestCover(ForestCover(tuple(g.vertices), {v: parent[v] for v in g.vertices}),
                             {v: pebbles[v] for v in g.vertices})


# ---------------------------------------------------------------------------
# Coalgebra-number searches (structural characterizations)


def _path_bound(adj: list[int], s: int) -> int:
    """A lower bound on the tree-depth of the connected G[s]: a double-sweep
    BFS (from the lowest vertex, then from the lowest of the farthest layer)
    finds a shortest, hence induced, path of l vertices, and a path on l
    vertices has tree-depth ceil(log2(l + 1))."""
    far = s
    for _ in range(2):
        seen = frontier = far & -far
        length = 0
        while frontier:
            far, length = frontier, length + 1
            reach = 0
            for u in _bits(frontier):
                reach |= adj[u]
            frontier = reach & s & ~seen
            seen |= frontier
    return length.bit_length()


def min_height_forest_cover(g: Graph) -> ForestCover:
    """A minimum-height forest cover by the removal recursion on connected
    vertex sets: td(S) = 1 + min over roots v of max td(C), over the
    components C of S - v.  `solve(s, ub)` is exact when td(S) < ub and
    otherwise returns a lower bound of at least ub; a set whose bound
    (`_path_bound`, or a budget it failed before) reaches ub is cut at once.
    Roots are tried in index order, each component solved under the budget
    best - 1, and the first minimum is kept; a root is dropped as soon as
    one of its components reaches the best height found so far, and the
    trials stop once the best meets the bound, as no later root beats it.
    The memo keeps (height, root) per solved set and (bound, -1) per failed
    one, and the parent map is read off the roots at the end."""
    adj = g.adjacency
    memo: dict[int, tuple[int, int]] = {}

    def solve(s: int, ub: int) -> int:
        lb, root = memo.get(s) or (_path_bound(adj, s), -1)
        if root >= 0 or lb >= ub:
            return lb
        best = min(ub, s.bit_count() + 1)  # every root beats |S| + 1
        for v in _bits(s):
            h = 1
            for comp, _ in _components(adj, s & ~(1 << v)):
                h = max(h, 1 + solve(comp, best - 1))
                if h >= best:
                    break
            else:
                best, root = h, v
                if best == lb:
                    break
        memo[s] = (best, root)  # with no root, td(S) >= ub = best
        return best

    vs = g.vertices
    parent: dict = {}
    todo = [(comp, None) for comp, _ in _components(adj, (1 << len(vs)) - 1)]
    for s, above in todo:
        solve(s, len(vs) + 1)
        v = memo[s][1]
        parent[vs[v]] = above
        todo.extend((comp, vs[v]) for comp, _ in _components(adj, s & ~(1 << v)))
    return ForestCover(tuple(vs), parent)


class KappaResult(Record):
    kappa: int
    coalgebra: CoalgebraMap
    cover: Optional[ForestCover] = None
    pfc: Optional[PebbleForestCover] = None


def coalgebra_number(a: Structure, comonad: str, cap: int = DEFAULT_VERTEX_CAP) -> KappaResult:
    """Least k admitting a coalgebra, with a witness.

    Sequence game: minimum-height forest cover of the Gaifman graph.  Pebble
    game: tree-width + 1, the pebbled forest cover of an optimal elimination
    order.  Modal game: the unique candidate tree shape (errors
    on cycles and non-tree shapes).
    k is at least 1 by construction, so an empty or edgeless structure gets 1.
    """
    return _KAPPA_SEARCHES[game(comonad).name](a, cap)


def _capped_gaifman(a: Structure, cap: int) -> Graph:
    g = gaifman(a)
    if len(g.vertices) > cap:
        raise CapExceededError(f"{len(g.vertices)} vertices exceeds the search cap {cap}")
    return g


def _kappa_ef(a: Structure, cap: int) -> KappaResult:
    g = _capped_gaifman(a, cap)
    cover = min_height_forest_cover(g)
    kappa = max(1, cover.height())
    return KappaResult(kappa, forest_cover_to_coalgebra(cover, kappa, a), cover=cover)


def _kappa_pebble(a: Structure, cap: int) -> KappaResult:
    g = _capped_gaifman(a, cap)
    kappa, pfc = 1, PebbleForestCover(ForestCover((), {}), {})
    if g.vertices:
        width, order = _treewidth_order(g)
        kappa, pfc = width + 1, _elimination_cover(g, order)
    return KappaResult(kappa, pfc_to_pebble_coalgebra(pfc, kappa, a), pfc=pfc)


def _kappa_modal(a: Structure, cap: int) -> KappaResult:
    c = modal_coalgebra(a)
    return KappaResult(c.k, c)


_KAPPA_SEARCHES = {"ef": _kappa_ef, "pebble": _kappa_pebble, "modal": _kappa_modal}
