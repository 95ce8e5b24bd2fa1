"""Seeded input generator: graphs and rooted trees written as `.str` files.

The generator names elements itself (`<prefix><i>` for any n), so a graph on
n vertices always has n distinct elements.  Every structure uses the single
binary symbol R; undirected edges are stored in both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Graph:
    """An input structure: elements in declaration order, directed R-tuples,
    and an optional start element (needed by the modal game)."""

    elems: tuple[str, ...]
    tuples: tuple[tuple[str, str], ...]
    start: str | None = None

    def text(self) -> str:
        lines = ["vocab R 2"]
        lines += [f"elem {e}" for e in self.elems]
        lines += [f"rel R {u} {v}" for u, v in self.tuples]
        if self.start is not None:
            lines.append(f"start {self.start}")
        return "\n".join(lines) + "\n"


def names(n: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def undirected(elems, edges, start_first: bool = True) -> Graph:
    tuples = []
    for u, v in edges:
        tuples += [(u, v), (v, u)]
    return Graph(tuple(elems), tuple(tuples), elems[0] if start_first and elems else None)


def clique(n: int, prefix: str = "k") -> Graph:
    el = names(n, prefix)
    return undirected(el, combinations(el, 2))


def cycle(n: int, prefix: str = "c") -> Graph:
    el = names(n, prefix)
    return undirected(el, [(el[i], el[(i + 1) % n]) for i in range(n)])


def path(n: int, prefix: str = "p") -> Graph:
    el = names(n, prefix)
    return undirected(el, [(el[i], el[i + 1]) for i in range(n - 1)])


def random_graph(rng: random.Random, n: int, m: int, prefix: str = "g") -> Graph:
    """G(n, m): n vertices and exactly m edges drawn uniformly."""
    el = names(n, prefix)
    edges = rng.sample(list(combinations(el, 2)), m)
    return undirected(el, sorted(edges, key=lambda e: (el.index(e[0]), el.index(e[1]))))


def relabel(rng: random.Random, g: Graph, prefix: str) -> Graph:
    """An isomorphic copy with fresh names and a shuffled declaration order;
    the start element follows the bijection."""
    order = list(range(len(g.elems)))
    rng.shuffle(order)
    fresh = names(len(g.elems), prefix)
    to = {g.elems[old]: fresh[new] for new, old in enumerate(order)}
    elems = tuple(fresh[new] for new in range(len(order)))
    tuples = sorted((to[u], to[v]) for u, v in g.tuples)
    return Graph(elems, tuple(tuples), None if g.start is None else to[g.start])


def random_tree(rng: random.Random, n: int, prefix: str = "t") -> tuple[Graph, int]:
    """A random recursive tree on n nodes, edges directed parent -> child and
    rooted at the first element.  Returns the tree and its height."""
    el = names(n, prefix)
    depth = [0] * n
    tuples = []
    for i in range(1, n):
        parent = rng.randrange(i)
        depth[i] = depth[parent] + 1
        tuples.append((el[parent], el[i]))
    return Graph(el, tuple(tuples), el[0]), max(depth)


def complete_multipartite(parts, prefix: str = "m") -> Graph:
    """K_{n1,...,nr}: vertices in different parts are adjacent."""
    el = names(sum(parts), prefix)
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    return undirected(el, [(el[u], el[v]) for u, v in combinations(range(len(el)), 2)
                           if side[u] != side[v]])


def random_regular(rng: random.Random, n: int, d: int, prefix: str = "r") -> Graph:
    """A random simple d-regular graph: the pairing model, rejecting pairings
    with loops or repeated edges."""
    el = names(n, prefix)
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return undirected(el, [(el[u], el[v]) for u, v in sorted(pairs)])
