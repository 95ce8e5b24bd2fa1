"""Known answers: closed forms for the input families the workloads use.

Each function states the verdict or parameter value that theory fixes, so a
benchmark job can be checked without trusting the program under test.
"""

from __future__ import annotations

from math import ceil, log2


def cliques(game: str, mode: str, a: int, b: int, k: int) -> bool:
    """K_a against K_b (a, b >= 2) with k >= 1 rounds or pebbles; the modal
    game starts at any element.

    Duplicator answers injectively while at most min(a, b) elements are in
    play, so the sequence and pebble games hold up to k = b (one way) or
    k = min(a, b) (both ways and back-and-forth).  Counting (`iso`) sees the
    sizes.  Every world of a clique has a successor, so pointed cliques are
    bisimilar, but the branching degree a - 1 differs unless a = b.
    """
    if mode == "iso":
        return a == b
    if game == "modal":
        return True
    if mode == "exists":
        return a <= b or k <= b
    return a == b or k <= min(a, b)


def cycle_treedepth(n: int) -> int:
    """Tree-depth of the n-cycle (n >= 3): one vertex plus a path of n - 1."""
    return 1 + path_treedepth(n - 1)


def path_treedepth(n: int) -> int:
    """Tree-depth of the path on n vertices."""
    return ceil(log2(n + 1))


def multipartite_treewidth(parts) -> int:
    """Tree-width of the complete multipartite graph K_{n1,...,nr}: all but
    the largest part form a separator every bag must contain."""
    return sum(parts) - max(parts)


def odd_cycle_to_bipartite(game: str, n: int, k: int) -> bool:
    """Existential game from the odd cycle C_n into a bipartite graph with an
    edge (`both` agrees: the bipartite side maps into any edge of C_n).

    A structure that maps to C_n but not to a bipartite graph contains an odd
    cycle of length at least n, so it has tree-depth at least td(C_n): the
    sequence game holds for k < td(C_n).  Three pebbles walk the cycle and
    meet the parity clash; two pebbles only test arc consistency.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be an odd cycle length")
    if game == "ef":
        return k < cycle_treedepth(n)
    if game == "pebble":
        return k < 3
    raise ValueError(f"no closed form for the {game} game")


def cycles_pebble_backforth(m: int, n: int, k: int) -> bool:
    """k-pebble back-and-forth game on C_m against C_n (m, n >= 4).

    Two variables see only equal / adjacent / distinct non-adjacent pairs, and
    every vertex of a cycle of length >= 4 has all three; three variables
    define distances, which separate cycles of different lengths.
    """
    return m == n or k <= 2
