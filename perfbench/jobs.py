"""Workloads: seeded inputs plus a fixed list of CLI jobs with known answers.

A workload is built from a seed into structure files and an ordered job list.
Every decision job states the exit code and report line it must produce; a
decision that writes a certificate is followed by a `verify` job on it; and
`relations` tie a `param` job's kappa to an `oracle` job on the same input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import answers
import inputs
from inputs import (clique, complete_multipartite, cycle, random_graph, random_regular,
                    random_tree, relabel)

TRIANGLE = "E x . E y . E z . R(x,y) & R(y,z) & R(x,z)"


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    kind: str  # "decide" or "verify"
    exit: int  # expected exit code
    line: str | None = None  # a line the report must contain


@dataclass
class Workload:
    name: str
    files: dict[str, inputs.Graph] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    # (left job id, op, right job id, offset): value(left) op value(right) + offset
    relations: list[tuple[str, str, str, int]] = field(default_factory=list)

    def file(self, name: str, graph: inputs.Graph) -> str:
        path = f"{name}.str"
        self.files[path] = graph
        return path

    def decide(self, argv, exit: int, line: str | None, cert: bool = False,
               operands=()) -> str:
        """Add a decision job; with `cert`, it writes a certificate and a
        `verify` job on `operands` follows it."""
        jid = f"{len(self.jobs):02d}-" + "-".join(a.removesuffix(".str") for a in argv
                                                  if not a.startswith("-") and " " not in a)
        argv = tuple(argv)
        if cert:
            argv += ("--certificate", f"{jid}.cert")
        self.jobs.append(Job(jid, argv, "decide", exit, line))
        if cert:
            self.jobs.append(Job(f"{jid}.verify",
                                 ("verify", "--certificate", f"{jid}.cert", *operands),
                                 "verify", 0, "result: true"))
        return jid

    def equiv(self, game: str, mode: str, k: int, a: str, b: str, expected: bool,
              cert: bool = True) -> str:
        # a false `iso` verdict has no witness to write
        cert = cert and (expected or mode != "iso")
        return self.decide(("equiv", "--game", game, "--mode", mode, "-k", str(k), a, b),
                           0 if expected else 1, _result(expected), cert, (a, b))

    def param(self, comonad: str, a: str, cap: int | None = None,
              kappa: int | None = None, cert: bool = True) -> str:
        argv = ("param", "--comonad", comonad) + _cap(cap) + (a,)
        return self.decide(argv, 0, None if kappa is None else f"kappa: {kappa}",
                           cert, (a,))

    def oracle(self, parameter: str, a: str, cap: int | None = None) -> str:
        return self.decide(("oracle", parameter) + _cap(cap) + (a,), 0, None)

    def relate(self, left: str, op: str, right: str, offset: int = 0) -> None:
        self.relations.append((left, op, right, offset))

    @property
    def decisions(self) -> int:
        return sum(j.kind == "decide" for j in self.jobs)


def _result(verdict: bool) -> str:
    return f"result: {'true' if verdict else 'false'}"


def _cap(cap: int | None) -> tuple[str, ...]:
    return () if cap is None else ("--cap-vertices", str(cap))


def _pair(w: Workload, rng: random.Random, name: str, g: inputs.Graph) -> tuple[str, str]:
    """A seeded graph and a relabelled isomorphic copy: every game and mode
    holds between them, and a true verdict explores the whole game."""
    return w.file(name, g), w.file(name + "c", relabel(rng, g, "b"))


def cli_small(seed: int) -> Workload:
    """Every subcommand at README scale (<= 5 elements, k <= 3)."""
    rng = random.Random(seed)
    w = Workload("cli-small")
    r, rc = _pair(w, rng, "R5", random_graph(rng, 5, 5, "a"))
    tree, height = random_tree(rng, 5)
    t = w.file("T5", tree)
    k3, k4 = w.file("K3", clique(3)), w.file("K4", clique(4))
    k3c = w.file("K3c", relabel(rng, clique(3), "q"))
    c4, c5 = w.file("C4", cycle(4)), w.file("C5", cycle(5, "d"))

    w.decide(("hom", r, rc), 0, _result(True), True, (r, rc))
    w.equiv("ef", "exists", 3, r, rc, True)
    w.equiv("ef", "backforth", 3, k3, k4, answers.cliques("ef", "backforth", 3, 4, 3))
    w.equiv("ef", "iso", 2, k3, k3c, True)
    w.equiv("pebble", "exists", 3, c5, c4, answers.odd_cycle_to_bipartite("pebble", 5, 3))
    w.relate(w.param("ef", r), "==", w.oracle("treedepth", r))
    w.relate(w.param("pebble", r), "==", w.oracle("treewidth", r), 1)
    w.param("modal", t, kappa=max(1, height))
    w.decide(("laws", "--comonad", "pebble", "-k", "2", "--trunc", "2", k3), 0, _result(True))
    w.decide(("eval", "-f", TRIANGLE, k4), 0, _result(True))
    w.decide(("sample", "--fragment", "full", "-k", "3", "--count", "20",
              "--seed", str(seed)), 0, None)
    return w


def ef_rounds(seed: int) -> Workload:
    """Sequence and modal games by backward induction (largest: n=6, k=5 and n=7, k=4)."""
    rng = random.Random(seed)
    w = Workload("ef-rounds")
    k3, k4, k5, k6 = (w.file(f"K{n}", clique(n)) for n in (3, 4, 5, 6))
    k4c = w.file("K4c", relabel(rng, clique(4), "q"))
    c6, c7 = w.file("C6", cycle(6)), w.file("C7", cycle(7, "d"))
    # random cubic graphs: the solvers' work varies little between seeds
    r, rc = _pair(w, rng, "Q6", random_regular(rng, 6, 3, "a"))

    w.equiv("ef", "backforth", 4, k5, k6, answers.cliques("ef", "backforth", 5, 6, 4))
    w.equiv("ef", "backforth", 4, k3, k4, answers.cliques("ef", "backforth", 3, 4, 4))
    w.equiv("ef", "both", 4, k6, k5, answers.cliques("ef", "both", 6, 5, 4))
    w.equiv("ef", "exists", 4, c7, c6, answers.odd_cycle_to_bipartite("ef", 7, 4))
    w.equiv("ef", "exists", 5, r, rc, True)
    w.equiv("modal", "both", 5, r, rc, True, cert=False)
    w.equiv("modal", "backforth", 4, k5, k6, answers.cliques("modal", "backforth", 5, 6, 4))
    w.equiv("modal", "iso", 3, k4, k4c, True)
    return w


def pebble_fixpoint(seed: int) -> Workload:
    """Existential and back-and-forth pebble fixpoints (largest: n=7, k=3)."""
    rng = random.Random(seed)
    w = Workload("pebble-fixpoint")
    k4, k5, k6 = (w.file(f"K{n}", clique(n)) for n in (4, 5, 6))
    c5, c6, c7 = w.file("C5", cycle(5, "e")), w.file("C6", cycle(6)), w.file("C7", cycle(7, "d"))
    r5, r5c = _pair(w, rng, "R5", random_graph(rng, 5, 5, "a"))
    r6, r6c = _pair(w, rng, "Q6", random_regular(rng, 6, 3, "a"))

    w.equiv("pebble", "backforth", 3, k4, k5, answers.cliques("pebble", "backforth", 4, 5, 3))
    w.equiv("pebble", "backforth", 3, c5, c6, answers.cycles_pebble_backforth(5, 6, 3))
    w.equiv("pebble", "backforth", 2, c6, c7, answers.cycles_pebble_backforth(6, 7, 2),
            cert=False)
    w.equiv("pebble", "exists", 3, c7, c6, answers.odd_cycle_to_bipartite("pebble", 7, 3))
    w.equiv("pebble", "exists", 2, c7, c6, answers.odd_cycle_to_bipartite("pebble", 7, 2),
            cert=False)
    w.equiv("pebble", "both", 3, k6, k5, answers.cliques("pebble", "both", 6, 5, 3))
    w.equiv("pebble", "backforth", 3, r5, r5c, True)
    w.equiv("pebble", "exists", 3, r6, r6c, True)
    return w


def width(seed: int) -> Workload:
    """Coalgebra numbers against the tree-depth and tree-width oracles
    (largest: n=14).  The exhaustive pebble number runs at n=6 on graphs of
    similar cost, and the cycle's tree-width DP costs about what a random
    graph's does, so the job-time tail does not hinge on one random input."""
    rng = random.Random(seed)
    w = Workload("width")
    g = w.file("G6", random_graph(rng, 6, 7))
    w.relate(w.param("ef", g), "==", w.oracle("treedepth", g))
    q = w.file("Q6", random_regular(rng, 6, 3))
    w.relate(w.param("pebble", q), "==", w.oracle("treewidth", q), 1)
    octahedron = (2, 2, 2)
    w.param("pebble", w.file("O6", complete_multipartite(octahedron)),
            kappa=answers.multipartite_treewidth(octahedron) + 1)
    for n, m in ((12, 18), (14, 18)):
        g = w.file(f"G{n}", random_graph(rng, n, m))
        # tree-depth is at least tree-width + 1
        w.relate(w.param("ef", g, cap=n), ">=", w.oracle("treewidth", g, cap=n), 1)
    c = w.file("C14", cycle(14))
    w.param("ef", c, cap=14, kappa=answers.cycle_treedepth(14), cert=False)
    w.decide(("oracle", "treewidth", "--cap-vertices", "14", c), 0, "treewidth: 2")
    tree, height = random_tree(rng, 10)
    w.param("modal", w.file("T10", tree), kappa=max(1, height))
    return w


WORKLOADS = {
    "cli-small": cli_small,
    "ef-rounds": ef_rounds,
    "pebble-fixpoint": pebble_fixpoint,
    "width": width,
}
