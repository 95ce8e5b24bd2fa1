"""Depth-bounded unravelling of pointed structures over vocabularies of arity
<= 2, the decision of depth-k simulation, and a partition-refinement check of
depth-k bisimilarity.

A path is stored flat: (a0, label1, a1, label2, a2, ...), always of odd length,
starting at the distinguished element and following transitions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ArityError, CapExceededError, PointError, ToolkitError, VocabularyMismatchError
from .game import (DEFAULT_PLAY_CAP, CoKleisli, Game, LawReport, first_replies, law_report,
                   round_values, run, spoiler_moves, walk_tree)
from .structures import Elem, Structure

Path = tuple


def binary_symbols(a: Structure) -> list[str]:
    return [n for n, ar in a.vocab.symbols if ar == 2]


def unary_symbols(a: Structure) -> list[str]:
    return [n for n, ar in a.vocab.symbols if ar == 1]


def require_modal(a: Structure) -> None:
    if a.vocab.max_arity() > 2:
        raise ArityError("modal constructions require every symbol to have arity <= 2")
    if not a.is_pointed:
        raise PointError("modal constructions require a distinguished element (start <id>)")


def successors(a: Structure, e: Elem) -> list[tuple[str, Elem]]:
    """Outgoing transitions of e, ordered by symbol then target declaration order."""
    out = []
    for name in binary_symbols(a):
        rel = a.tuples(name)
        for e2 in a.universe:
            if (e, e2) in rel:
                out.append((name, e2))
    return out


def path_steps(s: Path) -> int:
    return (len(s) - 1) // 2


def path_prefixes(s: Path) -> list[Path]:
    return [s[: 2 * i + 1] for i in range(path_steps(s) + 1)]


def modal_counit(s: Path) -> Elem:
    return s[-1]


def modal_comult(s: Path) -> Path:
    """The path of prefixes, with the same labels."""
    out: list = [s[:1]]
    for i in range(1, path_steps(s) + 1):
        out.append(s[2 * i - 1])
        out.append(s[: 2 * i + 1])
    return tuple(out)


def modal_coextend(f, s: Path) -> Path:
    get = f.__getitem__ if isinstance(f, Mapping) else f
    out: list = [get(s[:1])]
    for i in range(1, path_steps(s) + 1):
        out.append(s[2 * i - 1])
        out.append(get(s[: 2 * i + 1]))
    return tuple(out)


def modal_map(f, s: Path) -> Path:
    """Functorial action: apply f to the element slots, keep the labels."""
    out = list(s)
    for i in range(0, len(s), 2):
        out[i] = f(s[i])
    return tuple(out)


def modal_universe(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> list[Path]:
    """All transition paths of 0..k steps from the point, breadth-first."""
    require_modal(a)
    if k < 1:
        raise ToolkitError("k must be >= 1")
    paths: list[Path] = [(a.point,)]
    frontier = [(a.point,)]
    for _ in range(k):
        nxt = []
        for s in frontier:
            for label, e2 in successors(a, s[-1]):
                nxt.append(s + (label, e2))
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > cap:
            raise CapExceededError(f"unravelling exceeds {cap} paths")
    return paths


def unravel(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> Structure:
    """The depth-k tree: binary symbols relate a path to its one-step
    extensions; unary symbols hold at a path iff they hold at its endpoint."""
    paths = modal_universe(a, k, cap)
    pathset = set(paths)
    interp: dict[str, frozenset] = {}
    for name in unary_symbols(a):
        rel = a.tuples(name)
        interp[name] = frozenset((s,) for s in paths if (s[-1],) in rel)
    for name in binary_symbols(a):
        lifted = set()
        for s in paths:
            if path_steps(s) >= 1 and s[-2] == name and s[:-2] in pathset:
                lifted.add((s[:-2], s))
        interp[name] = frozenset(lifted)
    return Structure(a.vocab, tuple(paths), interp, (a.point,))


@dataclass(frozen=True)
class ModalSpoilerNode:
    """Spoiler tree for the existential simulation game.

    `fail` names a unary symbol holding at the current source element but not
    at the current target element; otherwise `label`/`move` is Spoiler's
    transition, with one branch per same-label reply (none if the target is
    stuck)."""

    fail: Optional[str] = None
    label: Optional[str] = None
    move: Optional[Elem] = None
    branches: tuple = ()


@dataclass(frozen=True)
class SimResult:
    wins: bool
    strategy: Optional[CoKleisli] = None
    refutation: Optional[ModalSpoilerNode] = None


def decide_sim_k(a: Structure, b: Structure, k: int) -> SimResult:
    """Depth-k existential simulation: true iff a point-preserving
    homomorphism from the depth-k unravelling of `a` into `b` exists."""
    require_modal(a)
    require_modal(b)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_sim_k requires a shared vocabulary")
    if k < 1:
        raise ToolkitError("k must be >= 1")
    value = round_values(GAME, a, b, k, GAME.forth, "A")
    if value((a.point,), (b.point,)):
        return SimResult(True, strategy=first_replies(GAME, a, b, k, value))
    unaries = unary_symbols(a)

    def spoiler(s: Path, t: Path):
        # value(s, t) is falsy and the labels of s and t agree.
        x, y = s[-1], t[-1]
        for name in unaries:
            if (x,) in a.tuples(name) and (y,) not in b.tuples(name):
                return ModalSpoilerNode(fail=name)
        _, s2, replies = next(move for move in spoiler_moves(GAME, a, b, s, t, "A")
                              if not any(value(*pair) for _, pair in move[2]))
        branches = []
        for t2, pair in replies:
            if t2[-2] == s2[-2]:
                branches.append((t2[-1], (yield spoiler(*pair))))
        return ModalSpoilerNode(label=s2[-2], move=s2[-1], branches=tuple(branches))

    return SimResult(False, refutation=run(spoiler((a.point,), (b.point,))))


def audit_modal_spoiler(node: ModalSpoilerNode, a: Structure, b: Structure,
                        k: int) -> tuple[bool, str]:
    """Audit a simulation refutation without re-solving."""
    def step(nd: ModalSpoilerNode, at: tuple):
        x, y, d = at
        if nd.fail is not None:
            if (x,) in a.tuples(nd.fail) and (y,) not in b.tuples(nd.fail):
                return ()
            return f"claimed unary failure {nd.fail!r} does not hold at ({x!r}, {y!r})"
        if d <= 0:
            return "move played after the round budget"
        if (x, nd.move) not in a.tuples(nd.label):
            return f"move {nd.label}:{nd.move!r} is not a transition of the source"
        replies = [y2 for lab, y2 in successors(b, y) if lab == nd.label]
        if sorted(map(repr, (y2 for y2, _ in nd.branches))) != sorted(map(repr, replies)):
            return "replies not exhaustive"
        return [(child, (nd.move, y2, d - 1)) for y2, child in nd.branches]

    return walk_tree(node, (a.point, b.point, k), step)


def bisim_oracle(a: Structure, b: Structure, k: int) -> bool:
    """Independent partition-refinement check of depth-k bisimilarity.

    Colors elements of the disjoint union: round 0 by unary signature, then k
    rounds of refinement by multisets-as-sets of (label, successor color).
    """
    require_modal(a)
    require_modal(b)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("bisim_oracle requires a shared vocabulary")
    elems = [("A", e) for e in a.universe] + [("B", e) for e in b.universe]
    side = {"A": a, "B": b}

    def signature(tag: str, e: Elem) -> tuple:
        st = side[tag]
        return tuple((s, (e,) in st.tuples(s)) for s, ar in st.vocab.symbols if ar == 1)

    color = {te: signature(*te) for te in elems}
    for _ in range(k):
        nxt = {}
        for tag, e in elems:
            outs = frozenset((label, color[(tag, e2)])
                             for label, e2 in successors(side[tag], e))
            nxt[(tag, e)] = (color[(tag, e)], outs)
        color = nxt
    return color[("A", a.point)] == color[("B", b.point)]


def check_modal_laws(a: Structure, k: int, cap: int = DEFAULT_PLAY_CAP) -> LawReport:
    """Comonad laws over the full depth-k unravelling: the comultiplication
    images of a lifted transition must be one step apart with its label."""
    return law_report(GAME, a, unravel(a, k, cap), modal_comult, modal_map,
                      lambda name, images: len(images) == 1 or _one_step(name, *images))


def _root(x: Structure) -> Path:
    require_modal(x)
    return (x.point,)


def _extend(fstar: Mapping, s: Path, y: Elem) -> Path:
    return fstar[s[:-2]] + (s[-2], y) if len(s) > 1 else (y,)


def _matches(s: Path, t: Path, a: Structure, b: Structure, agree=operator.eq) -> bool:
    """Same labels along both paths and, at each step, unary symbols that
    `agree`: the same ones at both ends (`eq`), or those of the source element
    at the target too (`le`)."""
    if s[1::2] != t[1::2]:
        return False
    unaries = unary_symbols(a)
    for x, y in zip(s[0::2], t[0::2]):
        for name in unaries:
            if not agree((x,) in a.tuples(name), (y,) in b.tuples(name)):
                return False
    return True


def _play_error(play: Path, k: int, host: Structure) -> Optional[str]:
    if len(play) % 2 == 0:
        return "modal path must alternate elements and labels"
    if path_steps(play) > k:
        return f"more than k={k} steps"
    if play[0] != host.point:
        return "modal path does not start at the distinguished element"
    for i in range(1, path_steps(play) + 1):
        label, tgt = play[2 * i - 1], play[2 * i]
        if (play[2 * i - 2], tgt) not in host.tuples(label):
            return f"step {label}:{tgt!r} is not a transition"
    return None


def _one_step(name: str, s: Path, t: Path) -> bool:
    """`t` extends `s` by one `name` step."""
    return t[:-2] == s and t[-2] == name


def _hom_error(alpha: Mapping[Elem, Path], a: Structure) -> Optional[str]:
    """Each transition must extend the source's path by one step with its label."""
    for name in binary_symbols(a):
        for u, v in a.tuples(name):
            su, sv = alpha[u], alpha[v]
            if not _one_step(name, su, sv):
                return (f"homomorphism fails on {name}({u!r},{v!r}): "
                        f"{sv!r} does not extend {su!r} by one {name} step")
    return None


GAME = Game(
    name="modal",
    root=_root,
    children=lambda x, node: [node + (label, e2) for label, e2 in successors(x, node[-1])],
    depth=path_steps,
    universe=modal_universe,
    lifted=unravel,
    extend=_extend,
    winning=_matches,
    forth=lambda s, t, a, b: _matches(s, t, a, b, operator.le),
    position=lambda s, t: (s[-2:], t[-2:]),
    coextend=modal_coextend,
    last=modal_counit,
    prefixes=path_prefixes,
    play_error=_play_error,
    hom_error=_hom_error,
    decide=lambda a, b, k, cap: decide_sim_k(a, b, k),
    laws=lambda a, k, trunc, cap: check_modal_laws(a, k, cap=cap),
    exists_kinds=("modal-table", "modal-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="modal-coalgebra",
)
