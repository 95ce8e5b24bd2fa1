"""Depth-bounded unravelling of pointed structures over vocabularies of arity
<= 2, plus decisions of depth-k simulation and bisimulation.

A path is stored flat: (a0, label1, a1, label2, a2, ...), always of odd length,
starting at the distinguished element and following transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ArityError, CapExceededError, PointError, ToolkitError, VocabularyMismatchError
from .game import DEFAULT_PLAY_CAP, Game, LawReport, WinningSet, pointwise_law_failure
from .structures import Elem, Structure, check_hom

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
class ModalCoKleisli:
    """Total table from paths of the source unravelling to target elements."""

    k: int
    source: Structure
    target: Structure
    table: Mapping[Path, Elem]

    def __post_init__(self):
        for s in modal_universe(self.source, self.k):
            if s not in self.table:
                raise ToolkitError(f"table not total: path {s!r} unassigned")

    def __call__(self, s: Path) -> Elem:
        return self.table[s]

    def star(self, s: Path) -> Path:
        return modal_coextend(self.table, s)

    def is_homomorphism(self, cap: int = DEFAULT_PLAY_CAP) -> bool:
        return check_hom(dict(self.table), unravel(self.source, self.k, cap), self.target)


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
    strategy: Optional[ModalCoKleisli] = None
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
    unaries = unary_symbols(a)

    memo: dict[tuple[Elem, Elem, int], bool] = {}

    def atoms_ok(x: Elem, y: Elem) -> bool:
        return all((y,) in b.tuples(s) for s in unaries if (x,) in a.tuples(s))

    def sim(x: Elem, y: Elem, d: int) -> bool:
        key = (x, y, d)
        if key in memo:
            return memo[key]
        res = atoms_ok(x, y)
        if res and d > 0:
            for label, x2 in successors(a, x):
                if not any(lab == label and sim(x2, y2, d - 1)
                           for lab, y2 in successors(b, y)):
                    res = False
                    break
        memo[key] = res
        return res

    if sim(a.point, b.point, k):
        table: dict[Path, Elem] = {}

        def fill(s: Path, y: Elem, d: int) -> None:
            table[s] = y
            if d == 0:
                return
            for label, x2 in successors(a, s[-1]):
                y2 = next(y2 for lab, y2 in successors(b, y)
                          if lab == label and sim(x2, y2, d - 1))
                fill(s + (label, x2), y2, d - 1)

        fill((a.point,), b.point, k)
        return SimResult(True, strategy=ModalCoKleisli(k, a, b, table))

    def spoiler(x: Elem, y: Elem, d: int) -> ModalSpoilerNode:
        for s in unaries:
            if (x,) in a.tuples(s) and (y,) not in b.tuples(s):
                return ModalSpoilerNode(fail=s)
        label, x2 = next((lab, x2) for lab, x2 in successors(a, x)
                         if not any(l2 == lab and sim(x2, y2, d - 1)
                                    for l2, y2 in successors(b, y)))
        branches = tuple((y2, spoiler(x2, y2, d - 1))
                         for lab, y2 in successors(b, y) if lab == label)
        return ModalSpoilerNode(label=label, move=x2, branches=branches)

    return SimResult(False, refutation=spoiler(a.point, b.point, k))


def audit_modal_spoiler(node: ModalSpoilerNode, a: Structure, b: Structure,
                        k: int) -> tuple[bool, str]:
    """Audit a simulation refutation without re-solving."""
    def walk(nd: ModalSpoilerNode, x: Elem, y: Elem, d: int) -> tuple[bool, str]:
        if nd.fail is not None:
            if (x,) in a.tuples(nd.fail) and (y,) not in b.tuples(nd.fail):
                return True, "ok"
            return False, f"claimed unary failure {nd.fail!r} does not hold at ({x!r}, {y!r})"
        if d <= 0:
            return False, "move played after the round budget"
        if (x, nd.move) not in a.tuples(nd.label):
            return False, f"move {nd.label}:{nd.move!r} is not a transition of the source"
        replies = [y2 for lab, y2 in successors(b, y) if lab == nd.label]
        if sorted(map(repr, (y2 for y2, _ in nd.branches))) != sorted(map(repr, replies)):
            return False, "replies not exhaustive"
        for y2, child in nd.branches:
            ok, why = walk(child, nd.move, y2, d - 1)
            if not ok:
                return ok, why
        return True, "ok"

    return walk(node, a.point, b.point, k)


def decide_bisim_k(a: Structure, b: Structure, k: int) -> bool:
    """Depth-k bisimilarity of the points: unary agreement plus matched
    forth/back transition steps, by memoized recursion."""
    require_modal(a)
    require_modal(b)
    if a.vocab != b.vocab:
        raise VocabularyMismatchError("decide_bisim_k requires a shared vocabulary")
    unaries = unary_symbols(a)
    memo: dict[tuple[Elem, Elem, int], bool] = {}

    def bisim(x: Elem, y: Elem, d: int) -> bool:
        key = (x, y, d)
        if key in memo:
            return memo[key]
        res = all(((x,) in a.tuples(s)) == ((y,) in b.tuples(s)) for s in unaries)
        if res and d > 0:
            for label, x2 in successors(a, x):
                if not any(lab == label and bisim(x2, y2, d - 1)
                           for lab, y2 in successors(b, y)):
                    res = False
                    break
            if res:
                for label, y2 in successors(b, y):
                    if not any(lab == label and bisim(x2, y2, d - 1)
                               for lab, x2 in successors(a, x)):
                        res = False
                        break
        memo[key] = res
        return res

    return bisim(a.point, b.point, k)


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
    """Comonad laws over the full depth-k unravelling."""
    failure = pointwise_law_failure(modal_universe(a, k, cap), modal_counit, modal_comult,
                                    modal_map, modal_coextend)
    failures = [failure] if failure else []
    tree = unravel(a, k, cap)
    for name in unary_symbols(a):
        for (s,) in tree.tuples(name):
            if (s[-1],) not in a.tuples(name):
                failures.append(f"counit not a homomorphism on {name} at {s!r}")
                break
    for name in binary_symbols(a):
        for s, t in tree.tuples(name):
            if (s[-1], t[-1]) not in a.tuples(name):
                failures.append(f"counit not a homomorphism on {name} at ({s!r}, {t!r})")
                break
            if modal_comult(t) != modal_comult(s) + (name, t):
                failures.append(f"comult not a homomorphism on {name} at ({s!r}, {t!r})")
                break
        if failures:
            break
    if tree.point != (a.point,):
        failures.append("unravelling point is not the one-step path at the start element")
    return LawReport(not failures, tuple(failures))


def _root(x: Structure) -> Path:
    require_modal(x)
    return (x.point,)


def _extend(fstar: Mapping, s: Path, y: Elem) -> Path:
    return fstar[s[:-2]] + (s[-2], y) if len(s) > 1 else (y,)


def _matches(s: Path, t: Path, a: Structure, b: Structure) -> bool:
    """Same labels along both paths and the same unary symbols at each step."""
    if s[1::2] != t[1::2]:
        return False
    unaries = unary_symbols(a)
    for x, y in zip(s[0::2], t[0::2]):
        for name in unaries:
            if ((x,) in a.tuples(name)) != ((y,) in b.tuples(name)):
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


def _hom_error(alpha: Mapping[Elem, Path], a: Structure) -> Optional[str]:
    """Each transition must extend the source's path by one step with its label."""
    for name in binary_symbols(a):
        for u, v in a.tuples(name):
            su, sv = alpha[u], alpha[v]
            if sv[:-2] != su or sv[-2] != name:
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
    winning=WinningSet("modal-match", _matches, absorbing=True),
    coextend=modal_coextend,
    last=modal_counit,
    prefixes=path_prefixes,
    play_error=_play_error,
    hom_error=_hom_error,
    decide=lambda a, b, k: decide_sim_k(a, b, k),
    laws=lambda a, k, trunc, cap: check_modal_laws(a, k, cap=cap),
    exists_kinds=("modal-table", "modal-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="modal-coalgebra",
)
