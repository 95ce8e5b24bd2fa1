"""The modal game construction on pointed structures over vocabularies of
arity <= 2: its play tree of paths, whose lifting is the depth-bounded
unravelling, its comonad as a Kleisli triple (counit and coextension), the
decision of depth-k simulation, and what colour refinement sees of a path
when it decides depth-k bisimilarity.

A path is stored flat: (a0, label1, a1, label2, a2, ...), always of odd length,
starting at the distinguished element and following transitions.

The simulation decision is `game.decide_exist` on this game's record: a
coKleisli table on a win, a `game.SpoilerNode` tree on a loss, whose steps
are a label and an element each.  A reply under another label, or to an
element missing a unary symbol of Spoiler's, is a leaf that loses at once,
and a root whose points already disagree is a stalled root.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Optional

from .errors import ArityError, CapExceededError, PointError
from .game import (ExistResult, Game, decide_exist, law_report, multiset, play_universe,
                   refined_colours, refined_values, won_within)
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


def modal_counit(s: Path) -> Elem:
    return s[-1]


def modal_coextend(f: Callable[[Path], Elem], s: Path) -> Path:
    """f* maps each element of a path to f of the prefix it ends, keeping
    the labels."""
    out: list = [f(s[:1])]
    for i in range(1, path_steps(s) + 1):
        out.append(s[2 * i - 1])
        out.append(f(s[: 2 * i + 1]))
    return tuple(out)


def check_paths(a: Structure, k: int, cap: int) -> int:
    """The number of paths of 0..k steps from the point, counted by their
    ends one step at a time without listing them; more than `cap` are
    refused."""
    ends, count = {a.point: 1}, 1
    for _ in range(k):
        if not ends:  # the unravelling has ended
            break
        below: dict = {}
        for e, n in ends.items():
            for _, e2 in successors(a, e):
                below[e2] = below.get(e2, 0) + n
        ends = below
        count += sum(ends.values())
        if count > cap:
            raise CapExceededError(f"unravelling exceeds {cap} paths")
    return count


def _lifted_at(a: Structure, top: Path, labels: list):
    """The lifted tuples at `top` (see `Game.lifted_at`): unary symbols hold
    at a path iff they hold at its endpoint, and a binary symbol relates the
    path's parent to it when it labels the path's last step."""
    d = len(top) - 1
    for name in unary_symbols(a):
        if (top[-1],) in a.tuples(name):
            yield name, (labels[d],)
    if d:
        yield top[-2], (labels[d - 2], labels[d])


def decide_sim_k(a: Structure, b: Structure, k: int) -> ExistResult:
    """Depth-k existential simulation: true iff a point-preserving
    homomorphism from the depth-k unravelling of `a` into `b` exists."""
    return decide_exist(GAME, a, b, k)


def _root(x: Structure) -> Path:
    require_modal(x)
    return (x.point,)


def _last_step(s: Path) -> Path:
    """A path's last label and element, or its point alone: all that the
    modal game sees of it once the labels and unary symbols along it match."""
    return s[-2:]


def _atomic_type(x: Structure, last: Path, parent) -> tuple:
    """What the modal game sees of a path's last step (`last` is its label
    and element, or the point alone), whatever step came before it: the
    label, and the unary symbols that hold at the element."""
    return last[:-1], tuple((last[-1],) in x.tuples(name) for name in unary_symbols(x))


def _step_matches(s: Path, t: Path, a: Structure, b: Structure, agree=operator.eq) -> bool:
    """The step of one label sequence with unary symbols that `agree` (`eq`:
    the same ones; `le`: the source's hold at the target): the last step's."""
    label, here = _atomic_type(a, _last_step(s), None)
    other, there = _atomic_type(b, _last_step(t), None)
    return label == other and all(map(agree, here, there))


def _play_error(play: Path, k: int, host: Structure) -> Optional[str]:
    if len(play) % 2 == 0:
        return "modal path must alternate elements and labels"
    if path_steps(play) > k:
        return f"more than k={k} steps"
    if play[0] != host.point:
        return "modal path does not start at the distinguished element"
    for src, label, tgt in zip(play[0::2], play[1::2], play[2::2]):
        if (src, tgt) not in host.tuples(label):
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
    check_plays=check_paths,
    lifted_at=_lifted_at,
    pointed=True,
    winning=_step_matches,
    forth=lambda s, t, a, b: _step_matches(s, t, a, b, operator.le),
    position=lambda s, t: (_last_step(s), _last_step(t)),
    refine=lambda a, b, k, cap: refined_values(GAME, a, b, k, cap, _last_step, _atomic_type),
    iso_colours=lambda a, b, k: refined_colours(GAME, a, b, k, _last_step, _atomic_type,
                                                multiset),
    coextend=modal_coextend,
    last=modal_counit,
    parent=lambda s: s[:-2],
    play_error=_play_error,
    hom_error=_hom_error,
    decide=lambda a, b, k, cap: won_within(GAME, decide_sim_k(a, b, k), a, k, cap),
    laws=lambda a, k, trunc, cap: law_report(GAME, a, play_universe(GAME, a, k, cap)),
    exists_kinds=("modal-table", "modal-spoiler"),
    backforth_kinds=("bf-duplicator", "bf-spoiler"),
    iso_kind="kleisli-iso",
    cover_kind="modal-coalgebra",
)
