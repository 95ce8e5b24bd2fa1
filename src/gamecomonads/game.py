"""What the three game constructions share.

Each game module (`ef`, `pebbling`, `modal`) builds one `Game` record that
says how its plays are shaped, lifted, extended and read back from a
coalgebra, which procedures decide it, and which certificate kinds witness
its verdicts; `equivalence.GAMES` collects the three.  Callables in a record
that the benchmark tracer rebinds (the deciders) are wrapped so that they look
the module attribute up at call time.

This module also holds the pieces the constructions would otherwise repeat:
the play cap, the comonad-law report and pointwise law loop, the winning-set
type, and the lifting of a structure along play prefixes with its
homomorphism check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Mapping, Optional

from .structures import Elem, Structure

DEFAULT_PLAY_CAP = 10 ** 6


@dataclass(frozen=True)
class LawReport:
    ok: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class WinningSet:
    """A decidable predicate over equal-depth position pairs.

    `absorbing` promises that once the predicate fails it fails on every
    extension, which licenses early pruning; the built-ins all have it.
    """

    name: str
    holds: Callable[[tuple, tuple, Structure, Structure], bool]
    absorbing: bool = False


def pointwise_law_failure(plays: list, counit: Callable, comult: Callable, fmap: Callable,
                          coextend: Callable) -> Optional[str]:
    """The first play at which a comonad law fails: both counit identities,
    coassociativity, or coextension of the counit being the identity.
    `fmap(f, s)` applies `f` to the entries of a play of plays."""
    counit_table = {s: counit(s) for s in plays}
    for s in plays:
        d = comult(s)
        if counit(d) != s:
            return f"counit(comult({s!r})) != {s!r}"
        if fmap(counit, d) != s:
            return f"mapped-counit of comult({s!r}) != {s!r}"
        if comult(d) != fmap(comult, d):
            return f"coassociativity fails at {s!r}"
        if coextend(counit_table, s) != s:
            return f"coextension of counit not identity at {s!r}"
    return None


def prefixes(s: tuple) -> list[tuple]:
    """Nonempty prefixes in increasing length, ending with s itself."""
    return [s[:i] for i in range(1, len(s) + 1)]


def lift_along_prefixes(a: Structure, plays: list, last: Callable[[tuple], Elem],
                        compatible: Optional[Callable[[tuple], bool]]) -> Structure:
    """Lift `a` to `plays`: a tuple of plays is related iff all are prefixes of
    one of them, their last elements form a tuple of `a`, and `compatible`
    (unless None) accepts the tuple."""
    interp: dict[str, set] = {name: set() for name, _ in a.vocab.symbols}
    for top in plays:
        pref = prefixes(top)
        ends = [last(p) for p in pref]
        for name, arity in a.vocab.symbols:
            base, lifted = a.tuples(name), interp[name]
            for combo, tip in zip(product(pref, repeat=arity), product(ends, repeat=arity)):
                if top in combo and tip in base and (compatible is None or compatible(combo)):
                    lifted.add(combo)
    return Structure(a.vocab, tuple(plays), {n: frozenset(r) for n, r in interp.items()},
                     None)


def prefix_hom_error(alpha: Mapping[Elem, tuple], a: Structure,
                     active: Optional[Callable[[tuple, tuple], bool]]) -> Optional[str]:
    """Why `alpha` is not a homomorphism into a prefix-lifted structure: the
    images of each tuple must be pairwise prefix-comparable and, unless
    `active` is None, the shorter one must stay active along the longer."""
    for name, _ in a.vocab.symbols:
        for tup in a.tuples(name):
            for s, t in combinations([alpha[e] for e in tup], 2):
                if len(s) > len(t):
                    s, t = t, s
                if t[: len(s)] != s:
                    return f"homomorphism fails on {name}{tup!r}: images not prefix-comparable"
                if active is not None and len(s) < len(t) and not active(s, t):
                    return (f"homomorphism fails on {name}{tup!r}: "
                            "active-pebble condition violated")
    return None


@dataclass(frozen=True)
class Game:
    """One game construction, as the deciders, coalgebra checks, certificates
    and the command line see it."""

    name: str
    # Play tree of the round-bounded games; None for the positional pebble game.
    root: Optional[Callable[[Structure], tuple]]  # validates the structure too
    children: Optional[Callable[[Structure, tuple], list]]
    depth: Optional[Callable[[tuple], int]]
    universe: Optional[Callable[[Structure, int], list]]  # plays of depth <= k
    lifted: Optional[Callable[[Structure, int], Structure]]
    extend: Optional[Callable[[Mapping, tuple, Elem], tuple]]  # f*(s) from f* below s
    winning: WinningSet  # the built-in winning set of the back-and-forth game
    coextend: Callable
    # Reading a coalgebra play.
    last: Callable[[tuple], Elem]
    prefixes: Callable[[tuple], list]
    play_error: Callable[[tuple, int, Structure], Optional[str]]
    hom_error: Callable[[Mapping, Structure], Optional[str]]
    decide: Callable  # (a, b, k) -> result with .wins and .refutation
    laws: Callable  # (a, k, trunc, cap) -> LawReport
    # Certificate kinds: (true, false) pairs, then the iso and coalgebra witnesses.
    exists_kinds: tuple[str, str]
    backforth_kinds: tuple[str, str]
    iso_kind: Optional[str]
    cover_kind: str

    @property
    def kinds(self) -> frozenset:
        """Every certificate kind that may name this game."""
        return frozenset((*self.exists_kinds, *self.backforth_kinds, self.iso_kind,
                          self.cover_kind, "both-pair")) - {None}
