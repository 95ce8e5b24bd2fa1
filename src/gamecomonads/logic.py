"""First-order formulas with counting quantifiers, Tarskian evaluation, a
small text syntax, and deterministic samplers that draw formulas of bounded
quantifier rank.

Text syntax: `E x . phi`, `A x . phi`, `E>=2 x . phi`, `E<=2 x . phi`,
connectives `~  &  |  ->`, atoms `R(x,y)` and `x = y`, constants `T`/`F`,
parentheses.  A quantifier body extends as far right as possible.
"""

from __future__ import annotations

import random
import re
from typing import Mapping, Optional

from .errors import ToolkitError, UnboundVariableError
from .structures import Record, Structure, Vocabulary

SAMPLER_ALGORITHM = "mt19937"  # random.Random; recorded in sampler output headers
FRAGMENTS = ("ep", "full", "counting", "modal")
MODAL_FREE_VAR = "w0"


class Formula(Record):
    pass


class Top(Formula):
    pass


class Bottom(Formula):
    pass


class Rel(Formula):
    name: str
    args: tuple[str, ...]


class Eq(Formula):
    left: str
    right: str


class Not(Formula):
    body: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Exists(Formula):
    var: str
    body: Formula


class Forall(Formula):
    var: str
    body: Formula


class CountAtLeast(Formula):
    bound: int
    var: str
    body: Formula


class CountAtMost(Formula):
    bound: int
    var: str
    body: Formula


_BINARY = (And, Or, Implies)
_QUANT = (Exists, Forall, CountAtLeast, CountAtMost)


def free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Rel):
        return frozenset(phi.args)
    if isinstance(phi, Eq):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, (Top, Bottom)):
        return frozenset()
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, _BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, _QUANT):
        return free_vars(phi.body) - {phi.var}
    raise ToolkitError(f"unknown formula node {phi!r}")


def evaluate(a: Structure, phi: Formula, env: Optional[Mapping[str, object]] = None) -> bool:
    """Standard satisfaction; counting quantifiers count distinct witnesses."""
    env = dict(env) if env else {}
    missing = free_vars(phi) - set(env)
    if missing:
        raise UnboundVariableError(f"unbound free variable(s): {sorted(missing)}")
    elems = set(a.universe)
    for v, e in env.items():
        if e not in elems:
            raise ToolkitError(f"environment value {e!r} for {v} not in universe")
    return _eval(a, phi, env)


def _eval(a: Structure, phi: Formula, env: dict) -> bool:
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Rel):
        return tuple(env[v] for v in phi.args) in a.tuples(phi.name)
    if isinstance(phi, Eq):
        return env[phi.left] == env[phi.right]
    if isinstance(phi, Not):
        return not _eval(a, phi.body, env)
    if isinstance(phi, And):
        return _eval(a, phi.left, env) and _eval(a, phi.right, env)
    if isinstance(phi, Or):
        return _eval(a, phi.left, env) or _eval(a, phi.right, env)
    if isinstance(phi, Implies):
        return (not _eval(a, phi.left, env)) or _eval(a, phi.right, env)
    if isinstance(phi, Exists):
        return any(_eval(a, phi.body, {**env, phi.var: e}) for e in a.universe)
    if isinstance(phi, Forall):
        return all(_eval(a, phi.body, {**env, phi.var: e}) for e in a.universe)
    if isinstance(phi, CountAtLeast):
        n = sum(_eval(a, phi.body, {**env, phi.var: e}) for e in a.universe)
        return n >= phi.bound
    if isinstance(phi, CountAtMost):
        n = sum(_eval(a, phi.body, {**env, phi.var: e}) for e in a.universe)
        return n <= phi.bound
    raise ToolkitError(f"unknown formula node {phi!r}")


def format_formula(phi: Formula) -> str:
    if isinstance(phi, Top):
        return "T"
    if isinstance(phi, Bottom):
        return "F"
    if isinstance(phi, Rel):
        return f"{phi.name}({','.join(phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Not):
        return f"~{_wrap(phi.body)}"
    if isinstance(phi, And):
        return f"{_wrap(phi.left)} & {_wrap(phi.right)}"
    if isinstance(phi, Or):
        return f"{_wrap(phi.left)} | {_wrap(phi.right)}"
    if isinstance(phi, Implies):
        return f"{_wrap(phi.left)} -> {_wrap(phi.right)}"
    if isinstance(phi, Exists):
        return f"E {phi.var} . {format_formula(phi.body)}"
    if isinstance(phi, Forall):
        return f"A {phi.var} . {format_formula(phi.body)}"
    if isinstance(phi, CountAtLeast):
        return f"E>={phi.bound} {phi.var} . {format_formula(phi.body)}"
    if isinstance(phi, CountAtMost):
        return f"E<={phi.bound} {phi.var} . {format_formula(phi.body)}"
    raise ToolkitError(f"unknown formula node {phi!r}")


def _wrap(phi: Formula) -> str:
    if isinstance(phi, (Rel, Eq, Top, Bottom, Not)):
        return format_formula(phi)
    return f"({format_formula(phi)})"


_TOKEN_RE = re.compile(
    r"\s*(E>=\d+|E<=\d+|->|[()=.&|~,]|[A-Za-z0-9_][A-Za-z0-9_.'+-]*)")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ToolkitError(f"cannot tokenize formula at ...{text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ToolkitError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise ToolkitError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek() == "|":
            self.take()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok in ("E", "A") and self.peek(2) == ".":
            kind = self.take()
            var = self.take()
            self.take(".")
            body = self.formula()
            return Exists(var, body) if kind == "E" else Forall(var, body)
        if tok is not None and (tok.startswith("E>=") or tok.startswith("E<=")):
            kind = self.take()
            bound = int(kind[3:])
            var = self.take()
            self.take(".")
            body = self.formula()
            cls = CountAtLeast if kind[1] == ">" else CountAtMost
            return cls(bound, var, body)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok == "(":
            node = self.formula()
            self.take(")")
            return node
        if tok == "T":
            return Top()
        if tok == "F":
            return Bottom()
        if self.peek() == "(":
            self.take("(")
            args = [self.take()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.take())
            self.take(")")
            return Rel(tok, tuple(args))
        if self.peek() == "=":
            self.take("=")
            return Eq(tok, self.take())
        raise ToolkitError(f"cannot parse atom starting at {tok!r}")


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    if parser.pos != len(parser.tokens):
        raise ToolkitError(f"trailing tokens after formula: {parser.tokens[parser.pos:]}")
    return node


# ---------------------------------------------------------------------------
# Deterministic samplers


def _var_pool(k: int) -> list[str]:
    return [f"x{i}" for i in range(1, max(k, 1) + 1)]


def sample_formulas(vocab: Vocabulary, k: int, fragment: str, count: int,
                    seed: int) -> list[Formula]:
    """Deterministic sample of `count` formulas of the fragment, rank <= k.

    Fragments ep/full/counting produce sentences over a pool of at most
    max(k, 1) variable tokens (reused by rebinding).  Fragment `modal`
    produces guarded formulas of modal depth <= k with the single free
    variable `w0`, evaluated at a distinguished element.
    """
    if fragment not in FRAGMENTS:
        raise ToolkitError(f"unknown fragment {fragment!r}; choose from {FRAGMENTS}")
    if k < 0:
        raise ToolkitError("k must be >= 0")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if fragment == "modal":
            # Deeper than the and/or/not nesting of any formula drawn over a
            # vocabulary with a unary symbol (at most 21 for seeds 0-199,
            # k <= 3, 40 formulas each), so such samples do not change.
            out.append(_gen_modal(vocab, k, MODAL_FREE_VAR, rng, budget=24))
        else:
            out.append(_gen(vocab, k, (), fragment, rng, budget=6))
    return out


def _gen(vocab: Vocabulary, rank: int, scope: tuple[str, ...], fragment: str,
         rng: random.Random, budget: int) -> Formula:
    pool = _var_pool(rank + len(scope)) if rank + len(scope) > 0 else _var_pool(1)
    choices: list[str] = []
    if scope and vocab.symbols:
        choices += ["atom"] * 4
    if fragment in ("full", "counting") and len(scope) >= 1:
        choices += ["eq"]
    if rank > 0 and budget > 0:
        choices += ["exists"] * 3
        if fragment in ("full", "counting"):
            choices += ["forall"] * 2
        if fragment == "counting":
            choices += ["atleast", "atmost"]
    if budget > 0:
        choices += ["and", "or"]
        if fragment in ("full", "counting"):
            choices += ["not", "implies"]
    if not choices:
        choices = ["top"]
    choices += ["top"]
    pick = rng.choice(choices)
    if pick == "top":
        if fragment in ("full", "counting") and rng.random() < 0.3:
            return Bottom()
        return Top()
    if pick == "atom":
        name, arity = vocab.symbols[rng.randrange(len(vocab.symbols))]
        return Rel(name, tuple(rng.choice(scope) for _ in range(arity)))
    if pick == "eq":
        return Eq(rng.choice(scope), rng.choice(scope))
    if pick in ("and", "or", "implies"):
        left = _gen(vocab, rank, scope, fragment, rng, budget - 1)
        right = _gen(vocab, rank, scope, fragment, rng, budget - 1)
        return {"and": And, "or": Or, "implies": Implies}[pick](left, right)
    if pick == "not":
        return Not(_gen(vocab, rank, scope, fragment, rng, budget - 1))
    var = rng.choice(pool)
    inner_scope = tuple(v for v in scope if v != var) + (var,)
    body = _gen(vocab, rank - 1, inner_scope, fragment, rng, budget - 1)
    if pick == "exists":
        return Exists(var, body)
    if pick == "forall":
        return Forall(var, body)
    bound = rng.randint(1, 3)
    return (CountAtLeast if pick == "atleast" else CountAtMost)(bound, var, body)


def _gen_modal(vocab: Vocabulary, depth: int, var: str, rng: random.Random,
               budget: int) -> Formula:
    """A guarded formula of modal depth <= `depth` whose and/or/not nesting is
    at most `budget`.  `atom` is offered even without a unary symbol, and then
    draws a constant as `top` does, so leaves are as likely on every
    vocabulary."""
    unaries = [n for n, ar in vocab.symbols if ar == 1]
    binaries = [n for n, ar in vocab.symbols if ar == 2]
    choices = ["top"] + ["atom"] * 3
    if binaries and depth > 0:
        choices += ["diamond"] * 3 + ["box"] * 2
    if budget > 0:
        choices += ["and", "or", "not"]
    pick = rng.choice(choices)
    if pick == "atom" and unaries:
        return Rel(rng.choice(unaries), (var,))
    if pick in ("top", "atom"):
        return Top() if rng.random() < 0.7 else Bottom()
    if pick in ("and", "or"):
        cls = And if pick == "and" else Or
        return cls(_gen_modal(vocab, depth, var, rng, budget - 1),
                   _gen_modal(vocab, depth, var, rng, budget - 1))
    if pick == "not":
        return Not(_gen_modal(vocab, depth, var, rng, budget - 1))
    nxt = "w1" if var == "w0" else "w0"
    label = rng.choice(binaries)
    body = _gen_modal(vocab, depth - 1, nxt, rng, budget)
    if pick == "diamond":
        return Exists(nxt, And(Rel(label, (var, nxt)), body))
    return Forall(nxt, Implies(Rel(label, (var, nxt)), body))
