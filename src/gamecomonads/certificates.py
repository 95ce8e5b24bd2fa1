"""Certificate files: serialization, parsing, and audit-only verification.

Every certificate re-verifies against the input structures using only the
audit primitives (homomorphism checks, coalgebra law checks, partial-map
audits); no decision procedure is re-run.  Files are line-oriented with a
small header:

    certificate <kind>
    game <ef|pebble|modal>      (every kind but hom-witness)
    k <K>
    claim <true|false>          (or: kappa <n>)

`KINDS` says, per kind, how its body is written from a solver result and how
it is audited.  A kind belongs to the games whose `Game` record lists it, and
`verify_certificate` rejects a `game` header that does not own the kind.

The Spoiler-tree kinds share one node-tree codec, which refuses a node named
as the child of two branches.  The three round-bounded kinds (`ef-spoiler`,
`modal-spoiler`, `bf-spoiler`) share one entry of it, `_ROUNDS`, and one audit,
`game.audit_spoiler_tree`, under the game's forth condition with Spoiler on
side A, or its winning condition with Spoiler on both sides; `bf-duplicator` is
one `win <play> <play>` row per won position and round below k, audited by
`game.audit_won_positions`.  The pebble
games are one game with Spoiler on side A (`pebble-family`,
`pebble-refutation`) or on both sides (`pebble-safe`, `pebble-bf-spoiler`):
their families share one row form (`part` rows) and one audit,
`pebbling.audit_strategy_family`, and their trees one codec (`_pebble_tree`)
and one audit, `pebbling.audit_spoiler_positions`, each told the sides.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import equivalence as eq_mod
from . import parameters as par_mod
from . import pebbling as pebble_mod
from .errors import CapExceededError, CertificateError, ToolkitError
from .game import (DEFAULT_PLAY_CAP, CoKleisli, Game, SpoilerNode, audit_spoiler_tree,
                   audit_won_positions, walk_tree)
from .structures import Record, Structure, check_hom, gaifman


def fmt_play(s: tuple) -> str:
    return "[" + ",".join(str(x) for x in s) + "]"


def parse_play(tok: str) -> tuple:
    if not (tok.startswith("[") and tok.endswith("]")):
        raise CertificateError(f"malformed play token {tok!r}")
    inner = tok[1:-1]
    return tuple(inner.split(",")) if inner else ()


def fmt_pairs(pairs, a: Structure, b: Structure) -> str:
    items = sorted(pairs, key=lambda xy: (a.index[xy[0]], b.index[xy[1]]))
    return "".join(f"({x}↦{y})" for x, y in items) or "-"


def parse_pairs(tok: str) -> frozenset:
    """The pairs of a `fmt_pairs` token: `-`, or `(x↦y)` groups with nothing
    between them, each side non-empty and holding none of `()↦:`."""
    if tok == "-":
        return frozenset()
    if not (tok.startswith("(") and tok.endswith(")")):
        raise CertificateError(f"malformed pair token {tok!r}")
    pairs = set()
    for group in tok[1:-1].split(")("):
        x, _, y = group.partition("↦")
        if not (x and y) or "↦" in y or "(" in group or ")" in group or ":" in group:
            raise CertificateError(f"malformed pair token {tok!r}")
        pairs.add((x, y))
    return frozenset(pairs)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CertificateError(f"expected an integer, got {tok!r}") from None


class Certificate(Record):
    kind: str
    game: Optional[str] = None
    k: Optional[int] = None
    claim: Optional[str] = None  # "true" | "false"
    kappa: Optional[int] = None
    body: Sequence[list[str]] = ()  # token rows


def format_certificate(cert: Certificate) -> str:
    lines = [f"certificate {cert.kind}"]
    if cert.game is not None:
        lines.append(f"game {cert.game}")
    if cert.k is not None:
        lines.append(f"k {cert.k}")
    if cert.claim is not None:
        lines.append(f"claim {cert.claim}")
    if cert.kappa is not None:
        lines.append(f"kappa {cert.kappa}")
    for row in cert.body:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


_HEADERS = ("certificate", "game", "k", "claim", "kappa")


def parse_certificate(text: str) -> Certificate:
    rows = []
    head: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] not in _HEADERS:
            rows.append(toks)
        elif len(toks) != 2:
            raise CertificateError(f"header line {line!r} needs exactly one value")
        else:
            head[toks[0]] = toks[1]
    if "certificate" not in head:
        raise CertificateError("missing `certificate <kind>` header")
    k = _int(head["k"]) if "k" in head else None
    kappa = _int(head["kappa"]) if "kappa" in head else None
    return Certificate(head["certificate"], head.get("game"), k, head.get("claim"), kappa,
                       rows)


def _put(table: dict, key, value, row: list[str]) -> None:
    """Enter a row's value under its key; a key written twice is malformed,
    since the audit would read only one of its rows."""
    if key in table:
        raise CertificateError(f"row {row!r} repeats the key of an earlier row")
    table[key] = value


def _element(tok: str, x: Structure) -> str:
    """A row's key read as an element of `x`."""
    if tok not in x.index:
        raise CertificateError(f"{tok!r} names no element of the structure")
    return tok


def _play(tok: str, game: Game, k: int, x: Structure) -> tuple:
    """A table row's key read as a play of `x` up to round k."""
    s = parse_play(tok)
    if not s or game.play_error(s, k, x) is not None:
        raise CertificateError(f"{tok} is no play of up to {k} rounds")
    return s


# ---------------------------------------------------------------------------
# Emitters: in-memory results -> Certificate


def cert_result(kind: str, game: Optional[str], k: Optional[int], res,
                a: Structure, b: Optional[Structure]) -> Certificate:
    """The certificate of `kind` for a solver result: a decision with its
    witness, a coalgebra number (whose `k` is the claimed kappa), or a
    homomorphism."""
    spec = KINDS[kind]
    kappa = k if spec.claim is None else None
    return Certificate(kind, game, k, spec.claim, kappa, spec.emit(res, a, b))


def cert_both(game: Game, k: int, fwd, bwd, a: Structure, b: Structure) -> Certificate:
    """The both-pair certificate of the existential decisions `fwd` (from `a`)
    and `bwd` (from `b`; None when `fwd` is lost)."""
    if fwd.wins and bwd.wins:
        emit = KINDS[game.exists_kinds[0]].emit
        rows = [["fwd", *r] for r in emit(fwd, a, b)] + [["bwd", *r] for r in emit(bwd, b, a)]
        return Certificate("both-pair", game.name, k, "true", body=rows)
    way, res, x, y = ("bwd", bwd, b, a) if fwd.wins else ("fwd", fwd, a, b)
    rows = [[way, *r] for r in KINDS[game.exists_kinds[1]].emit(res, x, y)]
    return Certificate("both-pair", game.name, k, "false", body=[["direction", way], *rows])


def _table_rows(table, head: str) -> list[list[str]]:
    """One `<head> <play> -> <value>` row per play, shorter plays first,
    then by their elements' strings, each play's formatted once."""
    keyed = sorted((((len(s), tuple(map(str, s))), s) for s in table), key=itemgetter(0))
    return [[head, "[" + ",".join(strs) + "]", "->", str(table[s])] for (_, strs), s in keyed]


def _family_rows(parts: frozenset, a: Structure, b: Structure) -> list:
    """One `part` row per part, its pairs in declaration order, shorter parts
    first, then by their `fmt_pairs` token; each pair's token is formatted
    once per certificate."""
    ia, ib = a.index, b.index
    tokens: dict = {}  # pair -> (its declaration-order key, its token)
    keyed = []
    for p in parts:
        for pair in p:
            if pair not in tokens:
                x, y = pair
                tokens[pair] = (ia[x], ib[y]), f"({x}↦{y})"
        row = [tok for _, tok in sorted(map(tokens.__getitem__, p))]
        keyed.append(((len(row), "".join(row)), row))
    keyed.sort(key=itemgetter(0))
    return [["part", *row] for _, row in keyed]


def _cover_rows(cover: par_mod.ForestCover) -> list:
    return [["parent", str(v), str(cover.parent[v])]
            for v in cover.vertices if cover.parent[v] is not None]


def _pebble_cover_rows(pfc: par_mod.PebbleForestCover) -> list:
    rows = _cover_rows(pfc.cover)
    rows += [["pebble", str(v), str(pfc.pebbles[v])] for v in pfc.cover.vertices]
    if pfc.cover.vertices:
        td = par_mod.pfc_to_tree_decomposition(pfc)
        for x in td.nodes:
            rows.append(["bag", str(x)] + [str(v) for v in sorted(td.bags[x], key=str)])
        for x in td.nodes:
            if td.parent[x] is not None:
                rows.append(["edge", str(td.parent[x]), str(x)])
    return rows


# ---------------------------------------------------------------------------
# The node-tree codec shared by the Spoiler-tree kinds


class _Tree(Record):
    """How one Spoiler-tree kind writes and reads a node.

    `head` gives the tokens after `node <id>`; `edges` the node's
    (reply token, child) pairs, with reply None for the single `child` row
    of a node that needs no reply; `build` makes the node back from its head
    tokens, its branches and its `child` row (None for a malformed head).
    A reply that loses at once has the child token `lose`.
    """

    head: Callable
    edges: Callable
    build: Callable


_LOSE = "lose"


def cert_tree_rows(tree: _Tree, root, a: Structure, b: Structure) -> list[list[str]]:
    """Rows of a Spoiler tree: nodes numbered in preorder, each `node <id> ...`
    row followed by its `branch <id> <reply> <child>` or `child <id> <child>`
    rows."""
    rows: list[list[str]] = []
    ids = count()

    def step(nd, edge: Optional[tuple]):
        my = _LOSE if nd is None else str(next(ids))
        if edge is not None:
            parent, reply = edge
            rows.append(["child", parent, my] if reply is None else ["branch", parent, reply, my])
        if nd is None:
            return ()
        rows.append(["node", my] + tree.head(nd, a, b))
        return [(child, (my, reply)) for reply, child in tree.edges(nd)]

    walk_tree(root, None, step)
    rows.sort(key=lambda r: (int(r[1]), r[0] != "node"))
    return rows


def _parse_tree(tree: _Tree, rows):
    heads: dict[int, list[str]] = {}
    branches: dict[int, list[tuple[str, str]]] = {}
    children: dict[int, str] = {}
    for row in rows:
        if row[0] == "node" and len(row) >= 2:
            _put(heads, _int(row[1]), row[2:], row)
        elif row[0] == "branch" and len(row) == 4:
            branches.setdefault(_int(row[1]), []).append((row[2], row[3]))
        elif row[0] == "child" and len(row) == 3:
            _put(children, _int(row[1]), row[2], row)
        else:
            raise CertificateError(f"unexpected row {row!r}")

    # nodes are numbered in preorder, so every child's id is larger than its
    # parent's: building in decreasing id order finds each child built, and a
    # child not built yet is not a later node.  Each node is the child of at
    # most one branch, so the audit walks a tree, not every path of a DAG.
    nodes: dict[int, object] = {}
    claimed: set[int] = set()

    def built(parent: int, tok: str):
        if tok == _LOSE:
            return None
        i = _int(tok)
        if i not in nodes:
            raise CertificateError(f"child {tok!r} of node {parent} is no node after it")
        if i in claimed:
            raise CertificateError(f"node {i} is the child of more than one branch")
        claimed.add(i)
        return nodes[i]

    for i in sorted(heads, reverse=True):
        brs = tuple((reply, built(i, cid)) for reply, cid in branches.get(i, []))
        child = built(i, children[i]) if i in children else None
        nodes[i] = tree.build(heads[i], brs, child)
        if nodes[i] is None:
            raise CertificateError(f"bad node {i}")
    if 0 not in nodes:
        raise CertificateError("no root node 0")
    return nodes[0]


def _pebble_tree(sides: str) -> _Tree:
    """The pebble games' codec: `node <id> <pairs> drop <x>` with one `child`
    row, or `node <id> <pairs> place <e>` with a branch per reply, where a
    game with Spoiler on both sides writes `place <A|B> <e>`."""
    def head(nd, a, b):
        if nd.drop is not None:
            return [fmt_pairs(nd.pos, a, b), "drop", str(nd.drop[0])]
        side = [nd.side] if sides == "AB" else []
        return [fmt_pairs(nd.pos, a, b), "place", *side, str(nd.place)]

    def edges(nd):
        if nd.drop is not None:
            return [(None, nd.child)]
        return [(str(reply), child) for reply, child in nd.branches]

    def build(head, branches, child):
        match head:
            case [pos, "drop", src] if child is not None:
                pos = parse_pairs(pos)
                pair = next((p for p in pos if p[0] == src), None)
                if pair is not None:
                    return pebble_mod.SpoilerPosition(pos, drop=pair, child=child)
            case [pos, "place", e] if sides == "A":
                return pebble_mod.SpoilerPosition(parse_pairs(pos), place=e, branches=branches)
            case [pos, "place", "A" | "B" as side, e] if sides == "AB":
                return pebble_mod.SpoilerPosition(parse_pairs(pos), place=e, side=side,
                                                  branches=branches)

    return _Tree(head, edges, build)


def _spoiler_node(head, branches, child):
    match head:
        case ["stall"] if not branches and child is None:
            return SpoilerNode(None, None)
        case ["A" | "B" as side, step] if child is None:
            return SpoilerNode(side, parse_play(step),
                               tuple((parse_play(r), c) for r, c in branches))


# the round-bounded games: `node <id> <A|B> <step>` or `node <id> stall`, and
# `branch <id> <reply step> <child|lose>`, steps written as play tokens
_ROUNDS = _Tree(lambda nd, a, b: ["stall"] if nd.side is None else [nd.side, fmt_play(nd.step)],
                lambda nd: [(fmt_play(r), c) for r, c in nd.branches], _spoiler_node)


# ---------------------------------------------------------------------------
# Parsing bodies back into auditable objects


def _parse_map_rows(rows, head: str, key: Callable[[str], object]) -> dict:
    """The `<head> <x> -> <y>` rows as a table from `key(x)` to y."""
    table: dict = {}
    for row in rows:
        if row[0] != head or len(row) != 4 or row[2] != "->":
            raise CertificateError(f"expected `{head} <x> -> <y>` rows, got {row!r}")
        _put(table, key(row[1]), row[3], row)
    return table


def _verify_hom(cert: Certificate, a: Structure, b: Structure, cap: int) -> tuple[bool, str]:
    table = _parse_map_rows(cert.body, "map", lambda tok: _element(tok, a))
    try:
        return (check_hom(table, a, b), "homomorphism check")
    except ToolkitError as exc:
        return False, str(exc)


def _verify_table(cert: Certificate, a: Structure, b: Structure, cap: int) -> tuple[bool, str]:
    g = eq_mod.GAMES[cert.game]
    table = _parse_map_rows(cert.body, "map", lambda tok: _play(tok, g, cert.k, a))
    try:
        return (CoKleisli(g, cert.k, a, b, table, cap).is_homomorphism(),
                "coKleisli homomorphism check")
    except CapExceededError:
        raise  # a resource limit, not a verdict
    except ToolkitError as exc:
        return False, str(exc)


def _verify_family(cert: Certificate, a: Structure, b: Structure,
                   sides: str) -> tuple[bool, str]:
    parts = set()
    parsed: dict = {}  # token -> its pairs, each distinct token parsed once
    for row in cert.body:
        if row[0] != "part":
            raise CertificateError(f"expected part rows, got {row!r}")
        for tok in row[1:]:
            if tok not in parsed:
                parsed[tok] = parse_pairs(tok)
        parts.add(frozenset().union(*map(parsed.__getitem__, row[1:])))
    fam = pebble_mod.StrategyFamily(cert.k, frozenset(parts))
    return pebble_mod.audit_strategy_family(fam, a, b, sides)


def _verify_won_positions(cert: Certificate, a: Structure, b: Structure,
                          cap: int) -> tuple[bool, str]:
    pairs = []
    for row in cert.body:
        if row[0] != "win" or len(row) != 3:
            raise CertificateError(f"expected `win <play> <play>` rows, got {row!r}")
        pairs.append((parse_play(row[1]), parse_play(row[2])))
    return audit_won_positions(eq_mod.GAMES[cert.game], pairs, a, b, cert.k)


def _verify_iso(cert: Certificate, a: Structure, b: Structure, cap: int) -> tuple[bool, str]:
    _only_rows(cert, ("fwd", "bwd"))
    g, k = eq_mod.GAMES[cert.game], cert.k
    fwd = _parse_map_rows([r for r in cert.body if r[0] == "fwd"], "fwd",
                          lambda tok: _play(tok, g, k, a))
    bwd = _parse_map_rows([r for r in cert.body if r[0] == "bwd"], "bwd",
                          lambda tok: _play(tok, g, k, b))
    return eq_mod.audit_iso_pair(fwd, bwd, a, b, cert.k, cert.game, cap)


def _only_rows(cert: Certificate, heads: tuple) -> None:
    """Refuse a row of a composite certificate whose first token is not in
    `heads`: the audit would read no such row."""
    for row in cert.body:
        if row[0] not in heads:
            raise CertificateError(f"stray row {row!r} in a {cert.kind} certificate")


def _inner_rows(cert: Certificate, direction: str) -> list[list[str]]:
    """The rows of the one-way certificate a both-pair carries for `direction`."""
    rows = [row[1:] for row in cert.body if row[0] == direction]
    if [] in rows:
        raise CertificateError(f"empty `{direction}` row")
    return rows


def _verify_both(cert: Certificate, a: Structure, b: Structure, cap: int) -> tuple[bool, str]:
    game, k = cert.game, cert.k
    true_kind, false_kind = eq_mod.GAMES[game].exists_kinds
    if cert.claim == "true":
        _only_rows(cert, ("fwd", "bwd"))
        fwd_rows = _inner_rows(cert, "fwd")
        bwd_rows = _inner_rows(cert, "bwd")
        ok1, why1 = verify_certificate(
            Certificate(true_kind, game, k, "true", body=fwd_rows), a, b, cap)
        if not ok1:
            return False, f"forward: {why1}"
        ok2, why2 = verify_certificate(
            Certificate(true_kind, game, k, "true", body=bwd_rows), b, a, cap)
        return ok2, ("ok" if ok2 else f"backward: {why2}")
    heads = [row for row in cert.body if row[0] == "direction"]
    direction = heads[0][1] if len(heads) == 1 and len(heads[0]) == 2 else None
    if direction not in ("fwd", "bwd"):
        raise CertificateError("both-pair false certificate needs one `direction fwd|bwd` row")
    _only_rows(cert, ("direction", direction))
    rows = _inner_rows(cert, direction)
    src, dst = (a, b) if direction == "fwd" else (b, a)
    return verify_certificate(Certificate(false_kind, game, k, "false", body=rows), src, dst,
                              cap)


def _verify_forest_cover(cert: Certificate, a: Structure, b: Optional[Structure],
                         cap: int) -> tuple[bool, str]:
    parent: dict = {}
    for row in cert.body:
        if row[0] != "parent" or len(row) != 3:
            raise CertificateError(f"bad cover row {row!r}")
        _put(parent, _element(row[1], a), row[2], row)
    try:
        cover = par_mod.ForestCover(tuple(a.universe), {v: parent.get(v) for v in a.universe})
        if max(1, cover.height()) != cert.kappa:  # an empty structure has kappa 1
            return False, f"cover height {cover.height()} != claimed {cert.kappa}"
        c = par_mod.forest_cover_to_coalgebra(cover, cert.kappa, a)
    except ToolkitError as exc:
        return False, str(exc)
    ok, why = par_mod.check_coalgebra(c)
    return ok, (why or "coalgebra laws hold")


def _verify_pfc(cert: Certificate, a: Structure, b: Optional[Structure],
                cap: int) -> tuple[bool, str]:
    parent: dict = {}
    pebbles: dict = {}
    bags: dict = {}
    td_parent: dict = {}  # node -> the node of the `edge` row above it
    for row in cert.body:
        if row[0] == "parent" and len(row) == 3:
            _put(parent, _element(row[1], a), row[2], row)
        elif row[0] == "pebble" and len(row) == 3:
            _put(pebbles, _element(row[1], a), _int(row[2]), row)
        elif row[0] == "bag" and len(row) >= 2:
            _put(bags, row[1], frozenset(row[2:]), row)
        elif row[0] == "edge" and len(row) == 3:
            _put(td_parent, row[2], row[1], row)
        else:
            raise CertificateError(f"bad cover row {row!r}")
    if not {*td_parent, *td_parent.values()} <= set(bags):
        raise CertificateError("an `edge` row names a node without a `bag` row")
    g = gaifman(a)
    try:
        cover = par_mod.ForestCover(tuple(a.universe), {v: parent.get(v) for v in a.universe})
        pfc = par_mod.PebbleForestCover(cover, pebbles)
    except ToolkitError as exc:
        return False, str(exc)
    if not par_mod.is_pebble_forest_cover(pfc, g, cert.kappa):
        return False, "not a valid pebbled forest cover at the claimed pebble count"
    used = max(pfc.pebbles.values(), default=1)
    if used != cert.kappa:
        return False, f"pebbles used {used} != claimed {cert.kappa}"
    ok, why = par_mod.check_coalgebra(par_mod.pfc_to_pebble_coalgebra(pfc, cert.kappa, a))
    if not ok:
        return False, why
    if bags:
        td = par_mod.TreeDecomposition(tuple(sorted(bags, key=str)),
                                       {x: td_parent.get(x) for x in bags}, bags)
        if not par_mod.is_tree_decomposition(td, g):
            return False, "attached tree decomposition is invalid"
        if td.width() > cert.kappa - 1:
            return False, f"decomposition width {td.width()} exceeds {cert.kappa - 1}"
    return True, "ok"


def _verify_modal_coalgebra(cert: Certificate, a: Structure, b: Optional[Structure],
                            cap: int) -> tuple[bool, str]:
    alpha = {v: parse_play(p) for v, p in
             _parse_map_rows(cert.body, "map", lambda tok: _element(tok, a)).items()}
    c = par_mod.CoalgebraMap("modal", cert.kappa, a, alpha)
    ok, why = par_mod.check_coalgebra(c)
    return ok, (why or "coalgebra laws hold")


# ---------------------------------------------------------------------------
# The kinds


class _Kind(Record):
    """One certificate kind: its claim ("true", "false", or None for a
    coalgebra witness, which claims a kappa instead and is audited against
    one structure, not two), how its body is written from a solver result,
    and how it is audited."""

    claim: Optional[str]
    emit: Callable  # (result, a, b) -> body rows
    verify: Callable  # (certificate, a, b, play cap) -> (ok, reason)


def _tree_kind(witness: str, tree: _Tree, audit: Callable) -> _Kind:
    """A Spoiler-tree kind: written from `res.<witness>` by the codec."""
    return _Kind("false",
                 lambda res, a, b: cert_tree_rows(tree, getattr(res, witness), a, b),
                 lambda cert, a, b, cap: audit(_parse_tree(tree, cert.body), cert, a, b))


def _rounds_kind(witness: str, condition: str, sides: str) -> _Kind:
    """A Spoiler-tree kind of the round-bounded games, audited against the
    game's `condition` with Spoiler moving on `sides`."""
    def audit(nd, cert, a, b):
        g = eq_mod.GAMES[cert.game]
        return audit_spoiler_tree(g, nd, a, b, cert.k, getattr(g, condition), sides)

    return _tree_kind(witness, _ROUNDS, audit)


def _family_kind(parts: Callable, sides: str) -> _Kind:
    """A pebble family kind: `part` rows of the parts `parts(res)`, audited
    for the pebble game with Spoiler moving on `sides`."""
    return _Kind("true", lambda res, a, b: _family_rows(parts(res), a, b),
                 lambda cert, a, b, cap: _verify_family(cert, a, b, sides))


def _pebble_tree_kind(witness: str, sides: str) -> _Kind:
    """A pebble Spoiler-tree kind, audited for the pebble game with Spoiler
    moving on `sides`."""
    return _tree_kind(witness, _pebble_tree(sides),
                      lambda nd, cert, a, b: pebble_mod.audit_spoiler_positions(
                          nd, a, b, cert.k, sides))


KINDS: dict[str, _Kind] = {
    "hom-witness": _Kind(
        "true", lambda res, a, b: [["map", str(e), "->", str(res.mapping[e])]
                                   for e in a.universe], _verify_hom),
    "ef-table": _Kind(
        "true", lambda res, a, b: _table_rows(res.strategy.table, "map"), _verify_table),
    "modal-table": _Kind(
        "true", lambda res, a, b: _table_rows(res.strategy.table, "map"), _verify_table),
    "pebble-family": _family_kind(lambda res: res.family.parts, "A"),
    "bf-duplicator": _Kind(
        "true", lambda res, a, b: [["win", fmt_play(s), fmt_play(t)] for s, t in res.duplicator],
        _verify_won_positions),
    "pebble-safe": _family_kind(lambda res: res.safe_positions, "AB"),
    "kleisli-iso": _Kind(
        "true", lambda res, a, b: (_table_rows(res.forward, "fwd")
                                   + _table_rows(res.backward, "bwd")), _verify_iso),
    "both-pair": _Kind("true", None, _verify_both),  # written by cert_both, either claim
    "forest-cover": _Kind(
        None, lambda res, a, b: _cover_rows(res.cover), _verify_forest_cover),
    "pebble-forest-cover": _Kind(
        None, lambda res, a, b: _pebble_cover_rows(res.pfc), _verify_pfc),
    "modal-coalgebra": _Kind(
        None, lambda res, a, b: [["map", str(v), "->", fmt_play(res.coalgebra.alpha[v])]
                                 for v in res.coalgebra.host.universe],
        _verify_modal_coalgebra),
    "ef-spoiler": _rounds_kind("refutation", "forth", "A"),
    "modal-spoiler": _rounds_kind("refutation", "forth", "A"),
    "pebble-refutation": _pebble_tree_kind("refutation", "A"),
    "bf-spoiler": _rounds_kind("spoiler", "winning", "AB"),
    "pebble-bf-spoiler": _pebble_tree_kind("spoiler", "AB"),
}


# ---------------------------------------------------------------------------
# Verification dispatch


def _check_header(cert: Certificate) -> None:
    """The claim is the kind's (a both-pair claims either way, a coalgebra
    witness nothing); a `k` header is at least 1; every kind but hom-witness
    names a game that owns it, and a round or pebble count; coalgebra
    witnesses also claim their kappa."""
    claim = KINDS[cert.kind].claim
    if cert.claim not in (("true", "false") if cert.kind == "both-pair" else (claim,)):
        raise CertificateError(
            f"certificate kind {cert.kind!r} cannot claim {cert.claim or 'nothing'}")
    if cert.k is not None and cert.k < 1:
        raise CertificateError(f"`k {cert.k}` header: k must be >= 1")
    if cert.kind == "hom-witness":
        return
    if cert.game is None:
        raise CertificateError("missing `game <name>` header")
    game = eq_mod.GAMES.get(cert.game)
    if game is None or cert.kind not in game.kinds:
        raise CertificateError(
            f"certificate kind {cert.kind!r} does not belong to game {cert.game!r}")
    if cert.k is None:
        raise CertificateError("missing `k <K>` header")
    if KINDS[cert.kind].claim is None and cert.kappa is None:
        raise CertificateError("missing `kappa <n>` header")


def verify_certificate(cert: Certificate, a: Structure, b: Optional[Structure] = None,
                       cap: int = DEFAULT_PLAY_CAP) -> tuple[bool, str]:
    """Audit the certificate against the given structures, listing play
    universes under `cap`.

    Returns (ok, reason).  Raises CertificateError on malformed input and
    ToolkitError when a required second structure is missing.
    """
    spec = KINDS.get(cert.kind)
    if spec is None:
        raise CertificateError(f"unknown certificate kind {cert.kind!r}")
    _check_header(cert)
    if spec.claim is not None and b is None:
        raise ToolkitError(f"certificate kind {cert.kind!r} needs two structures")
    return spec.verify(cert, a, b, cap)
