"""Command-line entry point.

Verdict lines are `result: true|false` or `kappa: <n>`; exit codes: 0 for
true/success, 1 for false verdicts, 2 for usage/input errors, 3 for
cap/resource errors.  Reports are byte-identical for identical argv and seed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from pathlib import Path

from . import certificates as cert_mod
from . import equivalence as eq_mod
from . import logic as logic_mod
from . import parameters as par_mod
from .errors import CapExceededError, ToolkitError
from .game import DEFAULT_PLAY_CAP
from .structures import Structure, find_hom, gaifman, parse_structure

DEFAULT_SEED = 1729
DEFAULT_TRUNC = 3

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _load(path: str) -> Structure:
    try:
        return parse_structure(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ToolkitError(f"{path}: {exc}") from exc
    except ToolkitError as exc:
        raise ToolkitError(f"{path}: {exc}") from exc


def _report_head(out: list[str], args, **extra) -> None:
    out.append(f"command: {args.command}")
    for key, val in extra.items():
        out.append(f"{key.replace('_', '.')}: {val}")
    out.append(f"seed: {args.seed}")
    out.append(f"cap.plays: {args.cap_plays}")
    out.append(f"cap.vertices: {args.cap_vertices}")


def _write_certificate(args, cert, out: list[str]) -> None:
    """Write the certificate over the `--certificate` path in place, then cut
    a regular file to it.  Opening with O_TRUNC would make close wait for
    writeback when the path already holds a file; a device such as /dev/null
    takes no truncate."""
    path = getattr(args, "certificate", None)
    if path:
        data = cert_mod.format_certificate(cert).encode("utf-8")
        try:
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
                f.write(data)
                if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                    f.truncate(len(data))
        except OSError as exc:
            raise ToolkitError(f"{path}: {exc}") from exc
        out.append(f"certificate: {path}")


def _cmd_hom(args) -> tuple[int, list[str]]:
    a, b = _load(args.a), _load(args.b)
    out: list[str] = []
    _report_head(out, args, input_a=args.a, input_b=args.b)
    witness = find_hom(a, b)
    out.append(f"result: {'true' if witness else 'false'}")
    if witness is not None:
        for e in a.universe:
            out.append(f"map {e} -> {witness.mapping[e]}")
        _write_certificate(args, cert_mod.cert_result("hom-witness", None, None, witness, a, b),
                           out)
    return (EXIT_TRUE if witness else EXIT_FALSE), out


def _verdict_certificate(kinds: tuple[str, str], game: str, k: int, res, a, b):
    """The certificate of the first kind for a win, of the second for a loss."""
    return cert_mod.cert_result(kinds[0] if res.wins else kinds[1], game, k, res, a, b)


def _cmd_equiv(args) -> tuple[int, list[str]]:
    a, b = _load(args.a), _load(args.b)
    k = args.pebbles if args.pebbles is not None else args.k
    if k is None:
        raise ToolkitError("equiv requires -k (or --pebbles for the pebble game)")
    g = eq_mod.game(args.game)
    out: list[str] = []
    _report_head(out, args, game=args.game, mode=args.mode, k=k,
                 input_a=args.a, input_b=args.b)
    cert = None
    if args.mode == "exists":
        res = g.decide(a, b, k, args.cap_plays)
        verdict = res.wins
        cert = _verdict_certificate(g.exists_kinds, g.name, k, res, a, b)
    elif args.mode == "both":
        fwd = g.decide(a, b, k, args.cap_plays)
        if not fwd.wins:
            verdict = False
            cert = cert_mod.cert_both(
                g.name, k, _verdict_certificate(g.exists_kinds, g.name, k, fwd, a, b), None,
                failing="fwd")
        else:
            bwd = g.decide(b, a, k, args.cap_plays)
            verdict = bwd.wins
            bwd_cert = _verdict_certificate(g.exists_kinds, g.name, k, bwd, b, a)
            if verdict:
                cert = cert_mod.cert_both(
                    g.name, k, _verdict_certificate(g.exists_kinds, g.name, k, fwd, a, b),
                    bwd_cert)
            else:
                cert = cert_mod.cert_both(g.name, k, None, bwd_cert, failing="bwd")
    elif args.mode == "backforth":
        res = eq_mod.solve_back_forth(a, b, k, g.name, cap=args.cap_plays)
        verdict = res.wins
        cert = _verdict_certificate(g.backforth_kinds, g.name, k, res, a, b)
    elif args.mode == "iso":
        res = eq_mod.decide_cokleisli_iso(a, b, k, g.name, cap=args.cap_plays)
        verdict = res.wins
        cert = cert_mod.cert_result(g.iso_kind, g.name, k, res, a, b) if verdict else None
    else:
        raise ToolkitError(f"unknown mode {args.mode!r}")
    out.append(f"result: {'true' if verdict else 'false'}")
    if cert is not None:
        _write_certificate(args, cert, out)
    elif getattr(args, "certificate", None):
        out.append("certificate: none (no witness for this verdict)")
    return (EXIT_TRUE if verdict else EXIT_FALSE), out


def _cmd_param(args) -> tuple[int, list[str]]:
    a = _load(args.a)
    out: list[str] = []
    _report_head(out, args, comonad=args.comonad, input_a=args.a)
    res = par_mod.coalgebra_number(a, args.comonad, cap=args.cap_vertices)
    out.append(f"kappa: {res.kappa}")
    g = eq_mod.game(args.comonad)
    cert = cert_mod.cert_result(g.cover_kind, g.name, res.kappa, res, a, None)
    out.extend(" ".join(map(str, row)) for row in cert.body)
    _write_certificate(args, cert, out)
    return EXIT_TRUE, out


def _cmd_oracle(args) -> tuple[int, list[str]]:
    a = _load(args.a)
    out: list[str] = []
    _report_head(out, args, parameter=args.parameter, input_a=args.a)
    g = gaifman(a)
    if args.parameter == "treedepth":
        out.append(f"treedepth: {par_mod.oracle_treedepth(g, cap=args.cap_vertices)}")
    else:
        out.append(f"treewidth: {par_mod.oracle_treewidth(g, cap=args.cap_vertices)}")
    return EXIT_TRUE, out


def _cmd_laws(args) -> tuple[int, list[str]]:
    a = _load(args.a)
    out: list[str] = []
    _report_head(out, args, comonad=args.comonad, k=args.k, trunc=args.trunc,
                 input_a=args.a)
    rep = eq_mod.game(args.comonad).laws(a, args.k, args.trunc, args.cap_plays)
    out.append(f"result: {'true' if rep.ok else 'false'}")
    for failure in rep.failures:
        out.append(f"counterexample: {failure}")
    return (EXIT_TRUE if rep.ok else EXIT_FALSE), out


def _cmd_eval(args) -> tuple[int, list[str]]:
    a = _load(args.a)
    out: list[str] = []
    _report_head(out, args, formula=repr(args.formula), input_a=args.a)
    phi = logic_mod.parse_formula(args.formula)
    fv = logic_mod.free_vars(phi)
    env = {}
    if fv:
        if len(fv) == 1 and a.is_pointed:
            env = {next(iter(fv)): a.point}
        else:
            raise ToolkitError(f"formula has free variables {sorted(fv)}; only a single "
                               "free variable over a pointed structure is bound implicitly")
    verdict = logic_mod.evaluate(a, phi, env)
    out.append(f"result: {'true' if verdict else 'false'}")
    return (EXIT_TRUE if verdict else EXIT_FALSE), out


def _cmd_sample(args) -> tuple[int, list[str]]:
    out: list[str] = []
    _report_head(out, args, fragment=args.fragment, k=args.k, count=args.count)
    vocab = _load(args.a).vocab if args.a else logic_mod.Vocabulary((("R", 2),))
    out.append(f"# sampler: {logic_mod.SAMPLER_ALGORITHM} seed={args.seed} "
               f"fragment={args.fragment} rank<={args.k} count={args.count}")
    for phi in logic_mod.sample_formulas(vocab, args.k, args.fragment, args.count,
                                         args.seed):
        out.append(logic_mod.format_formula(phi))
    return EXIT_TRUE, out


def _cmd_verify(args) -> tuple[int, list[str]]:
    a = _load(args.a)
    b = _load(args.b) if args.b else None
    out: list[str] = []
    _report_head(out, args, certificate_in=args.certificate, input_a=args.a,
                 input_b=args.b or "-")
    text = Path(args.certificate).read_text(encoding="utf-8")
    cert = cert_mod.parse_certificate(text)
    ok, why = cert_mod.verify_certificate(cert, a, b, args.cap_plays)
    out.append(f"kind: {cert.kind}")
    out.append(f"result: {'true' if ok else 'false'}")
    out.append(f"detail: {why}")
    return (EXIT_TRUE if ok else EXIT_FALSE), out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamecomonads",
        description="Model-comparison games as comonads: deciders, parameters, oracles.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all sampling (default %(default)s)")
    common.add_argument("--cap-plays", type=int, default=DEFAULT_PLAY_CAP,
                        help="largest materialized play universe")
    common.add_argument("--cap-vertices", type=int, default=par_mod.DEFAULT_VERTEX_CAP,
                        help="largest vertex count for oracles and kappa searches")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("hom", help="decide homomorphism existence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--certificate")
    p.set_defaults(func=_cmd_hom)

    p = add("equiv", help="decide a comonadic equivalence")
    p.add_argument("--game", choices=eq_mod.COMONADS, required=True)
    p.add_argument("--mode", choices=("exists", "both", "backforth", "iso"),
                   required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--pebbles", type=int, default=None,
                   help="pebble count (alias for -k in the pebble game)")
    p.add_argument("--certificate")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_equiv)

    p = add("param", help="coalgebra number with witness")
    p.add_argument("--comonad", choices=eq_mod.COMONADS, required=True)
    p.add_argument("--certificate")
    p.add_argument("a")
    p.set_defaults(func=_cmd_param)

    p = add("oracle", help="brute-force graph parameter")
    p.add_argument("parameter", choices=("treedepth", "treewidth"))
    p.add_argument("a")
    p.set_defaults(func=_cmd_oracle)

    p = add("laws", help="check the comonad laws on one structure")
    p.add_argument("--comonad", choices=eq_mod.COMONADS, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNC,
                   help="truncation length for the pebble game (default %(default)s)")
    p.add_argument("a")
    p.set_defaults(func=_cmd_laws)

    p = add("eval", help="evaluate a formula on a structure")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("a")
    p.set_defaults(func=_cmd_eval)

    p = add("sample", help="deterministically sample formulas")
    p.add_argument("--fragment", choices=logic_mod.FRAGMENTS, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("a", nargs="?", default=None,
                   help="optional structure file supplying the vocabulary")
    p.set_defaults(func=_cmd_sample)

    p = add("verify", help="re-verify a certificate without solving")
    p.add_argument("--certificate", required=True)
    p.add_argument("a")
    p.add_argument("b", nargs="?", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, out = args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:  # a formula, a cover or a forest table nested too deeply
        print("error: input nested too deeply for the interpreter's recursion limit",
              file=sys.stderr)
        return EXIT_CAP
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
