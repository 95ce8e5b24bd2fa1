import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecomonads import cli
from gamecomonads.certificates import parse_certificate, verify_certificate
from gamecomonads.errors import CertificateError
from gamecomonads.structures import parse_structure

from test_golden import GOLDEN, INPUTS as GOLDEN_INPUTS, jobs as golden_jobs

EDGE = "vocab R 2\nelem a\nelem b\nrel R a b\nrel R b a\n"
TWOPTS = "vocab R 2\nelem x\nelem y\n"
K3 = ("vocab R 2\nelem u\nelem v\nelem w\n"
      "rel R u v\nrel R v u\nrel R v w\nrel R w v\nrel R u w\nrel R w u\n")
CHAIN_PTD = "vocab R 2\nelem a\nelem b\nelem c\nrel R a b\nrel R b c\nstart a\n"
CYCLE_PTD = "vocab R 2\nelem x\nelem y\nrel R x y\nrel R y x\nstart x\n"
EDGE_S = parse_structure(EDGE)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("edge", EDGE), ("twopts", TWOPTS), ("k3", K3),
                       ("chain", CHAIN_PTD), ("cycle", CYCLE_PTD)]:
        p = tmp_path / f"{name}.str"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_hom_identity(files):
    code, out = run(["hom", files["edge"], files["edge"]])
    assert code == 0
    assert "result: true" in out


def test_hom_false_exit_code(files):
    code, out = run(["hom", files["edge"], files["twopts"]])
    assert code == 1
    assert "result: false" in out


def test_equiv_backforth_matches_spec_example(files):
    code, out = run(["equiv", "--game", "ef", "--mode", "backforth", "-k", "2",
                     files["edge"], files["twopts"]])
    assert code == 1
    assert "result: false" in out


def test_equiv_modes_and_certificates(files):
    certs = []
    for game, a, b, extra in [
        ("ef", "edge", "edge", []),
        ("ef", "edge", "twopts", []),
        ("pebble", "k3", "edge", []),
        ("modal", "chain", "cycle", []),
    ]:
        for mode in ("exists", "both", "backforth"):
            cert = files["dir"] / f"{game}-{mode}-{a}-{b}.cert"
            code, out = run(["equiv", "--game", game, "--mode", mode, "-k", "2",
                             "--certificate", str(cert), files[a], files[b]])
            assert code in (0, 1)
            if "certificate: none" not in out:
                certs.append((cert, files[a], files[b]))
    for cert, a, b in certs:
        code, out = run(["verify", "--certificate", str(cert), a, b])
        assert code == 0, out
        assert "result: true" in out


def test_equiv_iso_certificate(files):
    cert = files["dir"] / "iso.cert"
    code, out = run(["equiv", "--game", "ef", "--mode", "iso", "-k", "2",
                     "--certificate", str(cert), files["edge"], files["edge"]])
    assert code == 0
    code, out = run(["verify", "--certificate", str(cert), files["edge"], files["edge"]])
    assert code == 0 and "result: true" in out


def test_equiv_iso_rejects_pebble(files):
    code, _ = run(["equiv", "--game", "pebble", "--mode", "iso", "-k", "2",
                   files["edge"], files["edge"]])
    assert code == 2


def test_equiv_pebbles_flag(files):
    code, out = run(["equiv", "--game", "pebble", "--mode", "exists",
                     "--pebbles", "3", files["k3"], files["edge"]])
    assert code == 1
    assert "k: 3" in out


def test_equiv_refuses_k_and_pebbles_together(files, capsys):
    code, out = run(["equiv", "--game", "ef", "--mode", "exists", "-k", "2", "--pebbles", "3",
                     files["k3"], files["edge"]])
    assert (code, out) == (2, "")
    assert "argument --pebbles: not allowed with argument -k" in capsys.readouterr().err


@pytest.mark.parametrize("game", ["ef", "modal"])
def test_equiv_refuses_pebbles_outside_the_pebble_game(files, capsys, game):
    code, out = run(["equiv", "--game", game, "--mode", "exists", "--pebbles", "2",
                     files["chain"], files["cycle"]])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (f"error: --pebbles is for the pebble game; "
                                       f"the {game} game takes -k\n")


def test_param_and_verify_all_comonads(files):
    for comonad, a, kappa in [("ef", "k3", 3), ("pebble", "k3", 3), ("modal", "chain", 2)]:
        cert = files["dir"] / f"param-{comonad}.cert"
        code, out = run(["param", "--comonad", comonad, "--certificate", str(cert),
                         files[a]])
        assert code == 0
        assert f"kappa: {kappa}" in out
        code, out = run(["verify", "--certificate", str(cert), files[a]])
        assert code == 0, out


def test_param_ef_on_an_empty_structure_verifies(tmp_path):
    """A structure with no elements has coalgebra number 1, the least k a
    game takes, and the cover audit accepts its empty cover for that claim."""
    empty, cert = tmp_path / "empty.str", str(tmp_path / "empty.cert")
    empty.write_text("vocab R 2\n")
    code, out = run(["param", "--comonad", "ef", "--certificate", cert, str(empty)])
    assert code == 0 and "\nkappa: 1\n" in out
    code, out = run(["verify", "--certificate", cert, str(empty)])
    assert code == 0 and "\nresult: true\n" in out, out


def test_param_modal_cycle_is_usage_error(files):
    code, _ = run(["param", "--comonad", "modal", files["cycle"]])
    assert code == 2


def test_oracle(files):
    code, out = run(["oracle", "treedepth", files["k3"]])
    assert code == 0 and "treedepth: 3" in out
    code, out = run(["oracle", "treewidth", files["k3"]])
    assert code == 0 and "treewidth: 2" in out


def test_laws_all_comonads(files):
    for comonad, target in [("ef", "k3"), ("pebble", "edge"), ("modal", "chain")]:
        code, out = run(["laws", "--comonad", comonad, "-k", "2", files[target]])
        assert code == 0
        assert "result: true" in out


def test_eval(files):
    code, out = run(["eval", "-f", "E x . R(x,x)", files["k3"]])
    assert code == 1 and "result: false" in out
    code, out = run(["eval", "-f", "E x . E y . R(x,y)", files["k3"]])
    assert code == 0 and "result: true" in out


def test_sample_deterministic(files):
    args = ["sample", "--fragment", "counting", "-k", "2", "--count", "5",
            "--seed", "33"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "mt19937" in out1 and "seed=33" in out1


def test_reports_are_byte_identical(files):
    argv = ["equiv", "--game", "ef", "--mode", "backforth", "-k", "2",
            files["edge"], files["twopts"]]
    outs = {run(argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_cap_exit_code(files):
    code, _ = run(["laws", "--comonad", "ef", "-k", "3", "--cap-plays", "5",
                   files["k3"]])
    assert code == 3


def test_usage_error_exit_code(files):
    code, _ = run(["equiv", "--game", "ef", "--mode", "exists",
                   files["edge"], files["twopts"]])  # missing -k
    assert code == 2
    code, _ = run(["frobnicate"])
    assert code == 2


def test_parse_error_is_usage_error(tmp_path):
    bad = tmp_path / "bad.str"
    bad.write_text("vocab R 2\nrel R a a\n")
    code, _ = run(["oracle", "treedepth", str(bad)])
    assert code == 2


@pytest.mark.parametrize("target", ["nodir/x.cert", "."], ids=["missing-directory", "directory"])
def test_unwritable_certificate_is_usage_error(files, capsys, target):
    path = str(files["dir"] / target)
    code, out = run(["hom", files["edge"], files["edge"], "--certificate", path])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# unreadable inputs to `verify`: (certificate, structure, the file named in the error);
# the structure is read before the certificate
UNREADABLE = [("missing.cert", "edge.str", "missing.cert"), ("sub", "edge.str", "sub"),
              ("missing.cert", "ff.str", "ff.str"), ("ff.cert", "edge.str", "ff.cert")]


@pytest.mark.parametrize("cert,structure,named", UNREADABLE,
                         ids=["missing-certificate", "certificate-is-a-directory",
                              "structure-not-utf8", "certificate-not-utf8"])
def test_unreadable_input_is_usage_error(tmp_path, capsys, cert, structure, named):
    (tmp_path / "edge.str").write_text(EDGE)
    (tmp_path / "ff.str").write_bytes(b"vocab R 2\nelem \xff\n")
    (tmp_path / "ff.cert").write_bytes(b"certificate ef-table\ngame ef\nk 1\n\xff\n")
    (tmp_path / "sub").mkdir()
    code, out = run(["verify", "--certificate", str(tmp_path / cert), str(tmp_path / structure)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / named}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def hom_report(files, cert):
    """The code and report of `hom edge edge --certificate cert`."""
    return run(["hom", files["edge"], files["edge"], "--certificate", cert])


def test_certificate_to_dev_null(files):
    """/dev/null takes the bytes and no truncate; the report is the one a file gets."""
    path = str(files["dir"] / "edge.cert")
    assert hom_report(files, "/dev/null") == (0, hom_report(files, path)[1].replace(
        f"certificate: {path}\n", "certificate: /dev/null\n"))


def test_certificate_to_dev_stdout_in_a_pipe(files):
    """Written to a pipe, the certificate comes first and the report after it."""
    path = files["dir"] / "edge.cert"
    _, report = hom_report(files, str(path))
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "hom", files["edge"],
                           files["edge"], "--certificate", "/dev/stdout"],
                          env=child_env(), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout == path.read_bytes() + report.replace(
        f"certificate: {path}\n", "certificate: /dev/stdout\n").encode("utf-8")


def test_certificate_through_a_symlink(files):
    """A symlink stays one, and the longer file it points to now holds
    exactly the certificate."""
    path, target, link = (files["dir"] / name for name in ("edge.cert", "old.cert", "link.cert"))
    hom_report(files, str(path))
    target.write_text("stale\n" * 100)
    link.symlink_to(target)
    assert hom_report(files, str(link))[0] == 0
    assert link.is_symlink() and target.read_bytes() == path.read_bytes()


def _golden_with(name: str, *rows: str) -> str:
    """The golden certificate `name` with `rows` appended."""
    return (GOLDEN / f"{name}.cert").read_text() + "".join(f"{row}\n" for row in rows)


@pytest.mark.parametrize("text,target", [
    ("certificate\n", "edge"),
    ("certificate ef-table\ngame ef\nk two\nclaim true\n", "edge"),
    ("certificate pebble-safe\ngame pebble\nk 2\nclaim true\npos\n", "edge"),
    ("certificate ef-spoiler\ngame ef\nk 2\nclaim false\nnode 0\n", "edge"),
    ("certificate ef-spoiler\ngame ef\nk 2\nclaim false\nnode 0 A [a]\nbranch 0 [x] 0\n",
     "edge"),
    ("certificate both-pair\ngame pebble\nk 2\nclaim true\nfwd\n", "edge"),
    ("certificate pebble-forest-cover\ngame pebble\nk 2\nkappa 2\nparent b a\npebble a 1\n"
     "pebble b 2\nbag b0 a\nbag b1 a b\nedge b0 zz\nedge zz b1\n", "edge"),
    # a row that a composite certificate's audit would not read
    (_golden_with("equiv-ef-iso-k2-edge-edge", "zz [a] -> b"), "edge"),
    (_golden_with("equiv-ef-both-k2-edge-edge", "zz map [a] -> zz"), "edge"),
    (_golden_with("equiv-ef-both-k2-edge-edge", "direction fwd"), "edge"),
    (_golden_with("equiv-ef-both-k2-edge-twopts", "bwd map [x] -> a"), "twopts"),
    (_golden_with("equiv-ef-both-k2-edge-twopts", "zz junk"), "twopts"),
    (_golden_with("equiv-ef-both-k2-edge-twopts", "direction fwd"), "twopts"),
], ids=["bare-header", "k-not-integer", "pos-without-token", "node-without-move",
         "child-not-a-later-node", "empty-inner-row", "edge-to-bagless-node",
         "iso-stray-head", "both-true-stray-head", "both-true-direction",
         "both-false-other-direction", "both-false-stray-head", "both-false-two-directions"])
def test_malformed_certificate_is_usage_error(files, capsys, text, target):
    cert = files["dir"] / "bad.cert"
    cert.write_text(text)
    code, _ = run(["verify", "--certificate", str(cert), files["edge"], files[target]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def emitted(files, argv):
    """The certificate text `equiv ... edge edge` writes."""
    cert = files["dir"] / "emitted.cert"
    code, _ = run(["equiv"] + argv + ["-k", "2", "--certificate", str(cert),
                                     files["edge"], files["edge"]])
    assert code == 0
    return cert.read_text()


def assert_rejected(files, capsys, text):
    cert = files["dir"] / "edited.cert"
    cert.write_text(text)
    with pytest.raises(CertificateError):
        verify_certificate(parse_certificate(text), EDGE_S, EDGE_S)
    code, out = run(["verify", "--certificate", str(cert), files["edge"], files["edge"]])
    assert code == 2 and "result:" not in out
    assert capsys.readouterr().err.startswith("error:")


def test_verify_rejects_table_relabelled_to_pebble(files, capsys):
    text = emitted(files, ["--game", "ef", "--mode", "exists"])
    assert_rejected(files, capsys, text.replace("game ef\n", "game pebble\n"))


def test_verify_rejects_iso_pair_relabelled_to_pebble(files, capsys):
    text = emitted(files, ["--game", "ef", "--mode", "iso"])
    assert_rejected(files, capsys, text.replace("game ef\n", "game pebble\n"))


def test_verify_rejects_unknown_game(files, capsys):
    text = emitted(files, ["--game", "ef", "--mode", "both"])
    assert_rejected(files, capsys, text.replace("game ef\n", "game xyz\n"))


def test_verify_rejects_iso_pair_without_k(files, capsys):
    text = emitted(files, ["--game", "ef", "--mode", "iso"])
    assert_rejected(files, capsys, text.replace("k 2\n", ""))


def test_verify_names_a_missing_game_header(files, capsys):
    text = (GOLDEN / "equiv-ef-backforth-k2-edge-twopts.cert").read_text()
    cert = files["dir"] / "nogame.cert"
    cert.write_text(text.replace("game ef\n", "", 1))
    code, out = run(["verify", "--certificate", str(cert), files["edge"], files["twopts"]])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: missing `game <name>` header\n"


@pytest.mark.parametrize("mode,claim", [("exists", "claim false\n"), ("exists", ""),
                                        ("both", "claim maybe\n")],
                         ids=["table-claiming-false", "table-without-claim",
                              "both-pair-claiming-neither"])
def test_verify_rejects_a_claim_the_kind_does_not_make(files, capsys, mode, claim):
    text = emitted(files, ["--game", "ef", "--mode", mode])
    assert_rejected(files, capsys, text.replace("claim true\n", claim))


def test_verify_rejects_spoiler_tree_claiming_true(files, capsys):
    cert = files["dir"] / "spoiler.cert"
    code, _ = run(["equiv", "--game", "ef", "--mode", "exists", "-k", "2", "--certificate",
                   str(cert), files["edge"], files["twopts"]])
    assert code == 1
    assert_rejected(files, capsys, cert.read_text().replace("claim false\n", "claim true\n"))


def test_verify_rejects_forest_cover_with_a_claim(files, capsys):
    cert = files["dir"] / "cover.cert"
    code, _ = run(["param", "--comonad", "ef", "--certificate", str(cert), files["edge"]])
    assert code == 0
    assert_rejected(files, capsys, cert.read_text() + "claim true\n")


LOOP = "vocab R 2\nelem a\nrel R a a\n"
POINT = "vocab R 2\nelem x\n"
LOOP_P = "vocab R 2\nvocab P 1\nelem a\nrel R a a\nrel P a\nstart a\n"
LOOP_NOT_P = "vocab R 2\nvocab P 1\nelem x\nrel R x x\nstart x\n"


# kind, game, k, nodes, source, target, rows of node i (nxt: the next node or None), report
DEEP_CHAINS = [
    ("ef-spoiler", "ef", 5000, 3000, EDGE, TWOPTS,
     lambda i, nxt: [f"node {i} A [a]", f"branch {i} [x] {nxt or 'lose'}",
                     f"branch {i} [y] lose"],
     "result: false\ndetail: position after round 3000 does not lose"),
    ("modal-spoiler", "modal", 5000, 3000, LOOP_P, LOOP_NOT_P,
     lambda i, nxt: [f"node {i} A [R,a]", f"branch {i} [R,x] {nxt or 'lose'}"],
     "result: true\ndetail: ok"),
    # Spoiler moves on A and on B by turns
    ("bf-spoiler", "ef", 1201, 1201, LOOP, POINT,
     lambda i, nxt: [f"node {i} {'AB'[i % 2]} [{'ax'[i % 2]}]",
                     f"branch {i} [{'xa'[i % 2]}] {nxt or 'lose'}"],
     "result: true\ndetail: ok"),
    ("pebble-refutation", "pebble", 1, 3001, EDGE, TWOPTS,
     lambda i, nxt: ([f"node {i} - place a", f"branch {i} x {nxt or 'lose'}",
                      f"branch {i} y lose"] if i % 2 == 0
                     else [f"node {i} (a↦x) drop a", f"child {i} {nxt}"]),
     "result: false\ndetail: reply 'x' claimed losing but map is a partial hom"),
    ("pebble-bf-spoiler", "pebble", 1, 3000, EDGE, TWOPTS,
     lambda i, nxt: [f"node {i} {'(a↦x)' if i else '-'} place A a",
                     f"branch {i} x {nxt or 'lose'}", f"branch {i} y lose"],
     "result: false\ndetail: reply 'x' claimed losing but map is a partial iso"),
]


@pytest.mark.parametrize("kind,game,k,n,source,target,rows,report", DEEP_CHAINS,
                         ids=[chain[0] for chain in DEEP_CHAINS])
def test_verify_a_deep_spoiler_tree(tmp_path, kind, game, k, n, source, target, rows, report):
    """A chain of thousands of Spoiler moves is read and audited down to its
    last node without recursion."""
    lines = [f"certificate {kind}", f"game {game}", f"k {k}", "claim false"]
    for i in range(n):
        lines += rows(i, i + 1 if i + 1 < n else None)
    cert = tmp_path / "deep.cert"
    cert.write_text("\n".join(lines) + "\n")
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    code, out = run(["verify", "--certificate", str(cert), str(tmp_path / "a.str"),
                     str(tmp_path / "b.str")])
    assert out.endswith(report + "\n")
    assert code == (0 if "result: true" in report else 1)


EDGE_TWOPTS_K2_TREE = ("node 0 A [a]\nbranch 0 [x] 1\nbranch 0 [y] 2\n"
                       "node 1 A [b]\nbranch 1 [x] lose\nbranch 1 [y] lose\n"
                       "node 2 A [b]\nbranch 2 [x] lose\nbranch 2 [y] lose\n")


# kind, k, source, target, tree rows, the audit's reason
ILLEGAL_ROUND_TREES = [
    ("ef-spoiler", 2, EDGE, TWOPTS, EDGE_TWOPTS_K2_TREE, "ok"),
    ("ef-spoiler", 1, EDGE, TWOPTS, EDGE_TWOPTS_K2_TREE, "move in round 2, after the last round 1"),
    ("ef-spoiler", 1, POINT, "vocab R 2\nelem p\nelem q\nrel R q q\n",
     "node 0 B [q]\nbranch 0 [x] lose\n", "move on side B in round 1"),
    ("ef-spoiler", 2, EDGE, TWOPTS, "node 0 A [z]\nbranch 0 [x] lose\nbranch 0 [y] lose\n",
     "illegal move in round 1"),
    ("bf-spoiler", 2, EDGE, TWOPTS, "node 0 A [a]\nbranch 0 [x] lose\n",
     "replies in round 1 are not Duplicator's"),
    ("ef-spoiler", 2, EDGE, TWOPTS, "node 0 stall\n", "position after round 0 does not lose"),
]


@pytest.mark.parametrize("kind,k,source,target,tree,reason", ILLEGAL_ROUND_TREES,
                         ids=["legal", "past-the-last-round", "side-B-in-the-existential-game",
                              "illegal-move", "missing-reply", "stall-at-a-root-that-holds"])
def test_verify_replays_a_round_tree_move_by_move(tmp_path, kind, k, source, target, tree,
                                                  reason):
    (tmp_path / "t.cert").write_text(f"certificate {kind}\ngame ef\nk {k}\nclaim false\n"
                                     + tree)
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    code, out = run(["verify", "--certificate", str(tmp_path / "t.cert"),
                     str(tmp_path / "a.str"), str(tmp_path / "b.str")])
    assert out.endswith(f"\ndetail: {reason}\n")
    assert code == (0 if reason == "ok" else 1)


def _shared_child_chain(n):
    """An `ef-spoiler` chain whose two branches at each node both name the next node."""
    lines = ["certificate ef-spoiler", "game ef", "k 5000", "claim false"]
    for i in range(n):
        nxt = i + 1 if i + 1 < n else "lose"
        lines += [f"node {i} A [a]", f"branch {i} [x] {nxt}", f"branch {i} [y] {nxt}"]
    return "\n".join(lines) + "\n"


def _duplicated_branch():
    """A golden `ef-spoiler` tree with one branch row to a node written twice."""
    golden = Path(__file__).with_name("golden") / "equiv-ef-exists-k3-edge-twopts.cert"
    rows = golden.read_text().splitlines()
    i = next(i for i, row in enumerate(rows) if row.startswith("branch") and row[-1].isdigit())
    return "\n".join(rows[:i + 1] + rows[i:]) + "\n"


@pytest.mark.parametrize("text,source", [(_shared_child_chain(40), LOOP),
                                         (_duplicated_branch(), EDGE)],
                         ids=["shared-child-chain", "duplicated-branch"])
def test_verify_rejects_a_node_claimed_by_two_branches(tmp_path, text, source):
    """A Spoiler tree is a tree: a node named as the child of two branches
    would make the audit walk every path of a DAG (2^40 here), so it is a
    malformed certificate, refused at once."""
    (tmp_path / "dag.cert").write_text(text)
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(TWOPTS)
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "verify", "--certificate",
                           str(tmp_path / "dag.cert"), str(tmp_path / "a.str"),
                           str(tmp_path / "b.str")],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr[-3000:]
    assert "is the child of more than one branch" in proc.stderr


def test_runs_without_numpy(files):
    """The package needs nothing outside the standard library."""
    argvs = [["oracle", "treedepth", files["k3"]],
             ["param", "--comonad", "ef", files["k3"]],
             ["param", "--comonad", "pebble", files["k3"]]]
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from gamecomonads.cli import main\n"
              f"sys.exit(max(main(argv) for argv in {argvs!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


def child_env(**extra):
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_verify_names_the_same_fault_under_every_hash_seed(files):
    """A pebble family is audited in a fixed order, not in set order, so the
    first fault `verify` names does not depend on the hash seed."""
    golden = Path(__file__).with_name("golden") / "equiv-pebble-both-k2-k3-edge.cert"
    cert = files["dir"] / "family.cert"
    cert.write_text(golden.read_text().replace("bwd part (b↦v)\n", "bwd part (b↦u)\n"))
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "verify",
                               "--certificate", str(cert), files["k3"], files["edge"]],
                              env=child_env(PYTHONHASHSEED=seed), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr[-3000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "detail: backward: family not closed under restriction" in outs[0]


def write_path(tmp_path, n, extra):
    """A directed path v0 -> ... -> v(n-1) written to a structure file."""
    lines = ["vocab R 2"] + [f"elem v{i}" for i in range(n)]
    lines += [f"rel R v{i} v{i + 1}" for i in range(n - 1)] + extra
    path = tmp_path / "path.str"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_param_modal_on_a_deep_path(tmp_path):
    code, out = run(["param", "--comonad", "modal", write_path(tmp_path, 1100, ["start v0"])])
    assert code == 0
    assert "kappa: 1099" in out


def test_hom_on_a_long_path(tmp_path):
    loop = tmp_path / "loop.str"
    loop.write_text("vocab R 2\nelem a\nrel R a a\n")
    code, out = run(["hom", write_path(tmp_path, 1500, []), str(loop)])
    assert code == 0
    assert "result: true" in out


def test_equiv_iso_on_large_edgeless_structures(tmp_path):
    """The bijective game runs without recursion over 1,640 plays a side."""
    edgeless = tmp_path / "edgeless.str"
    edgeless.write_text("vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(40)))
    code, out = run(["equiv", "--game", "ef", "--mode", "iso", "-k", "2", str(edgeless),
                     str(edgeless)])
    assert code == 0
    assert "result: true" in out


def graph_text(names, edges):
    return ("vocab R 2\n" + "".join(f"elem {v}\n" for v in names)
            + "".join(f"rel R {u} {v}\nrel R {v} {u}\n" for u, v in edges))


P4 = graph_text("wxyz", ["wx", "xy", "yz"])
P4_SHUFFLED = graph_text("ywzx", ["yz", "xy", "wx"])  # the same path, declared in another order
TWO_TRIANGLES = graph_text("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"])
C6 = graph_text("uvwxyz", ["uv", "vw", "wx", "xy", "yz", "zu"])
K5 = graph_text("abcde", ["ab", "ac", "ad", "ae", "bc", "bd", "be", "cd", "ce", "de"])


def equiv_iso(tmp_path, k, source, target, *extra):
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    files = [str(tmp_path / "a.str"), str(tmp_path / "b.str")]
    cert = str(tmp_path / "iso.cert")
    code, out = run(["equiv", "--game", "ef", "--mode", "iso", "-k", str(k),
                     "--certificate", cert, *extra] + files)
    return code, out, ["verify", "--certificate", cert] + files


def test_equiv_iso_on_a_relabelled_path(tmp_path):
    """P4 against itself declared in another order is a coKleisli isomorphism
    at three rounds, and its certificate verifies."""
    code, out, verify = equiv_iso(tmp_path, 3, P4, P4_SHUFFLED)
    assert code == 0 and "\nresult: true\n" in out
    code, out = run(verify)
    assert code == 0 and "\nresult: true\n" in out, out


@pytest.mark.parametrize("k,code", [(2, 0), (3, 1)])
def test_equiv_iso_tells_two_triangles_from_the_hexagon_at_three_rounds(tmp_path, k, code):
    """Two triangles and the 6-cycle are both 2-regular on six vertices;
    only with three rounds can Spoiler ask for a vertex whose neighbours are
    adjacent."""
    assert equiv_iso(tmp_path, k, TWO_TRIANGLES, C6)[0] == code


def test_equiv_iso_over_the_play_cap_exits_3(tmp_path, capsys):
    """K5 has 155 plays of at most 3 rounds: `--cap-plays 10` refuses the game
    before it is solved."""
    code, out, _ = equiv_iso(tmp_path, 3, K5, K5, "--cap-plays", "10")
    assert code == 3 and "result:" not in out
    assert "play universe has 155 elements, cap is 10" in capsys.readouterr().err


# game, k, source, target, the larger side's plays, the error one below it, the verdict
ISO_CAPS = [
    # the edge has 2 + 4 plays up to two rounds, K3 3 + 9
    ("ef", 2, EDGE, EDGE, 6, "play universe has 6 elements, cap is 5", "true"),
    ("ef", 2, EDGE, K3, 12, "play universe has 12 elements, cap is 11", "false"),
    ("ef", 2, K3, EDGE, 12, "play universe has 12 elements, cap is 11", "false"),
    # the 2-cycle has 1 + 1 + 1 + 1 paths up to three steps, the chain a-b-c three
    ("modal", 3, CYCLE_PTD, CYCLE_PTD, 4, "unravelling exceeds 3 paths", "true"),
    ("modal", 3, CHAIN_PTD, CYCLE_PTD, 4, "unravelling exceeds 3 paths", "false"),
    ("modal", 3, CYCLE_PTD, CHAIN_PTD, 4, "unravelling exceeds 3 paths", "false"),
]


@pytest.mark.parametrize("game,k,source,target,fits,error,verdict", ISO_CAPS,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(ISO_CAPS)])
def test_iso_counts_the_plays_of_each_side_against_the_cap(tmp_path, capsys, game, k, source,
                                                             target, fits, error, verdict):
    """`--mode iso` is decided with the larger side's plays at the cap, the
    source's or the target's, and refused with exit 3 one below it."""
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    argv = ["equiv", "--game", game, "--mode", "iso", "-k", str(k),
            str(tmp_path / "a.str"), str(tmp_path / "b.str")]
    code, out = run(argv + ["--cap-plays", str(fits)])
    assert (code, f"\nresult: {verdict}\n" in out) == (0 if verdict == "true" else 1, True)
    capsys.readouterr()
    code, out = run(argv + ["--cap-plays", str(fits - 1)])
    assert (code, out) == (3, "")
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exists", "both", "backforth", "iso"])
@pytest.mark.parametrize("target", ["edge", "twopts"])
def test_equiv_builds_a_certificate_only_when_asked(files, monkeypatch, mode, target):
    """With every certificate emitter raising, `equiv` without
    `--certificate` still gives the same exit code and report; with it, the
    emitters are reached whenever the verdict has a witness."""
    argv = ["equiv", "--game", "ef", "--mode", mode, "-k", "2", files["edge"], files[target]]
    want = run(argv)

    def refuse(*args, **kwargs):
        raise RuntimeError("a certificate was built")

    for name in ("cert_result", "cert_both", "format_certificate"):
        monkeypatch.setattr(cli.cert_mod, name, refuse)
    assert run(argv) == want
    asked = argv + ["--certificate", str(files["dir"] / "out.cert")]
    if mode == "iso" and target == "twopts":
        code, out = run(asked)
        assert code == 1 and out.endswith("certificate: none (no witness for this verdict)\n")
    else:
        with pytest.raises(RuntimeError, match="a certificate was built"):
            run(asked)


def test_sample_modal_on_the_default_vocabulary():
    for seed in range(10):
        for k in (1, 2, 3):
            code, out = run(["sample", "--fragment", "modal", "-k", str(k), "--count", "3",
                             "--seed", str(seed)])
            assert code == 0, (seed, k)
            formulas = out.split("# sampler:")[1].splitlines()[1:]
            assert len(formulas) == 3
            assert all(len(line) < 1000 for line in formulas), (seed, k)


LOOP_PTD = "vocab R 2\nelem a\nrel R a a\nstart a\n"

# game, mode, k, source, target, verdict
DEEP_GAMES = [
    ("ef", "exists", 200, LOOP, LOOP, "true"),
    # verify checks the ef-table one lifted tuple at a time, so a deep table is cheap
    ("ef", "exists", 1500, LOOP, LOOP, "true"),
    ("ef", "backforth", 500, LOOP, LOOP, "true"),
    ("ef", "iso", 1000, LOOP, LOOP, "true"),
    ("modal", "exists", 1500, LOOP_PTD, LOOP_PTD, "true"),
    ("modal", "backforth", 1500, LOOP_PTD, LOOP_PTD, "true"),
    # Spoiler repeats the first move until the last round: a tree 1,000 rounds deep
    ("ef", "exists", 1000, EDGE, TWOPTS, "false"),
]


@pytest.mark.parametrize("game,mode,k,source,target,verdict", DEEP_GAMES,
                         ids=[f"{g}-{m}-k{k}" for g, m, k, *_ in DEEP_GAMES])
def test_equiv_with_many_rounds(tmp_path, game, mode, k, source, target, verdict):
    """The round-bounded solvers and their Spoiler-tree builders run without
    recursion, so a game of more rounds than the interpreter's recursion limit
    ends in a verdict whose certificate verifies."""
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    files = [str(tmp_path / "a.str"), str(tmp_path / "b.str")]
    cert = str(tmp_path / "deep.cert")
    code, out = run(["equiv", "--game", game, "--mode", mode, "-k", str(k),
                     "--certificate", cert] + files)
    assert f"\nresult: {verdict}\n" in out
    assert code == (0 if verdict == "true" else 1)
    code, out = run(["verify", "--certificate", cert] + files)
    assert code == 0 and "\nresult: true\n" in out, out


ARROW_AB = "vocab R 2\nelem a\nelem b\nrel R a b\nstart a\n"
ARROW_CD = "vocab R 2\nelem c\nelem d\nrel R c d\nstart c\n"


def test_verify_reports_a_table_value_outside_the_target(tmp_path):
    """A certificate whose table sends a play or element to no element of the
    target is a false verdict, whatever kind carries the table."""
    (tmp_path / "a.str").write_text(ARROW_AB)
    (tmp_path / "b.str").write_text(ARROW_CD)
    files = [str(tmp_path / "a.str"), str(tmp_path / "b.str")]
    cert = tmp_path / "edited.cert"
    for kind, argv in [
            ("hom-witness", ["hom"]),
            ("ef-table", ["equiv", "--game", "ef", "--mode", "exists", "-k", "1"]),
            ("modal-table", ["equiv", "--game", "modal", "--mode", "exists", "-k", "1"]),
            ("both-pair", ["equiv", "--game", "ef", "--mode", "both", "-k", "1"]),
            ("kleisli-iso", ["equiv", "--game", "ef", "--mode", "iso", "-k", "1"])]:
        code, _ = run(argv + ["--certificate", str(cert)] + files)
        assert code == 0
        text = cert.read_text()
        assert f"certificate {kind}\n" in text and "-> c\n" in text
        cert.write_text(text.replace("-> c\n", "-> zz\n", 1))
        code, out = run(["verify", "--certificate", str(cert)] + files)
        assert code == 1, kind
        assert "\nresult: false\n" in out, kind
        assert "mapping value 'zz' outside target universe\n" in out, kind


# Rows written into a golden certificate just after its header: each repeats
# the key of a row of the file, names no element of the structure, or gives a
# table entry for no play up to k.  The audit would read another witness than
# the one written (the later of two rows would win), so each is malformed.
STRAY_ROWS = [
    ("hom-stray", "hom-edge-k3", "map zz -> u"), ("hom-repeated", "hom-edge-k3", "map a -> w"),
    ("cover-stray", "param-ef-k3", "parent zz u"), ("cover-repeated", "param-ef-k3", "parent v w"),
    ("pebbled-stray-pebble", "param-pebble-k3", "pebble zz 1"),
    ("pebbled-stray-parent", "param-pebble-k3", "parent zz u"),
    ("pebbled-repeated-pebble", "param-pebble-k3", "pebble u 1"),
    ("pebbled-repeated-parent", "param-pebble-k3", "parent v u"),
    ("pebbled-repeated-bag", "param-pebble-k3", "bag b2 u"),
    ("pebbled-repeated-edge", "param-pebble-k3", "edge b2 b0"),
    ("modal-cover-stray", "param-modal-chain", "map zz -> [a]"),
    ("modal-cover-repeated", "param-modal-chain", "map b -> [a,R,b]"),
    ("ef-table-past-k", "equiv-ef-exists-k2-edge-edge", "map [a,a,a] -> a"),
    ("ef-table-stray", "equiv-ef-exists-k2-edge-edge", "map [zz] -> a"),
    ("ef-table-root", "equiv-ef-exists-k2-edge-edge", "map [] -> a"),
    ("ef-table-repeated", "equiv-ef-exists-k2-edge-edge", "map [a,b] -> a"),
    ("modal-table-no-path", "equiv-modal-exists-k2-chain-cycle", "map [a,R,c] -> x"),
    ("modal-table-off-point", "equiv-modal-exists-k2-chain-cycle", "map [b] -> x"),
    ("iso-repeated", "equiv-ef-iso-k2-edge-edge", "fwd [b] -> a"),
    ("iso-stray", "equiv-ef-iso-k2-edge-edge", "bwd [zz] -> a"),
    ("both-past-k", "equiv-ef-both-k2-edge-edge", "fwd map [a,a,a] -> a"),
    ("both-repeated", "equiv-ef-both-k2-edge-edge", "bwd map [b] -> b"),
    ("spoiler-repeated-node", "equiv-ef-exists-k3-edge-twopts", "node 0 B [zz]"),
    ("pebble-repeated-child", "equiv-pebble-exists-k3-c5-edge", "child 3 4"),
]


def _verify_edited_golden(tmp_path, name: str, text: str):
    """`verify` of `text` against the structures of the golden job `name`."""
    (tmp_path / "edited.cert").write_text(text)
    structures = next(s for job, _, _, s in golden_jobs() if job == name)
    for s in structures:
        (tmp_path / f"{s}.str").write_text(GOLDEN_INPUTS[s])
    return run(["verify", "--certificate", str(tmp_path / "edited.cert"),
                *(str(tmp_path / f"{s}.str") for s in structures)])


@pytest.mark.parametrize("name,row", [case[1:] for case in STRAY_ROWS],
                         ids=[case[0] for case in STRAY_ROWS])
def test_verify_refuses_a_repeated_or_stray_row(tmp_path, capsys, name, row):
    rows = (GOLDEN / f"{name}.cert").read_text().splitlines()
    head = next(i for i, r in enumerate(rows) if r.split()[0] not in
                ("certificate", "game", "k", "claim", "kappa"))
    code, out = _verify_edited_golden(tmp_path, name,
                                      "\n".join(rows[:head] + [row] + rows[head:]) + "\n")
    err = capsys.readouterr().err
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name,row,detail", [
    ("hom-edge-k3", "map b -> v", "mapping not total: 'b' unassigned"),
    ("equiv-ef-exists-k2-edge-edge", "map [b,a] -> b", "mapping not total: ('b', 'a') unassigned"),
    ("equiv-modal-exists-k2-chain-cycle", "map [a] -> x", "mapping not total: ('a',) unassigned"),
], ids=["hom-witness", "ef-table", "modal-table"])
def test_verify_finds_a_missing_row_false(tmp_path, name, row, detail):
    """A table without the entry of one element or play is no morphism: a
    false verdict, not a malformed certificate."""
    text = (GOLDEN / f"{name}.cert").read_text()
    assert f"{row}\n" in text
    code, out = _verify_edited_golden(tmp_path, name, text.replace(f"{row}\n", ""))
    assert code == 1
    assert out.endswith(f"result: false\ndetail: {detail}\n")


@pytest.mark.parametrize("name,row,edited,detail", [
    ("param-ef-k3", "parent v u", "parent v w", "parent map has a cycle"),
    ("param-ef-k3", "parent v u", "parent v zz", "parent 'zz' outside the vertex set"),
    ("param-pebble-k3", "kappa 3", "kappa 4", "pebbles used 3 != claimed 4"),
    ("param-pebble-k3", "bag b2 w", "bag b2 u", "attached tree decomposition is invalid"),
    ("param-pebble-p4", "bag b1 x y", "bag b1 w x y", "decomposition width 2 exceeds 1"),
], ids=["cover-cycle", "cover-parent-outside", "pebbles-under-claim", "decomposition-invalid",
        "decomposition-too-wide"])
def test_verify_refuses_a_tampered_cover(tmp_path, name, row, edited, detail):
    """A cover whose parent map is no forest, or a pebbled cover whose
    pebbles or attached decomposition miss the claimed kappa, is a false
    verdict."""
    text = (GOLDEN / f"{name}.cert").read_text()
    assert f"\n{row}\n" in text
    code, out = _verify_edited_golden(tmp_path, name, text.replace(f"\n{row}\n", f"\n{edited}\n"))
    assert code == 1
    assert out.endswith(f"result: false\ndetail: {detail}\n")


def test_equiv_refuses_a_table_over_the_play_cap(files):
    """K3 to K3 is won, but its 13-round table would have 2,391,483 plays: the
    command stops at the play cap before it builds any of it."""
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "equiv", "--game", "ef",
                           "--mode", "exists", "-k", "13", files["k3"], files["k3"]],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr[-3000:]
    assert "play universe has 2391483 elements, cap is 1000000" in proc.stderr


LOOPED_PAIR = ("vocab R 2\nelem a\nelem b\nrel R a a\nrel R a b\nrel R b a\nrel R b b\n"
               "start a\n")


@pytest.mark.parametrize("game,source", [("ef", ARROW_AB), ("modal", LOOPED_PAIR)],
                         ids=["ef-table", "modal-table"])
def test_verify_of_a_table_over_the_play_cap_exits_3(tmp_path, capsys, game, source):
    """A table whose `k` header puts the play universe over the play cap is a
    resource limit, as for `kleisli-iso`: exit 3, not a false verdict.  At
    k = 25 two elements have 67,108,862 sequence plays; the modal plays of
    a→b end after one step, so the modal table is over the two-element
    digraph with every edge and loop (2^26 - 1 modal plays)."""
    (tmp_path / "a.str").write_text(source)
    files = [str(tmp_path / "a.str")] * 2
    cert = tmp_path / "table.cert"
    code, _ = run(["equiv", "--game", game, "--mode", "exists", "-k", "1",
                   "--certificate", str(cert)] + files)
    assert code == 0
    cert.write_text(re.sub(r"^k 1$", "k 25", cert.read_text(), flags=re.M))
    code, out = run(["verify", "--certificate", str(cert)] + files)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mode,kind", [("exists", "ef-table"), ("iso", "kleisli-iso"),
                                       ("both", "both-pair")])
def test_verify_enforces_the_play_cap(tmp_path, capsys, mode, kind):
    """The two-element digraph with every edge and loop has 2 + 4 = 6
    sequence plays of at most two rounds: `verify` of its table, its
    isomorphism and the tables inside its true both-pair exits 3 under
    `--cap-plays 3` and verifies at 6."""
    (tmp_path / "a.str").write_text(LOOPED_PAIR)
    files = [str(tmp_path / "a.str")] * 2
    cert = str(tmp_path / "game.cert")
    code, out = run(["equiv", "--game", "ef", "--mode", mode, "-k", "2",
                     "--certificate", cert] + files)
    assert code == 0 and f"certificate {kind}\n" in Path(cert).read_text()
    verify = ["verify", "--certificate", cert] + files
    code, out = run(verify + ["--cap-plays", "3"])
    assert (code, out) == (3, "")
    assert "play universe has 6 elements, cap is 3" in capsys.readouterr().err
    code, out = run(verify + ["--cap-plays", "6"])
    assert code == 0 and "\ncap.plays: 6\n" in out and "\nresult: true\n" in out


# edits of the `pebble-safe` family of K3 against K3 with two pebbles: rows
# dropped, rows added, and the fault `verify` names first
SAFE_EDITS = [
    (["part (u↦u)"], [], "family not closed under restriction at [('u', 'u'), ('v', 'v')]"),
    (["part (u↦u) (v↦v)", "part (u↦u) (w↦v)"], [], "back fails at [('u', 'u')] on 'v'"),
    ([], ["part (u↦u) (v↦v) (w↦w)"],
     "part [('u', 'u'), ('v', 'v'), ('w', 'w')] exceeds 2 pairs"),
    ([], ["part (u↦u) (v↦u)"], "part [('u', 'u'), ('v', 'u')] is not a partial iso"),
]


@pytest.mark.parametrize("drop,add,detail", SAFE_EDITS,
                         ids=["missing-restriction", "removed-back-reply", "part-over-k",
                              "not-injective"])
def test_verify_rejects_a_tampered_pebble_safe_family(files, drop, add, detail):
    cert = files["dir"] / "safe.cert"
    code, _ = run(["equiv", "--game", "pebble", "--mode", "backforth", "-k", "2",
                   "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 0
    rows = cert.read_text().splitlines()
    assert set(drop) <= set(rows)
    cert.write_text("\n".join([row for row in rows if row not in drop] + add) + "\n")
    code, out = run(["verify", "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 1 and out.endswith(f"result: false\ndetail: {detail}\n")


def test_verify_refuses_a_placement_row_in_a_pebble_safe_family(files, capsys):
    cert = files["dir"] / "safe.cert"
    code, _ = run(["equiv", "--game", "pebble", "--mode", "backforth", "-k", "2",
                   "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 0
    cert.write_text(cert.read_text() + "pos (1:u↦u)\n")
    code, out = run(["verify", "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 2 and "result:" not in out
    assert capsys.readouterr().err.startswith("error:")


# edits of the `bf-duplicator` won positions of K3 against K3 in three
# rounds: rows dropped, rows added, and the fault `verify` names first
WON_EDITS = [
    (["win [] []"], [], "the initial position is not claimed"),
    (["win [u,v] [u,v]"], ["win [u,v] [u,u]"],
     "position ('u', 'v')/('u', 'u'): outside the winning set"),
    ([], ["win [u,v,w] [u,v,w]"],
     "position ('u', 'v', 'w')/('u', 'v', 'w'): plays of rounds 3 and 3, not of one round below 3"),
    (["win [v,v] [u,u]"], [], "no claimed reply to A move ('v', 'v') at ('v',)/('u',)"),
]


@pytest.mark.parametrize("drop,add,detail", WON_EDITS,
                         ids=["root-removed", "not-winning", "at-round-k", "reply-removed"])
def test_verify_rejects_tampered_won_positions(files, drop, add, detail):
    cert = files["dir"] / "won.cert"
    code, _ = run(["equiv", "--game", "ef", "--mode", "backforth", "-k", "3",
                   "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 0
    rows = cert.read_text().splitlines()
    assert set(drop) <= set(rows)
    cert.write_text("\n".join([row for row in rows if row not in drop] + add) + "\n")
    code, out = run(["verify", "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 1 and out.endswith(f"result: false\ndetail: {detail}\n")


def test_verify_refuses_a_reply_row_in_won_positions(files, capsys):
    cert = files["dir"] / "won.cert"
    code, _ = run(["equiv", "--game", "ef", "--mode", "backforth", "-k", "2",
                   "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 0
    cert.write_text(cert.read_text() + "respond [] [] A [u] -> [u]\n")
    code, out = run(["verify", "--certificate", str(cert), files["k3"], files["k3"]])
    assert code == 2 and "result:" not in out
    assert capsys.readouterr().err.startswith("error:")


def test_won_positions_grow_by_one_row_a_round(tmp_path):
    """A pointed self-loop against itself has one position per round, so its
    200-round back-and-forth game is won by exactly 200 `win` rows."""
    (tmp_path / "loop.str").write_text(LOOP_PTD)
    loop, cert = str(tmp_path / "loop.str"), tmp_path / "loop.cert"
    code, _ = run(["equiv", "--game", "modal", "--mode", "backforth", "-k", "200",
                   "--certificate", str(cert), loop, loop])
    assert code == 0
    assert sum(row.startswith("win ") for row in cert.read_text().splitlines()) == 200


@pytest.mark.parametrize("mode,fits", [("backforth", 37), ("exists", 37), ("both", 37)])
def test_pebble_cap_counts_candidate_positions(files, mode, fits):
    """K3 against K3 with two pebbles: 1 + 3·3 + 3·9 = 37 candidate partial
    maps, in the back-and-forth game and each way in the existential one."""
    argv = ["equiv", "--game", "pebble", "--mode", mode, "-k", "2", files["k3"], files["k3"]]
    code, out = run(argv + ["--cap-plays", str(fits)])
    assert code == 0 and "\nresult: true\n" in out
    code, _ = run(argv + ["--cap-plays", str(fits - 1)])
    assert code == 3


def test_backforth_cap_counts_the_plays_of_each_side(tmp_path):
    """C4 against C4 in three rounds is won, and its strategy answers the
    4 + 16 + 64 = 84 plays of each side."""
    (tmp_path / "c4.str").write_text("vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(4))
                                     + "".join(f"rel R v{i} v{(i + 1) % 4}\n"
                                               f"rel R v{(i + 1) % 4} v{i}\n" for i in range(4)))
    c4 = str(tmp_path / "c4.str")
    argv = ["equiv", "--game", "ef", "--mode", "backforth", "-k", "3", c4, c4]
    code, out = run(argv + ["--cap-plays", "84"])
    assert code == 0 and "\nresult: true\n" in out
    code, _ = run(argv + ["--cap-plays", "83"])
    assert code == 3


@pytest.mark.parametrize("mode", ["exists", "both"])
def test_exists_refuses_a_table_over_the_play_cap(tmp_path, capsys, mode):
    """K5 maps to K5 in three rounds by a table on 5 + 25 + 125 = 155 plays:
    under `--cap-plays 10` the command exits 3 and writes no certificate."""
    (tmp_path / "k5.str").write_text(K5)
    k5, cert = str(tmp_path / "k5.str"), tmp_path / "table.cert"
    code, out = run(["equiv", "--game", "ef", "--mode", mode, "-k", "3", "--cap-plays", "10",
                     "--certificate", str(cert), k5, k5])
    assert (code, out) == (3, "") and not cert.exists()
    assert "play universe has 155 elements, cap is 10" in capsys.readouterr().err


K4 = graph_text("abcd", ["ab", "ac", "ad", "bc", "bd", "cd"])

# game, k, source, target, the largest keys (tuples) of one side, the error
REFINEMENT_CAPS = [
    # K4 has 1 + Σ_{j ≥ 1} 4!/(4-j)!·(5-j) = 1 + 16 + 36 + 48 + 24 keys up to round 4
    ("ef", 4, K3, K4, 125, "colour refinement exceeds 124 keys"),
    # the cycle's last step and its rounds 0-3, one key each
    ("modal", 3, CHAIN_PTD, CYCLE_PTD, 4, "colour refinement exceeds 3 keys"),
    # five pebbles on five elements: 5^5 tuples
    ("pebble", 5, "vocab R 2\nelem a\n", graph_text("abcde", []), 3125,
     "pebble refinement has 3125 tuples on one side, cap is 3124"),
]


@pytest.mark.parametrize("game,k,source,target,fits,error", REFINEMENT_CAPS,
                         ids=[case[0] for case in REFINEMENT_CAPS])
def test_refinement_counts_its_keys_against_the_play_cap(tmp_path, capsys, game, k, source,
                                                          target, fits, error):
    """Each lost back-and-forth game is decided with its keys at the cap, and
    refused with exit 3 one below it, before any is coloured."""
    (tmp_path / "a.str").write_text(source)
    (tmp_path / "b.str").write_text(target)
    argv = ["equiv", "--game", game, "--mode", "backforth", "-k", str(k),
            str(tmp_path / "a.str"), str(tmp_path / "b.str")]
    code, out = run(argv + ["--cap-plays", str(fits)])
    assert code == 1 and "\nresult: false\n" in out
    capsys.readouterr()
    code, out = run(argv + ["--cap-plays", str(fits - 1)])
    assert (code, out) == (3, "")
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("formula", ["~" * 3000 + "T", " & ".join(["T"] * 3000)],
                         ids=["nested-negation", "flat-conjunction"])
def test_eval_of_a_formula_too_deep_is_a_resource_limit(files, formula):
    """The parser and evaluator recurse on the formula; past the interpreter's
    recursion limit the command exits 3 with a one-line error."""
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "eval", "-f", formula,
                           files["edge"]], env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["param", "--comonad", "ef"], ["oracle", "treedepth"]],
                         ids=["param-ef", "oracle-treedepth"])
def test_a_graph_too_deep_for_the_recursion_limit_is_a_resource_limit(tmp_path, argv):
    """The tree-depth recursion and the forest-table search go one level
    deeper per vertex of a path; on 1,100 vertices both pass the interpreter's
    recursion limit, and the command exits 3 with a one-line error."""
    n = 1100
    (tmp_path / "path.str").write_text(
        "vocab R 2\n" + "".join(f"elem p{i}\n" for i in range(n))
        + "".join(f"rel R p{i} p{i + 1}\n" for i in range(n - 1)))
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", *argv, "--cap-vertices",
                           "2000", str(tmp_path / "path.str")],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr[-3000:]
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_eval_of_a_formula_nested_100_deep(files):
    code, out = run(["eval", "-f", "(" * 100 + "E x . R(x,x) | T" + ")" * 100, files["edge"]])
    assert code == 0 and "\nresult: true\n" in out


def test_pebble_game_over_the_cap_stops_before_enumerating(tmp_path):
    """K7 against K7 with six pebbles has Σ_{s ≤ 6} C(7, s)·7^s = 1,273,609
    candidate partial maps; the command refuses at once instead of
    enumerating them."""
    k7 = "vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(7)) + "".join(
        f"rel R v{i} v{j}\n" for i in range(7) for j in range(7) if i != j)
    (tmp_path / "k7.str").write_text(k7)
    path = str(tmp_path / "k7.str")
    proc = subprocess.run([sys.executable, "-m", "gamecomonads.cli", "equiv", "--game", "pebble",
                           "--mode", "backforth", "-k", "6", path, path],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr[-3000:]
    assert "pebble game has 1273609 candidate positions, cap is 1000000" in proc.stderr


# Counts far past the cap, and past the digits the interpreter prints: each
# command refuses at once with exit 3 and one error line.
POINTS = "vocab R 2\n" + "".join(f"elem x{i}\n" for i in range(1500))
HUGE_COUNTS = [
    (["equiv", "--game", "ef", "--mode", "iso", "-k", "10000", "p3", "p3"],
     "play universe has {} elements"),
    (["equiv", "--game", "ef", "--mode", "backforth", "-k", "10000", "p3", "p3"],
     "play universe has {} elements"),
    (["laws", "--comonad", "ef", "-k", "1000000", "p3"], "play universe has {} elements"),
    (["laws", "--comonad", "pebble", "-k", "2", "--trunc", "6000", "p3"],
     "truncated universe has {} plays"),
    (["equiv", "--game", "pebble", "--mode", "exists", "--pebbles", "1500", "points", "points"],
     "pebble game has {} candidate positions"),
    (["equiv", "--game", "pebble", "--mode", "backforth", "--pebbles", "1500", "points",
      "points"], "pebble game has {} candidate positions"),
]


@pytest.mark.parametrize("argv,error", HUGE_COUNTS,
                         ids=["-".join(argv[:5:2] + argv[6:7]) for argv, _ in HUGE_COUNTS])
def test_a_count_too_long_to_print_is_refused_without_a_traceback(tmp_path, argv, error):
    (tmp_path / "p3").write_text(graph_text("uvw", ["uv", "vw"]))
    (tmp_path / "points").write_text(POINTS)
    code, out, err = run_contained([str(tmp_path / x) if x in ("p3", "points") else x
                                    for x in argv])
    assert_contract(code, out, err)
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert (code, err) == (3, f"error: {error.format(f'at least 10^{digits}')}, "
                              "cap is 1000000\n")


def _graph_text(n, edges):
    return "vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(n)) + "".join(
        f"rel R v{i} v{j}\nrel R v{j} v{i}\n" for i, j in edges)


def test_param_pebble_runs_to_the_raised_vertex_cap(tmp_path):
    """The 3 x 4 grid has tree-width 3: at `--cap-vertices 12` the pebble
    number is the tree-width oracle's + 1 and its certificate verifies; an
    8-vertex path is over the default cap of both commands."""
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    grid += [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)]
    (tmp_path / "grid.str").write_text(_graph_text(12, grid))
    (tmp_path / "p8.str").write_text(_graph_text(8, [(i, i + 1) for i in range(7)]))
    path, cert = str(tmp_path / "grid.str"), str(tmp_path / "grid.cert")
    code, out = run(["oracle", "treewidth", "--cap-vertices", "12", path])
    assert code == 0 and "\ntreewidth: 3\n" in out
    code, out = run(["param", "--comonad", "pebble", "--cap-vertices", "12",
                     "--certificate", cert, path])
    assert code == 0 and "\nkappa: 4\n" in out
    code, out = run(["verify", "--certificate", cert, path])
    assert code == 0 and "\nresult: true\n" in out, out
    for argv in (["param", "--comonad", "pebble"], ["oracle", "treewidth"]):
        code, _ = run(argv + [str(tmp_path / "p8.str")])
        assert code == 3


# ---------------------------------------------------------------------------
# Fuzzing the bytes the command line reads: the golden certificates with their
# bytes or lines mutated, and structure files that are mutated, random or
# assembled from random lines.  The examples are derandomized, so each run
# tries the same ones.

GOLDEN_CERTS = [(cert, structures) for _, _, cert, structures in golden_jobs()
                if cert is not None and (GOLDEN / cert).exists()]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in GOLDEN_INPUTS.items():
        (d / f"{name}.str").write_text(text, encoding="utf-8")
    return d


def write_new(path: Path, data: bytes) -> None:
    """Write `data` to a new file at `path`: ext4 flushes a file truncated
    over old contents when it is closed, which would cost each example
    tens of milliseconds."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


MUTATIONS = ("flip", "delete", "insert", "duplicate", "drop")


@st.composite
def mutants(draw, data: bytes) -> bytes:
    """`data` with one bit flipped, a run of bytes deleted, a run of its own
    bytes inserted, or a line duplicated or dropped, at a place drawn
    uniformly by a seeded `random.Random` (hypothesis's own integers favour
    the first bytes)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    how = rng.choice(MUTATIONS)
    if how in ("duplicate", "drop"):
        lines = data.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return b"".join(lines[:i] + lines[i:i + 1] * (how == "duplicate") + lines[i + 1:])
    i = rng.randrange(len(data))
    if how == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if how == "delete":
        return data[:i] + data[i + rng.randrange(1, 9):]
    return data[:i] + bytes(rng.choices(data, k=rng.randrange(1, 9))) + data[i:]


# lines of structure text, legal and not, from which random structures are drawn
STRUCTURE_LINES = ["vocab R 2", "vocab S 1", "vocab T 3", "vocab R 0", "elem a", "elem b",
                   "elem c", "rel R a b", "rel R b a", "rel R a a", "rel S a", "rel T a b c",
                   "rel R a", "rel R a z", "start a", "start z", "# note", "", "elem"]


def run_contained(argv) -> tuple[int, str, str]:
    """`cli.main` on argv, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, out: str, err: str) -> None:
    """Exit 0 or 1 with a report whose verdict is false iff the exit is 1;
    exit 2 or 3 with no report and a one-line error."""
    assert code in (0, 1, 2, 3), (code, out, err)
    if code in (0, 1):
        assert ("\nresult: false\n" in out) == (code == 1), (code, out)
    else:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, (code, err)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_of_mutated_golden_certificates(fuzz_dir, data):
    cert, structures = data.draw(st.sampled_from(GOLDEN_CERTS))
    path = fuzz_dir / "mutant.cert"
    write_new(path, data.draw(mutants((GOLDEN / cert).read_bytes())))
    assert_contract(*run_contained(["verify", "--certificate", str(path)]
                                   + [str(fuzz_dir / f"{s}.str") for s in structures]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_commands_on_random_structure_bytes(fuzz_dir, data):
    name = data.draw(st.sampled_from(sorted(GOLDEN_INPUTS)))
    text = GOLDEN_INPUTS[name].encode("utf-8")
    lines = st.lists(st.sampled_from(STRUCTURE_LINES), max_size=12)
    raw = data.draw(st.one_of(mutants(text), st.binary(max_size=64),
                              lines.map(lambda rows: "\n".join(rows).encode("utf-8"))))
    path = fuzz_dir / "random.str"
    write_new(path, raw)
    argv = data.draw(st.sampled_from([
        ["oracle", "treedepth", str(path)],
        ["equiv", "--game", "ef", "--mode", "backforth", "-k", "2", str(path), str(path)],
        ["equiv", "--game", "modal", "--mode", "exists", "-k", "2", str(path),
         str(fuzz_dir / f"{name}.str")],
        ["verify", "--certificate", str(GOLDEN / "hom-edge-k3.cert"), str(path),
         str(fuzz_dir / "k3.str")]]))
    assert_contract(*run_contained(argv))
