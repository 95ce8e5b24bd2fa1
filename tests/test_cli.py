import io
from contextlib import redirect_stdout

import pytest

from gamecomonads import cli
from gamecomonads.certificates import parse_certificate, verify_certificate
from gamecomonads.errors import CertificateError
from gamecomonads.structures import parse_structure

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


def test_param_and_verify_all_comonads(files):
    for comonad, a, kappa in [("ef", "k3", 3), ("pebble", "k3", 3), ("modal", "chain", 2)]:
        cert = files["dir"] / f"param-{comonad}.cert"
        code, out = run(["param", "--comonad", comonad, "--certificate", str(cert),
                         files[a]])
        assert code == 0
        assert f"kappa: {kappa}" in out
        code, out = run(["verify", "--certificate", str(cert), files[a]])
        assert code == 0, out


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


@pytest.mark.parametrize("text", [
    "certificate\n",
    "certificate ef-table\ngame ef\nk two\nclaim true\n",
    "certificate pebble-safe\ngame pebble\nk 2\nclaim true\npos\n",
    "certificate ef-spoiler\ngame ef\nk 2\nclaim false\nnode 0\n",
    "certificate both-pair\ngame pebble\nk 2\nclaim true\nfwd\n",
    ("certificate pebble-forest-cover\ngame pebble\nk 2\nkappa 2\nparent b a\npebble a 1\n"
     "pebble b 2\nbag b0 a\nbag b1 a b\nedge b0 zz\nedge zz b1\n"),
], ids=["bare-header", "k-not-integer", "pos-without-token", "node-without-move",
        "empty-inner-row", "edge-to-bagless-node"])
def test_malformed_certificate_is_usage_error(files, capsys, text):
    cert = files["dir"] / "bad.cert"
    cert.write_text(text)
    code, _ = run(["verify", "--certificate", str(cert), files["edge"], files["edge"]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_param_modal_on_a_deep_path(tmp_path):
    n = 1100
    lines = ["vocab R 2"] + [f"elem v{i}" for i in range(n)]
    lines += [f"rel R v{i} v{i + 1}" for i in range(n - 1)] + ["start v0"]
    path = tmp_path / "path.str"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(["param", "--comonad", "modal", str(path)])
    assert code == 0
    assert "kappa: 1099" in out
