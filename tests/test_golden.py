"""Golden corpus: CLI reports, certificate files and `verify` reports, byte for byte.

Every job runs `cli.main` in a fresh working directory with relative file
names, so the `input.a:` and `certificate:` report lines do not depend on where
the suite runs.  The jobs are the criterion-9 list, a few more `equiv` runs, and one
run of each other subcommand; together they emit every certificate kind that
`verify` accepts, every Spoiler-tree node form, and `both-pair` certificates
that hold, fail forward and fail backward.
After an intended change of output, rewrite the corpus with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from gamecomonads import cli

GOLDEN = Path(__file__).with_name("golden")

INPUTS = {
    "edge": "vocab R 2\nelem a\nelem b\nrel R a b\nrel R b a\n",
    "twopts": "vocab R 2\nelem x\nelem y\n",
    "k3": ("vocab R 2\nelem u\nelem v\nelem w\nrel R u v\nrel R v u\n"
           "rel R v w\nrel R w v\nrel R u w\nrel R w u\n"),
    "loop": "vocab R 2\nelem a\nrel R a a\n",
    "chain": "vocab R 2\nelem a\nelem b\nelem c\nrel R a b\nrel R b c\nstart a\n",
    "cycle": "vocab R 2\nelem x\nelem y\nrel R x y\nrel R y x\nstart x\n",
    "p4": ("vocab R 2\nelem w\nelem x\nelem y\nelem z\nrel R w x\nrel R x w\n"
           "rel R x y\nrel R y x\nrel R y z\nrel R z y\n"),
    "labelled": "vocab R 2\nvocab S 1\nelem a\nelem b\nrel R a b\nrel S b\nstart a\n",
    "marked": "vocab R 2\nvocab S 1\nelem p\nelem q\nrel R p q\nstart p\n",
    "c5": ("vocab R 2\nelem v0\nelem v1\nelem v2\nelem v3\nelem v4\n"
           + "".join(f"rel R v{i} v{(i + 1) % 5}\nrel R v{(i + 1) % 5} v{i}\n"
                     for i in range(5))),
}


def jobs():
    """(job name, argv, certificate file or None, structures `verify` needs)."""
    equiv = [(game, mode, 2, a, b)
             for mode in ("exists", "both", "backforth")
             for game, a, b in [("ef", "edge", "edge"), ("ef", "edge", "twopts"),
                                ("ef", "loop", "edge"), ("pebble", "k3", "edge"),
                                ("pebble", "edge", "edge"), ("modal", "chain", "cycle"),
                                ("modal", "cycle", "chain")]]
    equiv += [("ef", "iso", 2, "edge", "edge"), ("modal", "iso", 2, "chain", "chain")]
    # beyond criterion 9: the remaining refutation kinds, node forms and failing sides
    equiv += [("modal", "exists", 2, "labelled", "marked"),  # fail and move nodes
              ("modal", "backforth", 2, "labelled", "marked"),  # stall and side nodes
              ("pebble", "exists", 3, "c5", "edge"),  # drop and place nodes
              ("pebble", "both", 3, "edge", "k3"),  # both-pair failing backward
              ("modal", "both", 3, "chain", "cycle"),
              ("pebble", "backforth", 2, "k3", "twopts")]
    out = []
    for game, mode, k, a, b in equiv:
        name = f"equiv-{game}-{mode}-k{k}-{a}-{b}"
        out.append((name, ["equiv", "--game", game, "--mode", mode, "-k", str(k),
                           "--certificate", f"{name}.cert", f"{a}.str", f"{b}.str"],
                    f"{name}.cert", [a, b]))
    for comonad, a in [("ef", "p4"), ("ef", "k3"), ("pebble", "k3"), ("pebble", "p4"),
                       ("modal", "chain")]:
        name = f"param-{comonad}-{a}"
        out.append((name, ["param", "--comonad", comonad, "--certificate", f"{name}.cert",
                           f"{a}.str"], f"{name}.cert", [a]))
    out.append(("hom-edge-k3", ["hom", "edge.str", "k3.str", "--certificate",
                                "hom-edge-k3.cert"], "hom-edge-k3.cert", ["edge", "k3"]))
    for comonad, a in [("ef", "k3"), ("pebble", "edge"), ("modal", "chain")]:
        out.append((f"laws-{comonad}-{a}", ["laws", "--comonad", comonad, "-k", "2",
                                            f"{a}.str"], None, []))
    out.append(("oracle-treedepth-p4", ["oracle", "treedepth", "p4.str"], None, []))
    out.append(("oracle-treewidth-k3", ["oracle", "treewidth", "k3.str"], None, []))
    out.append(("eval-k3", ["eval", "-f", "E x . E y . R(x,y) & ~R(x,x)", "k3.str"],
                None, []))
    for fragment in ("ep", "full", "counting"):
        out.append((f"sample-{fragment}", ["sample", "--fragment", fragment, "-k", "2",
                                           "--count", "6", "--seed", "33"], None, []))
    # the modal sampler needs a unary symbol to terminate, hence the vocabulary file
    out.append(("sample-modal", ["sample", "--fragment", "modal", "-k", "2", "--count", "6",
                                 "--seed", "33", "labelled.str"], None, []))
    return out


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def corpus() -> dict[str, str]:
    """Run every job in the current directory; file name -> expected text."""
    for name, text in INPUTS.items():
        Path(f"{name}.str").write_text(text, encoding="utf-8")
    files = {}
    exits = []
    for name, argv, cert, structures in jobs():
        code, out = _run(argv)
        exits.append(f"{name} {code}")
        files[f"{name}.out"] = out
        if cert is not None and Path(cert).exists():
            files[cert] = Path(cert).read_text(encoding="utf-8")
            code, out = _run(["verify", "--certificate", cert]
                             + [f"{s}.str" for s in structures])
            exits.append(f"{name}.verify {code}")
            files[f"{name}.verify"] = out
    files["exit-codes.txt"] = "\n".join(exits) + "\n"
    return files


def test_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = corpus()
    want = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name].encode("utf-8") == want[name], name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = corpus()
        finally:
            os.chdir(here)
    for name, text in files.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {len(files)} files to {GOLDEN}", file=sys.stderr)
