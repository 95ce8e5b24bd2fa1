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
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gamecomonads import cli
from gamecomonads.certificates import KINDS

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"


def _cycle(n: int) -> str:
    return ("vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(n))
            + "".join(f"rel R v{i} v{(i + 1) % n}\nrel R v{(i + 1) % n} v{i}\n"
                      for i in range(n)))


def _clique(n: int) -> str:
    return ("vocab R 2\n" + "".join(f"elem v{i}\n" for i in range(n))
            + "".join(f"rel R v{i} v{j}\n" for i in range(n) for j in range(n) if i != j))


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
    # the same path, its vertices declared in another order
    "p4r": ("vocab R 2\nelem y\nelem w\nelem z\nelem x\nrel R y z\nrel R z y\n"
            "rel R x y\nrel R y x\nrel R w x\nrel R x w\n"),
    "labelled": "vocab R 2\nvocab S 1\nelem a\nelem b\nrel R a b\nrel S b\nstart a\n",
    "marked": "vocab R 2\nvocab S 1\nelem p\nelem q\nrel R p q\nstart p\n",
    "spoint": "vocab R 2\nvocab S 1\nelem a\nrel S a\nstart a\n",
    "point": "vocab R 2\nelem x\n",
    "ploop": "vocab R 2\nelem p\nelem q\nrel R q q\n",
    "c5": _cycle(5),
    "c6": _cycle(6),
    "c7": _cycle(7),
    # C5 and a disjoint edge: the edge is eliminated first, so its component
    # hangs below the last vertex of the cycle and reuses the cycle's pebbles
    "c5edge": _cycle(5) + "elem e0\nelem e1\nrel R e0 e1\nrel R e1 e0\n",
    # a centre with three legs of two vertices: a branching pebbled cover
    "spider": ("vocab R 2\nelem s\n" + "".join(f"elem {x}1\nelem {x}2\n" for x in "abc")
               + "".join(f"rel R s {x}1\nrel R {x}1 s\nrel R {x}1 {x}2\nrel R {x}2 {x}1\n"
                         for x in "abc")),
    # the 6-cycle w0 w3 w1 w4 w2 w5, its vertices declared in another order
    "c6r": ("vocab R 2\n" + "".join(f"elem w{i}\n" for i in range(6))
            + "".join(f"rel R w{i} w{j}\nrel R w{j} w{i}\n"
                      for i, j in [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])),
    "k5": _clique(5),
    "k6": _clique(6),
    # two labels: each step of `tcycle` has a same-element reply in `rtcycle` under
    # the other label first, so a modal position is its last label and element
    "tcycle": ("vocab R 2\nvocab T 2\nvocab P 1\nelem a\nelem b\nelem c\n"
               "rel T a b\nrel T b c\nrel T c a\nrel P c\nstart a\n"),
    "rtcycle": ("vocab R 2\nvocab T 2\nvocab P 1\nelem p\nelem q\nelem r\n"
                "rel R p q\nrel T p q\nrel R q r\nrel T q r\nrel T r p\nrel P r\nstart p\n"),
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
    equiv += [("modal", "exists", 2, "labelled", "marked"),  # a reply lost on S
              ("modal", "backforth", 2, "labelled", "marked"),  # the same, both ways
              ("pebble", "exists", 3, "c5", "edge"),  # drop and place nodes
              ("pebble", "both", 3, "edge", "k3"),  # both-pair failing backward
              ("modal", "both", 3, "chain", "cycle"),
              ("pebble", "backforth", 2, "k3", "twopts")]
    out = [_equiv_job(*job) for job in equiv]
    for comonad, a in [("ef", "p4"), ("ef", "k3"), ("pebble", "k3"), ("pebble", "p4"),
                       ("pebble", "c5edge"), ("pebble", "spider"), ("modal", "chain")]:
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
    # with a vocabulary file that has a unary symbol, so atoms appear in the samples
    out.append(("sample-modal", ["sample", "--fragment", "modal", "-k", "2", "--count", "6",
                                 "--seed", "33", "labelled.str"], None, []))
    # three rounds: a Spoiler tree that repeats a move, a Duplicator table over
    # repeated moves, and modal games where the last label decides a position
    later = [("ef", "exists", 3, "edge", "twopts"), ("ef", "backforth", 3, "edge", "edge")]
    later += [("modal", mode, 3, "tcycle", "rtcycle") for mode in ("exists", "both", "backforth")]
    # pebble refutations that take several deletion passes: 4 for C5 against C6,
    # 7 for C7 into C6
    later += [("pebble", "backforth", 3, "c5", "c6"), ("pebble", "exists", 3, "c7", "c6")]
    # round-bounded Spoiler trees with a stalled root (the points differ on S),
    # and with a move on side B (only `ploop` has a loop)
    later += [("modal", mode, 1, "spoint", "marked") for mode in ("exists", "backforth")]
    later += [("ef", "backforth", 1, "point", "ploop")]
    # a coKleisli isomorphism whose tables are not the identity
    later += [("ef", "iso", 2, "p4", "p4r")]
    # back-and-forth games decided by colour refinement: won positions of two
    # cliques, a pebble family between two declarations of one cycle, and a
    # modal game lost only in the third round
    later += [("ef", "backforth", 4, "k5", "k6"), ("pebble", "backforth", 3, "c6", "c6r"),
              ("modal", "backforth", 3, "chain", "cycle")]
    return out + [_equiv_job(*job) for job in later]


def _equiv_job(game, mode, k, a, b):
    name = f"equiv-{game}-{mode}-k{k}-{a}-{b}"
    return (name, ["equiv", "--game", game, "--mode", mode, "-k", str(k),
                   "--certificate", f"{name}.cert", f"{a}.str", f"{b}.str"],
            f"{name}.cert", [a, b])


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


# the node and leaf forms of a round-bounded Spoiler tree, on a row of any
# certificate (inside a both-pair, after its `fwd`/`bwd` tag)
ROUND_TREE_FORMS = {"A move": r"node \d+ A \[", "B move": r"node \d+ B \[",
                    "stall": r"node \d+ stall$", "lose leaf": r"branch \d+ \[[^]]*\] lose$"}


def test_golden_certificates_pin_every_kind_and_round_tree_form():
    texts = [p.read_text(encoding="utf-8") for p in GOLDEN.glob("*.cert")]
    kinds = {text.split("\n", 1)[0].removeprefix("certificate ") for text in texts}
    assert sorted(set(KINDS) - kinds) == []
    rows = [line.removeprefix("fwd ").removeprefix("bwd ")
            for text in texts for line in text.splitlines()]
    missing = [form for form, pattern in ROUND_TREE_FORMS.items()
               if not any(re.match(pattern, row) for row in rows)]
    assert missing == []


# a branch row of a round-bounded Spoiler tree: (node, reply step, child or `lose`)
ROUND_BRANCH = re.compile(r"((?:fwd |bwd )?branch \d+) (\[[^]]*\]) (\S+)$")


def _tree_mutants(rows):
    """The rows with one branch row dropped, and with a `lose` leaf swapped
    with a sibling subtree, so that it claims a reply that still holds."""
    branches = [(i, m) for i, m in enumerate(map(ROUND_BRANCH.match, rows)) if m]
    for i, _ in branches:
        yield "drop", rows[:i] + rows[i + 1:]
    for i, m in branches:
        for j, n in branches:
            if m[1] == n[1] and m[3] == "lose" != n[3]:
                swapped = list(rows)
                swapped[i], swapped[j] = f"{m[1]} {m[2]} {n[3]}", f"{n[1]} {n[2]} lose"
                yield "flip", swapped


def test_golden_spoiler_trees_fail_when_mutated(tmp_path, monkeypatch):
    """Dropping a branch, or moving a `lose` leaf onto a reply with a subtree,
    turns every golden round-bounded Spoiler tree into one `verify` rejects."""
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(f"{name}.str").write_text(text, encoding="utf-8")
    seen = set()
    for _, _, cert, structures in jobs():
        if cert is None:
            continue
        for how, rows in _tree_mutants((GOLDEN / cert).read_text(encoding="utf-8").splitlines()):
            seen.add(how)
            Path("mutant.cert").write_text("\n".join(rows) + "\n", encoding="utf-8")
            code, out = _run(["verify", "--certificate", "mutant.cert"]
                             + [f"{s}.str" for s in structures])
            assert (code, "\nresult: false\n" in out) == (1, True), (cert, how, out)
    assert seen == {"drop", "flip"}


# (a certificate not yet in the corpus is skipped, so that the corpus can be rewritten)
K_HEADED = [(cert, structures) for _, _, cert, structures in jobs()
            if cert is not None and (GOLDEN / cert).exists()
            and "\nk " in (GOLDEN / cert).read_text(encoding="utf-8")]


@pytest.mark.parametrize("cert,structures", K_HEADED, ids=[cert for cert, _ in K_HEADED])
def test_verify_refuses_a_k_header_below_one(tmp_path, monkeypatch, capsys, cert, structures):
    """Every decider refuses k < 1, so `verify` takes a certificate that
    claims zero rounds or pebbles for malformed, whatever its kind."""
    monkeypatch.chdir(tmp_path)
    for name in structures:
        Path(f"{name}.str").write_text(INPUTS[name], encoding="utf-8")
    text = (GOLDEN / cert).read_text(encoding="utf-8")
    Path("zero.cert").write_text(re.sub(r"^k \d+$", "k 0", text, flags=re.M), encoding="utf-8")
    code, out = _run(["verify", "--certificate", "zero.cert"] + [f"{s}.str" for s in structures])
    assert code == 2 and "result:" not in out
    assert capsys.readouterr().err.startswith("error:")


# What solves a game or searches for a witness, wherever the package binds it.
SOLVERS = ("round_values", "refined_values", "refined_colours", "won_positions",
           "first_replies", "read_off", "spoiler_tree", "decide_exist", "decide_exist_ef",
           "decide_sim_k", "decide_pebble", "decide_exist_pebble", "_partial_maps",
           "delete_to_fixpoint",
           "decide_back_forth", "_tuple_colours", "_safe_parts", "solve_back_forth",
           "_solve_pebble_backforth", "decide_cokleisli_iso", "find_hom",
           "min_height_forest_cover", "_treewidth_order", "_elimination_cover",
           "oracle_treedepth", "oracle_treewidth", "coalgebra_number")


def test_verify_reaches_no_solver(tmp_path, monkeypatch):
    """The audits share with the solvers only the play tree with `Game.parent`,
    the step conditions and `Game.position`: with every solver raising, `verify`
    of each golden certificate still prints its golden report."""
    def refuse(*args, **kwargs):
        raise AssertionError("verify reached a solver")

    bound = set()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gamecomonads":
            for attr in SOLVERS:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
                    bound.add(attr)
    assert bound == set(SOLVERS)
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(f"{name}.str").write_text(text, encoding="utf-8")
    verified = 0
    for job, _, cert, structures in jobs():
        if cert is None or not (GOLDEN / cert).exists():
            continue
        Path(cert).write_bytes((GOLDEN / cert).read_bytes())
        _, out = _run(["verify", "--certificate", cert] + [f"{s}.str" for s in structures])
        assert out.encode("utf-8") == (GOLDEN / f"{job}.verify").read_bytes(), job
        verified += 1
    assert verified == len(list(GOLDEN.glob("*.cert")))


def test_verify_judges_each_part_of_a_sound_pebble_family_by_one_step(tmp_path, monkeypatch):
    """`verify` of every golden pebble family (`pebble-family`, `pebble-safe`
    and the true pebble `both-pair`s), and of the both-pair of K6 and K5 with
    three pebbles, judges no part whole: it calls neither `is_partial_hom`
    nor `is_partial_iso`, and makes at most one step judgement per part, one
    `_kept` call a side."""
    from gamecomonads import pebbling

    def whole(*args, **kwargs):
        raise AssertionError("a part was judged whole")

    kept = pebbling._kept
    calls = []

    def counted(gained, img):
        calls.append(None)
        return kept(gained, img)

    monkeypatch.setattr(pebbling, "is_partial_hom", whole)
    monkeypatch.setattr(pebbling, "is_partial_iso", whole)
    monkeypatch.setattr(pebbling, "_kept", counted)
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(f"{name}.str").write_text(text, encoding="utf-8")
    code, _ = _run(["equiv", "--game", "pebble", "--mode", "both", "-k", "3",
                    "--certificate", "k6-k5.cert", "k6.str", "k5.str"])
    assert code == 0
    cases = [(cert, structures) for _, _, cert, structures in jobs() if cert is not None
             and re.search(r"^game pebble\nk \d+\nclaim true$",
                           (GOLDEN / cert).read_text(encoding="utf-8"), re.M)]
    assert len(cases) == 7
    for cert, structures in cases + [("k6-k5.cert", ["k6", "k5"])]:
        path = GOLDEN / cert if cert != "k6-k5.cert" else Path(cert)
        text = path.read_text(encoding="utf-8")
        parts = len(re.findall(r"^(?:fwd |bwd )?part\b", text, re.M))
        sides = 2 if text.startswith("certificate pebble-safe\n") else 1
        calls.clear()
        Path("family.cert").write_text(text, encoding="utf-8")
        code, out = _run(["verify", "--certificate", "family.cert"]
                         + [f"{s}.str" for s in structures])
        assert code == 0 and out.endswith("result: true\ndetail: ok\n"), cert
        assert 0 < len(calls) <= sides * parts, (cert, len(calls), parts)


def test_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = corpus()
    want = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name].encode("utf-8") == want[name], name


def test_certificates_overwrite_a_longer_and_a_shorter_file(tmp_path, monkeypatch):
    """Rerun with its certificate path already holding a longer file, and
    then a shorter one, every certificate-writing job writes its golden
    certificate and report: the file is cut to the new certificate, with no
    stale tail."""
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(f"{name}.str").write_text(text, encoding="utf-8")
    for name, argv, cert, _ in jobs():
        if cert is None or not (GOLDEN / cert).exists():
            continue
        want = ((GOLDEN / cert).read_bytes(), (GOLDEN / f"{name}.out").read_bytes())
        for size in (2 * len(want[0]) + 100, len(want[0]) // 2):
            Path(cert).write_bytes(b"#" * size)
            _, out = _run(argv)
            assert (Path(cert).read_bytes(), out.encode("utf-8")) == want, (cert, size)


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_golden_corpus_under_fixed_hash_seeds(hashseed, tmp_path):
    """Set iteration order varies with the hash seed; the reports must not.
    Each seed needs its own process, hence the child pytest run."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_golden_corpus"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]


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
