"""The immutable-record base `structures.Record` behind every value type of
the package, and the start-up cost it keeps off the command line."""

import argparse
import dataclasses
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gamecomonads import certificates, cli, equivalence, game, logic, parameters, pebbling
from gamecomonads.errors import ToolkitError
from gamecomonads.logic import And, Bottom, Not, Or, Top
from gamecomonads.structures import Graph, Record, Structure, Vocabulary

from test_cli import child_env
from test_usage import COMMANDS

# The fields and defaults of every record, as they were when each was a dataclass.
FIELDS = {
    "structures.Vocabulary": ("symbols",),
    "structures.Structure": ("vocab", "universe", "interp", "point"),
    "structures.Hom": ("source", "target", "mapping"),
    "structures.Graph": ("vertices", "edges"),
    "game.LawReport": ("ok", "failures"),
    "game.Game": ("name", "root", "children", "depth", "check_plays", "lifted_at", "pointed",
                  "winning", "forth", "position", "refine", "iso_colours", "coextend", "last",
                  "parent", "play_error", "hom_error", "decide", "laws", "exists_kinds",
                  "backforth_kinds", "iso_kind", "cover_kind"),
    "game.CoKleisli": ("game", "k", "source", "target", "table", "cap"),
    "game.SpoilerNode": ("side", "step", "branches"),
    "game.ExistResult": ("wins", "strategy", "refutation"),
    "pebbling.StrategyFamily": ("k", "parts"),
    "pebbling.SpoilerPosition": ("pos", "drop", "place", "side", "branches", "child"),
    "pebbling.PebbleResult": ("wins", "family", "refutation"),
    "equivalence.BackForthResult": ("wins", "duplicator", "spoiler", "safe_positions"),
    "equivalence.IsoResult": ("wins", "forward", "backward"),
    "parameters.ForestCover": ("vertices", "parent"),
    "parameters.PebbleForestCover": ("cover", "pebbles"),
    "parameters.TreeDecomposition": ("nodes", "parent", "bags"),
    "parameters.CoalgebraMap": ("comonad", "k", "host", "alpha"),
    "parameters.KappaResult": ("kappa", "coalgebra", "cover", "pfc"),
    "logic.Formula": (),
    "logic.Top": (),
    "logic.Bottom": (),
    "logic.Rel": ("name", "args"),
    "logic.Eq": ("left", "right"),
    "logic.Not": ("body",),
    "logic.And": ("left", "right"),
    "logic.Or": ("left", "right"),
    "logic.Implies": ("left", "right"),
    "logic.Exists": ("var", "body"),
    "logic.Forall": ("var", "body"),
    "logic.CountAtLeast": ("bound", "var", "body"),
    "logic.CountAtMost": ("bound", "var", "body"),
    "certificates.Certificate": ("kind", "game", "k", "claim", "kappa", "body"),
    "certificates._Tree": ("head", "edges", "build"),
    "certificates._Kind": ("claim", "emit", "verify"),
}
DEFAULTS = {
    "structures.Structure": {"point": None},
    "game.LawReport": {"failures": ()},
    "game.CoKleisli": {"cap": game.DEFAULT_PLAY_CAP},
    "game.SpoilerNode": {"branches": ()},
    "game.ExistResult": {"strategy": None, "refutation": None},
    "pebbling.SpoilerPosition": {"drop": None, "place": None, "side": "A", "branches": (),
                                 "child": None},
    "pebbling.PebbleResult": {"family": None, "refutation": None},
    "equivalence.BackForthResult": {"duplicator": None, "spoiler": None, "safe_positions": None},
    "equivalence.IsoResult": {"forward": None, "backward": None},
    "parameters.KappaResult": {"cover": None, "pfc": None},
    "certificates.Certificate": {"game": None, "k": None, "claim": None, "kappa": None,
                                 "body": ()},
}
# Records whose `__post_init__` checks its input, so arbitrary values do not build one.
CHECKED = {"structures.Vocabulary", "structures.Structure", "structures.Hom", "structures.Graph",
           "parameters.ForestCover"}


def records():
    """Every subclass of `Record` in the package, by module and name."""
    found, todo = {}, list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found[f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__qualname__}"] = cls
        todo.extend(cls.__subclasses__())
    return found


RECORDS = records()
PLAIN = sorted(set(RECORDS) - CHECKED)


def test_every_record_keeps_its_fields_and_defaults():
    assert set(RECORDS) == set(FIELDS)
    for name, cls in RECORDS.items():
        assert cls._fields == FIELDS[name], name
        defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        assert defaults == DEFAULTS.get(name, {}), name


def sample(cls, salt=0):
    """A record of `cls` with a distinct integer in each field."""
    return cls(*(salt + i for i in range(len(cls._fields))))


@pytest.mark.parametrize("name", PLAIN)
def test_record_equality_hash_and_repr(name):
    cls = RECORDS[name]
    rec = sample(cls)
    values = tuple(range(len(cls._fields)))
    assert rec == sample(cls) and not rec != sample(cls)
    assert hash(rec) == hash(values)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(rec) == f"{cls.__qualname__}({shown})"
    if cls._fields:
        assert rec != sample(cls, salt=1)
    mirror = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)
    assert (hash(rec), repr(rec)) == (hash(mirror(*values)), repr(mirror(*values)))
    for other in PLAIN:
        if other != name and len(RECORDS[other]._fields) == len(cls._fields):
            assert rec != sample(RECORDS[other])


def test_equality_is_within_one_type():
    assert Top() == Top() and Top() != Bottom()
    assert And(Top(), Bottom()) == And(Top(), Bottom())
    assert And(Top(), Bottom()) != Or(Top(), Bottom())
    assert And(Top(), Bottom()) != (Top(), Bottom())
    assert hash(Not(Top())) == hash((Top(),)) and hash(Top()) == hash(())
    assert len({And(Top(), Bottom()), And(Top(), Bottom()), Or(Top(), Bottom())}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen(name):
    cls = RECORDS[name]
    rec = cls.__new__(cls)
    for field in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, field, 1)
        with pytest.raises(AttributeError):
            delattr(rec, field)


def test_frozen_record_keeps_its_values():
    rec = Not(Top())
    with pytest.raises(AttributeError):
        rec.body = Bottom()
    with pytest.raises(AttributeError):
        del rec.body
    assert rec.body == Top()


def test_defaults_and_keywords():
    pos = pebbling.SpoilerPosition(frozenset(), place="a", branches=(("x", None),))
    assert (pos.drop, pos.side, pos.child) == (None, "A", None)
    assert pos == pebbling.SpoilerPosition(frozenset(), None, "a", "A", (("x", None),), None)
    cert = certificates.Certificate("hom-witness")
    assert (cert.game, cert.k, cert.claim, cert.kappa, cert.body) == (None,) * 4 + ((),)
    assert certificates.format_certificate(cert) == "certificate hom-witness\n"
    assert logic.Rel(args=("x",), name="P") == logic.Rel("P", ("x",))


@pytest.mark.parametrize("build", [
    lambda: And(Top()),
    lambda: Not(),
    lambda: Not(Top(), Bottom()),
    lambda: Top(1),
    lambda: Not(Top(), body=Top()),
    lambda: Not(bodie=Top()),
    lambda: equivalence.IsoResult(wins=True, forwards={}),
    lambda: pebbling.SpoilerPosition(side="B"),
], ids=["missing", "none-given", "extra", "extra-to-empty", "repeated", "unknown",
        "unknown-with-defaults", "missing-with-defaults"])
def test_bad_arguments_are_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_still_checks_its_input():
    with pytest.raises(ToolkitError, match="duplicate relation symbol"):
        Vocabulary((("R", 2), ("R", 1)))
    with pytest.raises(ToolkitError, match="self-loop"):
        Graph(("a",), frozenset({("a", "a")}))
    with pytest.raises(ToolkitError, match="not in universe"):
        Structure.build([("R", 2)], ["a"], {"R": [("a", "b")]})
    with pytest.raises(ToolkitError, match="no parent entry"):
        parameters.ForestCover(("a",), {})


def test_field_equality_and_own_repr():
    """Structures built two ways compare by their fields; a dict field
    leaves a record unhashable; a class's own `__repr__` wins."""
    a = Structure.build([("R", 2)], ["a", "b"], {"R": [("a", "b")]})
    b = Structure(a.vocab, a.universe, {"R": frozenset({("a", "b")})})
    assert a == b and repr(a) == "Structure(|A|=2, {'R': 1})"
    assert a != Structure(a.vocab, a.universe, {"R": frozenset()})
    with pytest.raises(TypeError):
        hash(a)


def test_cached_properties_still_work():
    a = Structure.build([("R", 2)], ["a", "b"], {"R": [("a", "b")]})
    assert a.index == {"a": 0, "b": 1} and a.index is a.index
    g = Graph.build(["u", "v", "w"], [("w", "u")])
    assert g.adjacency == [0b100, 0, 0b001]


def test_cli_import_loads_no_code_generators():
    """Every job imports the command line; `dataclasses` and the modules it
    brings in (`inspect`, `ast`) would cost most of that import."""
    script = ("import sys; before = set(sys.modules); import gamecomonads.cli; "
              "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cli_import_loads_no_logic_and_freezes_the_heap():
    """Only `eval` and `sample` need the formula module, and no collection
    should walk the objects the import made: they live until exit."""
    script = ("import gc, sys; import gamecomonads.cli; "
              "print('gamecomonads.logic' in sys.modules, gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False True\n"), proc.stderr


@pytest.mark.parametrize("argv,added", [([cmd, "-h"], [cmd]) for cmd in COMMANDS]
                         + [(argv, list(COMMANDS)) for argv in ([], ["-h"], ["frobnicate"])],
                         ids=[*COMMANDS, "no-arguments", "help", "unknown-command"])
def test_main_builds_the_named_subparser_alone(argv, added, monkeypatch):
    """A run builds the parser of its one command; help, usage and the
    unknown-command error list every command, so they build all."""
    assert list(cli.COMMANDS) == list(COMMANDS)
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(argv)
    assert names == added
