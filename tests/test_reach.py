"""Reach guard: every function under `src/gamecomonads/` runs in some CLI job.

A fresh interpreter sets a profile hook before `gamecomonads` is imported,
so functions called at import time count too, and then runs every
golden-corpus job with its `verify` (`test_golden.corpus`).  A `def` the
hook never sees is reached from the tests alone: it belongs in
`tests/helpers.py`, or nowhere.  Dunder methods count too, though Python
calls them through operators, `raise` and `repr`: an `__eq__` no job reaches
is as dead as any other `def`.  `ALLOWED` names the few kept on purpose,
each with its reason.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "gamecomonads"

# (module file, qualified name) -> why the library keeps a function no CLI job runs
ALLOWED = {
    ("structures.py", "serialize_structure"):
        "public API: writes the text format that `parse_structure` reads",
    ("structures.py", "Structure.all_tuples"):
        "public API: the tuples `serialize_structure` writes",
    ("structures.py", "Graph.build"):
        "public API: a graph from vertices and edges, without a structure",
    ("structures.py", "Record.__setattr__"):
        "refuses assignment to a frozen record; no job assigns to one",
    ("structures.py", "Record.__delattr__"):
        "refuses deletion from a frozen record; no job deletes from one",
    ("structures.py", "Record.__repr__"):
        "how a record prints when debugging; no job prints a record",
    ("structures.py", "Structure.__repr__"):
        "how a structure prints when debugging; no job prints one",
    ("structures.py", "Record.__post_init__"):
        "the base no-op check, which the constructor skips for a record without its own",
    ("structures.py", "Record.__init_subclass__.<locals>.__hash__"):
        "records hash as their fields; no job puts a record in a set or dict",
    ("errors.py", "StructureParseError.__init__"):
        "runs on a malformed structure file, which no golden job reads",
    ("parameters.py", "_forest_table"):
        "the benchmark tracer's `_clear_caches` calls its `cache_clear`",
    ("parameters.py", "_forest_table.<locals>.leaf"):
        "the benchmark tracer's `_clear_caches` calls `_forest_table.cache_clear`",
    ("parameters.py", "_forest_table.<locals>.choose"):
        "the benchmark tracer's `_clear_caches` calls `_forest_table.cache_clear`",
}

# argv: package directory, src, tests, working directory, output file
PROBE = """
import json, os, sys
package, src, tests, work, out = sys.argv[1:]
seen = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if os.path.dirname(os.path.abspath(code.co_filename)) == package:
            seen.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(hook)
sys.path[:0] = [src, tests]
import test_golden
os.chdir(work)
test_golden.corpus()
sys.setprofile(None)
with open(out, "w") as f:
    json.dump(sorted(seen), f)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(module file, first line) -> qualified name of every `def` in the
    package; the first line of a decorated function is its first
    decorator's, as in its code object."""
    found = {}

    def walk(node, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[file, first] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def test_every_function_in_the_package_runs_in_a_cli_job(tmp_path):
    out = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PACKAGE), str(SRC), str(TESTS),
                           str(tmp_path), str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    reached = {tuple(key) for key in json.loads(out.read_text())}
    unreached = {(file, name) for (file, line), name in defined_functions().items()
                 if (file, line) not in reached}
    assert sorted(unreached - ALLOWED.keys()) == []
    # an allowed function that a job now reaches, or that is gone, leaves the list
    assert sorted(ALLOWED.keys() - unreached) == []


def test_every_import_in_the_package_is_used():
    """Each name a module of the package imports is read somewhere in it as
    a plain name (`ast.Name`, which covers attribute access and
    annotations); `__init__.py` imports only to re-export, and is exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in used]
    assert unused == []
