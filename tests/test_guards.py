"""Guards on the package as a whole: the library states no mathematical
check as an `assert` (it vanishes under `python -O` and carries no
witness), and every name the benchmark's tracer rebinds exists."""

import ast
import importlib
from pathlib import Path

import quasilie

SRC = Path(quasilie.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_library_has_no_assert():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bench_traced_names_resolve():
    # TRACED is read from the source, so the bench package is not imported
    tree = ast.parse(SPANS.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    missing = []
    for module, names in traced.items():
        mod = importlib.import_module("quasilie." + module)
        for name in names:
            owner, _, attr = name.rpartition(".")
            # a method must sit in its class's own __dict__, as the tracer reads it
            scope = vars(getattr(mod, owner)) if owner else vars(mod)
            if not callable(scope.get(attr)):
                missing.append("%s.%s" % (module, name))
    assert missing == []
