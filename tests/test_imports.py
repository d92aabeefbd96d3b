"""Every name a module imports is used in that module, and no engine
module imports the graph wrappers.

The package's `__init__.py` is exempt: it imports names to re-export them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.glob("src/exactpoly/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_unused_imports_are_found():
    source = "import os.path\nfrom math import gcd, lcm\n\nprint(os.sep, lcm)\n"
    assert unused_imports(source) == [(2, "gcd")]


def test_the_engine_reads_graphs_off_the_hull():
    # `dual_graph(poly, hull)` and `vertex_graph(poly, hull)` are exported
    # for outside callers; the engine reads `Hull.dual_graph` and
    # `Hull.vertex_graph`
    importers = [
        f"{path.name}:{node.lineno} {a.name}"
        for path in MODULES
        if path.parent.name == "exactpoly"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name in ("dual_graph", "vertex_graph")
    ]
    assert importers == []


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
