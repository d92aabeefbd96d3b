"""The package's defaulted parameters are exactly the listed ones.

The rule is the one CI's "Source line count" step reports: the function
defaults and keyword-only defaults of every function and lambda in
`src/exactpoly`, each named `module.function:parameter`.  A parameter that
every caller passes is required, so a new default has to be added to
`DEFAULTED` on purpose.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULTED = [
    "cli.main:argv",
    "polytopes.certify_vertices:hull",
    "prismatoids.make_prismatoid:bases",
]


def defaulted_parameters(module, source):
    """`module.function:name` of each defaulted parameter, in `ast.walk` order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            function = getattr(node, "name", "<lambda>")
            names += [f"{module}.{function}:{arg.arg}" for arg in defaulted]
    return names


def test_defaulted_parameters_are_found():
    source = "def f(a, b=1, *, c, d=2):\n    return a\n\ng = lambda x=0: x\n"
    assert defaulted_parameters("m", source) == ["m.f:b", "m.f:d", "m.<lambda>:x"]


def test_defaulted_parameters_are_the_listed_ones():
    names = [
        name
        for path in sorted(ROOT.glob("src/exactpoly/*.py"))
        for name in defaulted_parameters(path.stem, path.read_text())
    ]
    assert names == DEFAULTED
