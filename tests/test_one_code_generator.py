"""The package generates and compiles code in one place.

`dynamics._source` writes the source of one product, the `run` generator
of a whole RK4 integration, and `dynamics._compile` is the only function
that compiles it; `rate_equation` evaluates the field directly.  The guard
fails on any call to `compile`, `exec` or `eval` outside `_compile`
anywhere in the package, and on `_source` taking more than the system, as
a second mode of the generator would.
"""

import ast
import inspect
import pathlib

import opencospan
from opencospan.dynamics import _source

BUILTINS = {"compile", "exec", "eval"}


def code_runs(tree, module):
    """(module, enclosing top-level name, builtin) of each call to compile,
    exec or eval, plain or as `builtins.X`."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and ast.unparse(func.value) == "builtins":
                name = func.attr
            else:
                continue
            if name in BUILTINS:
                found.append((module, getattr(top, "name", None), name))
    return found


def test_only_compile_in_dynamics_compiles_or_executes_code():
    package = pathlib.Path(opencospan.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += code_runs(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == [("dynamics", "_compile", "exec"), ("dynamics", "_compile", "compile")]


def test_the_generator_has_no_mode():
    assert list(inspect.signature(_source).parameters) == ["system"]


def test_the_guard_sees_code_compiled_in_a_second_function():
    source = (
        "def _compile(system):\n"
        "    exec(compile(source, '<rate equation>', 'exec'), namespace)\n"
        "def rate_equation(system, schedule):\n"
        "    field = builtins.eval(compile(text, '<field>', 'eval'))\n"
        "    pattern = re.compile('x')\n"
    )
    assert code_runs(ast.parse(source), "dynamics") == [
        ("dynamics", "_compile", "exec"),
        ("dynamics", "_compile", "compile"),
        ("dynamics", "rate_equation", "eval"),
        ("dynamics", "rate_equation", "compile"),
    ]
