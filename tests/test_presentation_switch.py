"""The decorated or structured presentation is picked in one place.

Both cospan classes share one reading (`representation`, the feet, `leg_maps`,
`decoration`) and `cospans._present` switches between them by that
`representation`, so no code asks which class it holds: `hcompose` and
`tensor` build the decorated result and present it as their inputs are, and
the conversion law compares that with the pushout in X.  The guard fails on
any `isinstance` test against either cospan class anywhere in the package.
"""

import ast
import pathlib

import opencospan

PRESENTATIONS = {"DecoratedCospan", "StructuredCospan"}


def _names(node):
    """Every plain or dotted name in an expression: `cospans.X` gives X."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def presentation_checks(tree, module):
    """(module, enclosing top-level name) of each isinstance test against a cospan class."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names(node.args[1]) & PRESENTATIONS
            ):
                found.append((module, getattr(top, "name", None)))
    return found


def test_presentation_is_tested_only_where_each_one_is_built():
    package = pathlib.Path(opencospan.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += presentation_checks(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == []


def test_the_guard_sees_checks_outside_hcompose_and_tensor():
    source = (
        "def graybox(c):\n"
        "    if isinstance(c, (StructuredCospan, int)):\n"
        "        pass\n"
        "def hcompose(m, n):\n"
        "    assert isinstance(n, cospans.DecoratedCospan)\n"
    )
    assert presentation_checks(ast.parse(source), "dynamics") == [
        ("dynamics", "graybox"),
        ("dynamics", "hcompose"),
    ]
