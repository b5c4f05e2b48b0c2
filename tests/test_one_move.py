"""Every support moves through one kernel.

`systems._push_pairs` moves a multiset's or a monomial's support along a
map, with its fast paths for one and two places.  `Multiset.pushforward`,
`Poly.substitute_along` and the dynam leaf of `cospans._search_rules` must
move supports only by calling it: none may sort or merge pairs itself, as
a second copy of the move would.  `systems._move_multisets`, which moves
every Petri end, must call `pushforward`, the method the benchmark's tracer
counts.  The guard reads the source, and a self-test shows that it sees
each way of breaking that rule.
"""

import ast
import pathlib

import opencospan

# (module, path of the function through its enclosing class or function)
MOVERS = [
    ("systems", ("Multiset", "pushforward")),
    ("systems", ("Poly", "substitute_along")),
    ("cospans", ("_search_rules", "leaf")),
]
TRACED = ("systems", ("_move_multisets",))


def find(tree, path):
    """The function at `path` (a class or function name, then the names of
    what is nested in it), or None."""
    body = tree.body
    node = None
    for name in path:
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return None
        body = node.body
    return node


def called(node):
    """The names of what a function calls: a plain name or an attribute."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def merges(node):
    """Whether a loop in the function stores into a subscript (`m[q] += k`,
    `m[q] = ...`), which is how a merge of pairs is written."""
    for loop in ast.walk(node):
        if isinstance(loop, (ast.For, ast.While)):
            for inner in ast.walk(loop):
                targets = []
                if isinstance(inner, ast.Assign):
                    targets = inner.targets
                elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                    targets = [inner.target]
                for target in targets:
                    if any(isinstance(t, ast.Subscript) for t in ast.walk(target)):
                        return True
    return False


def faults(sources):
    """Each broken rule, given each module's source by name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = []
    for module, path in MOVERS:
        name = f"{module}.{'.'.join(path)}"
        node = find(trees[module], path)
        if node is None:
            found.append(f"{name} is missing")
            continue
        names = called(node)
        if "_push_pairs" not in names:
            found.append(f"{name} does not call _push_pairs")
        for sort in sorted(names & {"sorted", "sort"}):
            found.append(f"{name} calls {sort}")
        if merges(node):
            found.append(f"{name} merges pairs in a loop")
    module, path = TRACED
    node = find(trees[module], path)
    if node is None or "pushforward" not in called(node):
        found.append(f"{module}.{'.'.join(path)} does not call pushforward")
    return found


def test_every_support_moves_through_the_one_kernel():
    package = pathlib.Path(opencospan.__file__).resolve().parent
    sources = {m: (package / f"{m}.py").read_text(encoding="utf-8") for m in ("systems", "cospans")}
    assert faults(sources) == []


def test_the_guard_sees_a_second_move_and_a_blinded_tracer():
    systems = (
        "class Multiset:\n"
        "    def pushforward(self, f):\n"
        "        return tuple(sorted((f.table[p], k) for p, k in self.pairs))\n"
        "class Poly:\n"
        "    def substitute_along(self, f):\n"
        "        moved = {}\n"
        "        for c, support in self.sparse:\n"
        "            moved[_push_pairs(support, f.table)] = c\n"
        "        return moved\n"
        "def _move_multisets(column, f):\n"
        "    return tuple([Multiset._from_pairs(f.cod, _push_pairs(ms.pairs, f.table))"
        " for ms in column])\n"
    )
    cospans = (
        "def _search_rules(d, e):\n"
        "    def leaf(h):\n"
        "        return [s for s in d.sparse]\n"
        "    return leaf\n"
    )
    assert faults({"systems": systems, "cospans": cospans}) == [
        "systems.Multiset.pushforward does not call _push_pairs",
        "systems.Multiset.pushforward calls sorted",
        "systems.Poly.substitute_along merges pairs in a loop",
        "cospans._search_rules.leaf does not call _push_pairs",
        "systems._move_multisets does not call pushforward",
    ]
    assert faults({"systems": "", "cospans": ""}) == [
        "systems.Multiset.pushforward is missing",
        "systems.Poly.substitute_along is missing",
        "cospans._search_rules.leaf is missing",
        "systems._move_multisets does not call pushforward",
    ]
