"""Every top-level library function and class is reached from outside the tests.

The sources of `src/webworlds/*.py` and `perfbench/*.py` are parsed with
`ast`, not imported. A top-level function or class of the library counts
as reached when its name is read somewhere else:

* in a library module, outside its own definition (a name or an
  attribute; an import alone does not count);
* in perfbench, as a name, an attribute or a whole string constant, such
  as the `(module, attr)` keys by which `perfbench/tracer.py` wraps
  library functions;
* in `webworlds.__all__`, the documented public API.

A definition that none of these reads is code that only the tests call;
it belongs in the tests, or in `verify` if it is an oracle.

perfbench is read as source, so a name counts as used only while the
benchmark really references it. `posets.linear_extensions` is one such
name today: the tracer counts calls to it. It and `descents` are also in
`webworlds.__all__`, so once the tracer drops that counter and the two
leave `__all__`, this test flags whichever no library code reads.
"""

import ast
from pathlib import Path

import webworlds

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "webworlds").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), str(path))


def read_names(node, strings=False):
    """The names that `node` reads: names, attributes and, if asked, whole strings."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def unreached():
    """(file, name) of each top-level library definition that nothing else reads."""
    outside = set(webworlds.__all__)
    for path in PERFBENCH:
        outside.update(read_names(parse(path), strings=True))
    trees = {path: parse(path) for path in LIBRARY}
    # per library statement: its file, the name it defines (if any) and the names it reads
    readers = [
        (path, getattr(statement, "name", None), set(read_names(statement)))
        for path, tree in trees.items()
        for statement in tree.body
    ]
    return [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path, tree in trees.items()
        for node in definitions(tree)
        if node.name not in outside
        and not any(node.name in names for at, owner, names in readers if (at, owner) != (path, node.name))
    ]


def test_every_library_definition_is_reached_outside_the_tests():
    found = unreached()
    assert not found, "reached only from the tests:\n" + "\n".join(found)


def test_the_scan_sees_the_library_and_the_benchmark():
    names = {node.name for path in LIBRARY for node in definitions(parse(path))}
    assert {"surjective_rule_counts", "_surjective_walk", "WorldMatrix", "main"} <= names
    assert len(names) > 150
    assert any(path.name == "tracer.py" for path in PERFBENCH)
