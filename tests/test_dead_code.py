"""Dead-code guard: the library keeps only what the package itself reaches.

Every function, method and class defined in ``src/kleinian`` must be
named (called, referenced or subclassed) somewhere in ``src/kleinian``
outside its own definition; a helper that only tests use belongs beside
the oracles in ``tests/``.  Names are matched as identifiers and
attributes, so a method counts as reached when any attribute of that name
is read.
"""

import ast
import pathlib

import kleinian

SRC = pathlib.Path(kleinian.__file__).parent

EXEMPT = {
    # the command-line entry point, reached through [project.scripts]
    "cli.main",
}


def _definitions(tree, module):
    """(qualified name, bare name, first line, last line) of every def and class."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = scope + (child.name,)
                out.append(("%s.%s" % (module, ".".join(qual)), child.name,
                            child.lineno, child.end_lineno))
                walk(child, qual)
            else:
                walk(child, scope)

    walk(tree, ())
    return out


def unreached_definitions():
    defs, names = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs.extend((path,) + d for d in _definitions(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.attr, node.lineno))
    unreached = []
    for path, qual, name, first, last in defs:
        if (name.startswith("__") and name.endswith("__")) or qual in EXEMPT:
            continue
        if not any(n == name and not (p == path and first <= line <= last)
                   for p, n, line in names):
            unreached.append(qual)
    return unreached


def test_every_definition_is_reached_from_the_package():
    unreached = unreached_definitions()
    assert not unreached, "defined but never named in src/kleinian: " + ", ".join(unreached)
