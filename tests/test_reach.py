"""Every public definition in ``src/`` is reached from ``src/``.

A public function, class or method that no other code of the package names
is reached only by tests, so neither the command line nor a campaign runs
it.  Such code belongs in the tests (as an oracle) or nowhere.  A name
counts as referenced when it appears as an ``ast.Name`` or as an attribute
name in ``src/coxbalance`` outside its own definition and outside every
unreached definition, so a helper called only from unreached code is
unreached too.  A name shared with a builtin method (``bytes.translate``,
``set.add``) still counts as referenced wherever the method is called.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbalance"

# Unreached on purpose, each until the change named here gives it a caller.
ALLOWED = {
    "alcove.order_polytope_halfspaces": "the order-polytope check record of ROADMAP item 4",
    "alcove.contains": "the order-polytope check record of ROADMAP item 4",
    "alcove.alcove_vertices_of": "the order-polytope check record of ROADMAP item 4",
    "alcove.check_short_root_bound": "bench/spans.py traces it; goes with the benchmark change",
    "coxgen.is_acyclic": "the acyclic-diagram sweep of ROADMAP item 3",
    "coxgen.is_irreducible": "the acyclic-diagram sweep of ROADMAP item 3",
}


def public_definitions(module, body, owner=""):
    """(qualified name, name, first line, last line) of each public function,
    class and method; nested functions are private to their enclosing one."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            qualified = f"{module}.{owner}{node.name}"
            yield qualified, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(module, node.body, f"{owner}{node.name}.")


def unreached(kept=frozenset()):
    """Qualified names of the unreached public definitions; those in ``kept``
    count as reached, and so does what they call."""
    definitions = []
    references = []  # (name, module, line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, name, first, last in public_definitions(path.stem, tree.body):
            definitions.append((qualified, name, path.stem, first, last))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
    dead = set()
    while True:
        dead_spans = [(module, first, last) for qualified, _, module, first, last in definitions
                      if qualified in dead]

        def live(name, module, first, last):
            return any(
                ref == name and not (where == module and first <= line <= last)
                and not any(where == m and a <= line <= b for m, a, b in dead_spans)
                for ref, where, line in references
            )

        found = {qualified for qualified, *span in definitions
                 if qualified not in kept and not live(*span)}
        if found <= dead:
            return dead
        dead |= found


def test_every_public_definition_is_reached_from_src():
    assert unreached(kept=set(ALLOWED)) == set()


def test_allowlist_names_only_unreached_definitions():
    """A kept name that gains a caller leaves the allowlist."""
    assert set(ALLOWED) - unreached() == set()
