"""Every public definition in ``src/`` is reached from ``src/``, and so is
every defaulted parameter of a public function.

A public function, class or method that no other code of the package names
is reached only by tests, so neither the command line nor a campaign runs
it.  Such code belongs in the tests (as an oracle) or nowhere.  A name
counts as referenced when it appears as an ``ast.Name`` or as an attribute
name in ``src/coxbalance`` outside its own definition and outside every
unreached definition, so a helper called only from unreached code is
unreached too.  A name shared with a builtin method (``bytes.translate``,
``set.add``) still counts as referenced wherever the method is called.

Likewise a defaulted parameter that no call in ``src/coxbalance`` passes,
by keyword or by position, is an option that only tests set.  A call counts
when it names the function (as an ``ast.Name`` or an attribute) outside the
function's own definition; a call with ``*args`` or ``**kwargs`` passes
every parameter.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbalance"

# Unreached on purpose, each until the change named here gives it a caller.
ALLOWED = {
    "alcove.order_polytope_halfspaces": "the order-polytope check record of ROADMAP item 7",
    "alcove.contains": "the order-polytope check record of ROADMAP item 7",
    "alcove.alcove_vertices_of": "the order-polytope check record of ROADMAP item 7",
    "coxgen.is_acyclic": "the acyclic-diagram sweep of ROADMAP items 4 and 5",
    "coxgen.is_irreducible": "the acyclic-diagram sweep of ROADMAP items 4 and 5",
}


# Defaulted parameters that no call in src/ passes, each with its reason.
ALLOWED_DEFAULTS = {
    "cli.main.argv": "the entry point; the console script calls main() with no argument",
    "convex.ideal_from_upper.cap": "the tests set it to check the walk's cap point "
                                   "against the BFS oracle",
    "weyl.all_elements.cap": "the tests check that a cap below |W| raises before "
                             "the walk; group passes its --cap to weyl.levels instead",
}


def parsed_src():
    """(module name, syntax tree) of each module of the package."""
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def public_definitions(module, body, owner=""):
    """(qualified name, node, owning class name or "") of each public function,
    class and method; nested functions are private to their enclosing one."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{owner}{node.name}", node, owner
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(module, node.body, f"{owner}{node.name}.")


def unreached(kept=frozenset()):
    """Qualified names of the unreached public definitions; those in ``kept``
    count as reached, and so does what they call."""
    definitions = []
    references = []  # (name, module, line)
    for module, tree in parsed_src():
        for qualified, node, _ in public_definitions(module, tree.body):
            definitions.append((qualified, node.name, module, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, module, node.lineno))
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


def unset_defaults():
    """``module.function.parameter`` for each defaulted parameter of a public
    function or method that no call in ``src/`` passes."""
    trees = parsed_src()
    calls = []  # (called name, module, call node)
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.append((func.id, module, node))
                elif isinstance(func, ast.Attribute):
                    calls.append((func.attr, module, node))
    unset = set()
    for module, tree in trees:
        for qualified, node, owner in public_definitions(module, tree.body):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if owner:  # a method's self is bound at the call
                positional = positional[1:]
            first_default = len(positional) - len(args.defaults)
            defaulted = [(p.arg, k) for k, p in enumerate(positional) if k >= first_default]
            defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            outside = [
                call for name, where, call in calls
                if name == node.name
                and not (where == module and node.lineno <= call.lineno <= node.end_lineno)
            ]
            for arg, position in defaulted:
                if not any(
                    any(kw.arg in (arg, None) for kw in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (position is not None and len(call.args) > position)
                    for call in outside
                ):
                    unset.add(f"{qualified}.{arg}")
    return unset


def test_every_public_definition_is_reached_from_src():
    assert unreached(kept=set(ALLOWED)) == set()


def test_allowlist_names_only_unreached_definitions():
    """A kept name that gains a caller leaves the allowlist."""
    assert set(ALLOWED) - unreached() == set()


def test_every_defaulted_parameter_is_passed_from_src():
    """Equality also drops an allowlisted parameter once src/ passes it."""
    assert unset_defaults() == set(ALLOWED_DEFAULTS)
