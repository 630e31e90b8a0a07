"""Every public definition in ``src/`` is reached from ``src/``, and so is
every defaulted parameter of a public function.

A public function, class or method that no other code of the package names
is reached only by tests, so neither the command line nor a campaign runs
it.  Such code belongs in the tests (as an oracle) or nowhere.  A
module-level definition counts as referenced only through a name that
resolves to it: ``module.name`` with ``module`` bound by ``from . import``,
a ``from .module import name`` binding, or a bare name inside its own
module that no import rebinds.  A method counts as referenced when its
name appears as an attribute name anywhere, so a method that shares its
name with a builtin one (``bytes.translate``, ``set.add``) counts wherever
that is called.  A reference counts only outside the definition itself and
outside every unreached definition, so a helper called only from
unreached code is unreached too.

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


def references(module, tree):
    """(target, line) of each reference in one module: ``module.name`` for a
    name that resolves to a module-level definition, ``.name`` for each
    attribute name."""
    modules, names = {}, {}  # local name -> what a relative import binds to it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    yield f"{node.module}.{alias.name}", node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in modules:
            yield names.get(node.id, f"{module}.{node.id}"), node.lineno
        elif isinstance(node, ast.Attribute):
            yield f".{node.attr}", node.lineno
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                yield f"{modules[node.value.id]}.{node.attr}", node.lineno


def unreached(kept=frozenset()):
    """Qualified names of the unreached public definitions; those in ``kept``
    count as reached, and so does what they call."""
    definitions = []  # (qualified name, the target that reaches it, module, span)
    refs = []  # (target, module, line)
    for module, tree in parsed_src():
        for qualified, node, owner in public_definitions(module, tree.body):
            target = f".{node.name}" if owner else qualified
            definitions.append((qualified, target, module, node.lineno, node.end_lineno))
        refs += [(target, module, line) for target, line in references(module, tree)]
    dead = set()
    while True:
        dead_spans = [(module, first, last) for qualified, _, module, first, last in definitions
                      if qualified in dead]

        def live(target, module, first, last):
            return any(
                ref == target and not (where == module and first <= line <= last)
                and not any(where == m and a <= line <= b for m, a, b in dead_spans)
                for ref, where, line in refs
            )

        found = {qualified for qualified, *span in definitions
                 if qualified not in kept and not live(*span)}
        if found <= dead:
            return dead
        dead |= found


def unset_defaults():
    """``module.function.parameter`` for each defaulted parameter of a public
    function, method or class constructor that no call in ``src/`` passes."""
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
            name = node.name
            if isinstance(node, ast.ClassDef):  # its __init__, against calls by the class name
                node = next((d for d in node.body if isinstance(d, ast.FunctionDef)
                             and d.name == "__init__"), None)
                if node is None:
                    continue
                qualified, owner = f"{qualified}.__init__", name
            args = node.args
            positional = args.posonlyargs + args.args
            if owner:  # a method's self is bound at the call
                positional = positional[1:]
            first_default = len(positional) - len(args.defaults)
            defaulted = [(p.arg, k) for k, p in enumerate(positional) if k >= first_default]
            defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            outside = [
                call for called, where, call in calls
                if called == name
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
