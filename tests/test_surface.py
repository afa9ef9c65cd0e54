"""Every public function and method of the library has a caller in the library,
and none takes a private keyword.

A public function that only tests call is code no task runs: give it a
caller or delete it.  The check is by name: a definition counts as called
when its name appears as a name or an attribute anywhere in src/holomaplab,
`__init__.py` aside.  A parameter whose name starts with an underscore is a
second code path that only library callers select: call the private
function that holds it instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "holomaplab"

# entry points that the library offers its users without calling them itself
ENTRY_POINTS = {
    "kappa_at",  # kappa(z), the paper's pointwise functional
    "polydisc",  # DomainSpec.polydisc, the twin of DomainSpec.ball
    "inscribed_lower_bound",  # the Landau ball about a fixed center, for users
}

# the private keywords kept, by qualified name: through them bz_sequence
# shares its draws with each bz_step, and bz_step with lambda_functional, so
# that both renorm layers stay public calls that perfbench's tracer sees
PRIVATE_KEYWORDS = {
    "renorm.lambda_functional": {"_pts"},
    "renorm.bz_step": {"_draws"},
}


def public_definitions(path):
    """(qualified name, definition) of each module-level function and each
    method of a module-level class whose name does not start with an
    underscore."""
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                owner = f"{node.name}." if item is not node else ""
                yield f"{path.stem}.{owner}{item.name}", item


def referenced_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_function_has_a_caller_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    defined = [d for path in paths for d in public_definitions(path)]
    referenced = {name for path in paths if path.name != "__init__.py"
                  for name in referenced_names(path)}
    assert len(defined) > 50
    uncalled = [qualified for qualified, item in defined
                if item.name not in referenced and item.name not in ENTRY_POINTS]
    assert uncalled == []


def test_no_public_function_takes_a_private_keyword():
    private = {}
    for path in sorted(SRC.glob("*.py")):
        for qualified, item in public_definitions(path):
            params = item.args.posonlyargs + item.args.args + item.args.kwonlyargs
            names = {p.arg for p in params if p.arg.startswith("_")}
            if names:
                private[qualified] = names
    assert private == PRIVATE_KEYWORDS
