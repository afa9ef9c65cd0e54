"""Every public function and method of the library has a caller in the library.

A public function that only tests call is code no task runs: give it a
caller or delete it.  The check is by name: a definition counts as called
when its name appears as a name or an attribute anywhere in src/holomaplab,
`__init__.py` aside.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "holomaplab"

# entry points that the library offers its users without calling them itself
ENTRY_POINTS = {
    "kappa_at",  # kappa(z), the paper's pointwise functional
    "polydisc",  # DomainSpec.polydisc, the twin of DomainSpec.ball
}


def public_definitions(path):
    """(qualified name, name) of each module-level function and each method
    of a module-level class whose name does not start with an underscore."""
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                owner = f"{node.name}." if item is not node else ""
                yield f"{path.stem}.{owner}{item.name}", item.name


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
    uncalled = [qualified for qualified, name in defined
                if name not in referenced and name not in ENTRY_POINTS]
    assert uncalled == []
