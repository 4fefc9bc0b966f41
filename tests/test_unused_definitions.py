"""Every definition in the package has a use inside the package.

A definition is a module-level function, class or assigned name (a constant
or a table), or a method.  An API that only tests call is a second code path
to keep in step with the first; it goes instead.  The guard is coarse: a name
counts as used when it appears anywhere in ``src/protoeeg`` beyond its own
definition, a mention in a docstring or comment included.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "protoeeg"


def _definitions(tree):
    """Module-level functions, classes and assigned names, and the non-dunder
    methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def test_every_definition_is_used_in_the_package():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli" in sources
    text = "\n".join(sources.values())
    unused = [f"{name}.{definition}"
              for name, source in sources.items()
              for definition in _definitions(ast.parse(source))
              if len(re.findall(rf"(?<!\w){re.escape(definition)}(?!\w)", text)) < 2]
    assert unused == [], f"defined but never used in src/protoeeg: {unused}"
