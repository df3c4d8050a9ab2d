"""Least code: every public name of the package is reached from the program.

A public module-level def, class or assigned name of `src/polydiam/`,
and a public method, property or dataclass field of such a class, must
be referenced (as a name or an attribute) somewhere in `src/`,
`scripts/` or the non-test files of `perfbench/`, outside its own
definition.  Exports in `__init__.py` do not count.  A helper that only
its own tests call is removed or moved to the tests; the few kept on
purpose are listed below with the reason, and the list must not go
stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polydiam"

# (module, name): why the name stays although nothing in the program calls it
ALLOWED_UNREFERENCED = {}


def _program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    return files


def _public_defs(tree):
    """(name, node) of each public module-level def, class and assigned
    name, and of each public method, property and dataclass field of such
    a class, as `Class.member`."""
    for node in tree.body:
        targets = ([node.target] if isinstance(node, ast.AnnAssign)
                   else node.targets if isinstance(node, ast.Assign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                yield target.id, node
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", member


def _referenced_names(tree, skip):
    """Names and attribute names used in `tree`, outside the nodes in `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}
    defs = {(path.stem, name): (path, node)
            for path, tree in trees.items() if path.parent == PACKAGE
            for name, node in _public_defs(tree)}
    unreferenced = set()
    for key, (home, definition) in defs.items():
        name = key[1].rpartition(".")[2]
        if not any(name in _referenced_names(tree, {definition} if path == home else set())
                   for path, tree in trees.items()):
            unreferenced.add(key)
    return unreferenced


def test_every_public_name_is_referenced_or_allow_listed():
    found = unreferenced_public_names()
    assert found - set(ALLOWED_UNREFERENCED) == set(), "referenced nowhere in the program"
    assert set(ALLOWED_UNREFERENCED) - found == set(), "now referenced: drop from the allow-list"



def test_the_scan_reaches_class_members():
    tree = ast.parse(
        "@dataclass\nclass A:\n    x: int\n    _y: int\n    def m(self): pass\n"
        "    @property\n    def p(self): pass\n    def _h(self): pass\n"
    )
    assert [name for name, _ in _public_defs(tree)] == ["A", "A.x", "A.m", "A.p"]


def test_the_scan_reaches_module_level_assignments():
    tree = ast.parse("Alias = int\n_hidden = 1\nLIMIT: int = 3\nx.attr = 2\n")
    assert [name for name, _ in _public_defs(tree)] == ["Alias", "LIMIT"]
