import ast
from pathlib import Path

import parkplan

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [
    p for p in sorted((ROOT / "src" / "parkplan").glob("*.py")) if p.name != "__init__.py"
] + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _references(path: Path) -> set[str]:
    """Names a module reads, as a bare name or an attribute, and names it
    imports; a name's own ``def`` or ``class`` line is not a reference."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_every_package_export_is_used_by_the_program():
    used = set().union(*(_references(p) for p in PROGRAM))
    unused = sorted(set(parkplan.__all__) - used)
    assert not unused, f"exported but used only by tests: {unused}"


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; a package's ``__all__``
    entries count as read."""
    imported = set()
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read - {"*"})


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted((ROOT / "src" / "parkplan").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    unread = {p.name: names for p in modules if (names := _unread_imports(p))}
    assert not unread, f"imported but never read: {unread}"
