import ast
from pathlib import Path

import parkplan

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [
    p for p in sorted((ROOT / "src" / "parkplan").glob("*.py")) if p.name != "__init__.py"
] + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# the package's modules and the scripts
SOURCES = sorted((ROOT / "src" / "parkplan").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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
    unread = {p.name: names for p in SOURCES if (names := _unread_imports(p))}
    assert not unread, f"imported but never read: {unread}"


def _unencoded_text_io(path: Path) -> list[str]:
    """The ``open``, ``read_text`` and ``write_text`` calls of a module that
    name no ``encoding``; an ``open`` in a binary mode needs none."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        if any(k.arg == "encoding" for k in node.keywords):
            continue
        if name == "open":
            # the mode follows the file of open(file, mode), and leads Path.open(mode)
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes):
                continue
        found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_text_file_is_read_and_written_as_utf8():
    unencoded = [site for p in SOURCES for site in _unencoded_text_io(p)]
    assert not unencoded, f"text I/O without encoding=: {unencoded}"
