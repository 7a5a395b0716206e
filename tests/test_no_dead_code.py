"""Guard against dead code in the ringlab package.

A module-level function, class or non-dunder assigned name, a non-dunder
method, or an imported name in ``src/ringlab`` must be referenced somewhere
outside its own definition.
Definitions may be referenced from ``src/``, ``tests/`` or ``perfbench/``;
imported names must be used in the module that imports them.  A reference
is a name, an attribute, or a string constant spelling the name (the
benchmark tracer patches functions by name).  An annotated class field
must be read somewhere: as an attribute, a keyword argument or an
identifier string.  The checks go by name only, so a dead method or field
that shares its name with a live one is not caught.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringlab"
REFERENCE_DIRS = ("src", "tests", "perfbench")


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node: ast.AST) -> Counter:
    """Every name, attribute and identifier string under node."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out[sub.value] += 1
    return out


def _assigned_names(node: ast.AST) -> Iterator[str]:
    """The non-dunder names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and not (
                sub.id.startswith("__") and sub.id.endswith("__")
            ):
                yield sub.id


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Module-level functions, classes and assigned names, and the
    non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        for name in _assigned_names(node):
            yield name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item


def _fields(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """The annotated fields of module-level classes: (qualname, name)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _field_reads(node: ast.AST) -> Counter:
    """Every attribute load, keyword argument and identifier string under node."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            out[sub.arg] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out[sub.value] += 1
    return out


def _imported_names(tree: ast.Module) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _corpus() -> Dict[Path, ast.AST]:
    return {
        path: _parse(path)
        for top in REFERENCE_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_definition_is_referenced():
    corpus = _corpus()
    total: Counter = Counter()
    for tree in corpus.values():
        total.update(_references(tree))
    dead: List[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(corpus[path]):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] - _references(node)[name] <= 0:
                dead.append(f"{path.stem}.{qualname}")
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def test_every_class_field_is_read():
    corpus = _corpus()
    reads: Counter = Counter()
    for tree in corpus.values():
        reads.update(_field_reads(tree))
    unread = [
        f"{path.stem}.{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _fields(corpus[path])
        if not reads[name]
    ]
    assert not unread, "unread class fields: " + ", ".join(unread)


def test_every_import_is_used():
    unused: List[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _references(tree)
        for name in _imported_names(tree):
            if not used[name]:
                unused.append(f"{path.stem}: {name}")
    assert not unused, "unused imports: " + ", ".join(unused)
