"""Guard against dead code in the ringlab package.

A module-level function, class or non-dunder assigned name, a non-dunder
method, or an imported name in ``src/ringlab`` must be referenced somewhere
outside its own definition.
Definitions must be referenced from ``src/`` or ``perfbench/``: a test alone
does not keep code alive, except for the reference oracles listed below.
Imported names must be used in the module that imports them.  A reference
is a name, an attribute, or a string constant spelling the name (the
benchmark tracer patches functions by name).  An annotated class field
must be read somewhere in ``src/`` or ``perfbench/``: as an attribute, a
keyword argument or an identifier string; a read from a test alone does not
keep it.  Every parameter of a function or method, at any depth, must be
read in its body; lambdas are exempt.  No module imports another
module's private (underscore) name.  The checks go by name only, so a
dead method or field that shares its name with a live one is not caught.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringlab"
PROGRAM_DIRS = ("src", "perfbench")
TEST_DIR = "tests"

# Program code that no program path calls, kept as the reference that tests
# compare other program code against; a reference from tests/ keeps these.
REFERENCE_ORACLES = {
    # re-derives the frozen interface tables by two-row validity checks
    "catalog.derive_interface_table",
    # the link word of one vertex, which check gathers in batches by plan
    "engine.link_word",
    # the labels per sector that the kernel's ring tables must allow
    "rings.sector_options",
    # the edge map that the face and vertex maps must agree with
    "lattice.Isometry.apply_edge",
}

# Parameters that their function's body never reads, kept for a caller that
# passes them.
UNREAD_PARAMETERS = {
    # perfbench's classify workload passes threads=2 at its small size
    "engine.enumerate_completions(threads)",
}


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


def _corpus(*tops: str) -> Dict[Path, ast.AST]:
    return {
        path: _parse(path)
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_definition_is_referenced():
    corpus = _corpus(*PROGRAM_DIRS)
    program: Counter = Counter()
    for tree in corpus.values():
        program.update(_references(tree))
    tests: Counter = Counter()
    for tree in _corpus(TEST_DIR).values():
        tests.update(_references(tree))
    dead: List[str] = []
    oracles = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(corpus[path]):
            name = qualname.rsplit(".", 1)[-1]
            where = f"{path.stem}.{qualname}"
            total = program[name] - _references(node)[name]
            if where in REFERENCE_ORACLES:
                oracles.add(where)
                total += tests[name]
            if total <= 0:
                dead.append(where)
    assert not dead, "unreferenced definitions: " + ", ".join(dead)
    assert oracles == REFERENCE_ORACLES, "oracles not defined: " + ", ".join(
        sorted(REFERENCE_ORACLES - oracles))


def test_every_class_field_is_read():
    corpus = _corpus(*PROGRAM_DIRS)
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


def _unread_parameters(node: ast.AST, prefix: str) -> Iterator[str]:
    """prefix.qualname(parameter) of each parameter of a function or method
    under node that no name load in the function's body reads."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            reads = {sub.id for stmt in child.body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            for param in params:
                if param.arg not in reads:
                    yield f"{prefix}.{child.name}({param.arg})"
            yield from _unread_parameters(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from _unread_parameters(child, f"{prefix}.{child.name}")
        else:
            yield from _unread_parameters(child, prefix)


def test_every_parameter_is_read():
    unread = {
        where
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _unread_parameters(_parse(path), path.stem)
    }
    assert unread == UNREAD_PARAMETERS, "unread parameters: " + ", ".join(
        sorted(unread - UNREAD_PARAMETERS)) + "; allowed but read: " + ", ".join(
        sorted(UNREAD_PARAMETERS - unread))


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore is read only in its own module:
    a module that needs another's private helper gets a public one."""
    private = [
        f"{path.stem}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "private names imported: " + ", ".join(private)
