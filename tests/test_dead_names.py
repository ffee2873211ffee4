"""Every top-level function, class and UPPER_CASE constant of the package,
private or public, is used somewhere in src/ or perfbench/ besides its own
definition: code that the pipeline never reaches is wired in or deleted."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vdmini"
# (module, name) pairs used only by tests: criterion 1 checks that its op
# cases cover every op kind
ONLY_IN_TESTS = {("tensor", "op_kinds")}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _sources() -> dict:
    return {path: path.read_text(encoding="utf-8")
            for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))}


def _constants(tree: ast.Module) -> list:
    """The module's top-level `NAME = ...` assignments with an UPPER_CASE
    name, as (name, target node)."""
    return [(t.id, t) for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]


def _module_refs(tree: ast.Module) -> set:
    """(module, name) pairs of the package that a file reads as
    `<module>.NAME`, through whatever name `from vdmini import` (or
    `from . import`) bound the module to, or imports as
    `from <module> import NAME`."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("vdmini.").removeprefix("vdmini")
            for alias in node.names:
                if not source and alias.name in modules:  # from vdmini (or .) import netgraph
                    aliases[alias.asname or alias.name] = alias.name
                elif source in modules:
                    refs.add((source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_public_top_level_name_is_used_besides_its_definition():
    # private names too, so that a helper left behind by a deletion is found
    sources = _sources()
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = set().union(*map(_module_refs, trees.values()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or (path.stem, node.name) in ONLY_IN_TESTS):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            if not any(word.search(rest if other == path else text)
                       for other, text in sources.items()):
                unused.append(f"{path.stem}.{node.name}")
        for name, target in _constants(trees[path]):
            read_here = any(isinstance(n, ast.Name) and n.id == name and n is not target
                            for n in ast.walk(trees[path]))
            if not read_here and (path.stem, name) not in refs:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"top-level names used nowhere besides their definitions: {unused}"


# imports read by other code than their own module's: the package's
# re-exports, and the name perfbench/spans.py patches on pruner
UNREAD_IMPORTS_ALLOWED = {("__init__", None), ("pruner", "backward")}


def _unread_imports(tree: ast.Module) -> list:
    """The names the module's imports bind that nothing in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_imported_name_is_read():
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for tree in ("src", "tests") for path in sorted((ROOT / tree).rglob("*.py"))
              for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
              if not {(path.stem, None), (path.stem, name)} & UNREAD_IMPORTS_ALLOWED]
    assert not unread, f"imported names that nothing reads: {unread}"
