"""Every public top-level function and class of the package is named
somewhere in src/ or perfbench/ besides its own definition: code that the
pipeline never reaches is wired in or deleted."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, name) pairs used only by tests: criterion 1 checks that its op
# cases cover every op kind
ONLY_IN_TESTS = {("tensor", "op_kinds")}


def test_every_public_top_level_name_is_used_besides_its_definition():
    sources = {path: path.read_text(encoding="utf-8")
               for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "vdmini").glob("*.py")):
        lines = sources[path].splitlines()
        for node in ast.parse(sources[path]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_")
                    or (path.stem, node.name) in ONLY_IN_TESTS):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            if not any(word.search(rest if other == path else text)
                       for other, text in sources.items()):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names used nowhere besides their definitions: {unused}"
