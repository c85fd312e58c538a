"""The public API holds no name that only tests reach: every name the
package exports, and every public function, class and method its modules
define, is used by the library itself, a script or the benchmark, outside
its own definition."""

import ast
import tokenize
from pathlib import Path

import layered_scatter

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layered_scatter"


def _users():
    """The files whose code may use a name: the package's modules (not
    its __init__, which only re-exports), the scripts and the benchmark."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))


def _name_lines(path: Path) -> list:
    """(identifier, line) of each name in a file's code (no comment or
    string)."""
    with open(path, encoding="utf-8") as fh:
        return [(tok.string, tok.start[0])
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME]


def _public_defs(path: Path):
    """The public module-level functions and classes of a module, and the
    public methods of its public classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (n for n in node.body
                            if isinstance(n, ast.FunctionDef)
                            and not n.name.startswith("_"))


def test_every_export_is_used_outside_the_tests():
    used = set()
    for path in _users():
        # the name a def or class statement defines is no use of it
        tokens = [name for name, _ in _name_lines(path)]
        used.update(name for name, before in zip(tokens, [None] + tokens)
                    if before not in ("def", "class"))
    assert [n for n in layered_scatter.__all__ if n not in used] == []


def test_every_public_definition_is_used_outside_the_tests():
    names = {path: _name_lines(path) for path in _users()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_defs(path):
            span = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name
                       and not (other == path and line in span)
                       for other, found in names.items()
                       for name, line in found):
                unused.append("%s:%d %s" % (path.name, node.lineno,
                                            node.name))
    assert unused == []
