"""The public API holds no name that only tests reach: every name the
package exports is used by the library itself, a script or the
benchmark, outside its own definition."""

import io
import tokenize
from pathlib import Path

import layered_scatter

ROOT = Path(__file__).resolve().parents[1]


def _code_names(path: Path) -> set:
    """The identifiers of a file's code (no comment or string), less the
    names that its def and class statements define."""
    names, previous = set(), None
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string
    return names


def test_every_export_is_used_outside_the_tests():
    package = ROOT / "src" / "layered_scatter"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py"))
    files += list((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_code_names(p) for p in files))
    assert [n for n in layered_scatter.__all__ if n not in used] == []
