"""No code that nothing calls: every top-level name in ``src/rowlab`` has a
user in ``src/`` other than its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rowlab"

# names that only the tests or the benchmark use
USED_OUTSIDE_SRC = {
    "__version__", "step_once", "normalize", "tokenize", "parse_type_str",
    "parse_term_str", "variant", "trans_b",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used(node: ast.AST) -> set[str]:
    """The names ``node`` loads, reads as attributes or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_every_top_level_name_in_src_has_a_user():
    statements = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    uses = [(where, stmt, _used(stmt)) for where, stmt in statements]
    unused = sorted(
        f"{where}:{name}"
        for where, stmt in statements
        for name in _defined(stmt)
        if name not in USED_OUTSIDE_SRC
        and not any(name in used for _, other, used in uses if other is not stmt)
    )
    assert unused == []


def test_the_allowlist_names_only_what_src_does_not_use():
    used = set()
    for path in SRC.glob("*.py"):
        used |= _used(ast.parse(path.read_text()))
    defined = {
        name
        for path in SRC.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        for name in _defined(stmt)
    }
    assert USED_OUTSIDE_SRC <= defined
    assert not USED_OUTSIDE_SRC & used
