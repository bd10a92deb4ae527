"""No code that nothing calls: every top-level name in ``src/rowlab`` has a
user in ``src/`` other than its own definition.  A use is counted by scope,
not by spelling: a load that resolves to a module global, an attribute read
off a rowlab module, or a ``from ... import``.  A local or an attribute of
the same name (``shape.children``, a rule's local ``record``) is no use."""

import ast
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rowlab"
MODULES = {path.stem for path in SRC.glob("*.py")}

# names that only the tests or the benchmark use
USED_OUTSIDE_SRC = {
    "__version__", "step_once", "normalize", "tokenize", "parse_type_str",
    "parse_term_str", "variant", "trans_b", "children", "record",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement uses: those it loads as module
    globals, by ``symtable`` on the statement alone (its annotations, not
    deferred there, count too), those it reads off a rowlab module, and
    those it imports with ``from ... import``."""
    out = set()
    tables = [symtable.symtable(ast.unparse(stmt), "<stmt>", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        at_top = table.get_type() == "module"
        out.update(
            sym.get_name() for sym in table.get_symbols()
            if sym.is_referenced() and (at_top or sym.is_global())
        )
    for n in ast.walk(stmt):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            if isinstance(n.value, ast.Name) and n.value.id in MODULES:
                out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _statements() -> list[tuple[str, ast.stmt]]:
    return [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]


def test_every_top_level_name_in_src_has_a_user():
    statements = _statements()
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
    statements = _statements()
    used = set().union(*(_used(stmt) for _, stmt in statements))
    defined = {name for _, stmt in statements for name in _defined(stmt)}
    assert USED_OUTSIDE_SRC <= defined
    assert not USED_OUTSIDE_SRC & used


def test_a_local_or_an_attribute_of_the_same_name_is_no_use():
    stmt = ast.parse(
        "def f(shape, g):\n"
        "    def record(d): return d\n"
        "    return shape.children(g), record(g), [h for h in g], syntax.variant\n"
    ).body[0]
    assert _used(stmt) == {"syntax", "variant"}
    assert _used(ast.parse("x = lambda y: children(y)").body[0]) == {"children"}
