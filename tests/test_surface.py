"""The package's public surface is what its readers read.

Every public top-level function or class of a `src/threesq` module, and
every public method or property of such a class, must be read somewhere
other than its own definition: in `src/`, `demos/`, `perfbench/*.py` or
`README.md`.  A read in Python is a name, an attribute or an imported
name, matched by name; in the README it is the name as a word inside a
code span or a fenced block, since a prose word such as "cap" names no
code.  A re-export from `__init__.py` is no read, and there is none.  The tests do
not count, so a name that only they read is an oracle and lives in the
tests.  The names kept for another reason are listed in KEPT with it.

Every private top-level function, class or constant of a `src/threesq`
module must be read by `src/` itself, outside its own definition, so no
helper outlives its last caller; the tests may reach into private names,
but they do not keep one alive.

Every option the command-line parsers declare is read as `args.<dest>`
in `cli.py`, so no flag is parsed, echoed and then dropped.

Every work or memory refusal goes through `errors.budget`: each entry of
`errors.BUDGETS` is named by some call of it, and no other DomainError
of the package speaks of a budget or a cap.
"""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import threesq
from threesq import errors
from threesq.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threesq"

KEPT = {
    "arith.local_density": "one prime's density; the tests hold it against a Fraction oracle",
}


def names_read(tree: ast.AST) -> set[str]:
    """Names, attributes and imported names anywhere in a tree."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def package_modules() -> dict[str, list[ast.stmt]]:
    """The top-level statements of each module of the package but __init__."""
    return {
        path.stem: ast.parse(path.read_text()).body
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def is_public_def(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")


def readme_code() -> str:
    """The README's fenced blocks and inline code spans, one per line."""
    fence = r"^```[^\n]*\n(.*?)^```"
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(fence, text, re.MULTILINE | re.DOTALL)
    prose = re.sub(fence, "", text, flags=re.MULTILINE | re.DOTALL)
    return "\n".join(blocks + re.findall(r"`([^`]+)`", prose))


def unread_names() -> set[str]:
    """module.name of every public top-level def or class nothing reads, and
    module.class.name of every such method or property."""
    modules = package_modules()
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    statements = [stmt for body in modules.values() for stmt in body]
    statements += [stmt for path in scripts for stmt in ast.parse(path.read_text()).body]
    # what each top-level statement reads; a definition is one of them
    reads = [(stmt, names_read(stmt)) for stmt in statements]
    readme = readme_code()

    def is_read(name: str, readers: list[set[str]]) -> bool:
        return any(name in names for names in readers) or bool(re.search(rf"\b{re.escape(name)}\b", readme))

    unread = set()
    for module, body in modules.items():
        for stmt in filter(is_public_def, body):
            outside = [names for other, names in reads if other is not stmt]
            if not is_read(stmt.name, outside):
                unread.add(f"{module}.{stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            # a member is read by the other statements and by its class's other members
            for member in filter(is_public_def, stmt.body):
                inside = [names_read(other) for other in stmt.body if other is not member]
                if not is_read(member.name, outside + inside):
                    unread.add(f"{module}.{stmt.name}.{member.name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = unread_names() - set(KEPT)
    assert not unread, f"public names nothing outside the tests reads: {sorted(unread)}"


def private_names(stmt: ast.stmt) -> list[str]:
    """The private, non-dunder names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_read_by_the_package():
    modules = package_modules()
    reads = [(stmt, names_read(stmt)) for body in modules.values() for stmt in body]
    unread = [
        f"{module}.{name}"
        for module, body in modules.items()
        for stmt in body
        for name in private_names(stmt)
        if not any(name in names for other, names in reads if other is not stmt)
    ]
    assert not unread, f"private names nothing in src/ reads: {unread}"


def test_every_kept_name_is_otherwise_unread():
    # a KEPT entry for a name that has a reader exempts nothing
    stale = set(KEPT) - unread_names()
    assert not stale, f"KEPT names that something outside the tests reads: {sorted(stale)}"


def test_kept_names_exist():
    for dotted in KEPT:
        module, *path = dotted.split(".")
        value = importlib.import_module(f"threesq.{module}")
        for attr in path:
            value = getattr(value, attr)


def test_package_reexports_nothing():
    exported = [k for k, v in vars(threesq).items() if inspect.isfunction(v) or inspect.isclass(v)]
    assert exported == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def calls_named(tree: ast.AST, name: str):
    """Every call of `name`, as a plain name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                yield node


def test_every_budget_is_checked_by_name():
    named = {
        call.args[0].value
        for body in package_modules().values()
        for stmt in body
        for call in calls_named(stmt, "budget")
        if call.args and isinstance(call.args[0], ast.Constant)
    }
    assert named == set(errors.BUDGETS), named ^ set(errors.BUDGETS)


def test_no_refusal_outside_the_registry_speaks_of_a_budget():
    found = []
    for module, body in package_modules().items():
        if module == "errors":
            continue
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Raise) or node.exc not in calls_named(node, "DomainError"):
                    continue
                for part in ast.walk(node.exc):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        if re.search(r"budget|cap", part.value, re.IGNORECASE):
                            found.append(f"{module}: {part.value!r}")
    assert not found, found


def test_readme_limits_table_lists_every_budget():
    rows = re.findall(r"^\| `(\w+)` \|", (ROOT / "README.md").read_text(), re.MULTILINE)
    assert rows == list(errors.BUDGETS)


def test_every_cli_option_has_a_reader():
    # the general form of test_threads_flag_is_gone and
    # test_twosq_probe_has_no_delta_flag in tests/test_cli.py
    top = build_parser()
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        action.dest
        for parser in [top, *subparsers.choices.values()]
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    assert "command" in declared and "cells" in declared
    assert not declared - read, f"options cli.py never reads: {sorted(declared - read)}"


def test_no_statistic_reads_the_pair_table():
    # the energies, Ripley counts and harmonic sums of a whole shell walk its
    # orbits; the table's readers are lattice's pair counts and the `pairs`
    # and `verify-arith` commands
    for name in ("spatial", "harmonics"):
        assert "pair_table" not in names_read(ast.parse((PACKAGE / f"{name}.py").read_text())), name
