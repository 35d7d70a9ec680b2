"""Every def in ``src/shearks`` is reached from the command line or from
import-time code, apart from a declared allow-list.

The walk is by name through the AST, and generous: a reached name reaches
every def of that name in any module, whether it is read as a bare name or
as an attribute, and a reached class reaches its dunder methods.  Imports
alone reach nothing.
"""

import ast
from pathlib import Path

import shearks

SOURCES = sorted(Path(shearks.__file__).parent.glob("*.py"))

# defs no path from cli.main reaches, each with the benchmark file that pins it
ALLOWED_UNREACHED = {
    "config.grid_of": "benchmarks/workloads.py",
    "spectral.hermitize": "benchmarks/tests/test_bench_spans.py",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set[str]:
    """Every name read, bare or as an attribute, anywhere under nodes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _import_time(body) -> list:
    """The parts of a module or class body that run when it is executed:
    every statement but a def, and the decorators, bases and defaults of
    the defs."""
    out = []
    for stmt in body:
        if not isinstance(stmt, DEFS):
            out.append(stmt)
            continue
        out += stmt.decorator_list
        if isinstance(stmt, ast.ClassDef):
            out += stmt.bases + stmt.keywords + _import_time(stmt.body)
        else:
            out += stmt.args.defaults + [d for d in stmt.args.kw_defaults if d is not None]
    return out


def package_defs() -> tuple[dict, list]:
    """(qualified name -> def node, import-time nodes) of the package: its
    top-level functions and classes and the classes' methods."""
    defs, import_time = {}, []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        import_time += _import_time(tree.body)
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[f"{path.stem}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{path.stem}.{node.name}.{item.name}", item)
                                for item in node.body if isinstance(item, DEFS))
    return defs, import_time


def unreached() -> set[str]:
    defs, import_time = package_defs()
    by_name = {}
    for qual, node in defs.items():
        by_name.setdefault(node.name, []).append(qual)

    def named(nodes):
        return [qual for name in _names(nodes) for qual in by_name.get(name, ())]

    reached, todo = set(), ["cli.main", *named(import_time)]
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        node = defs[qual]
        if isinstance(node, ast.ClassDef):  # its body ran at import; it reaches its dunders
            todo += [f"{qual}.{item.name}" for item in node.body if isinstance(item, DEFS)
                     and item.name.startswith("__") and item.name.endswith("__")]
        else:
            todo += named(node.body)
    return set(defs) - reached


def test_every_src_def_is_reached_or_allowed():
    assert unreached() == set(ALLOWED_UNREACHED)


def test_the_allow_list_names_its_pins():
    for qual, pin in ALLOWED_UNREACHED.items():
        text = (Path(__file__).resolve().parents[1] / pin).read_text()
        assert qual.rsplit(".", 1)[1] in text, (qual, pin)
