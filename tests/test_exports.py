import ast
import types
from pathlib import Path

import pytest

import mexparity
from mexparity import errors, genfun, partitions, series, verify

MODULES = (series, errors, partitions, genfun, verify)


def test_package_exports_exactly_the_module_all_lists():
    public = {
        name
        for name, value in vars(mexparity).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mexparity, name) is getattr(module, name), (module.__name__, name)


def test_only_series_knows_the_gf2_storage():
    # outside series.py a GF(2) series is read through .digits or
    # nonzero_indices: no private name from .series, no TruncatedSeries._make
    offences = []
    for path in sorted(Path(mexparity.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "series":
                offences += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_make"
                and isinstance(node.value, ast.Name)
                and node.value.id == "TruncatedSeries"
            ):
                offences.append((path.name, "TruncatedSeries._make"))
    assert offences == []


def test_the_mod2_ceiling_is_compared_in_one_function():
    # every GF(2) order check goes through series.checked_mod2_order
    def ceiling_compares(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(
                getattr(n, "id", getattr(n, "attr", None)) == "MOD2_ORDER_CEILING"
                for n in ast.walk(node)
            )
        ]

    paths = sorted(Path(mexparity.__file__).parent.glob("*.py"))
    compares = [node for path in paths for node in ceiling_compares(ast.parse(path.read_text()))]
    [owner] = [
        node
        for node in ast.parse(Path(series.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "checked_mod2_order"
    ]
    assert len(compares) == 1
    assert len(ceiling_compares(owner)) == 1


def test_series_are_checked_and_laid_out_in_one_function():
    # the domain check is made once, in _from_terms, which the constructor
    # and every named series build through
    tree = ast.parse(Path(series.__file__).read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def domain_checks(node):
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "isinstance"
            and getattr(n.args[1], "id", None) == "Domain"
        ]

    assert len(domain_checks(tree)) == len(domain_checks(functions["_from_terms"])) == 1
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(functions["__new__"])}
    assert names & {"_bits_of", "_make"} == set()
    assert "_from_terms" in names


def test_no_module_imports_a_private_name_of_another():
    # a private name stays in its module: no `from .x import _y`, and no
    # `x._y` on a package module imported as `from . import x`
    offences = []
    for path in sorted(Path(mexparity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        modules = {a.asname or a.name for node in imports if not node.module for a in node.names}
        offences += [(path.name, a.name) for node in imports for a in node.names if a.name.startswith("_")]
        offences += [
            (path.name, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    assert offences == []


@pytest.mark.parametrize(
    "root, helpers",
    [
        # the crank/rank counts, from tables of partition counts
        ("_crank_rank_tallies", {"_add_part", "_drop_part", "_add_shifted"}),
        # the identity suite's divisor sums, products and comparison, which
        # take plain coefficient lists and tuples
        ("_divisor_sums", set()),
        ("_log_product", {"_slot_recurrence"}),
        ("_identity_report", set()),
    ],
)
def test_oracles_read_no_series_code(root, helpers):
    # each oracle stays independent of the series pipeline: it and every
    # verify function it reaches name nothing that verify imports from
    # series or genfun
    tree = ast.parse(Path(verify.__file__).read_text(), verify.__file__)
    series_names = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("series", "genfun")
        for a in node.names
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, names = set(), [root], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        names |= used
        todo += sorted(used & functions.keys())
    assert reached == {root} | helpers
    assert series_names >= {"ptt_mod2_series", "checked_mod2_order", "euler_pentagonal"}
    assert names & series_names == set()


def test_verify_imports_nothing_from_partitions():
    # the crank/rank counts list no partition, and the enumeration ceiling
    # guards the enumerator alone
    imported = set()
    for node in ast.walk(ast.parse(Path(verify.__file__).read_text(), verify.__file__)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {a.name for a in node.names if not node.module}
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".")[-1] for a in node.names}
    assert "series" in imported
    assert "partitions" not in imported


def _names_used_outside_their_definition(tree):
    # names read as a Name or named as an Attribute, except inside the def
    # or class of the same name: recursion and self-reference are no caller
    used = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return used


def test_every_export_has_a_caller():
    # every exported name is used by other code in src/, or is one the
    # perfbench tracer looks up by name (a string, attribute or import in
    # perfbench/tracer.py, which is read here, not imported).  Once the
    # traced benchmark stops looking names up (ROADMAP item 4), this
    # allowance goes and the tracer's test-only names leave the library.
    src = Path(mexparity.__file__).parent
    used = set()
    for path in sorted(src.glob("*.py")):
        used |= _names_used_outside_their_definition(ast.parse(path.read_text(), str(path)))
    tracer_path = src.parents[1] / "perfbench" / "tracer.py"
    tracer = ast.parse(tracer_path.read_text(), str(tracer_path))
    looked_up = set()
    for node in ast.walk(tracer):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            looked_up.add(node.value)
        elif isinstance(node, ast.Attribute):
            looked_up.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            looked_up |= {a.name for a in node.names}
    exported = [name for module in MODULES for name in module.__all__]
    assert [name for name in exported if name not in used | looked_up] == []
