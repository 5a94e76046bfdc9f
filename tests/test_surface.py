"""The public surface of ``qcrystal`` and the import boundary of its source.

The package's public names are pinned as one literal list, and so are the
public attributes of a generated ``CrystalGraph``, whose columns are the
one way to read an element: each addition or removal is a deliberate edit
here.  The library imports only the standard library and its own modules:
no test reference under ``tests/`` may be imported from ``src/``, as each
reference's docstring says.  The oracles (``character``, ``demazure``,
``qarith``, ``rank_one`` and ``sparse``) never import, even through one
another, the path model in ``crystal`` or the ``cli``.
"""

import ast
import sys
import types
from pathlib import Path

import qcrystal

PUBLIC = [
    "CartanDatum", "CrystalGraph", "DEFAULT_MAX_ELEMENTS",
    "ExactDivisionError", "FormalCharacter", "LaurentPoly", "PathKernelError",
    "RankOneModule", "ResourceCapError", "act_K", "act_divided_f", "act_e", "act_f",
    "apply_demazure_word", "apply_word", "bar", "cartan_datum",
    "char_of", "crystal_f_tilde", "demazure_crystal", "demazure_operator",
    "dominance_leq", "eval_at_one", "extremal_element", "extremal_weights",
    "generate_crystal", "is_dominant", "is_reduced", "iterated_f_over_factorial",
    "longest_word", "positive_roots", "qbinom", "qfact", "qint",
    "reflect", "rho", "simple_root", "supported_types",
    "verify_normal", "verify_sl2_relation", "weyl_character", "weyl_dimension",
    "weyl_group", "weyl_orbit", "weyl_order",
]

# instance fields (the columns and what they are read over), methods and the edges
# property: no per-element accessor
GRAPH = [
    "all_ids", "children", "datum", "denominator", "edge_triples", "edges", "eps_of",
    "highest_weight", "indices", "orbit", "parents", "phi_of", "runs", "weight_of",
]

SOURCE = Path(qcrystal.__file__).parent
TESTS = Path(__file__).parent


def test_public_names_are_the_pinned_list():
    # submodules are bound on the package as they get imported, so they are no API
    names = sorted(name for name, value in vars(qcrystal).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC)


def test_crystal_graph_attributes_are_the_pinned_list(graph_of):
    graph = graph_of("A2", (1, 1))
    names = [name for name in dir(graph) if not name.startswith("_")]
    assert names == GRAPH
    defined = {name for name, value in vars(qcrystal.CrystalGraph).items()
               if isinstance(value, (types.FunctionType, property))}
    assert [name for name in names if name not in vars(graph) and name not in defined] == []


def _absolute_imports(path):
    """(line, top-level module) of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_source_imports_only_the_standard_library_and_itself():
    references = {path.stem for path in TESTS.glob("*.py")}
    sources = sorted(SOURCE.glob("*.py"))
    assert {path.stem for path in sources} >= {"__init__", "crystal", "root_data"}
    imported = [(path.name, line, module) for path in sources
                for line, module in _absolute_imports(path)]
    assert [found for found in imported if found[2] in references] == []
    assert [found for found in imported if found[2] not in sys.stdlib_module_names] == []


def _relative_imports(path):
    """The sibling modules that one source file imports relatively."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.partition(".")[0]
            else:  # from . import demazure
                yield from (alias.name for alias in node.names)


def test_oracles_never_reach_the_path_model_or_the_cli():
    # The character, Demazure and rank-one oracles check what the path model in
    # crystal builds, so no chain of their imports may lead there.  Read from the
    # source: importing any submodule runs qcrystal/__init__, which imports crystal.
    oracles = ("character", "demazure", "qarith", "rank_one", "sparse")
    reached, pending = set(), list(oracles)
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_relative_imports(SOURCE / f"{module}.py"))
    assert reached & {"crystal", "cli"} == set(), sorted(reached)
    assert reached == {*oracles, "root_data"}
