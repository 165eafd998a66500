"""Import hygiene: the package loads no third-party module.

Each check runs in a fresh interpreter, since this test process has
already imported numpy, scipy and sympy for the oracles.  The source is
also read for statements that ``python -O`` would strip.
"""

import ast
from pathlib import Path

import pytest
from conftest import run_python


def test_link_paths_load_no_third_party_module(tmp_path):
    cone_file = tmp_path / "conifold.txt"
    cone_file.write_text("1 0 0\n1 1 0\n1 1 1\n1 0 1\n")
    code = f"""
import sys
import selink
import selink.cli
from selink import run_pipeline
run_pipeline("bp=2,3,5")
run_pipeline("bp=2,3,3,5")
assert selink.cli.main(["homology", "bp=3,3,3,3,3"]) == 0
assert selink.cli.main(["toric", "minimize", {str(cone_file)!r}]) == 0
from selink import WeightMatrix, cone_from_weights, minimize_volume
result = minimize_volume(cone_from_weights(WeightMatrix(((1, 3, -2, -2),), 4)))
print("iterations:", result.iterations)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "sympy"))
print("loaded:", loaded)
"""
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "b=10 torsion=Z/3 proven",
        "xi=3,1.5,1.5 volume=0.592592592593 iterations=0 grad_norm=0",
        "iterations: 3",
        "loaded: []",
    ]


def loaded_after(code: str, packages=("selink",)) -> list[str]:
    """The modules of the packages loaded in a fresh interpreter after running code."""
    report = (
        "import sys\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    result = run_python(f"{code}\n{report}")
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_package_import_loads_no_module():
    assert loaded_after("import selink") == ["selink", "selink._version"]


def test_toric_loads_no_link_layer():
    assert loaded_after("import selink.toric") == [
        "selink",
        "selink._version",
        "selink.errors",
        "selink.intlinalg",
        "selink.links",
        "selink.toric",
    ]


def test_homology_command_loads_neither_catalog_nor_dimension():
    loaded = loaded_after("import selink.cli\nselink.cli.main(['homology', 'bp=3,3,3,3,3'])")
    assert "selink.homology" in loaded
    assert "selink.catalog" not in loaded and "selink.dimension" not in loaded


# None of these loads dataclasses or inspect, whose import alone costs a
# one-query process more time than its arithmetic.
COLD_STARTS = {
    "import selink.cli": "import selink.cli",
    "import selink.toric": "import selink.toric",
    "run_pipeline": "from selink import run_pipeline\nrun_pipeline('bp=2,3,5')",
    "verdict": "import selink.cli\nselink.cli.main(['verdict', 'bp=2,3,5'])",
    "negative verdict": "import selink.cli\nselink.cli.main(['verdict', 'w=1,1,1', 'd=5'])",
    "homology": "import selink.cli\nselink.cli.main(['homology', 'bp=3,3,3,3,3'])",
    "toric minimize": "import selink.cli\nselink.cli.main(['toric', 'minimize', {cone!r}])",
}


@pytest.mark.parametrize("name", COLD_STARTS)
def test_cold_start_loads_no_code_generator(name, tmp_path):
    cone_file = tmp_path / "conifold.txt"
    cone_file.write_text("1 0 0\n1 1 0\n1 1 1\n1 0 1\n")
    code = COLD_STARTS[name].format(cone=str(cone_file))
    assert loaded_after(code, ("dataclasses", "inspect")) == []


# A link query needs no rational arithmetic: fractions, with the decimal
# and numbers modules it imports, loads only where a Fraction is built.  A
# negative link's verdict has no margin, so it builds none.
@pytest.mark.parametrize("name", ["import selink.cli", "homology", "negative verdict"])
def test_link_query_loads_no_fractions(name):
    loaded = loaded_after(COLD_STARTS[name], ("fractions", "decimal", "numbers"))
    assert loaded == []


def test_toric_command_loads_no_link_layer(tmp_path):
    cone_file = tmp_path / "conifold.txt"
    cone_file.write_text("1 0 0\n1 1 0\n1 1 1\n1 0 1\n")
    code = COLD_STARTS["toric minimize"].format(cone=str(cone_file))
    loaded = loaded_after(code)
    assert "selink.toric" in loaded
    assert "selink.existence" not in loaded and "selink.homology" not in loaded


def test_names_resolve_on_demand():
    code = """
import sys
import selink
assert len(selink.__all__) == 54
assert {*selink.__all__, *selink._EXPORTS} <= set(dir(selink))
for module, names in selink._EXPORTS.items():
    defining = getattr(selink, module)
    assert defining is sys.modules["selink." + module], module
    assert defining.__all__ == list(names), module
    for name in names:
        assert getattr(selink, name) is getattr(defining, name), name
namespace = {}
exec("from selink import *", namespace)
assert all(namespace[name] is getattr(selink, name) for name in selink.__all__)
try:
    selink.no_such_name
except AttributeError as exc:
    print(exc)
"""
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "module 'selink' has no attribute 'no_such_name'\n"


# The package's exports as they stood when each module's __all__ became
# the only list of its names, less catalogs_equal and TorsionDivisionError,
# which only tests use and which moved into them, less bp_to_link and
# FractionalWeights, which BPExponents.link and the (u, v) pair of
# fractional_weights replaced, less the four rule predicates, cy_condition
# and cokernel_invariants, which only tests reached: decide_existence reads
# each rule's slack, and cone_from_weights warns with the torsion, and less
# volume_hessian, which only tests called: minimize_volume forms its Hessian
# from the same private pieces, and so does the tests' helper.
# selink.__all__ is assembled from the package's table of them.
EXPORTS = {
    "__version__",
    # links
    "LINK_TYPES", "WeightedLink", "BPExponents", "as_link", "classify_type",
    "fractional_weights", "parse_presentation",
    # homology
    "HomologyGroup", "OrlikTable", "betti_number", "link_homology", "orlik_table",
    "torsion_orders",
    # existence
    "RULES", "STATUSES", "ExistenceVerdict", "decide_existence",
    # dimension
    "MODULI_REFERENCE", "SmaleManifold", "TableLookup", "casson_invariant",
    "count_monomials", "moduli_dimension", "moduli_reference",
    "negative_continued_fraction", "smale_name", "table_lookup", "tight_contact_count",
    # toric
    "GorensteinResult", "MomentCone", "ReebVector", "VolumeMinimum", "WeightMatrix",
    "cone_from_weights", "gorenstein_gamma", "minimize_volume", "read_cone_file",
    "read_weight_matrix_file", "reeb_is_interior", "reeb_slice_project", "volume",
    "volume_gradient",
    # catalog
    "CatalogRecord", "enumerate_bp", "export_table", "read_catalog", "run_pipeline",
    "write_catalog",
    # errors
    "ConvergenceError", "DomainError", "InternalConsistencyError", "NotSmaleFormError",
    "UnboundedPolytopeError",
}


def test_package_exports():
    import selink

    assert len(EXPORTS) == 54
    assert len(selink.__all__) == len(set(selink.__all__))
    assert set(selink.__all__) == EXPORTS


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so an invariant check written as
    # one would silently vanish; the package raises its own errors instead.
    src = Path(__file__).resolve().parent.parent / "src"
    paths = sorted(src.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(src)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
