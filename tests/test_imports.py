"""Import hygiene: the package loads no third-party module.

Each check runs in a fresh interpreter, since this test process has
already imported numpy, scipy and sympy for the oracles.
"""

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


def test_toric_names_resolve_on_demand():
    code = """
import sys
import selink
assert "selink.toric" not in sys.modules
from selink.toric import MomentCone
assert selink.MomentCone is MomentCone
missing = [name for name in selink.__all__ if not hasattr(selink, name)]
assert not missing, missing
namespace = {}
exec("from selink import *", namespace)
assert set(selink.__all__) <= set(namespace)
try:
    selink.no_such_name
except AttributeError:
    print("ok")
"""
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
