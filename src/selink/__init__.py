"""Exact-arithmetic invariants of weighted-homogeneous hypersurface links.

The package computes, from a weight/degree presentation or a tuple of
Brieskorn-Pham exponents:

* the trichotomy type (positive/negative/null) of the natural contact
  structure on the link,
* the middle-degree homology (Betti number and torsion divisibility
  chain) via exact subset sums over fractional weights,
* existence or obstruction verdicts for Sasaki-Einstein metrics from
  rational inequalities, with exact margins,
* dimension-specific extras: Smale names and a classification-table
  lookup in dimension 5, the Casson invariant and tight-contact counts
  in dimension 3, and a naive moduli count,
* toric machinery: moment cones from integer weight data, the
  Gorenstein condition, normalized cone volumes, and numerical
  minimization of the volume over the Reeb slice.

Everything combinatorial runs in exact integer/rational arithmetic;
floats appear only in the toric optimizer.  The package needs nothing
beyond the standard library.  The toric names load on first use, so the
link commands do not pay for importing them.
"""

from . import catalog, dimension, errors, existence, homology, links
from ._version import __version__
from .catalog import *
from .dimension import *
from .errors import *
from .existence import *
from .homology import *
from .links import *

# The names of the toric module, which loads on first use through
# __getattr__ below; toric.__all__ is built from this list.
_TORIC_NAMES = (
    "MomentCone",
    "ReebVector",
    "WeightMatrix",
    "GorensteinResult",
    "VolumeMinimum",
    "cone_from_weights",
    "gorenstein_gamma",
    "reeb_slice_project",
    "volume",
    "volume_gradient",
    "volume_hessian",
    "reeb_is_interior",
    "minimize_volume",
    "read_cone_file",
    "read_weight_matrix_file",
)

__all__ = [
    "__version__",
    *links.__all__,
    *homology.__all__,
    *existence.__all__,
    *dimension.__all__,
    *_TORIC_NAMES,
    *catalog.__all__,
    *errors.__all__,
]


def __getattr__(name):
    if name in _TORIC_NAMES:
        from . import toric

        return getattr(toric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
