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

from ._version import __version__
from .catalog import (
    CatalogRecord,
    catalogs_equal,
    enumerate_bp,
    export_table,
    read_catalog,
    run_pipeline,
    write_catalog,
)
from .dimension import (
    MODULI_REFERENCE,
    SmaleManifold,
    TableLookup,
    casson_invariant,
    count_monomials,
    moduli_dimension,
    moduli_reference,
    negative_continued_fraction,
    smale_name,
    table_lookup,
    tight_contact_count,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    NotSmaleFormError,
    TorsionDivisionError,
    UnboundedPolytopeError,
)
from .existence import (
    RULES,
    STATUSES,
    ExistenceVerdict,
    bp_klt_window,
    crude_klt,
    decide_existence,
    ghigi_kollar,
    lichnerowicz_obstruction,
)
from .homology import (
    HomologyGroup,
    OrlikTable,
    betti_number,
    link_homology,
    orlik_table,
    torsion_orders,
)
from .links import (
    LINK_TYPES,
    BPExponents,
    FractionalWeights,
    WeightedLink,
    as_link,
    bp_to_link,
    classify_type,
    fractional_weights,
    parse_presentation,
)
__all__ = [
    "__version__",
    # links
    "LINK_TYPES",
    "WeightedLink",
    "BPExponents",
    "FractionalWeights",
    "as_link",
    "bp_to_link",
    "classify_type",
    "fractional_weights",
    "parse_presentation",
    # homology
    "HomologyGroup",
    "OrlikTable",
    "betti_number",
    "link_homology",
    "orlik_table",
    "torsion_orders",
    # existence
    "RULES",
    "STATUSES",
    "ExistenceVerdict",
    "bp_klt_window",
    "crude_klt",
    "decide_existence",
    "ghigi_kollar",
    "lichnerowicz_obstruction",
    # dimension tools
    "MODULI_REFERENCE",
    "SmaleManifold",
    "TableLookup",
    "casson_invariant",
    "count_monomials",
    "moduli_dimension",
    "moduli_reference",
    "negative_continued_fraction",
    "smale_name",
    "table_lookup",
    "tight_contact_count",
    # toric
    "GorensteinResult",
    "MomentCone",
    "ReebVector",
    "VolumeMinimum",
    "WeightMatrix",
    "cokernel_invariants",
    "cone_from_weights",
    "cy_condition",
    "gorenstein_gamma",
    "minimize_volume",
    "read_cone_file",
    "read_weight_matrix_file",
    "reeb_is_interior",
    "reeb_slice_project",
    "volume",
    "volume_gradient",
    "volume_hessian",
    # catalog
    "CatalogRecord",
    "catalogs_equal",
    "enumerate_bp",
    "export_table",
    "read_catalog",
    "run_pipeline",
    "write_catalog",
    # errors
    "ConvergenceError",
    "DomainError",
    "InternalConsistencyError",
    "NotSmaleFormError",
    "TorsionDivisionError",
    "UnboundedPolytopeError",
]


def __getattr__(name):
    # Every exported name not bound above is one of the toric names, which
    # load here on first use to keep the link commands' cold start short.
    if name in __all__:
        from . import toric

        return getattr(toric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
