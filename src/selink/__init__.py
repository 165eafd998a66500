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
beyond the standard library.  Every module loads on first use: ``import
selink`` loads none of them, and a name asked of the package loads the
module that defines it and what that module imports, nothing more.
"""

import operator
from importlib import import_module

from ._version import __version__

# The public names of each module, which loads on first use through
# __getattr__ below; each module's __all__ is built from its row.
_EXPORTS = {
    "links": (
        "LINK_TYPES", "WeightedLink", "BPExponents", "fractional_weights", "classify_type",
        "parse_presentation", "as_link",
    ),
    "homology": (
        "HomologyGroup", "OrlikTable", "betti_number", "orlik_table", "torsion_orders",
        "link_homology",
    ),
    "existence": ("STATUSES", "RULES", "ExistenceVerdict", "decide_existence"),
    "dimension": (
        "SmaleManifold", "TableLookup", "smale_name", "table_lookup", "casson_invariant",
        "negative_continued_fraction", "tight_contact_count", "count_monomials",
        "moduli_dimension", "moduli_reference", "MODULI_REFERENCE",
    ),
    "toric": (
        "MomentCone", "ReebVector", "WeightMatrix", "GorensteinResult", "VolumeMinimum",
        "cone_from_weights", "gorenstein_gamma", "reeb_slice_project", "volume",
        "volume_gradient", "reeb_is_interior", "minimize_volume", "read_cone_file",
        "read_weight_matrix_file",
    ),
    "catalog": (
        "CatalogRecord", "run_pipeline", "enumerate_bp", "write_catalog", "read_catalog",
        "export_table",
    ),
    "errors": (
        "DomainError", "InternalConsistencyError", "NotSmaleFormError",
        "UnboundedPolytopeError", "ConvergenceError",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


class _Value:
    """Base of the package's immutable value classes.

    A subclass's ``__init__`` checks its arguments and stores each field
    once, in the instance ``__dict__``.  ``==``, the hash and the repr all
    read the fields that ``__match_args__`` names, in order, and nothing
    else, as a frozen dataclass's would.  No method is generated: the
    standard library's generator imports ``inspect`` and execs code for
    each class, which every command would pay at start.
    """

    def __init_subclass__(cls):
        # The key is the field tuple, also for a single field, of which an
        # attrgetter returns the bare value; neither form binds to self.
        key = operator.attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) == 1:
            key = staticmethod(lambda value, field=key: (field(value),))
        cls._key = key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
