"""Value semantics of the package's record classes.

Each value class writes its own __init__ and inherits ==, the hash and
the repr from selink._Value, which read the fields its __match_args__
names; a frozen dataclass with the same fields, built here, is the oracle
for all three.  CatalogRecord stays mutable and unhashable, and the
classes that cross a process boundary in a parallel batch pickle.
"""

import dataclasses
import pickle
from fractions import Fraction
from importlib import import_module

import pytest

import selink
from selink import (
    BPExponents,
    CatalogRecord,
    ExistenceVerdict,
    GorensteinResult,
    HomologyGroup,
    MomentCone,
    OrlikTable,
    ReebVector,
    SmaleManifold,
    TableLookup,
    VolumeMinimum,
    WeightedLink,
    WeightMatrix,
)

CONIFOLD = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))

# A factory per class, called twice for two equal instances, and the repr.
VALUES = {
    "WeightedLink": (
        lambda: WeightedLink((6, 10, 15), 30),
        "WeightedLink(weights=(6, 10, 15), degree=30)",
    ),
    "BPExponents": (lambda: BPExponents((2, 3, 5)), "BPExponents(exponents=(2, 3, 5))"),
    "OrlikTable": (
        lambda: OrlikTable(4, ((0, 2, Fraction(0)), (7, 3, Fraction(1, 2)))),
        "OrlikTable(size=4, entries=((0, 2, Fraction(0, 1)), (7, 3, Fraction(1, 2))))",
    ),
    "HomologyGroup": (
        lambda: HomologyGroup(10, (3,), 3, "proven"),
        "HomologyGroup(betti=10, torsion=(3,), degree=3, applicability='proven')",
    ),
    "ExistenceVerdict": (
        lambda: ExistenceVerdict("positive", "se_exists", "ghigi_kollar", Fraction(1, 30)),
        "ExistenceVerdict(link_type='positive', status='se_exists', rule='ghigi_kollar', "
        "margin=Fraction(1, 30))",
    ),
    "ExistenceVerdict defaults": (
        lambda: ExistenceVerdict("negative", "eta_einstein_exists"),
        "ExistenceVerdict(link_type='negative', status='eta_einstein_exists', rule=None, "
        "margin=None)",
    ),
    "SmaleManifold": (
        lambda: SmaleManifold(1, (2, 4)),
        "SmaleManifold(betti=1, torsion_chain=(2, 4))",
    ),
    "TableLookup": (
        lambda: TableLookup("yes", "M_inf # M_m", "m > 11"),
        "TableLookup(status='yes', row='M_inf # M_m', condition='m > 11')",
    ),
    "TableLookup defaults": (
        lambda: TableLookup("no"),
        "TableLookup(status='no', row=None, condition=None)",
    ),
    "MomentCone": (
        lambda: MomentCone(CONIFOLD),
        "MomentCone(normals=((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)))",
    ),
    "ReebVector": (
        lambda: ReebVector([3, Fraction(3, 2), 1.5]),
        "ReebVector(components=(3, Fraction(3, 2), 1.5))",
    ),
    "GorensteinResult": (
        lambda: GorensteinResult((-1, 0, 0)),
        "GorensteinResult(gamma=(-1, 0, 0), reason=None)",
    ),
    "GorensteinResult failed": (
        lambda: GorensteinResult(None, "inconsistent"),
        "GorensteinResult(gamma=None, reason='inconsistent')",
    ),
    "VolumeMinimum": (
        lambda: VolumeMinimum(ReebVector((3.0, 1.5, 1.5)), 0.5, 0, 0.0),
        "VolumeMinimum(reeb=ReebVector(components=(3.0, 1.5, 1.5)), value=0.5, "
        "iterations=0, grad_norm=0.0)",
    ),
    "WeightMatrix": (
        lambda: WeightMatrix([[1, 1, -1, -1]], 4),
        "WeightMatrix(rows=((1, 1, -1, -1),), n=4)",
    ),
}


def oracle(value):
    """A frozen dataclass of the same name and compared fields, holding the same values."""
    cls = type(value)
    fields = cls.__match_args__
    mirror = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    return mirror(*(getattr(value, name) for name in fields))


@pytest.mark.parametrize("name", VALUES)
class TestFrozenValues:
    def test_equal_fields_give_equal_values_and_hashes(self, name):
        make, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(oracle(a))
        assert len({a, b}) == 1

    def test_repr_is_the_dataclass_repr(self, name):
        make, text = VALUES[name]
        value = make()
        assert repr(value) == text == repr(oracle(value))

    def test_other_classes_are_unequal(self, name):
        make, _ = VALUES[name]
        value = make()
        fields = tuple(getattr(value, field) for field in type(value).__match_args__)
        assert value != oracle(value) and oracle(value) != value
        assert value != fields and value is not None
        others = [other() for key, (other, _) in VALUES.items() if key != name]
        assert all(value != other for other in others)

    def test_assignment_raises(self, name):
        make, _ = VALUES[name]
        value = make()
        field = type(value).__match_args__[0]
        before = repr(value)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
            value.extra = 1
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
        assert repr(value) == before

    def test_pickle_round_trip(self, name):
        make, _ = VALUES[name]
        value = make()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and repr(copy) == repr(value) and hash(copy) == hash(value)

    def test_each_field_counts(self, name):
        make, _ = VALUES[name]
        value = make()
        cls = type(value)
        for field in cls.__match_args__:
            # The same value but for one field, built past the checks in __init__.
            copy = object.__new__(cls)
            copy.__dict__.update(vars(value))
            copy.__dict__[field] = object()
            assert copy != value and value != copy, field
            assert hash(copy) == hash(oracle(copy)), field


def test_every_value_class_has_an_oracle():
    for module in selink._EXPORTS:
        import_module(f"selink.{module}")
    built = {type(make()) for make, _ in VALUES.values()}
    assert set(selink._Value.__subclasses__()) == built


def test_bp_link_is_outside_repr_eq_and_hash():
    bp = BPExponents((2, 3, 5))
    assert bp.link == WeightedLink((15, 10, 6), 30)
    assert hash(bp) == hash(((2, 3, 5),))
    copy = pickle.loads(pickle.dumps(bp))
    assert copy.link == bp.link


def test_fields_match_by_position():
    match WeightedLink((6, 10, 15), 30):
        case WeightedLink(weights, degree):
            assert (weights, degree) == ((6, 10, 15), 30)
        case _:
            pytest.fail("no positional match")


def test_cone_caches_beside_its_fields():
    cone = MomentCone(CONIFOLD)
    assert "_incidences" in vars(cone)
    assert cone == MomentCone(CONIFOLD)  # the cached rays take no part in ==


class TestCatalogRecord:
    def record(self):
        return CatalogRecord("bp=2,3,5", weights=(15, 10, 6), degree=30, casson=-1)

    def test_equal_fields_give_equal_records(self):
        assert self.record() == self.record()
        changed = self.record()
        changed.casson = None
        assert changed != self.record()
        assert self.record() != "bp=2,3,5"

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'CatalogRecord'"):
            hash(self.record())

    def test_mutable(self):
        record = self.record()
        record.error = "homology: boom"
        assert record.error == "homology: boom"

    def test_repr(self):
        assert repr(self.record()) == (
            "CatalogRecord(presentation='bp=2,3,5', weights=(15, 10, 6), degree=30, n=None, "
            "index=None, link_type=None, betti=None, torsion=None, applicability=None, "
            "status=None, rule=None, margin=None, smale=None, se_status=None, "
            "se_condition=None, casson=-1, moduli=None, error=None)"
        )

    def test_pickle_round_trip(self):
        record = self.record()
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and repr(copy) == repr(record)

    def test_added_attribute_counts_in_neither_eq_nor_repr(self):
        # A catalog line holds the annotated fields only; so do == and repr.
        record = self.record()
        record.note = "x"
        assert CatalogRecord.from_dict(record.to_dict()) == record
        assert record == self.record() and self.record() == record
        assert repr(record) == repr(self.record())
