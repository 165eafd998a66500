"""Catalog records, the analysis pipeline, and batch plumbing.

The mathematics behind every field is unit-tested elsewhere; here the
expected values are either cross-checked against the stage functions
directly or are small pinned examples whose arithmetic is verified in
the per-module suites.  What these tests own is the wiring: field
population, per-stage error isolation, filtering, and the file format
round trip.
"""

import dataclasses
import inspect
import io
import json
import math
import re
import time

import pytest
from conftest import catalogs_equal

import selink.catalog as catalog
import selink.homology as homology
from selink import (
    BPExponents,
    CatalogRecord,
    DomainError,
    InternalConsistencyError,
    WeightedLink,
    casson_invariant,
    decide_existence,
    enumerate_bp,
    export_table,
    link_homology,
    moduli_dimension,
    read_catalog,
    run_pipeline,
    smale_name,
    table_lookup,
    write_catalog,
)

# The record's fields as its dataclass declared them, and that dataclass
# rebuilt as an oracle for to_dict.
RECORD_FIELDS = (
    "presentation", "weights", "degree", "n", "index", "link_type", "betti", "torsion",
    "applicability", "status", "rule", "margin", "smale", "se_status", "se_condition",
    "casson", "moduli", "error",
)
OracleRecord = dataclasses.make_dataclass(
    "OracleRecord",
    [RECORD_FIELDS[0], *((name, object, None) for name in RECORD_FIELDS[1:])],
)


class TestCatalogRecord:
    def test_round_trip(self):
        record = run_pipeline("bp=2,3,5")
        d = record.to_dict()
        assert isinstance(d["weights"], list)
        assert isinstance(d["torsion"], list)
        assert CatalogRecord.from_dict(d) == record

    def test_round_trip_survives_json(self):
        record = run_pipeline("w=1,1,2,2,5 d=10")
        again = CatalogRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert again == record

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            CatalogRecord.from_dict({"presentation": "x", "bogus": 1})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"betti": "lots"}, "field betti is not an int: 'lots'"),
            ({"n": [1]}, "field n is not an int: [1]"),
            ({"casson": True}, "field casson is not an int: True"),
            ({"degree": 10.0}, "field degree is not an int: 10.0"),
            ({"status": 3}, "field status is not a string: 3"),
            ({"margin": 0.5}, "field margin is not a string: 0.5"),
            ({"presentation": None}, "field presentation is not a string: None"),
            ({"presentation": b"x"}, "field presentation is not a string: b'x'"),
            ({"weights": [1, "2"]}, "field weights is not a list of ints: [1, '2']"),
            ({"torsion": [False]}, "field torsion is not a list of ints: [False]"),
        ],
    )
    def test_mistyped_field_rejected(self, fields, message):
        d = {"presentation": "x", **fields}
        with pytest.raises(DomainError, match=f"^catalog record {re.escape(message)}$"):
            CatalogRecord.from_dict(d)

    def test_missing_presentation_rejected(self):
        with pytest.raises(DomainError, match="presentation is not a string: None"):
            CatalogRecord.from_dict({"betti": 1})

    def test_optional_fields_may_be_none(self):
        d = {name: None for name in RECORD_FIELDS if name != "presentation"}
        assert CatalogRecord.from_dict({"presentation": "x", **d}) == CatalogRecord("x")

    def test_field_list_is_the_signature(self):
        # The fields in the order the record's dataclass declared them.
        parameters = inspect.signature(CatalogRecord).parameters
        assert tuple(parameters) == RECORD_FIELDS
        defaults = [p.default for p in parameters.values()]
        assert defaults == [inspect.Parameter.empty] + [None] * (len(RECORD_FIELDS) - 1)
        assert tuple(catalog._FIELD_CHECKS) == RECORD_FIELDS

    @staticmethod
    def _asdict_to_dict(record: CatalogRecord) -> dict:
        """The former to_dict, a deep copy through dataclasses.asdict: the oracle."""
        fields = {name: getattr(record, name) for name in RECORD_FIELDS}
        d = dataclasses.asdict(OracleRecord(**fields))
        for key in ("weights", "torsion"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    def test_to_dict_matches_asdict_oracle(self):
        records = [run_pipeline(bp) for bp in enumerate_bp(3, 30)]
        records += [run_pipeline(bp) for bp in enumerate_bp(4, 12)]
        records += TestCatalogIO()._records()
        assert len(records) == 4495 + 1001 + 3
        assert any(r.error for r in records) and any(r.torsion for r in records)
        for record in records:
            # A tuple never equals a list, so == also pins the list fields.
            got, expected = record.to_dict(), self._asdict_to_dict(record)
            assert got == expected
            assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestRunPipeline:
    def test_small_sphere(self):
        record = run_pipeline("bp=2,3,5")
        assert record.weights == (15, 10, 6)
        assert record.degree == 30
        assert record.n == 2
        assert record.index == 1
        assert record.link_type == "positive"
        assert record.betti == 0
        assert record.torsion == ()
        assert record.applicability == "proven"
        assert record.status == "se_exists"
        assert record.rule == "ghigi_kollar"
        assert record.margin == "1/30"
        assert record.casson == -1
        assert record.smale is None  # 3-dimensional link, no 5-dim table
        assert record.error is None

    def test_one_subset_table_per_record(self, monkeypatch):
        # The link is built once, with the exponents, and the verdict only
        # compares it; the fractional weights and the Orlik pass run once,
        # for both the Betti sum and the Orlik table, whichever method the
        # pass picks.
        calls = dict.fromkeys(("__init__", "fractional_weights", "_orlik_pass"), 0)

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(WeightedLink, "__init__")
        count(homology, "fractional_weights")
        count(homology, "_orlik_pass")
        record = run_pipeline(BPExponents((2, 3, 4, 5)))
        assert (record.betti, record.torsion, record.error) == (0, (), None)
        assert calls == {"__init__": 1, "fractional_weights": 1, "_orlik_pass": 1}
        # Seven distinct exponents take the divisor pass instead of the
        # subset tables.
        calls.update(dict.fromkeys(calls, 0))
        record = run_pipeline(BPExponents((2, 3, 4, 5, 6, 7, 8)))
        assert record.error is None
        assert calls == {"__init__": 1, "fractional_weights": 1, "_orlik_pass": 1}

    def test_obstructed_example(self):
        record = run_pipeline("w=1,2,5,5,5 d=10")
        assert record.status == "obstructed"
        assert record.rule == "lichnerowicz"
        assert record.margin == "4"
        assert record.betti == 4
        assert record.casson is None  # casson only for 3-dimensional links

    def test_moduli_example(self):
        record = run_pipeline("w=1,1,1,4,6 d=12")
        assert record.betti == 222
        assert record.torsion == ()
        assert record.moduli == 254

    def test_matches_stage_functions(self):
        for text in ("bp=2,3,5", "bp=2,2,2,2", "w=1,1,2,2,5 d=10", "bp=3,3,3,3,3"):
            record = run_pipeline(text)
            obj = BPExponents(tuple(int(x) for x in text[3:].split(",") if text.startswith("bp="))) \
                if text.startswith("bp=") else None
            homology = link_homology(obj if obj is not None else
                                     WeightedLink(record.weights, record.degree))
            assert record.betti == homology.betti
            assert record.torsion == homology.torsion
            assert record.applicability == homology.applicability
            link = WeightedLink(record.weights, record.degree)
            verdict = decide_existence(link, obj)
            assert record.status == verdict.status
            assert record.rule == verdict.rule
            if record.n == 3:
                manifold = smale_name(homology)
                assert record.smale == manifold.name()
                assert record.se_status == table_lookup(manifold).status
            if record.n == 2 and obj is not None and obj.pairwise_coprime():
                assert record.casson == casson_invariant(obj.exponents)
            assert record.moduli == moduli_dimension(link)

    def test_dimension_five_extras(self):
        record = run_pipeline("bp=2,2,2,2")
        assert record.smale == "M_inf"
        assert record.se_status == "yes"
        assert record.se_condition is not None

    def test_casson_needs_coprime(self):
        assert run_pipeline("bp=2,2,3").casson is None
        assert run_pipeline("bp=2,3,5").casson == -1

    def test_parse_failure_returns_stub(self):
        record = run_pipeline("w=1,2 d=oops")
        assert record.error is not None and record.error.startswith("parse:")
        assert record.weights is None
        assert record.betti is None
        assert record.status is None

    def test_over_long_integer_is_a_parse_error(self):
        record = run_pipeline("bp=2,3," + "7" * 5000)
        # The token is cut, not echoed whole.
        assert record.error == (
            "parse: token 'bp=2,3," + "7" * 30 + "...' at position 0: "
            "5000 digits, over the limit of 4300"
        )
        assert record.weights is None

    def test_long_number_in_a_domain_error_is_cut(self):
        record = run_pipeline("bp=-" + "7" * 4000 + ",2,2")
        assert record.error == "parse: exponents must all be >= 2: (-" + "7" * 37 + "..., 2, 2)"

    def test_long_number_in_an_internal_error_is_kept(self, monkeypatch):
        number = "7" * 4000

        def moduli(link):
            raise InternalConsistencyError(f"bad count {number}")

        monkeypatch.setattr(catalog, "moduli_dimension", moduli)
        assert run_pipeline("bp=2,3,5").error == f"moduli: bad count {number}"

    def test_stage_failure_is_isolated(self):
        # This input parses but its Betti sum is fractional, so the homology
        # stage fails; classification, existence and moduli still populate.
        record = run_pipeline("w=3,3,4 d=6")
        assert "homology:" in record.error
        assert record.betti is None and record.torsion is None
        assert record.weights == (3, 3, 4)
        assert record.link_type == "positive"
        assert record.status == "unknown"
        assert record.moduli == moduli_dimension(WeightedLink((3, 3, 4), 6)) < 0

    def test_poisoned_input_does_not_spoil_batch(self):
        records = [run_pipeline(p) for p in ("bp=2,3,5", "w=3,3,4 d=6", "bp=2,2,2,2")]
        assert records[0].error is None
        assert records[1].error is not None
        assert records[2].error is None
        assert records[2].smale == "M_inf"

    @pytest.mark.parametrize(
        "exc_type", [OverflowError, ZeroDivisionError, MemoryError, RecursionError]
    )
    def test_foreign_stage_error_recorded_with_type(self, monkeypatch, exc_type):
        def moduli(link):
            raise exc_type("boom")

        monkeypatch.setattr(catalog, "moduli_dimension", moduli)
        record = run_pipeline("bp=2,3,5")
        assert record.error == f"moduli: {exc_type.__name__}: boom"
        assert record.moduli is None
        assert (record.betti, record.status, record.casson) == (0, "se_exists", -1)

    def test_whitespace_normalized(self):
        record = run_pipeline("  w=1,1,2   d=4 ")
        assert record.presentation == "w=1,1,2 d=4"
        assert record.betti == 2

    def test_accepts_parsed_objects(self):
        assert run_pipeline(BPExponents((2, 3, 5))) == run_pipeline("bp=2,3,5")
        assert run_pipeline(WeightedLink((1, 1, 2), 4)).betti == 2


class TestEnumerateBP:
    def test_lexicographic_order(self):
        got = [bp.exponents for bp in enumerate_bp(3, 4)]
        assert got == [
            (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4),
            (2, 4, 4), (3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4),
        ]

    def test_type_filter(self):
        got = [bp.exponents for bp in enumerate_bp(3, 4, link_type="positive")]
        assert got == [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4)]

    def test_coprime_filter(self):
        got = [bp.exponents for bp in enumerate_bp(3, 5, coprime=True)]
        assert got == [(2, 3, 5), (3, 4, 5)]
        rest = [bp.exponents for bp in enumerate_bp(3, 5, coprime=False)]
        assert (2, 3, 5) not in rest
        assert len(got) + len(rest) == len(list(enumerate_bp(3, 5)))

    def test_status_filter(self):
        got = [bp.exponents for bp in enumerate_bp(3, 5, status="se_exists")]
        assert got == [
            (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5),
        ]

    def test_filters_compose(self):
        got = [
            bp.exponents
            for bp in enumerate_bp(3, 5, coprime=True, status="se_exists")
        ]
        assert got == [(2, 3, 5)]

    # The guards raise at the call, before any iteration, so that a bad
    # enumeration fails before a caller opens its output.
    def test_overflow_guard(self):
        with pytest.raises(DomainError, match="safety bound"):
            enumerate_bp(8, 2000)

    def test_count_guard_is_immediate(self):
        # C(10^4000 + 62, 64) has about 256000 digits, but a tuple is at most
        # 64 long, so the exact count is a product of at most 64 factors.
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"C\(10{3998}62, 64\) > 2000000 .* safety bound"):
            enumerate_bp(64, 10**4000)
        assert time.perf_counter() - start < 5.0

    def test_count_guard_matches_exact_count(self):
        # The guard refuses exactly the enumerations whose exact
        # count C(max_exponent - 2 + length, length) passes the bound.
        for length in range(3, 9):
            for max_exponent in (*range(2, 40), 228, 229, 230):
                total = math.comb(max_exponent - 2 + length, length)
                if total > catalog._MAX_ENUMERATION:
                    with pytest.raises(DomainError, match="safety bound"):
                        enumerate_bp(length, max_exponent)
                else:
                    enumerate_bp(length, max_exponent)

    def test_length_guard(self):
        # At max exponent 2 there is one tuple of any length, but the
        # tuple itself would hold a billion entries; a tuple is at most as
        # long as a link.
        with pytest.raises(DomainError, match="^length 1000000000 exceeds the safety bound of 64$"):
            enumerate_bp(10**9, 2)
        with pytest.raises(DomainError, match="^length 65 exceeds the safety bound of 64$"):
            enumerate_bp(65, 2)
        assert [len(bp.exponents) for bp in enumerate_bp(64, 2)] == [64]

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            enumerate_bp(2, 5)
        with pytest.raises(DomainError):
            enumerate_bp(3, 1)


class TestCatalogIO:
    def _records(self):
        return [
            run_pipeline(p) for p in ("bp=2,3,5", "w=1,1,2,2,5 d=10", "w=1,2 d=oops")
        ]

    def test_write_read_round_trip(self):
        records = self._records()
        buf = io.StringIO()
        assert write_catalog(records, buf) == 3
        buf.seek(0)
        header, back = read_catalog(buf)
        assert header["format"] == "selink-catalog"
        assert header["version"] == 2
        assert "tool_version" in header and "timestamp" in header
        assert back == records

    def test_attribute_added_by_a_caller_is_not_written(self):
        # The catalog holds the annotated fields only, so the reader takes
        # the record back; the lines are those of the plain record.
        plain, noted = io.StringIO(), io.StringIO()
        write_catalog(self._records(), plain)
        records = self._records()
        records[0].note = "x"
        write_catalog(records, noted)
        assert noted.getvalue().splitlines()[1:] == plain.getvalue().splitlines()[1:]
        noted.seek(0)
        _, back = read_catalog(noted)
        assert back == self._records()
        for line, record in zip(plain.getvalue().splitlines()[1:], back):
            assert line == json.dumps(record.to_dict(), sort_keys=True)

    def test_header_is_first_line_json(self):
        buf = io.StringIO()
        write_catalog(self._records(), buf)
        lines = buf.getvalue().splitlines()
        assert json.loads(lines[0])["format"] == "selink-catalog"
        assert len(lines) == 4

    def test_read_rejects_empty(self):
        with pytest.raises(DomainError, match="empty"):
            read_catalog(io.StringIO(""))

    def test_read_rejects_wrong_format(self):
        with pytest.raises(DomainError, match="not a catalog"):
            read_catalog(io.StringIO('{"format": "something-else", "version": 1}\n'))

    def test_read_rejects_wrong_version(self):
        with pytest.raises(DomainError, match="version"):
            read_catalog(io.StringIO('{"format": "selink-catalog", "version": 99}\n'))

    def test_read_rejects_unknown_record_field(self):
        buf = io.StringIO()
        write_catalog(self._records()[:1], buf)
        text = buf.getvalue() + '{"presentation": "x", "zzz": 0}\n'
        with pytest.raises(DomainError, match="zzz"):
            read_catalog(io.StringIO(text))

    def test_records_carry_no_provenance(self):
        buf = io.StringIO()
        write_catalog(self._records(), buf)
        for line in buf.getvalue().splitlines()[1:]:
            assert not {"timestamp", "version", "tool_version"} & set(json.loads(line))

    @staticmethod
    def _with_header(text: str, **changes) -> str:
        header, _, records = text.partition("\n")
        header = json.loads(header)
        header.update(changes)
        return json.dumps(header, sort_keys=True) + "\n" + records

    def test_catalogs_equal_ignores_timestamp(self):
        buf = io.StringIO()
        write_catalog(self._records(), buf)
        a = self._with_header(buf.getvalue(), timestamp="2026-01-01T00:00:00+00:00")
        b = self._with_header(buf.getvalue(), timestamp="2026-12-31T23:59:59+00:00")
        assert a != b
        assert catalogs_equal(a, b)

    def test_catalogs_equal_detects_tool_version(self):
        buf = io.StringIO()
        write_catalog(self._records(), buf)
        other = self._with_header(buf.getvalue(), tool_version="0.0.0")
        assert not catalogs_equal(buf.getvalue(), other)

    def test_catalogs_equal_detects_difference(self):
        a, b = io.StringIO(), io.StringIO()
        write_catalog([run_pipeline("bp=2,3,5")], a)
        write_catalog([run_pipeline("bp=2,3,7")], b)
        assert not catalogs_equal(a.getvalue(), b.getvalue())


class TestExportTable:
    def test_shape_and_cells(self):
        records = [
            run_pipeline("w=1,1,2,2,5 d=10"),
            run_pipeline("w=1,2 d=oops"),
        ]
        text = export_table(records)
        lines = text.splitlines()
        assert len(lines) == 3
        header = lines[0].split("\t")
        assert header[0] == "presentation"
        assert {"betti", "torsion", "status", "error"} <= set(header)
        rows = [line.split("\t") for line in lines[1:]]
        assert all(len(row) == len(header) for row in rows)
        good = dict(zip(header, rows[0]))
        assert good["torsion"] == "2,2,2,2"
        assert good["betti"] == "128"
        assert good["error"] == ""
        bad = dict(zip(header, rows[1]))
        assert bad["betti"] == ""
        assert bad["error"].startswith("parse:")

    def test_ends_with_newline(self):
        assert export_table([run_pipeline("bp=2,3,5")]).endswith("\n")
