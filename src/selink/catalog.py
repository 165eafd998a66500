"""Catalog records, the analysis pipeline, and batch enumeration.

A catalog is a line-delimited text file: a versioned JSON header line
followed by one JSON record per line.  The header carries the provenance
(tool version and the time of writing); records hold computed data only
(strings, ints, lists), so rewriting a catalog from the same inputs gives
the same record lines byte for byte, and only the header timestamp
differs.  write_catalog consumes its records lazily, writing each line as
the record arrives, so a streamed batch holds no records in memory; the
reader and the tab-separated export stream the same way.  The export
mirrors the layout of the summary tables this feeds.

run_pipeline chains presentation parsing, classification, homology,
existence rules and the dimension-specific extras, capturing per-stage
errors in the record instead of aborting, so one poisoned input never
spoils a batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from ._version import __version__
from .dimension import moduli_dimension, casson_invariant, smale_name, table_lookup
from .errors import DomainError, InternalConsistencyError
from .existence import decide_existence
from .homology import link_homology
from .links import (
    BPExponents,
    WeightedLink,
    as_link,
    classify_type,
    parse_presentation,
)

__all__ = [
    "CatalogRecord",
    "run_pipeline",
    "enumerate_bp",
    "write_catalog",
    "read_catalog",
    "export_table",
]

CATALOG_FORMAT = "selink-catalog"
CATALOG_VERSION = 2

# What one stage of one record may raise without stopping a batch: the
# package's own errors, and arithmetic or resource failures (overflow,
# division by zero, memory, recursion depth) that belong to that input.
_STAGE_ERRORS = (
    DomainError,
    InternalConsistencyError,
    ArithmeticError,
    MemoryError,
    RecursionError,
)

# Records skip the naive moduli count above this degree; the bound is part
# of the record contract so catalogs stay machine-independent.
_MODULI_DEGREE_LIMIT = 100_000


@dataclass
class CatalogRecord:
    presentation: str
    weights: tuple[int, ...] | None = None
    degree: int | None = None
    n: int | None = None
    index: int | None = None
    link_type: str | None = None
    betti: int | None = None
    torsion: tuple[int, ...] | None = None
    applicability: str | None = None
    status: str | None = None
    rule: str | None = None
    margin: str | None = None
    smale: str | None = None
    se_status: str | None = None
    se_condition: str | None = None
    casson: int | None = None
    moduli: int | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        d = dict(vars(self))
        for key in ("weights", "torsion"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CatalogRecord":
        """The record a catalog line holds; a field of the wrong type is a DomainError.

        Each field's type is read off its annotation (see _FIELD_CHECKS);
        every field but the presentation may be None.
        """
        unknown = d.keys() - _FIELD_CHECKS.keys()
        if unknown:
            raise DomainError(f"unknown catalog record fields: {sorted(unknown)}")
        for name, (check, expected, optional) in _FIELD_CHECKS.items():
            value = d.get(name)
            if not (check(value) or value is None and optional):
                raise DomainError(f"catalog record field {name} is not {expected}: {value!r}")
        d = dict(d)
        for key in ("weights", "torsion"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        return cls(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Per annotated record type: its check and its name in an error message.
_TYPE_CHECKS = {
    "int": (_is_int, "an int"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[int, ...]": (
        lambda value: isinstance(value, (list, tuple)) and all(map(_is_int, value)),
        "a list of ints",
    ),
}

# Per record field: its type's check and name, and whether it may be None.
_FIELD_CHECKS = {
    f.name: (*_TYPE_CHECKS[f.type.split(" | ")[0]], f.default is None)
    for f in fields(CatalogRecord)
}


def _stage_error(stage: str, exc: BaseException) -> str:
    """The record's error text; foreign exceptions carry their type name."""
    if isinstance(exc, (DomainError, InternalConsistencyError)):
        return f"{stage}: {exc}"
    return f"{stage}: {type(exc).__name__}: {exc}"


def run_pipeline(presentation: str | BPExponents | WeightedLink) -> CatalogRecord:
    """Derive everything we know about one presentation, capturing errors.

    Stages are guarded independently: a failure is recorded in the error
    field (joined with earlier failures) and later stages that do not
    depend on it still run.  The package's own errors read
    "<stage>: <message>"; arithmetic and resource failures (see
    _STAGE_ERRORS) read "<stage>: <Type>: <message>".
    """
    if isinstance(presentation, str):
        text = " ".join(presentation.split())
    else:
        text = presentation.presentation()
    record = CatalogRecord(presentation=text)
    errors: list[str] = []

    def guard(stage: str):
        def run(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except _STAGE_ERRORS as exc:
                errors.append(_stage_error(stage, exc))
                return None

        return run

    try:
        obj = parse_presentation(text) if isinstance(presentation, str) else presentation
    except _STAGE_ERRORS as exc:
        record.error = _stage_error("parse", exc)
        return record
    bp = obj if isinstance(obj, BPExponents) else None
    link = as_link(obj)

    record.weights = link.weights
    record.degree = link.degree
    record.n = link.n
    record.index = link.index
    record.link_type = classify_type(link)

    homology = guard("homology")(link_homology, link, None if bp is None else "bp")
    if homology is not None:
        record.betti = homology.betti
        record.torsion = homology.torsion
        record.applicability = homology.applicability

    verdict = guard("existence")(decide_existence, link, bp)
    if verdict is not None:
        record.status = verdict.status
        record.rule = verdict.rule
        record.margin = None if verdict.margin is None else str(verdict.margin)

    if link.n == 3 and homology is not None:
        manifold = guard("smale")(smale_name, homology)
        if manifold is not None:
            record.smale = manifold.name()
            lookup = table_lookup(manifold)
            record.se_status = lookup.status
            record.se_condition = lookup.condition

    if link.n == 2 and bp is not None and bp.pairwise_coprime():
        record.casson = guard("casson")(casson_invariant, bp.exponents)

    if link.degree <= _MODULI_DEGREE_LIMIT:
        record.moduli = guard("moduli")(moduli_dimension, link)

    if errors:
        record.error = "; ".join(errors)
    return record


# Most exponent tuples, and longest tuple, that one enumeration may produce.
_MAX_ENUMERATION = 2_000_000


def enumerate_bp(
    length: int,
    max_exponent: int,
    *,
    link_type: str | None = None,
    coprime: bool | None = None,
    status: str | None = None,
) -> Iterator[BPExponents]:
    """Nondecreasing exponent tuples in lexicographic order, filtered.

    The arguments are checked when this is called, not when the returned
    iterator first advances, so an absurd enumeration fails before any
    caller opens an output.  The unfiltered count is
    C(max_exponent - 2 + length, length), and each tuple holds length
    entries, so both are bounded.
    """
    if length < 3:
        raise DomainError(f"need length >= 3, got {length}")
    if max_exponent < 2:
        raise DomainError(f"need max exponent >= 2, got {max_exponent}")
    if length > _MAX_ENUMERATION:
        raise DomainError(f"length {length} exceeds the safety bound of {_MAX_ENUMERATION}")
    # C(n, length) = C(n, k) as a running product, which is C(n - k + i, i)
    # after step i; it stops at the bound, before the number gets large.
    n = max_exponent - 2 + length
    k = min(length, max_exponent - 2)
    total = 1
    for i in range(1, k + 1):
        total = total * (n - k + i) // i
        if total > _MAX_ENUMERATION:
            raise DomainError(
                f"enumeration of C({n}, {length}) > {_MAX_ENUMERATION} exponent tuples "
                "exceeds the safety bound"
            )

    def keep(bp: BPExponents) -> bool:
        if coprime is not None and bp.pairwise_coprime() != coprime:
            return False
        if link_type is None and status is None:
            return True
        link = bp.link
        if link_type is not None and classify_type(link) != link_type:
            return False
        return status is None or decide_existence(link, bp).status == status

    tuples = combinations_with_replacement(range(2, max_exponent + 1), length)
    return filter(keep, map(BPExponents, tuples))


def write_catalog(records: Iterable[CatalogRecord], stream) -> int:
    """Write the header, then each record as it arrives; return the count."""
    header = {
        "format": CATALOG_FORMAT,
        "version": CATALOG_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    count = 0
    for record in records:
        stream.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        count += 1
    return count


def _record(number: int, line: str) -> CatalogRecord:
    """The record on catalog line ``number``; a malformed one is a DomainError."""
    try:
        d = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer over int()'s digit limit
        reason = getattr(exc, "msg", exc)
        raise DomainError(f"catalog line {number} is not JSON ({reason})") from None
    if not isinstance(d, dict):
        raise DomainError(f"catalog line {number} is not a record: {d!r}")
    try:
        return CatalogRecord.from_dict(d)
    except DomainError as exc:
        raise DomainError(f"catalog line {number}: {exc}") from None


def _read_records(stream) -> tuple[dict, Iterator[CatalogRecord]]:
    """Check the header now; then yield the records one line at a time."""
    lines = ((number, line) for number, line in enumerate(stream, 1) if line.strip())
    number, first = next(lines, (0, None))
    if first is None:
        raise DomainError("empty catalog")
    try:
        header = json.loads(first)
    except ValueError:  # JSONDecodeError, or an integer over int()'s digit limit
        raise DomainError(f"not a catalog file (line {number} is not JSON)") from None
    if not isinstance(header, dict) or header.get("format") != CATALOG_FORMAT:
        raise DomainError(f"not a catalog file (header {header!r})")
    if header.get("version") != CATALOG_VERSION:
        raise DomainError(f"unsupported catalog version {header.get('version')!r}")
    return header, (_record(number, line) for number, line in lines)


def read_catalog(stream) -> tuple[dict, list[CatalogRecord]]:
    header, records = _read_records(stream)
    return header, list(records)


_TABLE_COLUMNS = (
    "presentation",
    "n",
    "link_type",
    "betti",
    "torsion",
    "applicability",
    "status",
    "rule",
    "margin",
    "smale",
    "se_status",
    "casson",
    "moduli",
    "error",
)


def _table_rows(records: Iterable[CatalogRecord]) -> Iterator[str]:
    """The TSV header line, then one line per record as it arrives."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    yield "\t".join(_TABLE_COLUMNS) + "\n"
    for record in records:
        yield "\t".join(cell(getattr(record, col)) for col in _TABLE_COLUMNS) + "\n"


def export_table(records: Iterable[CatalogRecord]) -> str:
    """Tab-separated summary with one row per record."""
    return "".join(_table_rows(records))
