"""One operation of each workload, plain and traced.

The plain form is what a user's program calls.  The traced form makes the
same calls that ``run_pipeline``, ``link_homology`` and the callers of
``minimize_volume`` make, in the same order, each wrapped in a span named
``<module>.<call>``; spans are recorded from here, around the calls into
each layer, never inside the program.  Work counts are computed from the
inputs of the calls they describe.
"""

from __future__ import annotations

import hashlib
import warnings
from math import comb

from selink.catalog import (
    CatalogRecord,
    enumerate_bp,
    export_table,
    read_catalog,
    run_pipeline,
    write_catalog,
)
from selink.dimension import casson_invariant, moduli_dimension, smale_name, table_lookup
from selink.errors import DomainError, InternalConsistencyError
from selink.existence import decide_existence
from selink.homology import (
    PROVEN_SOURCES,
    HomologyGroup,
    betti_number,
    link_homology,
    orlik_table,
    torsion_orders,
)
from selink.links import BPExponents, as_link, classify_type, parse_presentation
from selink.toric import (
    MomentCone,
    WeightMatrix,
    cone_from_weights,
    gorenstein_gamma,
    minimize_volume,
    volume,
)

from workload_inputs import CENSUS_ENUMS, comparable, cyclic_normals

GUARDED = (DomainError, InternalConsistencyError)


def dp_cells(weights, degree: int) -> int:
    """Inner-loop cells of one count_monomials pass."""
    return sum(max(0, degree - w + 1) for w in weights)


# ------------------------------------------------------------------ census


def census_plain(text: str) -> dict:
    return comparable(run_pipeline(text).to_dict())


def traced_link_homology(tracer, rid, presentation, source=None) -> HomologyGroup:
    """link_homology, one span per stage."""
    if isinstance(presentation, BPExponents):
        source = source or "bp"
        link = tracer.call("links.as_link", rid, as_link, presentation)
    else:
        link = presentation
    betti = tracer.call("homology.betti_number", rid, betti_number, link)
    tracer.add("homology.orlik_table.subset_pairs", 3 ** len(link.weights))
    table = tracer.call("homology.orlik_table", rid, orlik_table, link)
    torsion = tracer.call("homology.torsion_orders", rid, torsion_orders, table)
    proven = link.n in (2, 3) or source in PROVEN_SOURCES
    return HomologyGroup(
        betti=betti,
        torsion=torsion,
        degree=link.n - 1,
        applicability="proven" if proven else "conjectural",
    )


def traced_moduli(tracer, rid, link) -> int:
    tracer.add(
        "dimension.moduli_dimension.dp_cells",
        dp_cells(link.weights, link.degree) + sum(dp_cells(link.weights, w) for w in link.weights),
    )
    return tracer.call("dimension.moduli_dimension", rid, moduli_dimension, link)


def traced_casson(tracer, rid, exponents) -> int:
    a0, a1, a2 = exponents
    tracer.add("dimension.casson_invariant.grid_cells", (a0 - 1) * (a1 - 1) * (a2 - 1))
    return tracer.call("dimension.casson_invariant", rid, casson_invariant, exponents)


def census_replay(tracer, rid, text: str) -> CatalogRecord:
    """run_pipeline's stages with a span around each call into a layer."""
    record = CatalogRecord(presentation=" ".join(text.split()))
    errors: list[str] = []

    def guard(stage, fn, *args):
        try:
            return fn(*args)
        except GUARDED as exc:
            errors.append(f"{stage}: {exc}")
            return None

    try:
        obj = tracer.call("links.parse_presentation", rid, parse_presentation, text)
        bp = obj if isinstance(obj, BPExponents) else None
        link = tracer.call("links.as_link", rid, as_link, obj)
    except GUARDED as exc:
        record.error = f"parse: {exc}"
        return record

    record.weights = link.weights
    record.degree = link.degree
    record.n = link.n
    record.index = link.index
    record.link_type = classify_type(link)

    homology = guard("homology", traced_link_homology, tracer, rid, bp if bp is not None else link)
    if homology is not None:
        record.betti = homology.betti
        record.torsion = homology.torsion
        record.applicability = homology.applicability

    verdict = guard(
        "existence", tracer.call, "existence.decide_existence", rid, decide_existence, link, bp
    )
    if verdict is not None:
        record.status = verdict.status
        record.rule = verdict.rule
        record.margin = None if verdict.margin is None else str(verdict.margin)

    if link.n == 3 and homology is not None:
        manifold = guard("smale", tracer.call, "dimension.smale_name", rid, smale_name, homology)
        if manifold is not None:
            record.smale = manifold.name()
            lookup = tracer.call("dimension.table_lookup", rid, table_lookup, manifold)
            record.se_status = lookup.status
            record.se_condition = lookup.condition

    if link.n == 2 and bp is not None and bp.pairwise_coprime():
        record.casson = guard("casson", traced_casson, tracer, rid, bp.exponents)

    if link.degree <= 100_000:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record.moduli = guard("moduli", traced_moduli, tracer, rid, link)

    if errors:
        record.error = "; ".join(errors)
    return record


def census_traced(tracer, rid, text: str) -> tuple[dict, dict]:
    """The real run_pipeline call, then its stages one by one."""
    with tracer.span("request", rid):
        real = tracer.call("catalog.run_pipeline", rid, run_pipeline, text)
        replay = census_replay(tracer, rid, text)
    return comparable(real.to_dict()), replay


def census_enumerations(tracer) -> list[str]:
    texts = []
    for length, max_exponent in CENSUS_ENUMS:
        tuples = tracer.call("catalog.enumerate_bp", "pass", lambda: list(enumerate_bp(length, max_exponent)))
        texts.extend(bp.presentation() for bp in tuples)
    return texts


def catalog_round_trip(tracer, records, path) -> tuple[list, str]:
    """Write, read back and export a catalog, as `batch` and `export-table` do."""
    with open(path, "w") as fh:
        tracer.call("catalog.write_catalog", "pass", write_catalog, records, fh)
    with open(path) as fh:
        _, back = tracer.call("catalog.read_catalog", "pass", read_catalog, fh)
    text = tracer.call("catalog.export_table", "pass", export_table, back)
    return back, text


# ----------------------------------------------------------------- queries


def homology_summary(group: HomologyGroup) -> dict:
    chain = ",".join(map(str, group.torsion)).encode()
    return {
        "betti": group.betti,
        "torsion_len": len(group.torsion),
        "torsion_sha256": hashlib.sha256(chain).hexdigest(),
        "applicability": group.applicability,
    }


def verdict_summary(verdict, manifold, lookup) -> list:
    margin = None if verdict.margin is None else str(verdict.margin)
    return [verdict.status, verdict.rule, margin, manifold.name(), lookup.status]


def query_plain(item: dict):
    kind = item["kind"]
    if kind == "casson":
        return casson_invariant(tuple(item["exponents"]))
    obj = parse_presentation(item["text"])
    if kind == "homology":
        return homology_summary(link_homology(obj))
    if kind == "moduli":
        return moduli_dimension(as_link(obj))
    verdict = decide_existence(as_link(obj), obj)
    manifold = smale_name(link_homology(obj))
    return verdict_summary(verdict, manifold, table_lookup(manifold))


def query_traced(tracer, rid, item: dict):
    kind = item["kind"]
    with tracer.span("request", rid):
        if kind == "casson":
            return traced_casson(tracer, rid, tuple(item["exponents"]))
        obj = tracer.call("links.parse_presentation", rid, parse_presentation, item["text"])
        if kind == "homology":
            return homology_summary(traced_link_homology(tracer, rid, obj))
        link = tracer.call("links.as_link", rid, as_link, obj)
        if kind == "moduli":
            return traced_moduli(tracer, rid, link)
        verdict = tracer.call("existence.decide_existence", rid, decide_existence, link, obj)
        manifold = tracer.call(
            "dimension.smale_name", rid, smale_name, traced_link_homology(tracer, rid, obj)
        )
        lookup = tracer.call("dimension.table_lookup", rid, table_lookup, manifold)
        return verdict_summary(verdict, manifold, lookup)


# ------------------------------------------------------------------- toric


def build_cone(tracer, rid, item: dict):
    kind = item["kind"]
    if kind == "ypq":
        p, q = item["p"], item["q"]
        omega = WeightMatrix(((p - q, p + q, -p, -p),), 4)
        return tracer.call("toric.cone_from_weights", rid, cone_from_weights, omega)
    normals = item["normals"] if kind == "facets" else cyclic_normals(item["m"], item["ts"])
    return tracer.call("toric.MomentCone", rid, MomentCone, tuple(map(tuple, normals)))


def solve_cone(tracer, rid, item: dict) -> dict:
    """Build the cone, find its rays, exact volume, Gorenstein vector and minimum."""
    with tracer.span("request", rid):
        cone = build_cone(tracer, rid, item)
        tracer.add("toric.rays.kernel_solves", comb(len(cone.normals), cone.dim - 1))
        rays = tracer.call("toric.rays", rid, lambda: cone.rays)
        # The sum of the normals pairs positively with every ray, so it is
        # a rational Reeb vector; the first exact volume call triangulates.
        xi0 = tuple(sum(column) for column in zip(*cone.normals))
        exact = tracer.call("toric.volume", rid, volume, cone, xi0)
        gamma = tracer.call("toric.gorenstein_gamma", rid, gorenstein_gamma, cone)
        result = tracer.call("toric.minimize_volume", rid, minimize_volume, cone, gamma.gamma)
        tracer.add("toric.minimize_volume.iterations", result.iterations)
    return {
        "rays": len(rays),
        "volume_xi0": str(exact),
        "gamma": list(gamma.gamma),
        "min": result.value,
        "xi": [float(x) for x in result.reeb.components],
        "iterations": result.iterations,
    }
