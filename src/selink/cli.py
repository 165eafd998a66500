"""Command-line interface.

One executable, ``selink``, with a subcommand per query.  Each query
prints its result to stdout in the format its ``--format`` option
selects: ``text`` (a single human-readable line, the default),
``records`` (one JSON object, sorted keys) or ``table`` (TSV with a
header row).  ``batch`` writes a catalog and takes ``--jobs``;
``export-table`` turns a catalog into TSV.  An option given to a
command that does not read it is a usage error.  Exit codes: 0 success,
1 domain error (bad input, bad usage), 2 internal consistency failure (a
violated mathematical invariant, which is a bug worth reporting).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import ExitStack
from itertools import islice

from ._version import __version__
from .errors import DomainError, InternalConsistencyError
from .links import (
    LINK_TYPES,
    PROVEN_SOURCES,
    STATUSES,
    BPExponents,
    _short_numbers,
    _shown,
    as_link,
    classify_type,
    parse_int,
    parse_presentation,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse normally exits(2) on usage errors; remap them to exit 1."""

    def error(self, message):
        raise DomainError(message)


def _int(text: str) -> int:
    """An integer argument, read by parse_int; argparse words the error."""
    try:
        return parse_int(text, "")
    except DomainError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _emit(fmt: str, mapping: dict) -> None:
    """Render one result in the selected output format.

    text: space-separated key=value pairs, '-' for missing values.
    records: one JSON line.  table: TSV header plus one row.
    """
    stream = sys.stdout
    if fmt == "records":
        import json

        stream.write(json.dumps(mapping, sort_keys=True) + "\n")
        return

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, (list, tuple)):
            return ",".join(str(v) for v in value)
        return str(value)

    if fmt == "table":
        stream.write("\t".join(mapping) + "\n")
        stream.write("\t".join(cell(v) for v in mapping.values()) + "\n")
    else:
        stream.write(" ".join(f"{k}={cell(v)}" for k, v in mapping.items()) + "\n")


def _parse_args_presentation(tokens: list[str]):
    return parse_presentation(" ".join(tokens))


def _torsion_string(torsion: tuple[int, ...]) -> str:
    if not torsion:
        return "0"
    return " ⊕ ".join(f"Z/{d}" for d in torsion)


def _load_cone(args):
    from .toric import cone_from_weights, read_cone_file, read_weight_matrix_file

    if not args.weights:
        return read_cone_file(args.file)
    # Print a torsion warning as one line, not in Python's two-line format.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cone = cone_from_weights(read_weight_matrix_file(args.file))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return cone


def _parse_xi(text: str, option: str) -> tuple[Fraction, ...]:
    """The comma-separated rationals of --xi or --start.

    A component whose digits plus |exponent| pass int()'s digit limit is
    refused before any Fraction is built: Fraction('1e100000000') alone
    runs for minutes.
    """
    from fractions import Fraction

    limit = sys.get_int_max_str_digits()
    tokens = text.split(",")
    for tok in tokens:
        mantissa, _, exponent = tok.lower().partition("e")
        size = sum(c.isdigit() for c in mantissa)
        try:
            size += abs(int(exponent or 0))
        except ValueError:  # not an integer, or longer than int() reads
            size += len(exponent)
        if limit and size > limit:  # a limit of 0 means none
            raise DomainError(f"{option}: {_shown(tok)} has more than {limit} digits")
    try:
        return tuple(Fraction(tok) for tok in tokens)
    except (ValueError, ZeroDivisionError) as exc:  # its text may repeat a whole token
        reason = str(exc) if len(str(exc)) <= 80 else str(exc)[:77] + "..."
        raise DomainError(f"bad Reeb vector {_shown(text)}: {reason}") from None


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------- commands


def _cmd_classify(args) -> int:
    link = as_link(_parse_args_presentation(args.presentation))
    _emit(
        args.format,
        {
            "type": classify_type(link),
            "index": link.index,
            "n": link.n,
            "dim": link.link_dim,
            "w": link.weights,
            "d": link.degree,
        },
    )
    return 0


def _cmd_homology(args) -> int:
    from .homology import link_homology

    group = link_homology(_parse_args_presentation(args.presentation), source=args.source)
    if args.format == "text":
        print(f"b={group.betti} torsion={_torsion_string(group.torsion)} {group.applicability}")
    else:
        _emit(
            args.format,
            {
                "b": group.betti,
                "torsion": group.torsion,
                "degree": group.degree,
                "applicability": group.applicability,
            },
        )
    return 0


def _cmd_verdict(args) -> int:
    from .existence import decide_existence

    obj = _parse_args_presentation(args.presentation)
    bp = obj if isinstance(obj, BPExponents) else None
    verdict = decide_existence(as_link(obj), bp)
    _emit(
        args.format,
        {
            "type": verdict.link_type,
            "status": verdict.status,
            "rule": verdict.rule,
            "margin": None if verdict.margin is None else str(verdict.margin),
        },
    )
    return 0


def _cmd_dim5_name(args) -> int:
    from .dimension import smale_name
    from .homology import link_homology

    group = link_homology(_parse_args_presentation(args.presentation))
    manifold = smale_name(group)
    _emit(args.format, {"name": manifold.name()})
    return 0


def _cmd_se_table(args) -> int:
    from .dimension import SmaleManifold, smale_name, table_lookup
    from .homology import link_homology

    if args.presentation:
        if args.betti is not None or args.m is not None:
            raise DomainError("give either a presentation or --betti/--m, not both")
        manifold = smale_name(link_homology(_parse_args_presentation(args.presentation)))
    else:
        if args.betti is None:
            raise DomainError("need a presentation or --betti (with optional --m)")
        torsion = ()
        if args.m:
            torsion = tuple(parse_int(part.strip(), "--m") for part in args.m.split(","))
        manifold = SmaleManifold(args.betti, torsion)
    lookup = table_lookup(manifold)
    _emit(
        args.format,
        {
            "manifold": manifold.name(),
            "status": lookup.status,
            "row": lookup.row,
            "condition": lookup.condition,
        },
    )
    return 0


def _cmd_casson(args) -> int:
    from .dimension import casson_invariant

    value = casson_invariant((args.a0, args.a1, args.a2))
    _emit(args.format, {"casson": value})
    return 0


def _cmd_tight_count(args) -> int:
    from .dimension import tight_contact_count

    value = tight_contact_count(args.p, args.q)
    _emit(args.format, {"count": value})
    return 0


def _cmd_moduli(args) -> int:
    from .dimension import moduli_dimension, moduli_reference

    link = as_link(_parse_args_presentation(args.presentation))
    value = moduli_dimension(link)
    if value < 0:
        warning = f"naive moduli count is negative ({value}) for {link.presentation()}"
        print(f"warning: {warning}", file=sys.stderr)
    reference = moduli_reference(link)
    mapping: dict = {"moduli": value}
    if reference is not None:
        mapping["reference"] = reference
        mapping["delta"] = value - reference
    _emit(args.format, mapping)
    if args.format == "text" and reference is not None:
        print(
            "note: the naive monomial-count model underlying this value is "
            "not pinned to the reference normalization; the delta is expected"
        )
    return 0


def _cmd_toric(args) -> int:
    """toric without a query; each query's own handler replaces this one."""
    raise DomainError("toric needs a query: gamma, volume or minimize")


def _cmd_toric_gamma(args) -> int:
    from .toric import gorenstein_gamma

    result = gorenstein_gamma(_load_cone(args))
    if result.gamma is None:
        _emit(args.format, {"gamma": None, "reason": result.reason})
    else:
        _emit(args.format, {"gamma": result.gamma})
    return 0


def _cmd_toric_volume(args) -> int:
    from .toric import _floats, volume

    cone = _load_cone(args)
    value = volume(cone, _parse_xi(args.xi, "--xi"))  # exact: _parse_xi gives Fractions
    try:
        text = str(value)
    except ValueError:  # a numerator or denominator past int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"the exact volume has more than {limit} digits") from None
    if args.format == "records":
        (approx,) = _floats((value,), "the exact volume")
        _emit(args.format, {"volume": text, "float": approx})
    else:
        _emit(args.format, {"volume": text})
    return 0


def _cmd_toric_minimize(args) -> int:
    from .toric import minimize_volume

    cone = _load_cone(args)
    start = _parse_xi(args.start, "--start") if args.start else None
    result = minimize_volume(cone, start=start, grad_tol=args.grad_tol)
    _emit(
        args.format,
        {
            "xi": ",".join(map(_fmt_float, result.reeb.components)),
            "volume": _fmt_float(result.value),
            "iterations": result.iterations,
            "grad_norm": _fmt_float(result.grad_norm),
        },
    )
    return 0


def _worker_count(jobs: int) -> int:
    """--jobs clamped to the CPU count; more processes cannot run at once."""
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


# Inputs per window that a parallel batch hands the pool.  One window
# drains while the next computes, so at most two are in flight and the
# parent's memory does not grow with the enumeration (Executor.map alone
# submits every input up front before Python 3.14).
_BATCH_WINDOW = 512


def _windowed_map(pool, fn, items):
    """pool.map(fn, items) in input order, submitting one window ahead."""
    items = iter(items)
    windows = iter(lambda: list(islice(items, _BATCH_WINDOW)), [])
    current = iter(())
    for window in windows:
        following = pool.map(fn, window, chunksize=16)
        yield from current
        current = following
    yield from current


def _cmd_batch(args) -> int:
    from .catalog import enumerate_bp, run_pipeline, write_catalog

    jobs = _worker_count(args.jobs)
    tuples = enumerate_bp(
        args.length,
        args.max_exponent,
        link_type=args.type,
        coprime=args.coprime,
        status=args.status,
    )
    with ExitStack() as stack:
        stream = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Workers compute, the parent is the single writer; results
            # come back in input order, so the catalog is deterministic
            # regardless of --jobs.
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            records = _windowed_map(pool, run_pipeline, tuples)
        else:
            records = map(run_pipeline, tuples)
        count = write_catalog(records, stream)
    print(f"wrote {count} records", file=sys.stderr)
    return 0


def _cmd_export_table(args) -> int:
    from .catalog import _read_records, _table_rows

    with ExitStack() as stack:
        # The header is checked before the output is opened; the rows are
        # written while the records are read, so the output may not be the
        # input.
        _, records = _read_records(stack.enter_context(open(args.catalog)))
        if args.output:
            if os.path.exists(args.output) and os.path.samefile(args.catalog, args.output):
                raise DomainError(f"output {args.output} is the input catalog")
            out = stack.enter_context(open(args.output, "w"))
        else:
            out = sys.stdout
        out.writelines(_table_rows(records))
    return 0


# ----------------------------------------------------------------- parser


def _add_format_option(parser):
    parser.add_argument(
        "--format",
        choices=("text", "records", "table"),
        default="text",
        help="output format (default text)",
    )


def _presentation_query(parser):
    _add_format_option(parser)
    parser.add_argument(
        "presentation",
        nargs="+",
        help="link presentation tokens, e.g. 'w=1,1,1,4,6 d=12' or 'bp=2,3,5'",
    )


def _homology_arguments(parser):
    _presentation_query(parser)
    parser.add_argument(
        "--source",
        choices=PROVEN_SOURCES,
        help="declare the defining polynomial class (affects the proven flag)",
    )


def _se_table_arguments(parser):
    _add_format_option(parser)
    parser.add_argument("presentation", nargs="*", help="link presentation (optional)")
    parser.add_argument("--betti", type=_int, help="rank of H_2")
    parser.add_argument("--m", help="comma-separated torsion chain m_1|m_2|...")


def _casson_arguments(parser):
    _add_format_option(parser)
    for name in ("a0", "a1", "a2"):
        parser.add_argument(name, type=_int)


def _tight_count_arguments(parser):
    _add_format_option(parser)
    parser.add_argument("p", type=_int)
    parser.add_argument("q", type=_int)


def _cone_query(parser):
    _add_format_option(parser)
    parser.add_argument("file", help="cone or weight-matrix file")
    parser.add_argument(
        "--weights",
        action="store_true",
        help="treat FILE as a weight matrix ('k n' header) instead of facet normals",
    )


def _volume_arguments(parser):
    _cone_query(parser)
    parser.add_argument("--xi", required=True, help="comma-separated rationals, e.g. 3,3/2,3/2")


def _minimize_arguments(parser):
    _cone_query(parser)
    parser.add_argument("--start", help="starting Reeb vector (comma-separated rationals)")
    parser.add_argument("--grad-tol", type=float, default=1e-8)


def _toric_arguments(parser):
    _add_commands(parser.add_subparsers(metavar="QUERY"), _TORIC_QUERIES, _TORIC_QUERIES)


def _batch_arguments(parser):
    parser.add_argument("--length", type=_int, required=True, help="number of exponents")
    parser.add_argument("--max-exponent", type=_int, required=True)
    parser.add_argument("--type", choices=LINK_TYPES, help="keep only this trichotomy type")
    coprime = parser.add_mutually_exclusive_group()
    coprime.add_argument(
        "--coprime",
        dest="coprime",
        action="store_const",
        const=True,
        help="keep only pairwise-coprime tuples",
    )
    coprime.add_argument(
        "--no-coprime",
        dest="coprime",
        action="store_const",
        const=False,
        help="keep only non-coprime tuples",
    )
    parser.add_argument("--status", choices=STATUSES, help="keep only this verdict status")
    parser.add_argument(
        "--jobs",
        type=_int,
        default=1,
        help="worker processes (default 1, at most the CPU count)",
    )
    parser.add_argument("-o", "--output", help="catalog file (default stdout)")


def _export_table_arguments(parser):
    parser.add_argument("catalog", help="catalog file written by batch")
    parser.add_argument("-o", "--output", help="TSV file (default stdout)")


# Each command, in the order the help lists them: its handler, its help
# line and the function that adds its arguments.  A query's adder adds
# --format first.
_COMMANDS = {
    "classify": (_cmd_classify, "trichotomy type and index", _presentation_query),
    "homology": (_cmd_homology, "Betti number and torsion", _homology_arguments),
    "verdict": (_cmd_verdict, "existence/obstruction verdict", _presentation_query),
    "dim5-name": (_cmd_dim5_name, "Smale name of a 5-dim link", _presentation_query),
    "se-table": (
        _cmd_se_table,
        "classification table lookup for 5-manifolds",
        _se_table_arguments,
    ),
    "casson": (_cmd_casson, "Casson invariant of a Brieskorn sphere", _casson_arguments),
    "tight-count": (
        _cmd_tight_count,
        "tight contact structures on L(p,q)",
        _tight_count_arguments,
    ),
    "moduli": (_cmd_moduli, "naive moduli dimension", _presentation_query),
    "toric": (_cmd_toric, "moment-cone computations", _toric_arguments),
    "batch": (_cmd_batch, "enumerate BP links into a catalog", _batch_arguments),
    "export-table": (_cmd_export_table, "catalog file to TSV", _export_table_arguments),
}
_TORIC_QUERIES = {
    "gamma": (_cmd_toric_gamma, "Gorenstein vector of the cone", _cone_query),
    "volume": (_cmd_toric_volume, "normalized volume at --xi", _volume_arguments),
    "minimize": (_cmd_toric_minimize, "volume-minimizing Reeb vector", _minimize_arguments),
}


def _add_commands(sub, table, names):
    """A subparser for each of the names, from its row of the table."""
    for name in names:
        handler, help, add_arguments = table[name]
        parser = sub.add_parser(name, help=help)
        add_arguments(parser)
        parser.set_defaults(func=handler)


def build_parser(names) -> _Parser:
    """The selink parser with a subcommand for each of the names, in order."""
    parser = _Parser(prog="selink", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selink {__version__}")
    _add_commands(parser.add_subparsers(dest="command", metavar="COMMAND"), _COMMANDS, names)
    return parser


def _misplaced_option(parser, argv) -> str | None:
    """Name the first option in argv that the command before it does not take.

    Each parser is asked for its own options (long ones also by prefix, as
    argparse allows).  The scan follows the command names down the
    subparsers, skips the value of an option that is taken, and stops at
    '--' or at a token that is not a command where one is due.
    """
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            break
        is_long = token.startswith("--")
        # argparse reads every '--' token, '--5' too, as an option, and '-5' as a value.
        if is_long or token[:1] == "-" and token[1:2].isalpha():
            name = token.split("=", 1)[0] if is_long else token[:2]
            taken = [
                action
                for option, action in parser._option_string_actions.items()
                if option == name or is_long and option.startswith(name)
            ]
            if not taken:
                return f"{parser.prog} does not take {name}"
            if taken[0].nargs != 0 and token == name:
                next(tokens, None)  # its value
            continue
        commands = next(
            (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)),
            None,
        )
        if commands is not None:
            if token not in commands:
                break
            parser = commands[token]
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        argv = argv[1:]  # "--" ends the options, and selink itself takes none
    # A command named first is parsed by its own subparser alone.  Any
    # other start, such as --help, an option or an unknown command, may
    # print text that lists every command, so all of them are built.
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except DomainError as exc:  # a usage error; name a misplaced option
        misplaced = _misplaced_option(parser, argv)
        print(f"error: {_short_numbers(misplaced or str(exc))}", file=sys.stderr)
        return 1
    try:
        if args.command is None:
            parser.print_help()
            return 0
        return args.func(args)
    except DomainError as exc:
        print(f"error: {_short_numbers(str(exc))}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
