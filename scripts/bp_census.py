"""Small Brieskorn-Pham census: enumerate, analyze, write a catalog.

Example:
    python scripts/bp_census.py --length 3 --max-exponent 8 -o census.jsonl
    python scripts/bp_census.py --length 4 --max-exponent 5 --type positive
"""

import argparse
import sys
from collections import Counter

from selink import enumerate_bp, export_table, run_pipeline, write_catalog


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=3)
    ap.add_argument("--max-exponent", type=int, default=8)
    ap.add_argument("--type", choices=("positive", "negative", "null"))
    ap.add_argument("--coprime", action="store_true")
    ap.add_argument("-o", "--output", help="catalog file (default: print a TSV summary)")
    args = ap.parse_args(argv)

    records = [
        run_pipeline(bp)
        for bp in enumerate_bp(
            args.length,
            args.max_exponent,
            link_type=args.type,
            coprime=args.coprime or None,
        )
    ]
    by_status = Counter(r.status for r in records)
    print(f"{len(records)} links: {dict(by_status)}", file=sys.stderr)

    if args.output:
        with open(args.output, "w") as fh:
            count = write_catalog(records, fh)
        print(f"wrote {count} records to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(export_table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
