#!/usr/bin/env python3
"""Run every structural verification over a range of sizes and print a table.

Each row runs the checks of ``piano-cat verify`` at one size through the
same driver and reports whether every record of each check passed.

Example:

    python3 scripts/run_verification.py --max-n 3 --window 4
"""

import argparse
import time

from pianocat.cli import Config, run_verifiers

COLUMNS = {
    "bijection": "bijection",
    "path-iso": "path-algebra-iso",
    "beta-delta": "beta-delta",
    "phi": "derived-equiv",
    "confluence": "confluence",
}
WIDTHS = {column: max(len(column), len("False")) for column in COLUMNS}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--window", type=int, default=4)
    args = parser.parse_args()

    headers = " ".join(f"{column:>{width}}" for column, width in WIDTHS.items())
    print(f"{'n':>2} {'generators':>10} {headers} {'seconds':>8}")
    for n in range(1, args.max_n + 1):
        t0 = time.time()
        records = list(run_verifiers(list(COLUMNS.values()), Config(n=n, window=args.window)))
        cells = " ".join(
            f"{str(all(r['passed'] for r in records if r['check'] == check)):>{WIDTHS[column]}}"
            for column, check in COLUMNS.items()
        )
        print(f"{n:>2} {records[0]['generators']:>10} {cells} {time.time() - t0:>8.1f}")


if __name__ == "__main__":
    main()
