#!/usr/bin/env python3
"""Run every structural verification over a range of sizes and print a table.

Each row runs the checks of ``piano-cat verify all`` at one size through the
same driver.  Exits 1 when some record failed, and 2 on a refused argument.

Example:

    python3 scripts/run_verification.py --max-n 3 --window 4
"""

import sys
import time

from pianocat import cli


def main(argv: list[str] | None = None) -> int:
    parser = cli._Parser()
    parser.add_argument("--max-n", type=cli.integer, default=3)
    parser.add_argument("--window", type=cli.integer, default=4)
    try:
        args = parser.parse_args(argv)
        # The largest size run, refused as ``verify`` refuses it.
        cli._enumerable(cli.Config(n=args.max_n, window=args.window))
    except cli.InputError as exc:  # one line, as ``piano-cat`` writes it
        sys.stderr.write(" ".join(str(exc).splitlines()) + "\n")
        return cli.EXIT_USAGE

    checks = list(cli.VERIFIERS)
    widths = [max(len(check), len("False")) for check in checks]
    headers = " ".join(f"{check:>{width}}" for check, width in zip(checks, widths))
    print(f"{'n':>2} {'generators':>10} {headers} {'seconds':>8}")
    all_passed = True
    for n in range(1, args.max_n + 1):
        t0 = time.time()
        records = list(cli.run_verifiers(checks, cli.Config(n=n, window=args.window)))
        all_passed = all_passed and all(r["passed"] for r in records)
        cells = " ".join(
            f"{str(all(r['passed'] for r in records if r['check'] == check)):>{width}}"
            for check, width in zip(checks, widths)
        )
        count = next(r["generators"] for r in records if r["check"] == "bijection")
        print(f"{n:>2} {count:>10} {cells} {time.time() - t0:>8.1f}")
    return cli.EXIT_OK if all_passed else cli.EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
