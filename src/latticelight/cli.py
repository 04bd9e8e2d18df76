"""Command-line front end.

Three commands:

* ``spectrum --config FILE``          eigenvalues and eigenvectors as CSV on stdout
* ``propagate --config FILE --out F`` propagation trace as a CSV file
* ``verify``                          run the built-in acceptance checks

Exit codes: 0 success, 1 verification or runtime failure, 2 configuration
error or a run refused up front by the Fock engine's work cap.
"""

from __future__ import annotations

import argparse
import sys

from .fockspace import WorkCapError
from .runner import ConfigError, load_config, run_propagate, run_spectrum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticelight",
        description="Simulate non-classical light in tight-binding waveguide arrays.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spectrum = commands.add_parser(
        "spectrum", help="print the lattice eigen-decomposition as CSV"
    )
    spectrum.add_argument("--config", required=True, help="JSON run configuration")

    propagate = commands.add_parser(
        "propagate", help="write a propagation trace as CSV"
    )
    propagate.add_argument("--config", required=True, help="JSON run configuration")
    propagate.add_argument("--out", required=True, help="output CSV path")

    verify = commands.add_parser(
        "verify", help="run the built-in acceptance checks"
    )
    verify.add_argument(
        "--inject-fault",
        choices=["coupling_sign"],
        default=None,
        help="test hook: corrupt one lattice so a named check fails",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "spectrum":
            sys.stdout.write(run_spectrum(load_config(args.config)))
            return 0
        if args.command == "propagate":
            csv_text = run_propagate(load_config(args.config))
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(csv_text)
            return 0
        # the verify command; only it loads the acceptance suite
        from .verify import format_report, run_acceptance

        results = run_acceptance(fault=args.inject_fault)
        print(format_report(results))
        return 0 if all(res.passed for res in results) else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except WorkCapError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # surface runtime failures without a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
