"""Command-line front end: run suites, audit records, evaluate bounds.

Exit codes: 0 on success (including in-regime bounds reported as out of
regime, which is information, not failure), 2 when an audit finds a
violation or an input cannot be processed.

The argparse tree is built on the first call of ``main`` and reused by every
later call in the process; parsing leaves it unchanged, so each call answers
as a fresh parser would.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import astuple, fields

from .analysis import ANALYSED_METHODS, RegimeError, audit_recursions, contraction_model, steady_state_bound
from .experiment import SummaryRow, audit_record_file, load_config, run_suite
from .problems import DriftProfile


def _add_run(sub) -> None:
    p = sub.add_parser("run", help="run a configured experiment suite")
    p.add_argument("--config", required=True, help="path to a key = value config file")


def _add_audit(sub) -> None:
    p = sub.add_parser("audit", help="replay per-step inequalities on a stored record")
    p.add_argument("--record", required=True, help="path to a trajectory CSV")


def _add_bounds(sub) -> None:
    p = sub.add_parser("bounds", help="evaluate steady-state bounds for given constants")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--L", type=float, required=True, dest="lipschitz")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dx", type=float, required=True, help="per-step optimum drift")
    p.add_argument("--D", type=float, required=True, help="gradient dispersion bound")
    p.add_argument("--dg", type=float, required=True, help="average gradient drift")


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_suite(config)
    # The width and format of each SummaryRow field, in field order; a missing value prints "-".
    widths = (16, 14, 10, 6, 20, 20)
    formats = ("{}", "{:.6e}", "{:.4f}", "{}", "{:.6e}", "{:.6e}")
    print("  ".join(f.name.ljust(w) for f, w in zip(fields(SummaryRow), widths, strict=True)))
    for row in result.rows:
        cells = ("-" if v is None else f.format(v) for v, f in zip(astuple(row), formats, strict=True))
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths, strict=True)))
    print(f"summary written to {result.directory / 'summary.csv'}")
    return 0


def _cmd_audit(args) -> int:
    record, drift = audit_record_file(args.record)
    try:
        report = audit_recursions(record, drift, strict=False)
    except RegimeError as exc:
        print(f"audit not applicable to this record: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    worst = report.worst()
    if worst is None:
        return 0
    print(
        f"audit violated: {worst.name} at iteration {worst.worst_iteration}",
        file=sys.stderr,
    )
    return 2


def _cmd_bounds(args) -> int:
    drift = DriftProfile(delta_x=args.dx, grad_bound=args.D, grad_drift=args.dg)
    constants = (args.alpha, args.mu, args.lipschitz, args.beta, drift)
    for algorithm in ANALYSED_METHODS:
        try:
            rho_text = f"rho(A) = {contraction_model(algorithm, *constants).rho:.6f}"
        except RegimeError as exc:
            print(f"{algorithm}: out of regime for the contraction model ({exc})")
            continue
        try:
            bound = steady_state_bound(algorithm, *constants)
            print(f"{algorithm}: steady-state bound = {bound:.6g}  {rho_text}")
        except RegimeError as exc:
            print(f"{algorithm}: bound out of regime ({exc})  {rho_text}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdrift", description="drifting-optimum experiments over networks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_audit(sub)
    _add_bounds(sub)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_bounds(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
