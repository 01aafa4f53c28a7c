#!/usr/bin/env python3
"""Consensus under rotating target assignments on a calibrated random graph.

The 2p+1 agents hold scalar targets spaced along a ring of values; every
step the assignment rotates, either by p+1 positions (violent per-agent
jumps whose network average never moves) or by a single position (gentle
drift). All requested methods are tuned on the shared grid, and each
method's tuned run is written to a CSV, plus a summary table.

Defaults are sized to finish in seconds; pass --p 1000 --horizon 4000 for
a full-scale run.
"""

import argparse

from netdrift.experiment import ExperimentConfig, run_suite

ROTATIONS = {"fast": "II", "slow": "III"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rotation", choices=sorted(ROTATIONS), default="fast",
                        help="fast: reassign by p+1 per step; slow: by 1")
    parser.add_argument("--p", type=int, default=100,
                        help="half-width of the target ring; the network has 2p+1 agents")
    parser.add_argument("--target-beta", type=float, default=0.89,
                        help="mixing rate the random graph is calibrated to")
    parser.add_argument("--horizon", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algorithms", nargs="+",
                        default=["diffusion", "dgt", "extra", "exact_diffusion"])
    parser.add_argument("--output", default=None,
                        help="output directory (default rotation_<fast|slow>_p<p>)")
    args = parser.parse_args(argv)

    output = args.output or f"rotation_{args.rotation}_p{args.p}"
    config = ExperimentConfig(
        scenario=ROTATIONS[args.rotation],
        topology="random",
        target_beta=args.target_beta,
        p=args.p,
        horizon=args.horizon,
        seed=args.seed,
        algorithms=tuple(args.algorithms),
        output_dir=output,
    )
    result = run_suite(config)

    print(f"{'algorithm':>16} {'alpha':>10} {'steady_state_error':>19} {'theory_bound':>13}")
    for row in result.rows:
        bound = "-" if row.theory_bound is None else f"{row.theory_bound:.4g}"
        print(f"{row.algorithm:>16} {row.alpha:>10.4g} "
              f"{row.steady_state_error:>19.6e} {bound:>13}")
    print(f"network: n={result.rows[0].n}, beta={result.rows[0].beta:.4f}")
    print(f"outputs in {result.directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
