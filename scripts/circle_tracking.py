#!/usr/bin/env python3
"""Track an optimum moving on the unit circle with streaming least squares.

Compares diffusion against gradient tracking on a cycle of n agents. Each
method is tuned over the portion of the default step-size grid that its
contraction model accepts, so the comparison never leans on steps outside
a method's admissible range. The tracking handicap of the gradient-tracking
update grows with the network size because its admissible range shrinks
with the spectral gap of the mixing matrix.
"""

import argparse
from dataclasses import replace

from netdrift.analysis import admissible_stepsize
from netdrift.experiment import (
    ExperimentConfig,
    build_network,
    build_objective,
    default_grid,
    steady_state_error,
    tune_stepsize,
)


def tuned(config: ExperimentConfig, objective, wm, algorithm: str) -> tuple[float, float]:
    grid = config.stepsizes or default_grid(config, objective.mu, objective.lipschitz)
    cap = admissible_stepsize(algorithm, objective.mu, objective.lipschitz, wm.beta)
    # The same relative slack the contraction builders admit at the boundary.
    capped = tuple(a for a in grid if a <= cap * (1 + 1e-12))
    per_method = replace(config, stepsizes=capped, algorithms=(algorithm,))
    alpha, record = tune_stepsize(per_method, algorithm, objective, wm)
    return alpha, steady_state_error(record, config.tail_fraction)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 50, 100],
                        help="cycle sizes to compare")
    parser.add_argument("--horizon", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--init", choices=("zeros", "optimum"), default="optimum",
                        help="start from zeros or from the initial optimum")
    args = parser.parse_args(argv)

    header = (f"{'n':>4} {'beta':>9} {'alpha_diff':>11} {'alpha_dgt':>11} "
              f"{'err_diffusion':>14} {'err_dgt':>14} {'ratio':>8}")
    print(header)
    for n in args.sizes:
        config = ExperimentConfig(
            scenario="I",
            topology="cycle",
            n=n,
            horizon=args.horizon,
            seed=args.seed,
            init=args.init,
        )
        objective = build_objective(config)
        _, wm = build_network(config)
        alpha_d, err_d = tuned(config, objective, wm, "diffusion")
        alpha_t, err_t = tuned(config, objective, wm, "dgt")
        print(f"{n:>4} {wm.beta:>9.4f} {alpha_d:>11.4g} {alpha_t:>11.4g} "
              f"{err_d:>14.6e} {err_t:>14.6e} {err_t / err_d:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
