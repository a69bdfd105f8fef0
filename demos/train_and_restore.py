"""Train a small regressor on the two-pixel world, then restore with it.

No oracle anywhere: the network learns the posterior mean from paired
draws, and the sampler only ever calls the network. Takes about ten
seconds with the default settings.

    python3 demos/train_and_restore.py --steps 4000 --seed 2
"""

import argparse

import numpy as np

from restep.metrics import nearest_modes
from restep.oracles import GaussianMixturePrior, LinearDegradation
from restep.regressor import (
    MlpRegressor,
    TimeDistribution,
    TrainConfig,
    train,
)
from restep.samplers import SamplerConfig, iterative_restore
from restep.worlds import MixtureWorld, derive_rng, derive_seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=4000,
                    help="training steps (default 4000)")
    ap.add_argument("--hidden", type=int, nargs="+", default=[64, 64],
                    help="hidden layer widths")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    prior = GaussianMixturePrior(
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        np.full(4, 0.25))
    world = MixtureWorld(prior, LinearDegradation(np.eye(2), 1.0))

    model = MlpRegressor.create(
        2, args.hidden, derive_rng(args.seed, "demo-init"))
    config = TrainConfig(
        p_norm=1,
        learning_rate=2e-3,
        batch_size=128,
        steps=args.steps,
        time_dist=TimeDistribution("bias_t0_t1"),
        seed=derive_seed(args.seed, "demo-train"),
    )
    stream = world.pair_stream(derive_rng(args.seed, "demo-data"))

    print(f"training {args.hidden} for {args.steps} steps ...")
    trained, losses = train(model, stream, config)
    quarter = max(len(losses) // 4, 1)
    for k in range(0, len(losses), quarter):
        chunk = losses[k:k + quarter]
        print(f"  steps {k:5d}-{k + len(chunk) - 1:5d}: "
              f"mean loss {np.mean(chunk):.4f}")

    eval_rng = derive_rng(args.seed, "demo-eval")
    _, y = world.sample_pairs(eval_rng, 1000)
    print()
    print("restoring 1000 fresh observations with the trained network:")
    print("   N    within 5e-2 of a mode   mean min dist")
    for n in (1, 10, 100):
        out = iterative_restore(trained, y, SamplerConfig(steps=n))
        _, dists = nearest_modes(out, prior)
        print(f"{n:4d}   {np.mean(dists <= 5e-2):21.1%}   {dists.mean():.4f}")


if __name__ == "__main__":
    main()
