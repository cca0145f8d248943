#!/usr/bin/env python3
"""Synthesize a shift model, hide it behind a random unitary, and recover it.

Demonstrates the full numerical loop: synthesis from a spectrum, basis
scrambling, Wold decomposition, and comparison of the recovered weight-block
eigenvalues with the synthesized ones: it prints the `scalex wold` report plus
the planted eigenvalues and the largest error.
"""

import argparse
import json

import numpy as np

from scalex.operators import conjugate_random, realize, synthesize
from scalex.spectra import Properness, ScalingSpectrum
from scalex.wold import wold_decompose


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default='{"intervals": [[0,0],[0.3,0.6],[1,1]]}')
    parser.add_argument("--properness", default="nonproper", choices=["proper", "nonproper"])
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spectrum = ScalingSpectrum.from_json(json.loads(args.spec))
    model = synthesize(spectrum, Properness(args.properness), args.depth, args.samples, args.seed)
    planted = sorted(np.diag(model.A).real.tolist())

    x = conjugate_random(realize(model), args.seed + 1)
    report = wold_decompose(x)

    errors = [abs(p - r) for p, r in zip(planted, report.a_eigenvalues)]
    print(json.dumps({
        **report.to_json(),
        "planted_eigenvalues": planted,
        "max_eigenvalue_error": max(errors, default=0.0),
        "boundary_overlap_rank": report.boundary_overlap_rank,
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
