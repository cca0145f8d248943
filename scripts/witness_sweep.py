#!/usr/bin/env python3
"""Sweep candidate gap points for a spectrum and report witness diagnostics.

At each cut point either a witness partial isometry comes back with its
projection defect and strictness gap, or the cut is rejected because the
estimated spectrum covers it.  Cross-checks the matrix pipeline against the
exact decision for the same spectrum.
"""

import argparse
import json
from dataclasses import asdict

import numpy as np

from scalex.errors import NoGap
from scalex.operators import infinite_projection_witness, realize, synthesize
from scalex.spectra import Properness, ScalingSpectrum, has_infinite_projection


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default='{"intervals": [[0,0],[0.5,0.5],[1,1]]}')
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--samples", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cuts", type=int, default=9, help="number of cut points in (0,1)")
    args = parser.parse_args()

    spectrum = ScalingSpectrum.from_json(json.loads(args.spec))
    model = synthesize(spectrum, Properness.PROPER, args.depth, args.samples, args.seed)
    x = realize(model)

    any_witness = False
    for c in np.linspace(0.0, 1.0, args.cuts + 2)[1:-1]:
        entry = {"gap_point": round(float(c), 6), "witness": False}
        try:
            _, rep = infinite_projection_witness(x, float(c), fiber_dim=model.fiber_dim)
            entry = {**asdict(rep), **entry, "witness": True}
            any_witness = True
        except NoGap:
            pass
        print(json.dumps(entry))

    decision = has_infinite_projection(spectrum)
    print(json.dumps({"decision_engine": decision, "matrix_pipeline": any_witness,
                      "agree": decision == any_witness}))


if __name__ == "__main__":
    main()
