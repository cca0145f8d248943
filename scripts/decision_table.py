#!/usr/bin/env python3
"""Print the decision table for a family of spectra.

For each spectrum, one line holding the report of ``scalex classify``:
non-proper admissibility, the two infinite-projection criteria, and K-ranks
of the proper (and, when admissible, non-proper) generator algebras.
"""

import argparse
import json

from scalex.cli import classify_report
from scalex.spectra import ScalingSpectrum, normalize

DEFAULT_FAMILY = [
    [(0, 0), (1, 1)],
    [(0, 1)],
    [(0, 0), (0.5, 0.5), (1, 1)],
    [(0, 0), (0.5, 1)],
    [(0, 1), (2, 2)],
    [(0, 0), (0.25, 0.5), (1, 1)],
    [(0, 0.75), (1, 1)],
    [(0, 2)],
    [(0, 0), (1 / 3, 2 / 3), (1, 1), (1.5, 2)],
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", action="append", default=[], help="extra spectral-set JSON")
    args = parser.parse_args()

    spectra = [ScalingSpectrum(normalize(p)) for p in DEFAULT_FAMILY]
    spectra += [ScalingSpectrum.from_json(json.loads(s)) for s in args.spec]
    for s in spectra:
        print(json.dumps(classify_report(s), sort_keys=True))


if __name__ == "__main__":
    main()
