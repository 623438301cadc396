"""Degenerate polyhedral stress of the cone projection.

Each case draws a polyhedral cone ``{t : B t >= 0}`` whose rows are scaled
by factors from e^-4 to e^4, a positive definite metric ``M`` and a point
``x``, projects ``x`` onto the cone, and projects the residual of that
projection back onto the cone.  The residual lies in the polar cone, so in
exact arithmetic its projection is the apex, where every constraint is
active: a degenerate input for the orthant kernel, made worse by the row
scales.

Per seed the script prints the count of :class:`SolverError`s, the cases
that raised them and a SHA-256 digest of every other case's projected point.
Two commits that print the same lines fail on the same cases and project
every other case to the same bits.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/stress_polyhedral.py [--seeds 1 2 3] [--cases 9000]
"""

import argparse
import hashlib

import numpy as np

from conetest.cones import Polyhedral, project
from conetest.exceptions import SolverError


def stress(seed, cases):
    """``(failing cases, digest)`` of ``cases`` draws on ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    failed = []
    for case in range(cases):
        p = rng.integers(2, 9)
        m = rng.integers(1, p + 1)
        b = rng.standard_normal((m, p)) * np.exp(rng.uniform(-4.0, 4.0, (m, 1)))
        g = rng.standard_normal((p + 2, p))
        metric = g.T @ g / (p + 2) + 1e-3 * np.eye(p)
        x = 3.0 * rng.standard_normal(p)
        cone = Polyhedral(b)
        try:
            residual = x - project(x, metric, cone).point
            point = project(residual, metric, cone).point
        except SolverError:
            failed.append(case)
            continue
        digest.update(np.ascontiguousarray(point).tobytes())
    return failed, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--cases", type=int, default=9000)
    args = parser.parse_args()
    for seed in args.seeds:
        failed, digest = stress(seed, args.cases)
        print(f"seed {seed}: {len(failed)} SolverErrors at cases {failed}; digest {digest}")


if __name__ == "__main__":
    main()
