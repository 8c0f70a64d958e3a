"""Read one solution.csv back through plaplace.runio.read_csv.

Usage: python3 readback.py <solution.csv> <r_max>

Prints one JSON object: the header, whether u is nonincreasing over the
whole file, and the (r, u) rows with 0 < r <= r_max. Run by the
oscillate-4 check in a process of its own, so that the parsed rows do not
count towards the worker's peak RSS.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402
from plaplace import runio  # noqa: E402


def main():
    path, r_max = sys.argv[1], float(sys.argv[2])
    data = runio.read_csv(path)
    r, u = data["r"], data["u"]
    keep = (r > 0.0) & (r <= r_max)
    print(json.dumps({
        "header": list(data),
        "decreasing": bool(np.all(np.diff(u) <= 1e-14 * u[0]) and np.all(u > 0.0)),
        "r": r[keep].tolist(),
        "u": u[keep].tolist(),
    }))


if __name__ == "__main__":
    main()
