"""Run the 1,368-row solve matrix against a tree's `src/` and compare runs.

Not a test module (pytest collects `test_*.py` only).  Each row is one cold
`solve_dirichlet` with boundary value 0 and the default orientation:

- spaces: flat, Nil (tau = 0.5), PSL (kappa = -1, tau = 0.5), H^2 x R;
- n in {24, 32, 48};
- disks of radius 1 centred, radius 0.6 at (0.2, -0.1) and radius 1 at
  (0.3, 0.1), with H R in {0, 0.1, ..., 2};
- rectangles of half-extents (0.4, 0.4), (0.5, 0.3) and (0.3, 0.2) centred
  at (0.05, -0.03), with H in {0, 0.25, ..., 4}.

A row records its status (`converged` or the exception's class name), the
SHA-256 of the solution's values or the exception's message, and the Newton
count of a converged row.

    python tests/probe_matrix.py [--src DIR] --out rows.json
    python tests/probe_matrix.py --compare A.json B.json

`--src` defaults to this tree's `src/`.  `--compare` prints each row that
differs and exits 1 if any does.  One run takes about a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

SPACES = {"flat": (0.0, 0.0), "nil": (0.0, 0.5), "psl": (-1.0, 0.5),
          "h2r": (-1.0, 0.0)}
SIZES = (24, 32, 48)
DISKS = ((1.0, (0.0, 0.0)), (0.6, (0.2, -0.1)), (1.0, (0.3, 0.1)))
RECTANGLES = ((0.4, 0.4), (0.5, 0.3), (0.3, 0.2))
RECTANGLE_CENTER = (0.05, -0.03)


def rows():
    """(row id, grid builder arguments, H) for every row of the matrix."""
    for space in SPACES:
        for n in SIZES:
            for R, c in DISKS:
                for k in range(21):
                    yield ("%s n=%d disk R=%g c=%s HR=%g" % (space, n, R, c, k / 10),
                           ("disk", R, n, space, c), k / 10 / R)
            for ext in RECTANGLES:
                for k in range(17):
                    yield ("%s n=%d rect %s H=%g" % (space, n, ext, k / 4),
                           ("rect", ext, n, space, RECTANGLE_CENTER), k / 4)


def run(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from ektau.errors import EktauError
    from ektau.model import SpaceParams
    from ektau.solver import disk_grid, rectangle_grid, solve_dirichlet

    out = {}
    for key, (shape, size, n, space, center), H in rows():
        params = SpaceParams(*SPACES[space])
        build = disk_grid if shape == "disk" else rectangle_grid
        try:
            sol = solve_dirichlet(build(size, n, params, center=center), 0.0,
                                  H, params)
        except EktauError as exc:
            out[key] = {"status": type(exc).__name__, "message": str(exc)}
            continue
        out[key] = {"status": "converged",
                    "sha256": hashlib.sha256(sol.values.tobytes()).hexdigest(),
                    "newton_iterations": sol.newton_iterations}
    return out


def compare(a: dict, b: dict) -> int:
    """Print the rows that differ between runs a and b; return their count."""
    differ = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    for k in differ:
        print("%s\n  A: %s\n  B: %s" % (k, a.get(k), b.get(k)))
    print("%d of %d rows differ" % (len(differ), len(a.keys() | b.keys())))
    return len(differ)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0
    if args.out is None:
        ap.error("--out is required unless --compare is given")
    t0 = time.perf_counter()
    out = run(args.src)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True))
    counts: dict = {}
    for row in out.values():
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print("%d rows in %.1f s: %s" % (len(out), time.perf_counter() - t0,
                                     ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
