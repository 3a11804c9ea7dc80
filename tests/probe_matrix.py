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
SHA-256 of the solution's values or the exception's message, the Newton
count of a converged row, how many times the solve called `solver._factor`
and `solver._jacobian` (wrapped on the tree imported), and the fill of its
factors, L.nnz + U.nnz summed over them.
The values of the converged rows go beside the JSON, in an `.npz` of the
same stem, keyed by row id.

    python tests/probe_matrix.py [--src DIR] --out rows.json
    python tests/probe_matrix.py --compare A.json B.json

`--src` defaults to this tree's `src/`.  `--compare` prints each row that
differs, with the max relative drift max|a - b| / max|a| of its values and
both Newton counts where both runs converged and kept their values, then one
summary: rows identical, bits moved, counts moved, status moved, worst
drift, and each run's total factors, Jacobian assemblies and fill.  A row
differs in its status, message, digest or Newton count; the factor,
assembly and fill counts only enter the totals.  It exits 1 if any row differs.  One run
takes about a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

SPACES = {"flat": (0.0, 0.0), "nil": (0.0, 0.5), "psl": (-1.0, 0.5),
          "h2r": (-1.0, 0.0)}
SIZES = (24, 32, 48)
DISKS = ((1.0, (0.0, 0.0)), (0.6, (0.2, -0.1)), (1.0, (0.3, 0.1)))
RECTANGLES = ((0.4, 0.4), (0.5, 0.3), (0.3, 0.2))
RECTANGLE_CENTER = (0.05, -0.03)
# per-row call counts: record key -> the `solver` name wrapped
CALLS = {"factors": "_factor", "jacobians": "_jacobian"}
# per-row counts: the calls, and the fill of the factors taken
COUNTS = (*CALLS, "fill")


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


def run(src: Path):
    """(rows, values): each row's record, and the values of converged rows."""
    sys.path.insert(0, str(src))
    from ektau import solver
    from ektau.errors import EktauError
    from ektau.model import SpaceParams
    from ektau.solver import disk_grid, rectangle_grid, solve_dirichlet

    calls = dict.fromkeys(COUNTS, 0)

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if name == "factors":
                calls["fill"] += out.L.nnz + out.U.nnz
            return out
        return wrapped

    for name, attr in CALLS.items():
        setattr(solver, attr, counting(name, getattr(solver, attr)))

    out, values = {}, {}
    for key, (shape, size, n, space, center), H in rows():
        params = SpaceParams(*SPACES[space])
        build = disk_grid if shape == "disk" else rectangle_grid
        calls.update(dict.fromkeys(COUNTS, 0))
        try:
            sol = solve_dirichlet(build(size, n, params, center=center), 0.0,
                                  H, params)
        except EktauError as exc:
            out[key] = {"status": type(exc).__name__, "message": str(exc),
                        **calls}
            continue
        out[key] = {"status": "converged",
                    "sha256": hashlib.sha256(sol.values.tobytes()).hexdigest(),
                    "newton_iterations": sol.newton_iterations, **calls}
        values[key] = sol.values
    return out, values


def values_path(rows_path: Path) -> Path:
    return rows_path.with_suffix(".npz")


def load_values(rows_path: Path) -> dict:
    """The converged rows' values beside rows_path; none if absent."""
    path = values_path(rows_path)
    if not path.exists():
        return {}
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


def drift(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / max|a|, or max|a - b| where a vanishes."""
    return float(np.max(np.abs(a - b)) / (np.max(np.abs(a)) or 1.0))


def outcome(row: dict | None) -> dict | None:
    """A row without its counts: what a solve returned or raised."""
    if row is None:
        return None
    return {k: v for k, v in row.items() if k not in COUNTS}


def totals(run: dict) -> str:
    """Each count summed over the run's rows, n/a where a row lacks it."""
    parts = []
    for name in COUNTS:
        counts = [row.get(name) for row in run.values()]
        parts.append("%s %s" % (name, "n/a" if None in counts else sum(counts)))
    return ", ".join(parts)


def compare(a: dict, b: dict, va: dict, vb: dict) -> int:
    """Print the rows that differ between runs a and b, with the drift of
    their values where va and vb hold both; return their count."""
    keys = sorted(a.keys() | b.keys())
    differ = [k for k in keys if outcome(a.get(k)) != outcome(b.get(k))]
    bits = counts = status = 0
    worst = None
    for k in differ:
        ra, rb = a.get(k) or {}, b.get(k) or {}
        if ra.get("status") != rb.get("status") or \
                ra.get("message") != rb.get("message"):
            status += 1
        elif ra.get("newton_iterations") != rb.get("newton_iterations"):
            counts += 1
        else:
            bits += 1
        line = "%s\n  A: %s\n  B: %s" % (k, ra, rb)
        if k in va and k in vb:
            dk = drift(va[k], vb[k])
            worst = dk if worst is None else max(worst, dk)
            line += "\n  drift %.3g, Newton %s -> %s" % (
                dk, ra["newton_iterations"], rb["newton_iterations"])
        print(line)
    print("%d of %d rows identical; bits moved %d, counts moved %d, status "
          "moved %d; worst drift %s"
          % (len(keys) - len(differ), len(keys), bits, counts, status,
             "n/a" if worst is None else "%.3g" % worst))
    print("A: %s\nB: %s" % (totals(a), totals(b)))
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
        va, vb = (load_values(p) for p in args.compare)
        return 1 if compare(a, b, va, vb) else 0
    if args.out is None:
        ap.error("--out is required unless --compare is given")
    t0 = time.perf_counter()
    out, values = run(args.src)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True))
    np.savez_compressed(values_path(args.out), **values)
    counts: dict = {}
    for row in out.values():
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print("%d rows in %.1f s: %s" % (len(out), time.perf_counter() - t0,
                                     ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
