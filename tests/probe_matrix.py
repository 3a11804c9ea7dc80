"""Run the 1,368-row solve matrix, or a seeded random probe, against a
tree's `src/` and compare runs.

Not a test module (pytest collects `test_*.py` only).  Each matrix row is
one cold `solve_dirichlet` with boundary value 0 and the default
orientation:

- spaces: flat, Nil (tau = 0.5), PSL (kappa = -1, tau = 0.5), H^2 x R;
- n in {24, 32, 48};
- disks of radius 1 centred, radius 0.6 at (0.2, -0.1) and radius 1 at
  (0.3, 0.1), with H R in {0, 0.1, ..., 2};
- rectangles of half-extents (0.4, 0.4), (0.5, 0.3) and (0.3, 0.2) centred
  at (0.05, -0.03), with H in {0, 0.25, ..., 4}.

`--random N --seed S` solves N cold rows drawn instead (`random_rows`): n
from 8 to 32, off-centre disks and rectangles, kappa in {0, -1, -4, -1/4,
1/2, 1}, tau in {0, 1/2, 1, 2, 3}, H in [0, 6) and orientation +-1.

A row records its status (`converged` or the exception's class name), the
SHA-256 of the solution's values or the exception's message, the Newton
count of a converged row, how many times the solve called `solver._factor`
and `solver._jacobian` (wrapped on the tree imported), and the fill of its
factors, L.nnz + U.nnz summed over them.
The values of the converged rows go beside the JSON, in an `.npz` of the
same stem, keyed by row id.

    python tests/probe_matrix.py [--src DIR] [--random N --seed S] --out rows.json
    python tests/probe_matrix.py --compare A.json B.json
    python tests/probe_matrix.py --manifest

`--src` defaults to this tree's `src/`.  `--compare` prints each row that
differs, with the max relative drift max|a - b| / max|a| of its values and
both Newton counts where both runs converged and kept their values, then one
summary: rows identical, bits moved, counts moved, status moved, worst
drift, and each run's total factors, Jacobian assemblies and fill.  A row
differs in its status, message, digest or Newton count; the factor,
assembly and fill counts only enter the totals.  It exits 1 if any row
differs.  `--manifest` rebuilds `probe_manifest.json`, the n = 24 slice
(456 rows) without Jacobian and fill counts, which
`test_probe_manifest.py` compares in tier-1.  On one core of a 2-core
machine a matrix run took 36 s, and 3,000 random rows 37 s.
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
# the random probe: nodes per side (inclusive) and the spaces drawn
RANDOM_SIZES = (8, 32)
RANDOM_KAPPA = (0.0, -1.0, -4.0, -0.25, 0.5, 1.0)
RANDOM_TAU = (0.0, 0.5, 1.0, 2.0, 3.0)
# the tier-1 manifest: the matrix's slice at MANIFEST_N nodes per side
MANIFEST = Path(__file__).with_name("probe_manifest.json")
MANIFEST_N = 24
# per-row call counts: record key -> the `solver` name wrapped
CALLS = {"factors": "_factor", "jacobians": "_jacobian"}
# per-row counts: the calls, and the fill of the factors taken
COUNTS = (*CALLS, "fill")


def rows():
    """(row id, grid builder arguments, H, orientation) for every row of
    the matrix."""
    for space, kt in SPACES.items():
        for n in SIZES:
            for R, c in DISKS:
                for k in range(21):
                    yield ("%s n=%d disk R=%g c=%s HR=%g" % (space, n, R, c, k / 10),
                           ("disk", R, n, kt, c), k / 10 / R, -1)
            for ext in RECTANGLES:
                for k in range(17):
                    yield ("%s n=%d rect %s H=%g" % (space, n, ext, k / 4),
                           ("rect", ext, n, kt, RECTANGLE_CENTER), k / 4, -1)


def slice_rows(n: int):
    """The rows of the matrix with n nodes per side."""
    return (row for row in rows() if row[1][2] == n)


def random_rows(count: int, seed: int):
    """count cold solves drawn from `numpy.random.default_rng(seed)`: n in
    RANDOM_SIZES, a space of RANDOM_KAPPA x RANDOM_TAU, an off-centre disk
    or rectangle inside the model disk, H in [0, 6) and orientation +-1.

    Lengths are in units of L = 1, or half the model radius where that is
    less: a radius or half-extent in [0.2, 1) L, centre coordinates in
    [-0.25, 0.25) L.  A row id holds every value as its repr."""
    rng = np.random.default_rng(seed)
    spaces = [(k, t) for k in RANDOM_KAPPA for t in RANDOM_TAU
              if not (k > 0 and k == 4 * t * t)]   # SpaceParams rejects these
    for i in range(count):
        kappa, tau = spaces[rng.integers(len(spaces))]
        n = int(rng.integers(RANDOM_SIZES[0], RANDOM_SIZES[1] + 1))
        L = min(1.0, 1.0 / np.sqrt(-kappa)) if kappa < 0 else 1.0
        center = tuple(float(v) for v in rng.uniform(-0.25, 0.25, 2) * L)
        if rng.integers(2):
            shape, size = "disk", float(rng.uniform(0.2, 1.0) * L)
        else:
            shape, size = "rect", tuple(float(v) for v in
                                        rng.uniform(0.2, 1.0, 2) * L)
        H = float(rng.uniform(0.0, 6.0))
        orientation = int(rng.choice([-1, 1]))
        yield ("random %04d kappa=%r tau=%r n=%d %s %r c=%r H=%r o=%+d"
               % (i, kappa, tau, n, shape, size, center, H, orientation),
               (shape, size, n, (kappa, tau), center), H, orientation)


def solve_rows(rows):
    """(rows, values): each row's record, and the values of converged rows,
    solved with the `ektau` importable now."""
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

    real = {attr: getattr(solver, attr) for attr in CALLS.values()}
    for name, attr in CALLS.items():
        setattr(solver, attr, counting(name, real[attr]))
    out, values = {}, {}
    try:
        for key, (shape, size, n, kt, center), H, orientation in rows:
            params = SpaceParams(*kt)
            build = disk_grid if shape == "disk" else rectangle_grid
            calls.update(dict.fromkeys(COUNTS, 0))
            try:
                sol = solve_dirichlet(build(size, n, params, center=center),
                                      0.0, H, params, orientation)
            except EktauError as exc:
                out[key] = {"status": type(exc).__name__, "message": str(exc),
                            **calls}
                continue
            out[key] = {"status": "converged",
                        "sha256": hashlib.sha256(sol.values.tobytes()).hexdigest(),
                        "newton_iterations": sol.newton_iterations, **calls}
            values[key] = sol.values
    finally:
        for attr, f in real.items():
            setattr(solver, attr, f)
    return out, values


def run(src: Path, rows):
    """`solve_rows(rows)` on the tree whose `src/` is src."""
    sys.path.insert(0, str(src))
    return solve_rows(rows)


def manifest(out: dict) -> dict:
    """The manifest of solved rows: each row without its Jacobian and fill
    counts."""
    return {k: {f: v for f, v in row.items() if f not in ("jacobians", "fill")}
            for k, row in out.items()}


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
    ap.add_argument("--random", type=int, metavar="N",
                    help="solve N random rows instead of the matrix")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="rebuild %s from the n=%d slice" % (MANIFEST.name,
                                                             MANIFEST_N))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        va, vb = (load_values(p) for p in args.compare)
        return 1 if compare(a, b, va, vb) else 0
    if args.manifest:
        out, _ = run(args.src, slice_rows(MANIFEST_N))
        MANIFEST.write_text(json.dumps(manifest(out), indent=1, sort_keys=True)
                            + "\n")
        return 0
    if args.out is None:
        ap.error("--out is required unless --compare or --manifest is given")
    t0 = time.perf_counter()
    todo = rows() if args.random is None else random_rows(args.random, args.seed)
    out, values = run(args.src, todo)
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
