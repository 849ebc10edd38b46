"""Output formats: the one place that knows how each result is written.

The library and the CLI both write through these functions, so a file
is the same whichever front end produced it.  Floats in CSV and matrix
files carry 17 significant digits and JSON floats use ``repr``, so every
file round-trips bit-exactly.  State and sweep writers take a path of
None to mean stdout; Wigner grids always go to a file.  Rows are
streamed to the file handle, so a large Wigner grid is never held as
text in memory.
"""

from contextlib import contextmanager
from dataclasses import asdict
import json
import math
import sys


FORMATS = {"state": ("csv", "json"), "sweep": ("csv", "json"),
           "wigner": ("csv", "json", "matrix")}


def _check_format(kind: str, fmt: str) -> None:
    if fmt not in FORMATS[kind]:
        raise ValueError(f"unknown {kind} format {fmt!r}; pick from {FORMATS[kind]}")


@contextmanager
def _sink(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _dump_json(payload, fh, sort_keys=False) -> None:
    json.dump(payload, fh, indent=2, sort_keys=sort_keys)
    fh.write("\n")


def write_state(state, path=None, fmt: str = "csv") -> None:
    """Coefficients sorted by photon number: CSV photon_number,re,im,prob or JSON rows."""
    _check_format("state", fmt)
    rows = zip(state.photon_numbers, state.coeffs, state.probabilities)
    with _sink(path) as fh:
        if fmt == "csv":
            fh.write("photon_number,re,im,prob\n")
            for n, c, p in rows:
                fh.write(f"{int(n)},{c.real:.17g},{c.imag:.17g},{p:.17g}\n")
        else:
            _dump_json([{"photon_number": int(n), "re": float(c.real),
                         "im": float(c.imag), "prob": float(p)} for n, c, p in rows], fh)


def write_state_csv(state, path) -> None:
    """Dump coefficients as CSV: photon_number,re,im,prob sorted by number."""
    write_state(state, path, "csv")


def write_sweep(rows, path=None, fmt: str = "csv") -> None:
    """Sweep rows as CSV r,theta,m,parity,quantity,value,status or JSON rows."""
    _check_format("sweep", fmt)
    with _sink(path) as fh:
        if fmt == "csv":
            fh.write("r,theta,m,parity,quantity,value,status\n")
            for row in rows:
                value = "" if row.value is None else f"{row.value:.17g}"
                fh.write(f"{row.r:.17g},{row.theta:.17g},{row.m},{row.parity},"
                         f"{row.quantity},{value},{row.status}\n")
        else:
            _dump_json([{"r": row.r, "theta": row.theta, "m": row.m,
                         "parity": row.parity, "quantity": row.quantity,
                         "value": row.value, "status": row.status} for row in rows], fh)


def write_sweep_csv(rows, path) -> None:
    """Dump sweep rows as CSV with 17 significant digits."""
    write_sweep(rows, path, "csv")


def _sidecar_payload(grid) -> dict:
    return {
        "nonlinearity": grid.nl.describe(),
        "spec": None if grid.spec is None else grid.spec.describe(),
        "resolution": [int(grid.x_axis.size), int(grid.p_axis.size)],
        "x_axis": {"min": float(grid.x_axis[0]), "max": float(grid.x_axis[-1]),
                   "count": int(grid.x_axis.size)},
        "p_axis": {"min": float(grid.p_axis[0]), "max": float(grid.p_axis[-1]),
                   "count": int(grid.p_axis.size)},
        "metrics": {"min_value": grid.min_value,
                    "negative_volume": grid.negative_volume,
                    "integral": grid.integral},
    }


def write_wigner(grid, path, fmt: str = "csv") -> None:
    """Write a Wigner grid as ``csv`` (plus sidecar), ``matrix`` or ``json``.

    csv: row-major x,p,w lines plus a JSON metadata sidecar at <path>.json.
    matrix: gnuplot-compatible, one row of w per x node, axes in comments.
    json: the sidecar metadata plus the x and p axes and the w rows.
    """
    _check_format("wigner", fmt)
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write("x,p,w\n")
            # Each axis node is formatted once; only w is formatted per cell.
            p_text = [f"{pv:.17g}" for pv in grid.p_axis.tolist()]
            for xv, row in zip(grid.x_axis.tolist(), grid.values):
                x_text = f"{xv:.17g}"
                fh.write("".join(f"{x_text},{pt},{w:.17g}\n"
                                 for pt, w in zip(p_text, row.tolist())))
        elif fmt == "matrix":
            fh.write(f"# x {grid.x_axis[0]:.17g} {grid.x_axis[-1]:.17g} {grid.x_axis.size}\n")
            fh.write(f"# p {grid.p_axis[0]:.17g} {grid.p_axis[-1]:.17g} {grid.p_axis.size}\n")
            for row in grid.values:
                fh.write(" ".join(f"{v:.17g}" for v in row.tolist()))
                fh.write("\n")
        else:
            payload = _sidecar_payload(grid)
            payload["x"] = grid.x_axis.tolist()
            payload["p"] = grid.p_axis.tolist()
            payload["w"] = grid.values.tolist()
            _dump_json(payload, fh, sort_keys=True)
    if fmt == "csv":
        with open(f"{path}.json", "w") as fh:
            _dump_json(_sidecar_payload(grid), fh, sort_keys=True)


def write_wigner_csv(grid, path) -> None:
    """Row-major x,p,w CSV plus a JSON metadata sidecar at <path>.json."""
    write_wigner(grid, path, "csv")


def write_wigner_matrix(grid, path) -> None:
    """Gnuplot-compatible matrix: one row of w per x node, axes in comments."""
    write_wigner(grid, path, "matrix")


def report_to_json(report) -> str:
    """Verify report as sorted-key JSON; an aborted check's residual is null."""
    checks = []
    for c in report.checks:
        entry = asdict(c)
        if not math.isfinite(entry["residual"]):
            entry["residual"] = None  # check aborted before measuring
        checks.append(entry)
    payload = {
        "config": report.config,
        "all_passed": report.all_passed,
        "checks": checks,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(report, path=None) -> None:
    """Write the verify report JSON."""
    with _sink(path) as fh:
        fh.write(report_to_json(report))
