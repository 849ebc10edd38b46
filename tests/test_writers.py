"""Wigner writers: the fast CSV and matrix renderings keep the plain bytes."""

import numpy as np

from gpssvs import Nonlinearity, write_wigner
from gpssvs.wigner import WignerGrid


def _grid():
    # -0.0, subnormal and negative values, and axes with -0.0 and tiny nodes.
    values = np.array([[-0.0, 0.0, 1e-310, -2.5e-301],
                       [0.1, -0.31830988618379069, 5e-324, 1.0 / 3.0],
                       [-1e-300, 0.6366197723675814, -7.25e-17, 2.0 ** -1074]])
    return WignerGrid(x_axis=np.array([-1.5, -0.0, 1e-305]),
                      p_axis=np.array([-2.0, 0.0, 1.0 / 7.0, 3.25]),
                      values=values, nl=Nonlinearity.harmonic(), spec=None,
                      min_value=float(values.min()), negative_volume=0.0,
                      integral=1.0)


def test_csv_matches_per_row_rendering(tmp_path):
    grid = _grid()
    expected = "x,p,w\n" + "".join(
        f"{xv:.17g},{pv:.17g},{grid.values[ix, ip]:.17g}\n"
        for ix, xv in enumerate(grid.x_axis) for ip, pv in enumerate(grid.p_axis))
    write_wigner(grid, tmp_path / "w.csv", "csv")
    assert (tmp_path / "w.csv").read_bytes() == expected.encode()
    assert ",-0\n" in expected and "-0,-2," in expected and "e-324\n" in expected


def test_matrix_matches_per_value_rendering(tmp_path):
    grid = _grid()
    expected = (f"# x {grid.x_axis[0]:.17g} {grid.x_axis[-1]:.17g} 3\n"
                f"# p {grid.p_axis[0]:.17g} {grid.p_axis[-1]:.17g} 4\n"
                + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in grid.values))
    write_wigner(grid, tmp_path / "w.txt", "matrix")
    assert (tmp_path / "w.txt").read_bytes() == expected.encode()
