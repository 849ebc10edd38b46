"""The four benchmark workloads: seeded inputs, one operation, its check.

Every workload exposes the same small interface, used by ``worker.py``:

- ``units``: check units per operation (32 for ``verify``, else 1);
- ``cycle``: inputs per balanced cycle; a timed loop ends only after whole
  cycles, so every run times the same mix of inputs;
- ``describe_states()``: ``{label: truncation N}`` of the fixed states
  built at set-up (the part of set-up charged to ``setup_s``);
- ``make_input(i)``: the i-th input, derived from the seed only (untimed);
- ``op(inp)``: one operation, the only timed code;
- ``warmup()``: one untimed call that fills lazy caches first;
- ``check(inp, out)``: number of failed units of one operation (untimed).

Only public ``gpssvs`` names are used, every package option stays at its
default, and functions are looked up on their modules at call time so the
traced run sees its wrappers.
"""

import math
import os
import random

import numpy as np

import gpssvs
from gpssvs import cli, observables, states, verify, wigner

WIGNER_TOL = 1e-8
MOMENT_TOL = 1e-10
NORM_TOL = 1e-12
INTEGRAL_TOL = 0.01
ORACLE_NODES = 3  # seeded grid nodes compared with the oracle per grid


def oracle_point(state, z):
    """``wigner_point_oracle`` at its default window, or at wider ones.

    The default window refuses (``DimTooSmallError``) far from the origin,
    e.g. at |z| > 7.5 on the Poschl-Teller r = 4 grids; the check then
    widens the window, as the error message advises.
    """
    top = int(state.photon_numbers[-1]) + 1
    windows = [{}] + [{"dim": top + band, "band": band} for band in (256, 1024)]
    for window in windows[:-1]:
        try:
            return wigner.wigner_point_oracle(state, z, **window)
        except gpssvs.DimTooSmallError:
            pass
    return wigner.wigner_point_oracle(state, z, **windows[-1])


class PtGrid:
    """``gpssvs wigner`` on Poschl-Teller grids, called in process."""

    name = "pt-grid"
    units = 1
    cycle = 1
    # The test_08 set, costliest first: a 20 s run completes three or four
    # grids, and this order keeps the same mix whatever the count.
    GRIDS = ((4.0, 4, "even", -6.0, 6.0), (4.0, 3, "even", -6.0, 6.0),
             (4.0, 2, "even", -6.0, 6.0), (4.0, 1, "even", -6.0, 6.0),
             (0.05, 0, "odd", -4.0, 4.0))

    def __init__(self, seed, workdir, nodes=161):
        self.seed = seed
        self.workdir = workdir
        self.nodes = nodes
        nl = gpssvs.Nonlinearity.poschl_teller()
        self.states = [states.pssvs(nl, states.SqueezeSpec(r, 0.0, m, parity))
                       for r, m, parity, _, _ in self.GRIDS]

    def describe_states(self):
        return {f"pt r={r} m={m} {parity}": s.truncation
                for (r, m, parity, _, _), s in zip(self.GRIDS, self.states)}

    def make_input(self, i):
        rng = random.Random(f"{self.seed}/{i}")
        nodes = [(rng.randrange(self.nodes), rng.randrange(self.nodes))
                 for _ in range(ORACLE_NODES)]
        return {"grid": i % len(self.GRIDS), "nodes": nodes,
                "path": os.path.join(self.workdir, f"grid-{i}.csv")}

    def argv(self, inp, nodes=None):
        r, m, parity, lo, hi = self.GRIDS[inp["grid"]]
        return ["wigner", "--f", "poschl-teller", "--r", repr(r), "--m", str(m),
                "--parity", parity, f"--grid={lo!r}:{hi!r}:{nodes or self.nodes}",
                "--out", inp["path"]]

    def op(self, inp):
        return cli.main(self.argv(inp))

    def warmup(self):
        cli.main(self.argv(self.make_input(-1), nodes=5))

    def bytes_written(self, inp):
        return sum(os.path.getsize(p) for p in (inp["path"], inp["path"] + ".json")
                   if os.path.exists(p))

    def check(self, inp, code):
        return 0 if code == 0 and self._grid_ok(inp) else 1

    def _grid_ok(self, inp):
        table = np.loadtxt(inp["path"], delimiter=",", skiprows=1, ndmin=2)
        n = self.nodes
        if table.shape != (n * n, 3):
            return False
        x, p = table[::n, 0], table[:n, 1]
        w = table[:, 2].reshape(n, n)
        integral = np.trapezoid(np.trapezoid(w, p, axis=1), x)
        if not (abs(integral - 1.0) <= INTEGRAL_TOL
                and np.max(np.abs(w)) <= wigner.TWO_OVER_PI + WIGNER_TOL
                and np.max(np.abs(w - w[::-1, ::-1])) <= WIGNER_TOL):
            return False
        state = self.states[inp["grid"]]
        return all(abs(w[ix, ip] - oracle_point(state, complex(x[ix], p[ip]))) <= WIGNER_TOL
                   for ix, ip in inp["nodes"])


class HarmonicPoints:
    """``wigner_point`` on the two largest states any workload evaluates."""

    name = "harmonic-points"
    units = 1
    # Nine N = 613 points for each N = 348 point.  The latency distribution
    # is bimodal, and the machine adds modes of its own: N = 613 points
    # take about 75 ms or about 105 ms depending on the host's load.  With
    # this mix the median sits near the middle of the N = 613 points.
    SPECS = ((2.0, 0.0, 3, "odd"),) * 9 + ((2.0, 0.4, 0, "even"),)
    RADIUS = 3.0
    cycle = len(SPECS)

    def __init__(self, seed, workdir=None):
        self.seed = seed
        nl = gpssvs.Nonlinearity.harmonic()
        built = {}
        for spec in self.SPECS:
            if spec not in built:
                built[spec] = states.pssvs(nl, states.SqueezeSpec(*spec))
        self.states = [built[spec] for spec in self.SPECS]

    def describe_states(self):
        return {f"harmonic r={r} theta={t} m={m} {parity}": s.truncation
                for (r, t, m, parity), s in zip(self.SPECS, self.states)}

    def make_input(self, i):
        rng = random.Random(f"{self.seed}/{i}")
        rad = self.RADIUS * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        return self.states[i % len(self.SPECS)], complex(rad * math.cos(phi),
                                                         rad * math.sin(phi))

    def op(self, inp):
        state, z = inp
        return wigner.wigner_point(state, z)

    def warmup(self):
        self.op(self.make_input(-1))

    def check(self, inp, w):
        state, z = inp
        return 0 if abs(w - wigner.wigner_point_oracle(state, z)) <= WIGNER_TOL else 1


class HarmonicSweep:
    """One-point ``sweep`` over all five quantities on harmonic states."""

    name = "harmonic-sweep"
    units = 1
    # One cycle: nine r levels evenly spaced over [0.25, 4], each with a
    # fixed (m, parity), m counting down from the top level.  Cost grows
    # about tenfold per unit of r, so inputs drawn at random put the median
    # and the tail of a time-limited run wherever the seed's r values fell;
    # with the levels fixed, every run times the same mix.  The median lies
    # on the middle level (r = 2.125, N ~ 600) and, from eleven cycles on,
    # the tail on the top one (r = 4, m = 0, N ~ 28k), which costs about
    # four times the level below it.  The seed draws theta, which leaves
    # every cost as is.
    LEVELS = 9
    R_RANGE = (0.25, 4.0)
    cycle = LEVELS

    def __init__(self, seed, workdir=None):
        self.seed = seed
        self.nl = gpssvs.Nonlinearity.harmonic()
        lo, hi = self.R_RANGE
        top = self.LEVELS - 1
        self.design = [(lo + (hi - lo) * k / top, (top - k) % 4,
                        states.EVEN if (top - k) // 4 % 2 == 0 else states.ODD)
                       for k in range(self.LEVELS)]

    def describe_states(self):
        return {}

    def make_input(self, i):
        r, m, parity = self.design[i % self.cycle]
        theta = 2.0 * math.pi * random.Random(f"{self.seed}/{i}").random()
        return r, theta, m, parity

    def op(self, inp):
        r, theta, m, parity = inp
        return observables.sweep(self.nl, [r], [theta], [m], parity)

    def warmup(self):
        self.op((1.0, 0.0, 0, states.EVEN))

    def check(self, inp, rows):
        # sweep turns every exception into an "error:" status row.
        values = {row.quantity: row.value for row in rows if row.status == "ok"}
        if len(rows) != len(observables.SWEEP_QUANTITIES) or len(values) != len(rows):
            return 1
        r, theta, m, parity = inp
        state = states.pssvs(self.nl, states.SqueezeSpec(r, theta, m, parity))
        d_ada, d_aad, mean_n, mean_n2 = observables.moments_from_distribution(state)
        # For f = 1, <AA+> - <A+A> = 1 > 0, so the series moments follow
        # from var_x + var_p = <AA+> + <A+A> and robertson_rhs = half their gap.
        half_sum = 0.5 * (values["var_x"] + values["var_p"])
        s_aad = half_sum + values["robertson_rhs"]
        s_ada = half_sum - values["robertson_rhs"]
        variance = mean_n2 - mean_n * mean_n
        pairs = ((s_ada, d_ada), (s_aad, d_aad),
                 (values["n_squeeze"], variance - mean_n),
                 (values["mandel_q"], variance / mean_n - 1.0))
        moments_ok = all(abs(a - b) <= MOMENT_TOL * max(1.0, abs(b)) for a, b in pairs)
        norm_ok = abs(float(np.sum(state.probabilities)) - 1.0) <= NORM_TOL
        return 0 if moments_ok and norm_ok else 1


class Verify:
    """``run_suite()`` at its defaults; each failed check is one failure."""

    name = "verify"
    units = 32
    cycle = 1

    def __init__(self, seed, workdir=None):
        pass  # run_suite() takes no inputs and needs no fixed states

    def describe_states(self):
        return {}

    def make_input(self, i):
        return None

    def op(self, inp):
        return verify.run_suite()

    def warmup(self):
        self.op(None)

    def check(self, inp, report):
        failed = sum(1 for c in report.checks if not c.passed)
        return failed + max(self.units - len(report.checks), 0)


WORKLOADS = {cls.name: cls for cls in (PtGrid, HarmonicPoints, HarmonicSweep, Verify)}
