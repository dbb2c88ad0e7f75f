"""A fixed piece of numpy work, independent of cellfree_ee, that tracks machine speed.

On a shared host the speed of identical work drifts by about ±15% over tens
of seconds, more than the regression bounds allow. The probe runs after each
op for about PROBE_SHARE of the op's time, and the op's time is divided by
the probe's mean unit time over PROBE_NOMINAL_S, so the timed metrics read
as at the nominal machine speed. The probe mixes the two kinds of work the
package does: a batched complex Gram/inverse/condition-number step like the
zero-forcing Monte Carlo, and a Python loop of tiny Cholesky solves like the
barrier solver. It never calls the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Unit time on the machine where the benchmark was defined (2-core Intel Xeon
# at 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread).
PROBE_NOMINAL_S = 0.025
PROBE_SHARE = 0.1
_NEWTON_STEPS = 150


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._g = rng.standard_normal((64, 100, 16)) + 1j * rng.standard_normal((64, 100, 16))
        self._q = rng.random((24, 8))
        self._rhs = rng.standard_normal(8)
        self.unit_s: list = []
        self._unit()  # warm-up: first-call allocations are not machine speed

    def _unit(self) -> None:
        gram = np.einsum("bmk,bml->bkl", self._g, self._g.conj())
        np.linalg.cond(gram)
        precoder = np.einsum("bmk,bkl->bml", self._g.conj(), np.linalg.inv(gram))
        (np.abs(precoder) ** 2).sum(axis=0)
        x = np.full(8, 0.1)
        for _ in range(_NEWTON_STEPS):
            s = 1.0 - self._q @ (x * x)
            chol = np.linalg.cholesky(2.0 * np.eye(8) + np.diag(1.0 / (1.0 + s[:8] ** 2)))
            x = x + 1e-4 * np.linalg.solve(chol, self._rhs)

    def sample(self, op_seconds: float) -> float:
        """Run probe units for about PROBE_SHARE of an op that took `op_seconds`.

        Returns their mean unit time over the nominal one: the slowdown of the
        machine right after the op, above 1 when it ran slow.
        """
        units = []
        for _ in range(max(1, round(PROBE_SHARE * op_seconds / PROBE_NOMINAL_S))):
            t0 = time.perf_counter()
            self._unit()
            units.append(time.perf_counter() - t0)
        self.unit_s.extend(units)
        return float(np.mean(units)) / PROBE_NOMINAL_S

    @property
    def slowdown(self) -> float:
        """Mean slowdown over every unit run so far."""
        return float(np.mean(self.unit_s)) / PROBE_NOMINAL_S
