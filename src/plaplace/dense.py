"""Dense output of Runge-Kutta runs as arrays over all accepted steps.

The solver's steppers and the glued models' tabulated windows both keep
their trajectories as the piecewise polynomials of DOP853's dense output
(Hairer, Norsett & Wanner, Solving ODEs I, II.6), and both read them here.
"""

import numpy as np


class _DenseTable:
    """Dense output as arrays over all accepted steps.

    Built from pieces (ts, h, y_old, F), one per stepper run, each starting
    where the previous one ended: the run's knots ts, and per step its
    length h, start state y_old and the coefficients F of scipy's
    Dop853DenseOutput (the solver's _dop853_piece, or _ode_solution_piece
    for a stock DOP853 run), or a Radau step's cubic rewritten into the
    same form (the solver's _radau_piece). A step starts at its knot; its
    h is kept apart because the last knot of a run stopped on underflow
    lies inside the last step. The table repeats Dop853DenseOutput's
    nested evaluation with array indexing, so a call over N radii is a few
    array operations instead of one Python call per step, with the floats
    of Dop853DenseOutput on the same coefficients (same operation order),
    and on Radau steps the floats of RadauDenseOutput's cubic to within
    2 ulp.
    """

    def __init__(self, pieces):
        ts, h, y_old, F = zip(*pieces)
        self.ts = np.concatenate([ts[0][:1]] + [t[1:] for t in ts])
        self.t_old = np.concatenate([t[:-1] for t in ts])
        self.h = np.concatenate(h)
        self.y_old = np.concatenate(y_old)
        self.F = np.concatenate(F)

    def __call__(self, t):
        """The two components at radii t of any shape ((u, v) of a solver
        run, (log psi, psi'/psi) of a glued window); each has t's shape."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        seg = np.searchsorted(self.ts, flat, side="left") - 1
        seg = np.clip(seg, 0, len(self.h) - 1)
        x = ((flat - self.t_old[seg]) / self.h[seg])[:, None]
        xm = 1 - x
        y = np.zeros((flat.size, self.y_old.shape[1]))
        for i in range(self.F.shape[1]):
            y += self.F[seg, -1 - i]
            y *= x if i % 2 == 0 else xm
        y += self.y_old[seg]
        return y[:, 0].reshape(t.shape), y[:, 1].reshape(t.shape)


def _ode_solution_piece(ode):
    """(ts, h, y_old, F) of the OdeSolution of a stock scipy DOP853 run."""
    steps = ode.interpolants
    return (ode.ts, np.array([d.h for d in steps]),
            np.array([d.y_old for d in steps]), np.array([d.F for d in steps]))
