"""Dense output of Runge-Kutta runs as arrays over all accepted steps.

The solver's steppers keep their trajectories as the piecewise polynomials
of DOP853's dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6),
both for radial solves and for the glued models' tabulated windows, and
read them here.
"""

import numpy as np

# radii evaluated per gather: bounds a call's scratch at _ROWS x _BLOCK floats
_BLOCK = 2048
# rows of the table: t_old, h, the 7 coefficient rows (u, v) and y_old (u, v)
_ROWS = 18


class _DenseTable:
    """Dense output as one contiguous (18, steps) array over all accepted steps.

    Built from pieces (ts, h, y_old, F), one per stepper run, each starting
    where the previous one ended: the run's knots ts, and per step its
    length h, start state y_old and the (7, 2) coefficients F of scipy's
    Dop853DenseOutput (the solver's _dop853_piece), or a Radau step's cubic
    rewritten into the same form (the solver's _radau_piece). A step starts
    at its knot; its h is kept apart because the last knot of a run
    stopped on underflow lies inside the last step.

    Column k of the table holds step k: row 0 its start t_old, row 1 its
    h, rows 2-15 the coefficient rows in the order the nested evaluation
    reads them, F[6] first, each as u then v (`coef`, a (7, 2, steps)
    view), and rows 16-17 y_old. t_old, h and y_old are views of it, the
    one copy of the coefficients. A call finds each radius' step with one
    searchsorted on the knots and gathers its column with one take, which
    also clips radii outside the knots to the first or last step; the
    nested evaluation then runs on contiguous (2, N) rows. Radii go
    through in blocks of _BLOCK, so the gathered copy stays small however
    many radii a call reads. The floats are Dop853DenseOutput's on the same
    coefficients (same operation order), and on Radau steps those of
    RadauDenseOutput's cubic to within 2 ulp.
    """

    def __init__(self, pieces):
        ts = [piece[0] for piece in pieces]
        self.ts = np.concatenate([ts[0][:1]] + [t[1:] for t in ts])
        self._table = table = np.empty((_ROWS, len(self.ts) - 1))
        start = 0
        for t, h, y_old, F in pieces:
            cols = slice(start, start + len(h))
            table[0, cols] = t[:-1]
            table[1, cols] = h
            table[2:16, cols] = F[:, ::-1].reshape(len(h), 14).T
            table[16:, cols] = y_old.T
            start = cols.stop
        self.t_old, self.h = table[0], table[1]
        self.coef = table[2:16].reshape(7, 2, -1)
        self.y_old = table[16:].T

    def __call__(self, t):
        """The two components at radii t of any shape ((u, v) of a solver
        run, (log psi, psi'/psi) of a glued window); each has t's shape."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        y = np.empty((2, flat.size))
        for lo in range(0, flat.size, _BLOCK):
            self._eval(flat[lo:lo + _BLOCK], y[:, lo:lo + _BLOCK])
        return y[0].reshape(t.shape), y[1].reshape(t.shape)

    def _eval(self, t, y):
        """Dop853DenseOutput's nested evaluation at the radii t, into y (2, N)."""
        seg = np.searchsorted(self.ts, t, side="left") - 1
        g = self._table.take(seg, axis=1, mode="clip")
        x = (t - g[0]) / g[1]
        xm = 1 - x
        np.add(0.0, g[2:4], out=y)
        y *= x
        for i in range(1, 7):
            y += g[2 + 2 * i:4 + 2 * i]
            y *= x if i % 2 == 0 else xm
        y += g[16:]
