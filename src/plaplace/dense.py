"""Stepper runs, and their dense output as arrays over all accepted steps.

solve_ivp, the package's run loop, steps the solver's DOP853 or Radau
stepper (sharing the start-up of _Stepper) and says why the run ended; it
runs both the radial solves and the glued models' tabulated windows, so it
lives here, where solver and models can both import it. Each stepper
builds its trajectory as the piecewise polynomials of DOP853's dense
output (Hairer, Norsett & Wanner, Solving ODEs I, II.6), read by
_DenseTable.
"""

from array import array

import numpy as np

# radii evaluated per gather: bounds a call's scratch at _ROWS x _BLOCK floats
_BLOCK = 2048
# rows of the table: t_old, h, the 7 coefficient rows (u, v) and y_old (u, v)
_ROWS = 18


class _DenseTable:
    """Dense output as one contiguous (18, steps) array over all accepted steps.

    Built from pieces (ts, h, y_old, F), one per stepper run or a whole
    table's (piece()), each starting where the previous one ended: the
    run's knots ts, and per step its length h, start state y_old and the
    (7, 2) coefficients F of scipy's Dop853DenseOutput (the solver's
    _dop853_piece), or a Radau step's cubic rewritten into the same form
    (the solver's _radau_piece). A step starts at its knot; its h is kept
    apart because the last knot of a run stopped on underflow lies inside
    the last step.

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

    def piece(self):
        """The table as one piece (ts, h, y_old, F), views of it, from which
        a table that continues it is built."""
        return self.ts, self.h, self.y_old, self.coef[::-1].transpose(2, 0, 1)

    def __call__(self, t, c=None):
        """The two components at radii t of any shape ((u, v) of a solver
        run, (log psi, psi'/psi) of a glued window); each has t's shape.
        With c = 0 or 1 only that component, read off its own rows of the
        table at about half the cost."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        y = np.empty((2 if c is None else 1, flat.size))
        for lo in range(0, flat.size, _BLOCK):
            self._eval(flat[lo:lo + _BLOCK], y[:, lo:lo + _BLOCK], c)
        if c is None:
            return y[0].reshape(t.shape), y[1].reshape(t.shape)
        return y[0].reshape(t.shape)

    def _eval(self, t, y, c):
        """Dop853DenseOutput's nested evaluation at the radii t, into y: both
        components, or with c = 0 or 1 only that one."""
        seg = np.searchsorted(self.ts, t, side="left") - 1
        if c is None:
            g = self._table.take(seg, axis=1, mode="clip")
            knot, coef = g, g[2:].reshape(8, 2, -1)
        else:
            knot = self._table[:2].take(seg, axis=1, mode="clip")
            coef = self._table[2 + c::2].take(seg, axis=1, mode="clip")[:, None]
        x = (t - knot[0]) / knot[1]
        xm = 1 - x
        np.add(0.0, coef[0], out=y)
        y *= x
        for i in range(1, 7):
            y += coef[i]
            y *= x if i % 2 == 0 else xm
        y += coef[7]


class _Stepper:
    """A forward run of (u, v)' = kernel(lpsi(t), u, v) on Python floats: the
    state and counters the solver's steppers share, and their start-up.

    y is the state (u, v) and f its derivative, as tuples of floats. The
    constructor evaluates f = fun(t0, y0), the one evaluation of the
    start-up counted in nfev, and takes the caller's first_step as the
    first trial step h_abs; the step control cuts it down from there.
    lpsi(t) is the per-radius input the kernel reads and stop(t, u), if
    given, ends the run at an accepted step end with the label it returns.
    A subclass supplies step(), which takes one accepted step into t, y, f,
    h_abs and the flat record `steps`, or sets `ended` to "failed" when the
    step size falls below the float spacing; and piece(), the run's dense
    output.
    """

    def __init__(self, t0, y0, t_bound, *, first_step, lpsi, kernel, rtol, atol,
                 stop=None):
        self.t, self.t_bound = t0, t_bound
        self.y = tuple(map(float, y0))
        self._lpsi, self._kernel, self._stop = lpsi, kernel, stop
        self.rtol, self.atol = float(rtol), float(atol)
        self.steps = array("d")
        self.ended = None
        self.nfev = 0
        self.f = self.fun(t0, self.y)
        self.h_abs = float(first_step)

    def fun(self, t, y):
        """The right-hand side at one radius, counted in nfev."""
        self.nfev += 1
        return self._kernel(float(self._lpsi(t)), y[0], y[1])

    def _check_stop(self, t, u):
        """End the run with the stop predicate's label where it holds."""
        if self._stop is not None:
            self.ended = self._stop(t, u) or self.ended


class _Run:
    """What solve_ivp returns: the accepted step ends t (t0 first), the state
    y = (u, v) at t[-1], nfev, why the run ended (`ended`) and piece, the
    stepper's builder of the run's dense output."""

    def __init__(self, t, stepper):
        self.t, self.y, self.nfev = t, stepper.y, stepper.nfev
        self.ended = stepper.ended or "end"
        self.piece = stepper.piece


def solve_ivp(method, t_span, y0, **options):
    """Run the stepper class `method` (the solver's _RadialDOP853 or
    _RadialRadau, built with `options`, first_step among them) from t_span[0] until it reaches
    t_span[1] or ends, collecting every accepted step end. The run's `ended`
    is "end", or the stepper's reason: "failed", "stiff" (set only short of
    t_span[1]) or the stop label, which also holds at t_span[1]."""
    t0, t_bound = map(float, t_span)
    stepper = method(t0, y0, t_bound, **options)
    ts = [t0]
    while stepper.t < t_bound and stepper.ended is None:
        stepper.step()
        if stepper.ended != "failed":
            ts.append(stepper.t)
    return _Run(ts, stepper)
