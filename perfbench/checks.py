"""Independent checks of plaplace outputs.

Every check here recomputes the expected value from a closed form or a
property of the equation, never from a stored copy of an earlier run.
Each check returns the relative error it measured (0.0 for pure property
checks) and raises CheckFailed when the output is wrong. The checks take
plain arrays and dicts, so `selfcheck.py` can feed them perturbed outputs.
"""

import hashlib
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent oracle."""


class KnownFault(Exception):
    """An operation hit a fault of the program that the benchmark counts as failed."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def aubin_talenti(r, n, p, q, alpha):
    """Euclidean critical solution u = alpha (1 + c r^s)^(-m) with u(0) = alpha."""
    s = p / (p - 1.0)
    m = (n - p) / p
    c = (alpha ** q / n) ** (1.0 / (p - 1.0)) / (alpha * m * s)
    return alpha * (1.0 + c * np.asarray(r, dtype=float) ** s) ** (-m)


def max_rel_error(values, exact):
    values = np.asarray(values, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(values - exact) / np.abs(exact)))


def check_close(name, values, exact, tol):
    """Max relative error of values against exact; fails above tol."""
    err = max_rel_error(values, exact)
    _require(np.isfinite(err) and err <= tol,
             f"{name}: relative error {err:.3e} exceeds {tol:.1e}")
    return err


def check_euclidean_profile(r, u, n, p, q, alpha, tol=1e-6):
    """u on r > 0 against the Aubin-Talenti closed form."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    keep = r > 0.0
    _require(np.count_nonzero(keep) >= 2, "euclidean profile: no knots")
    return check_close(f"euclidean ({n},{p:g},{q:g}) profile", u[keep],
                       aubin_talenti(r[keep], n, p, q, alpha), tol)


def hyperbolic_theta_n3(r):
    """Theta = I/psi^2 = (sinh 2r - 2r) / (4 sinh^2 r) for psi = sinh r, n = 3.

    Below r = 1/2 the numerator is summed from its series, which avoids
    the cancellation of sinh 2r against 2r near the pole.
    """
    r = np.asarray(r, dtype=float)
    x = 2.0 * r
    direct = np.sinh(x) - x
    term = x ** 3 / 6.0
    series = np.zeros_like(x)
    k = 3
    while np.any(term > 1e-18 * series):
        series = series + term
        term = term * x * x / ((k + 1) * (k + 2))
        k += 2
    numerator = np.where(r < 0.5, series, direct)
    return numerator / (4.0 * np.sinh(r) ** 2)


def check_hyperbolic_theta(r, theta, tol=1e-6):
    return check_close("hyperbolic n=3 Theta", theta, hyperbolic_theta_n3(r), tol)


def euclidean_critical_energy_n4():
    """Gradient energy of the n=4, p=2 critical solution: 32 pi^2 / 3."""
    return 32.0 * math.pi ** 2 / 3.0


def q_limit_target(p, q):
    """Sharp limit of Q = J^((p-1)/(q+1-p)) u, from the exponent alone."""
    e = (p - 1.0) / (q + 1.0 - p)
    return e ** e


def check_q_limit(limit, p, q, tol=0.05):
    target = q_limit_target(p, q)
    dev = abs(limit - target) / target
    _require(math.isfinite(dev) and dev < tol,
             f"Q limit {limit!r} is {dev:.3g} away from {target!r}")
    return 0.0


def expected_verdict(kind, params, n, p):
    """Completeness verdict from the growth of psi'/psi at infinity.

    pSI exactly when Theta^(1/(p-1)) is integrable, with Theta ~ 1/((n-1) f)
    where f = psi'/psi grows without bound. Only exppower (f ~ c m r^(m-1))
    has unbounded f; the others keep Theta growing or bounded below, so J
    diverges. At (m-1)/(p-1) = 1 the integrand decays like 1/r and J diverges
    only logarithmically: the answer is pSC, and an abstention (Inconclusive)
    is accepted because no finite horizon shows log growth.
    """
    if kind == "exppower":
        e = (params["m"] - 1.0) / (p - 1.0)
        if abs(e - 1.0) < 1e-12:
            return ("pSC", "Inconclusive")
        return ("pSI",) if e > 1.0 else ("pSC",)
    return ("pSC",)


def check_verdict(verdict, kind, params, n, p):
    allowed = expected_verdict(kind, params, n, p)
    _require(verdict in allowed,
             f"{kind} n={n} p={p:g}: verdict {verdict!r}, expected {allowed}")
    return 0.0


def check_functionals(u, du, P, I_last, n, p, q, alpha):
    """F nonincreasing (recomputed from u, u'), P <= 0 and P nonincreasing.

    The tolerances are those the theory allows for roundoff on the scales
    of F(0) = alpha^(q+1)/(q+1) and alpha^(q+1) max(I(R), 1).
    """
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    P = np.asarray(P, dtype=float)
    F = ((p - 1.0) / p) * np.abs(du) ** p + u ** (q + 1.0) / (q + 1.0)
    f_rise = float(np.max(np.diff(F)))
    _require(f_rise <= 1e-9 * float(F[0]), f"F rises by {f_rise:.3e}")
    scale = alpha ** (q + 1.0) * max(float(I_last), 1.0)
    _require(float(np.max(P)) <= 1e-8 * scale,
             f"P is positive: max {float(np.max(P)):.3e}")
    p_rise = float(np.max(np.diff(P)))
    _require(p_rise <= 1e-8 * scale, f"P rises by {p_rise:.3e}")
    return 0.0


def check_program_verdicts(verdicts, names=("F-nonincreasing", "P-nonpositive",
                                             "P-nonincreasing")):
    """The program's own verdicts must agree with the recomputed properties."""
    by_name = {v["name"]: v for v in verdicts}
    for name in names:
        _require(name in by_name and by_name[name]["passed"],
                 f"program verdict {name} missing or failed")
    return 0.0


def check_decreasing(u, alpha, name):
    u = np.asarray(u, dtype=float)
    _require(len(u) >= 2 and u[0] == alpha, f"{name}: u(0) != alpha")
    _require(bool(np.all(np.diff(u) <= 1e-14 * alpha)), f"{name}: u increases")
    _require(bool(np.all(u > 0.0)), f"{name}: u not positive")
    return 0.0


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(manifest, files):
    """Status ok and every artifact's sha256 equal to its manifest entry."""
    _require(manifest.get("status") == "ok",
             f"manifest status {manifest.get('status')!r}")
    outputs = manifest.get("outputs", {})
    _require(sorted(outputs) == sorted(files),
             f"manifest lists {sorted(outputs)}, run dir holds {sorted(files)}")
    for name, path in files.items():
        _require(sha256_of(path) == outputs[name], f"{name}: sha256 mismatch")
    return 0.0


def check_sweep_row(row, reference):
    """One concentration-sweep row of a curved model.

    A row whose L^{p*} mass sits mostly beyond R/2 measures the cutoff, not
    the profile; returning it as a normal (unflagged) row is the known
    fault. Otherwise the quotient must lie strictly above the Euclidean one.
    """
    if row["outer_mass_fraction"] > 0.5 and not row["flagged"]:
        raise KnownFault(
            f"{row['model']} b={row['b']!r}: quotient {row['quotient']:.3g} "
            f"with outer mass {row['outer_mass_fraction']:.3f} returned "
            "unflagged")
    _require(math.isfinite(row["quotient"]) and row["err"] < 1e-3 * row["quotient"],
             f"{row['model']} b={row['b']!r}: unresolved quotient")
    _require(row["quotient"] > reference, f"{row['model']} b={row['b']!r}: "
             f"quotient {row['quotient']!r} not above {reference!r}")
    return 0.0


def check_gaps_shrink(gaps, name):
    _require(all(g > 0.0 for g in gaps), f"{name}: nonpositive gap {gaps}")
    _require(all(a > b for a, b in zip(gaps, gaps[1:])),
             f"{name}: gaps do not shrink {gaps}")
    return 0.0


def euclidean_quotient(n, p, b, R):
    """Truncated Rayleigh quotient of the extremal profile in R^n by quadrature.

    Same profile a=1 and C^1 cubic cutoff as the program, integrated with
    adaptive Gauss-Kronrod in r instead of Simpson in log r.
    """
    from scipy.integrate import quad

    s = p / (p - 1.0)
    m = (n - p) / p
    p_star = n * p / (n - p)
    half = R / 2.0

    def f(r):
        return (b + r ** s) ** (-m)

    def df(r):
        return -m * s * r ** (s - 1.0) * (b + r ** s) ** (-m - 1.0)

    def eta(r):
        x = min(max((r - half) / half, 0.0), 1.0)
        return 1.0 - x * x * (3.0 - 2.0 * x), -6.0 * x * (1.0 - x) / half

    def grad(r):
        e, de = eta(r)
        return abs(df(r) * e + f(r) * de) ** p * r ** (n - 1)

    def mass(r):
        return abs(f(r) * eta(r)[0]) ** p_star * r ** (n - 1)

    pts = [b ** (1.0 / s)]
    num = sum(quad(grad, lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
              for lo, hi in ((0.0, half), (half, R)))
    den = sum(quad(mass, lo, hi, limit=200, epsabs=0.0, epsrel=1e-12,
                   points=pts if lo == 0.0 else None)[0]
              for lo, hi in ((0.0, half), (half, R)))
    vol = n * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return (vol * num) ** (1.0 / p) / (vol * den) ** (1.0 / p_star)
