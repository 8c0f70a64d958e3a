"""Command-line front end: every pipeline as a manifest-driven run.

Subcommands mirror the library modules: solve (radial IVP), classify
(completeness dichotomy), diagnose (functional checks), quotient (Sobolev
concentration sweep), oscillate (staged construction), sweep (cartesian
product of problems). Each run writes its outputs and a JSON manifest into
a content-hash-named directory under the output root ($PLAPLACE_RUNS or
./runs); the manifest is written even when the run fails, with the error
recorded.

Exit codes: 0 success, 2 argument errors, 3 solver/quadrature errors,
4 regime mismatches (a check was requested in a regime where it does not
apply).
"""

import argparse
import functools
import sys

from . import diagnostics, models, oscillator, runio, sobolev, solver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_REGIME = 4

# argument-shaped failures: bad descriptors, parameter-domain violations
_USAGE_ERRORS = (models.InvalidParameter, models.ConvexityViolation)
# numerical failures of an otherwise well-posed run
_SOLVER_ERRORS = (
    models.QuadratureFailure,
    models.GeometryOverflow,
    models.AmbiguousRegime,
    solver.StartupFailure,
    solver.StepSizeCollapse,
    solver.NonMonotone,
    solver.OutOfRange,
    oscillator.TriggerTimeout,
    oscillator.Inconsistent,
    sobolev.TailDivergence,
)
# a check was asked for outside its regime of validity
_REGIME_ERRORS = (
    diagnostics.RegimeMismatch,
    diagnostics.NoPlateau,
    diagnostics.EuclideanCritical,
    diagnostics.GridMismatch,
)


def _float_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise models.InvalidParameter(f"expected a comma list of numbers, got {text!r}")
    return values


def _default_rmax(model, n, requested):
    if requested is not None:
        return float(requested)
    return min(60.0, models.safe_horizon(model, n))


# the benchmark's tracer times the command's JSON writes under this name
_write_json = runio.write_json
# the parameters of one solve, which name its run directory
_SOLVE_KEYS = ("model", "n", "p", "q", "alpha", "rmax", "rtol", "atol")


def _solve_params(args, **values):
    """The solve parameters of args as a dict, updated with `values`."""
    params = {key: getattr(args, key) for key in _SOLVE_KEYS}
    params.update(values)
    return params


def _solve_pipeline(run, args):
    """Shared solve path: returns (model, problem, solution)."""
    model = models.make_model(args.model)
    prob = solver.Problem(args.n, args.p, args.q, args.alpha)
    cfg = solver.SolverConfig(
        r_max=_default_rmax(model, args.n, args.rmax),
        rel_tol=args.rtol,
        abs_tol=args.atol,
    )
    sol = solver.integrate(prob, model, cfg)
    run.record(sol.export_csv(run.file("solution.csv")))
    run.record(sol.export_json_sidecar(run.file("solution.json")))
    return model, prob, sol


def cmd_solve(args):
    with runio.RunDir("solve", _solve_params(args), root=args.out) as run:
        _, _, sol = _solve_pipeline(run, args)
        print(f"{run.path} termination={sol.termination} "
              f"r_last={sol.r_last!r} u_last={float(sol.u[-1])!r}")
    return EXIT_OK


def cmd_classify(args):
    params = {"model": args.model, "n": args.n, "p": args.p}
    with runio.RunDir("classify", params, root=args.out) as run:
        model = models.make_model(args.model)
        horizon = min(10.0, models.safe_horizon(model, args.n))
        prof = models.geometry_profile(model, args.n, args.p, horizon)
        verdict = models.classify_completeness(prof)
        run.record(_write_json(run.file("verdict.json"), verdict.to_dict()))
        run.record(prof.export_csv(run.file("geometry.csv")))
        tag = verdict.regime
        print(f"{run.path} verdict={verdict.verdict} regime={tag.name} "
              f"gamma={tag.gamma!r} ell={tag.ell!r} hp_fail={tag.hp_fail}")
    return EXIT_OK


_CHECK_NAMES = ("pohozaev", "envelope", "ratio-sc", "ratio-si",
                "energy-divergence", "lemma-limits")


def cmd_diagnose(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in _CHECK_NAMES]
    if unknown:
        raise models.InvalidParameter(
            f"unknown checks {unknown}; choose from {list(_CHECK_NAMES)}"
        )
    params = _solve_params(args, checks=checks)
    with runio.RunDir("diagnose", params, root=args.out) as run:
        model, prob, sol = _solve_pipeline(run, args)
        prof = models.geometry_profile(model, args.n, args.p, sol.r_last)
        report = diagnostics.functional_traces(sol, prof)
        run.record(report.export_csv(run.file("traces.csv")))
        results = {"verdicts": report.verdicts}
        if "pohozaev" in checks:
            results["pohozaev"] = next(v for v in report.verdicts
                                       if v["name"] == "pohozaev-identity")
        if "envelope" in checks:
            results["envelope"] = diagnostics.decay_envelope_check(sol, prof)
        if "ratio-sc" in checks:
            results["ratio-sc"] = diagnostics.asymptotic_ratio_sc(sol, prof)
        if "ratio-si" in checks:
            si = diagnostics.asymptotic_ratio_si(sol, prof)
            report.lambda_hat = si["lambda_hat"]
            results["ratio-si"] = si
        if "energy-divergence" in checks:
            results["energy-divergence"] = diagnostics.energy_divergence_probe(
                sol, prof, report=report)
        if "lemma-limits" in checks:
            results["lemma-limits"] = diagnostics.lemma_limit_checks(sol, prof)
        run.record(_write_json(run.file("report.json"), results))
        run.record(report.export_json(run.file("verdicts.json")))
        print(f"{run.path} passed={report.passed()} checks={checks}")
    return EXIT_OK


def cmd_quotient(args):
    b_seq = _float_list(args.b)
    params = {"model": args.model, "n": args.n, "p": args.p, "b": b_seq}
    with runio.RunDir("quotient", params, root=args.out) as run:
        model = models.make_model(args.model)
        sweep = sobolev.concentration_sweep(model, args.n, args.p, b_seq)
        run.record(sobolev.export_sweep_csv(sweep, run.file("quotients.csv")))
        run.record(_write_json(run.file("sweep.json"), sweep))
        ref = sweep["reference"]
        flagged = sum(1 for row in sweep["rows"] if row["flagged"])
        print(f"{run.path} reference={ref['quotient']!r} "
              f"reference_flagged={ref['flagged']} rows={len(sweep['rows'])} "
              f"flagged={flagged}")
    return EXIT_OK


def cmd_oscillate(args):
    params = {"n": args.n, "p": args.p, "q": args.q, "alpha": args.alpha,
              "stages": args.stages}
    with runio.RunDir("oscillate", params, root=args.out) as run:
        _, sol, cert, prof = oscillator.construct(
            args.n, args.p, args.q, args.alpha, args.stages)
        run.record(cert.to_json(run.file("certificate.json")))
        run.record(sol.export_csv(run.file("solution.csv")))
        verification = oscillator.verify_certificate(cert, sol, prof)
        run.record(_write_json(run.file("verification.json"), verification))
        print(f"{run.path} stages={len(cert.stages)} "
              f"separation={cert.separation!r} verified={verification['passed']}")
    return EXIT_OK


def cmd_sweep(args):
    alphas = _float_list(args.alpha)
    qs = _float_list(args.q)
    for flag, values in (("--alpha", alphas), ("--q", qs)):
        if len(set(values)) < len(values):
            raise models.InvalidParameter(f"sweep {flag} lists a value twice: {values}")
    grid = [(a, q) for a in alphas for q in qs]  # deterministic order

    def one(point):
        a, q = point
        params = _solve_params(args, q=q, alpha=a)
        with runio.RunDir("solve", params, root=args.out) as run:
            _solve_pipeline(run, argparse.Namespace(**params))
        return run.name

    params = _solve_params(args, alpha=alphas, q=qs)
    with runio.RunDir("sweep", params, root=args.out) as run:
        names = [one(point) for point in grid]
        run.record(_write_json(run.file("runs.json"), {
            "points": [{"alpha": a, "q": q} for a, q in grid],
            "runs": names,
        }))
        print(f"{run.path} runs={len(names)}")
    return EXIT_OK


def _add_model_args(sp):
    """--model, --n and --p: the model and the operator."""
    sp.add_argument("--model", required=True,
                    help="model descriptor, e.g. euclidean, hyperbolic, "
                         "exppower:c=1,m=3, powerlike:k=2, expgamma:c=1,gamma=0.5")
    sp.add_argument("--n", type=int, required=True, help="dimension")
    sp.add_argument("--p", type=float, required=True, help="p-Laplacian exponent")


def _add_solver_args(sp):
    """--rmax, --rtol and --atol: the horizon and the solver contract."""
    sp.add_argument("--rmax", type=float, default=None,
                    help="integration horizon (default: min(60, safe))")
    sp.add_argument("--rtol", type=float, default=solver.REL_TOL,
                    help="relative tolerance")
    sp.add_argument("--atol", type=float, default=solver.ABS_TOL,
                    help="absolute tolerance")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: argparse objects
    keep no state between parse_args calls, and no argument has a mutable
    default."""
    parser = argparse.ArgumentParser(
        prog="plaplace",
        description="radial p-Laplace experiments on model manifolds",
    )
    parser.add_argument("--out", default=None,
                        help="output root (default: $PLAPLACE_RUNS or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="integrate the radial IVP")
    solve.set_defaults(func=cmd_solve)

    sp = sub.add_parser("classify", help="completeness dichotomy of a model")
    _add_model_args(sp)
    sp.set_defaults(func=cmd_classify)

    diagnose = sub.add_parser("diagnose", help="functional checks along a solution")
    diagnose.set_defaults(func=cmd_diagnose)
    for sp in (solve, diagnose):
        _add_model_args(sp)
        sp.add_argument("--q", type=float, required=True, help="source power")
        sp.add_argument("--alpha", type=float, required=True, help="central value u(0)")
        _add_solver_args(sp)
    diagnose.add_argument("--checks", default="pohozaev",
                          help="comma list from: " + ", ".join(_CHECK_NAMES))

    sp = sub.add_parser("quotient", help="Sobolev concentration sweep")
    _add_model_args(sp)
    sp.add_argument("--b", required=True,
                    help="decreasing comma list of concentration scales")
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("oscillate", help="staged oscillating construction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--stages", type=int, required=True)
    sp.set_defaults(func=cmd_oscillate)

    sp = sub.add_parser("sweep", help="cartesian product of solve runs")
    _add_model_args(sp)
    sp.add_argument("--alpha", required=True, help="comma list of central values")
    sp.add_argument("--q", required=True, help="comma list of source powers")
    _add_solver_args(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _REGIME_ERRORS as exc:
        print(f"error: regime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except _SOLVER_ERRORS as exc:
        print(f"error: solver: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
