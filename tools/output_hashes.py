"""Hash every artifact of a fixed command-line session of a plaplace checkout.

    python tools/output_hashes.py <repo>

Runs, with <repo>/src first on the import path and into a temporary output
root: 5 catalog `solve` runs, 2 `classify`, `diagnose` on a decaying and on
a plateauing model (between them every check), `quotient`, `sweep` and
`oscillate --stages 4`. Prints one `sha256 run-dir file` line per artifact,
sorted; manifests are left out, since they hold wall time. Then it prints
the triggers of the 6-stage construction, each float by repr, and the
flux residual of the 4-stage and the 6-stage construction by repr, or the
name of the exception (QuadratureFailure) where the residual is refused.

Two checkouts whose outputs are byte-identical print the same lines, so a
byte-identity claim is one `diff` of the two outputs. The script reads no
stored output.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

PROBLEM = ["--n", "3", "--p", "2", "--q", "5", "--alpha", "1.0"]
SESSION = [
    ["solve", "--model", "euclidean", "--n", "4", "--p", "2", "--q", "3",
     "--alpha", repr(2.0 * 2.0 ** 0.5), "--rmax", "40"],
    ["solve", "--model", "hyperbolic"] + PROBLEM,
    ["solve", "--model", "exppower:c=1,m=3"] + PROBLEM,
    ["solve", "--model", "powerlike:k=2"] + PROBLEM,
    ["solve", "--model", "expgamma:c=1,gamma=0.5"] + PROBLEM,
    ["classify", "--model", "hyperbolic", "--n", "3", "--p", "2"],
    ["classify", "--model", "exppower:c=1,m=3", "--n", "3", "--p", "2"],
    ["diagnose", "--model", "hyperbolic"] + PROBLEM
    + ["--checks", "pohozaev,envelope,ratio-sc,lemma-limits,energy-divergence"],
    ["diagnose", "--model", "exppower:c=1,m=3"] + PROBLEM
    + ["--checks", "ratio-si,energy-divergence"],
    ["quotient", "--model", "powerlike:k=2", "--n", "3", "--p", "2",
     "--b", "1,0.1,0.01"],
    ["sweep", "--model", "hyperbolic", "--n", "3", "--p", "2",
     "--alpha", "0.5,1.0,1.5,2.0", "--q", "5,7", "--rmax", "20"],
    ["oscillate", "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
     "--stages", "4"],
]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(repo):
    sys.path.insert(0, os.path.join(os.path.abspath(repo), "src"))
    from plaplace import cli, models, oscillator, solver

    with tempfile.TemporaryDirectory() as root:
        for argv in SESSION:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", root] + argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {code}")
        for run in sorted(os.listdir(root)):
            folder = os.path.join(root, run)
            if not os.path.isdir(folder):
                continue
            for name in sorted(os.listdir(folder)):
                if name != "manifest.json":
                    print(_sha256(os.path.join(folder, name)), run, name)
    # the solution and the certificate are construct's second and third
    # elements whether or not a checkout also returns the profile, so one
    # script hashes both
    for stages in (4, 6):
        sol, cert = oscillator.construct(3, 2.0, 5.0, 1.0, stages)[1:3]
        if stages == 6:
            print("triggers", *(repr(stage["r"]) for stage in cert.stages))
        try:
            flux = repr(solver.flux_residual(sol))
        except models.QuadratureFailure as exc:  # a refusal, by its type
            flux = type(exc).__name__
        print(f"flux_residual {stages} stages", flux)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
