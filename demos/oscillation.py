"""Staged construction of a geometry whose rescaled solution never settles.

Alternating power-like and exponential segments are glued on the fly,
each segment extended until the running value of Q crosses a threshold
band; the result is a certificate that Q dips below T_low on even stages
and climbs above T_high on odd ones, so the limit of Q does not exist.

Takes under two seconds.
"""

import plaplace as pl


def main():
    n, p, q = 3, 2.0, 5.0
    _, sol, cert, prof = pl.construct(n, p, q, 1.0, stages=4)
    print(f"thresholds: T_low = {cert.t_low:.5f}, T_high = {cert.t_high:.5f}")
    print("stage   kind          r            Q         u")
    for s in cert.stages:
        print(f"  {s['index']}  {s['kind']:<12} {s['r']:12.4f}  "
              f"{s['Q']:.5f}  {s['u']:.3e}")
    print(f"band separation: {cert.separation:.5f} "
          f"(required {0.5 * (cert.t_high - cert.t_low):.5f})")
    out = pl.verify_certificate(cert, sol, prof)
    print(f"verification: passed = {out['passed']}")


if __name__ == "__main__":
    main()
