"""Cost and accuracy of the single-large operation as the state count grows.

    python3 perfbench/sweep.py            # J = 18, 36, 72, 144, 288

Each J runs in a fresh process (for its peak RSS) on the banded model of
``inputs.banded_model`` with planted beta 0.9.  The oracle works in mpmath at
50 digits with a banded elimination (``I - beta*Q`` is strictly diagonally
dominant, so no pivoting is needed): it gives det(I - 0.95*Q_last) and the
linearity-row residual of the payoffs recovered at the planted beta.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = (18, 36, 72, 144, 288)
BAND = 3
PLANTED = 0.9


def mp_banded_solve(A, rhs, band):
    """Solve ``A x = rhs`` (mpf lists, bandwidth ``band``) without pivoting;
    returns ``(x, det(A))``."""
    import mpmath as mp
    n = len(A)
    A = [row[:] for row in A]
    b = rhs[:]
    for k in range(n):
        for i in range(k + 1, min(n, k + band + 1)):
            f = A[i][k] / A[k][k]
            for j in range(k, min(n, k + band + 1)):
                A[i][j] -= f * A[k][j]
            b[i] -= f * b[k]
    x = [mp.mpf(0)] * n
    for k in reversed(range(n)):
        s = b[k] - mp.fsum(A[k][j] * x[j] for j in range(k + 1, min(n, k + band + 1)))
        x[k] = s / A[k][k]
    return x, mp.fprod(A[k][k] for k in range(n))


def one(J: int) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import mpmath as mp
    import inputs
    import spans
    import workloads
    from ddcident import betapoly

    m = inputs.banded_model(J, PLANTED, gen_seed=0, band=BAND)
    workloads.single_large_op(m)  # warm up
    t0 = time.perf_counter()
    res = workloads.single_large_op(m)
    op_s = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = spans.Tracer()  # the traced run's own count of the coefficient stacks
    tracer.install()
    workloads.single_large_op(m)
    tracer.uninstall()

    mp.mp.dps = 50
    Q, psi = m.model.Q, res["psi"]

    def i_minus(beta, Qk):
        return [[mp.mpf(int(i == j)) - mp.mpf(beta) * mp.mpf(float(Qk[i, j])) for j in range(J)]
                for i in range(J)]

    _, det_mp = mp_banded_solve(i_minus(0.95, Q[1]), [mp.mpf(0)] * J, BAND)
    _, det_fd = betapoly.faddeev_adj_det(Q[1])
    det_err = abs(mp.mpf(float(det_fd(0.95))) - det_mp) / abs(det_mp)
    V, _ = mp_banded_solve(i_minus(PLANTED, Q[1]), [mp.mpf(float(v)) for v in psi[1]], BAND)
    u = [-mp.mpf(float(psi[0, i])) + V[i]
         - mp.mpf(PLANTED) * mp.fsum(mp.mpf(float(Q[0, i, j])) * V[j] for j in range(J))
         for i in range(J)]
    R = res["lin"].R
    oracle_resid = max(abs(mp.fsum(mp.mpf(float(R[r, i])) * u[i] for i in range(J)))
                       for r in range(R.shape[0]))
    roots = [float(r) for r in res["eq"]]
    return {
        "J": J, "op_s": op_s, "peak_rss_mb": rss,
        "roots": roots,
        "planted_root_error": min((abs(r - PLANTED) for r in roots), default=None),
        "region": [list(map(float, iv)) for iv in res["iq"]],
        "det_rel_error_0.95": float(det_err),
        "oracle_row_residual_at_planted": float(oracle_resid),
        "coeff_stack_mb": tracer.counts["betapoly.coeff_stack_mb"],
    }


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        print(json.dumps(one(int(sys.argv[2]))))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    print("| J | op s | peak RSS MB | coeff stacks MB | roots | planted-root error "
          "| region | det rel. error at 0.95 | oracle residual at 0.9 |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for J in SIZES:
        out = subprocess.run([sys.executable, __file__, "--one", str(J)], env=env,
                             capture_output=True, text=True, check=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        err = "no root" if r["planted_root_error"] is None else f"{r['planted_root_error']:.2e}"
        roots = ", ".join(f"{x:.8f}" for x in r["roots"]) or "none"
        region = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in r["region"]) or "empty"
        print(f"| {J} | {r['op_s']:.3f} | {r['peak_rss_mb']:.0f} | {r['coeff_stack_mb']:.1f} "
              f"| {roots} | {err} | {region} | {r['det_rel_error_0.95']:.1e} "
              f"| {r['oracle_row_residual_at_planted']:.1e} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
