"""One operation per workload, and the check of its answer.

Operations call the program through module attributes (``ddc.solve_bellman``,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from ddcident import ddc, games, identify, restrictions, scenarios

import checks
import inputs

EQ_KEYS = ("homogeneity", "zero_cross", "linearity")
INEQ_KEYS = ("monotonicity", "concavity", "complementarity")
FD_PAIRS = [((0, 0), (0, 9)), ((0, 3), (0, 12)), ((0, 1), (0, 5))]


# ---- single-entry ----------------------------------------------------------


def single_entry_op(d: inputs.EntryDraw) -> dict:
    b = scenarios.build_entry_model(d.cfg)
    sol = ddc.solve_bellman(b.model)
    ms = ddc.master_system(sol.psi, b.model.Q)
    eq = {k: identify.equality_identified_set(ms, b.restrictions[k]) for k in EQ_KEYS}
    iq = {k: identify.inequality_region(ms, b.restrictions[k]) for k in INEQ_KEYS}
    combined = {(e, i): identify.combine(eq[e], iq[i]).combined for e in EQ_KEYS for i in INEQ_KEYS}

    fb = scenarios.build_entry_model_fd(d.cfg)
    fsol = ddc.solve_bellman(fb.model)
    rho = identify.check_finite_dependence(fb.model.Q, FD_PAIRS, rho_max=4).rho

    def fd_polys(rs):
        return [identify.finite_restriction_poly(fsol.psi, fb.model.Q, rs.R[i], rs.c[i], rho)
                for i in range(rs.n_rows)]

    fd_eq = identify.finite_equality_set(fd_polys(fb.restrictions["homogeneity"]))
    fd_iq = identify.finite_inequality_region(
        [p for k in INEQ_KEYS for p in fd_polys(fb.restrictions[k])])

    lm = d.logdiff
    lsol = ddc.solve_bellman(lm.model)
    log_roots = identify.solve_log_diff(ddc.master_system(lsol.psi, lm.model.Q), lm.r, lm.c)
    return {
        "bundle": b, "psi": sol.psi,
        "eq": {k: v.equality_roots for k, v in eq.items()},
        "iq": {k: v.inequality_intervals for k, v in iq.items()},
        "combined": combined,
        "fd_bundle": fb, "fd_psi": fsol.psi,
        "fd_eq": fd_eq.equality_roots, "fd_iq": fd_iq.inequality_intervals,
        "logdiff": lm, "log_psi": lsol.psi, "log_roots": list(log_roots.points),
    }


def check_single_entry(res: dict) -> tuple[list[str], int, int]:
    """Failures, roots reported and roots confirmed by recovery."""
    b = res["bundle"]
    beta, Q, psi = b.config.beta, b.model.Q, res["psi"]
    out = checks.check_bellman(psi, Q, beta, b.u_true)
    reported = confirmed = 0
    for k, roots in res["eq"].items():
        rs = b.restrictions[k]
        slack_at = checks.slack_fn(rs.R, rs.c, psi, Q)
        out += checks.check_equality(k, roots, slack_at, beta)
        reported += len(roots)
        confirmed += checks.confirmed_roots(roots, slack_at)
    for k, ivs in res["iq"].items():
        rs = b.restrictions[k]
        out += checks.check_region(k, ivs, checks.slack_fn(rs.R, rs.c, psi, Q), beta)
    for (e, i), kept in res["combined"].items():
        out += checks.check_contains(f"combine({e},{i})", kept, beta)

    fb, fpsi = res["fd_bundle"], res["fd_psi"]
    fQ = fb.model.Q
    out += checks.check_bellman(fpsi, fQ, beta, fb.u_true)
    hom = fb.restrictions["homogeneity"]
    slack_at = checks.slack_fn(hom.R, hom.c, fpsi, fQ)
    out += checks.check_equality("fd homogeneity", res["fd_eq"], slack_at, beta)
    reported += len(res["fd_eq"])
    confirmed += checks.confirmed_roots(res["fd_eq"], slack_at)
    R = np.vstack([fb.restrictions[k].R for k in INEQ_KEYS])
    c = np.concatenate([fb.restrictions[k].c for k in INEQ_KEYS])
    out += checks.check_region("fd inequalities", res["fd_iq"], checks.slack_fn(R, c, fpsi, fQ), beta)

    lm = res["logdiff"]
    out += checks.check_log_diff(res["log_roots"], lm.r, lm.c, res["log_psi"], lm.model.Q,
                                 lm.model.beta)
    reported += len(res["log_roots"])
    confirmed += sum(checks.log_diff_gap(x, lm.r, lm.c, res["log_psi"], lm.model.Q)
                     <= checks.ROOT_SLACK_TOL for x in res["log_roots"])
    return out, reported, confirmed


# ---- single-large ----------------------------------------------------------


def single_large_op(m: inputs.LargeModel) -> dict:
    sol = ddc.solve_bellman(m.model)
    ms = ddc.master_system(sol.psi, m.model.Q)
    lin = restrictions.linear_in_parameters(m.H)
    mono = restrictions.monotonicity(m.states, 0, axis="x")
    eq = identify.equality_identified_set(ms, lin)
    iq = identify.inequality_region(ms, mono)
    return {"model": m, "psi": sol.psi, "lin": lin, "mono": mono,
            "eq": eq.equality_roots, "iq": iq.inequality_intervals}


def check_single_large(res: dict) -> tuple[list[str], int, int]:
    m, psi = res["model"], res["psi"]
    Q, beta = m.model.Q, m.model.beta
    lin, mono = res["lin"], res["mono"]
    lin_slack = checks.slack_fn(lin.R, lin.c, psi, Q)
    out = checks.check_bellman(psi, Q, beta, m.model.u[0])
    out += checks.check_equality("linearity", res["eq"], lin_slack, beta)
    out += checks.check_region("monotonicity", res["iq"], checks.slack_fn(mono.R, mono.c, psi, Q), beta)
    return out, len(res["eq"]), checks.confirmed_roots(res["eq"], lin_slack)


# the messages of the named faddeev_adj_det fault: the identified set and the
# region lose the planted root.  A raised error, a wrong Bellman solution or
# any other message is a different fault.
LARGE_FAULT_LABELS = ("linearity:", "monotonicity:")


def is_large_fault(msgs: list[str]) -> bool:
    """Whether a failed single-large operation failed from the named fault only."""
    return bool(msgs) and all(m.startswith(LARGE_FAULT_LABELS) for m in msgs)


# ---- game-mpe --------------------------------------------------------------


def game_op(g: inputs.GameDraw) -> dict:
    b = scenarios.build_entry_game(g.cfg)
    model = b.model
    mpe = games.solve_mpe(model)
    roots, regions = {}, {}
    for i in range(model.n_firms):
        system = games.build_system(model, mpe, i)
        exch = games.r3_exchangeability(model, i)
        eq_rows = {"exchangeability": exch,
                   "exchangeability+adjustment_cost":
                       np.vstack([exch, games.r3_adjustment_cost(model, i)]),
                   "linearity": games.r3_linear(model, i, b.designs[i])}
        for name, rows in eq_rows.items():
            roots[i, name] = (games.identified_set_game(system, rows).equality_roots, rows)
        for name, (R4, c4) in (("mono_own_lag", games.r4_monotone_own_lag(model, i)),
                               ("mono_rivals", games.r4_monotone_rivals(model, i))):
            regions[i, name] = (games.inequality_region_game(system, R4, c4).inequality_intervals,
                                R4, c4)
    return {"model": model, "P": np.array(mpe.P), "residual": mpe.residual,
            "roots": roots, "regions": regions}


def check_game(res: dict) -> tuple[list[str], int, int]:
    out, confirmed = checks.check_game(res["model"], res["P"], res["residual"], res["roots"],
                                       res["regions"])
    return out, sum(len(pts) for pts, _ in res["roots"].values()), confirmed


# ---- cli-cold --------------------------------------------------------------


def cli_round(out_dir: str) -> dict:
    """The three README commands, each in a fresh interpreter that inherits
    this process's environment (``PYTHONPATH`` and the thread limits)."""
    dirs = {}
    for label, args in inputs.CLI_COMMANDS:
        d = os.path.join(out_dir, label)
        proc = subprocess.run([sys.executable, "-m", "ddcident.cli", *args, "--out-dir", d],
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        dirs[label] = d
    return {"dirs": dirs}


def check_cli(res: dict, reference: dict) -> list[str]:
    out = []
    for label, d in res["dirs"].items():
        tol = checks.GAME_PLANTED_TOL if label == "entry-game" else checks.PLANTED_TOL
        art = checks.read_artifacts(d)
        out += checks.check_cli_run(label, art, inputs.CLI_EXPECTED_COMBINED[label],
                                    inputs.CLI_GRID_ROWS[label],
                                    reference[label], tol)
    return out
