"""Command-line entry point: run identification pipelines and validate configs.

``ddcident run`` builds a scenario (or loads a model config), computes the
identifying polynomial systems for the requested restrictions, and writes
three artifacts into the output directory:

* ``curves.csv``    - discount-factor grid and one normalized column per
  identifying polynomial (for figure reproduction);
* ``identified_set.json`` - roots / regions / combined set per restriction;
* ``run_manifest.json``   - tolerances, config echo, and output inventory.

Outputs are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .betapoly import BetaPoly
from .ddc import _STOCH_TOL, SingleAgentModel, master_system, psi_from_ccps, solve_bellman
from .games import (
    _system_polys,
    build_system,
    identified_set_game,
    inequality_region_game,
    r3_adjustment_cost,
    r3_exchangeability,
    r3_linear,
    r4_monotone_own_lag,
    r4_monotone_rivals,
    solve_mpe,
)
from .identify import (
    IdentifiedSet,
    check_finite_dependence,
    equality_identified_set,
    finite_equality_set,
    finite_inequality_region,
    finite_restriction_poly,
    inequality_region,
)
from .restrictions import RestrictionSet
from .scenarios import (
    build_entry_game,
    build_entry_model,
    build_entry_model_fd,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run or model configuration; carries a machine-readable issue list."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i.get("message", i)) for i in self.issues))


# ---- model config (de)serialization ---------------------------------------


def model_to_dict(model: SingleAgentModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "single",
        "n_actions": model.n_actions,
        "n_states": model.n_states,
        "payoffs": model.u.tolist(),
        "Q": model.Q.tolist(),
        "beta": model.beta,
    }


def model_from_dict(d: dict) -> SingleAgentModel:
    return SingleAgentModel(
        u=np.asarray(d["payoffs"], dtype=float),
        Q=np.asarray(d["Q"], dtype=float),
        beta=float(d["beta"]),
    )


def validate_config(cfg: dict) -> list:
    """Schema, stochasticity, and restriction-reference checks; returns an issue list."""
    issues = []
    if cfg.get("schema_version") != SCHEMA_VERSION:
        issues.append({"field": "schema_version",
                       "message": f"schema_version must be {SCHEMA_VERSION}"})
    mode = cfg.get("mode")
    if mode not in ("single",):
        issues.append({"field": "mode", "message": "mode must be 'single'"})
        return issues
    try:
        K = int(cfg["n_actions"])
        J = int(cfg["n_states"])
    except (KeyError, TypeError, ValueError):
        issues.append({"field": "n_actions/n_states", "message": "missing or non-integer sizes"})
        return issues
    Q = np.asarray(cfg.get("Q", []), dtype=float)
    if Q.shape != (K, J, J):
        issues.append({"field": "Q", "message": f"Q must have shape {(K, J, J)}, got {Q.shape}"})
    else:
        rows = Q.sum(axis=2)
        for k in range(K):
            for j in range(J):
                if abs(rows[k, j] - 1.0) > _STOCH_TOL:
                    issues.append({"field": "Q",
                                   "message": f"transition row (action {k}, state {j}) sums to {rows[k, j]:.12g}, not 1"})
    if "payoffs" not in cfg and "ccps" not in cfg:
        issues.append({"field": "payoffs", "message": "config needs 'payoffs' (with beta) or 'ccps'"})
    if "payoffs" in cfg:
        u = np.asarray(cfg["payoffs"], dtype=float)
        if u.shape != (K, J):
            issues.append({"field": "payoffs", "message": f"payoffs must have shape {(K, J)}"})
        if "beta" not in cfg:
            issues.append({"field": "beta", "message": "beta is required with payoffs"})
    if "ccps" in cfg:
        p = np.asarray(cfg["ccps"], dtype=float)
        if p.shape != (K, J):
            issues.append({"field": "ccps", "message": f"ccps must have shape {(K, J)}"})
        elif np.any(p <= 0) or np.any(np.abs(p.sum(axis=0) - 1) > 1e-8):
            issues.append({"field": "ccps", "message": "ccps must be positive and sum to 1 per state"})
    p_cols = J * (K - 1)
    for r, rdict in enumerate(cfg.get("restrictions", [])):
        if rdict.get("kind") not in ("equality", "inequality_ge"):
            issues.append({"field": f"restrictions[{r}].kind",
                           "message": "kind must be 'equality' or 'inequality_ge'"})
            continue
        for i, row in enumerate(rdict.get("rows", [])):
            for c in row.get("cols", []):
                if not 0 <= int(c) < p_cols:
                    issues.append({"field": f"restrictions[{r}].rows[{i}]",
                                   "message": f"column {c} out of range for {p_cols} stacked payoff cells"})
    if not issues:
        # the model's own checks (sign, beta range, sizes): what validate
        # accepts, run accepts
        try:
            _model_from_config(cfg)
        except ValueError as err:
            issues.append({"field": "model", "message": str(err)})
    return issues


# ---- restriction spec parsing ----------------------------------------------

_SPEC_RE = re.compile(r"^([a-zA-Z_][\w-]*)(?:\((.*)\))?$")


def parse_restriction_specs(text: str) -> list:
    """Parse ``name(arg=val,...)`` comma-separated restriction requests."""
    out = []
    depth, token, parts = 0, "", []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(token)
            token = ""
            continue
        depth += ch == "("
        depth -= ch == ")"
        token += ch
    if token:
        parts.append(token)
    for part in parts:
        part = part.strip()
        if not part:
            continue
        m = _SPEC_RE.match(part)
        if not m:
            raise ConfigError([{"field": "--restrictions", "message": f"cannot parse {part!r}"}])
        name, argtext = m.group(1), m.group(2)
        kwargs = {}
        if argtext:
            for item in argtext.split(","):
                key, _, val = item.partition("=")
                if not _:
                    raise ConfigError([{"field": "--restrictions",
                                        "message": f"argument {item!r} must be key=value"}])
                kwargs[key.strip()] = _parse_value(val.strip())
        out.append((name, kwargs))
    return out


def _parse_value(v: str):
    if v.lower() in ("true", "false"):
        return v.lower() == "true"
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


# ---- run pipeline -----------------------------------------------------------

_ENTRY_NAMES = {
    "homogeneity": "homogeneity",
    "zero-cross": "zero_cross",
    "zero_cross": "zero_cross",
    "monotonicity": "monotonicity",
    "concavity": "concavity",
    "complementarity": "complementarity",
    "linearity": "linearity",
}


def _entry_restriction(bundle, name, kwargs):
    """Resolve a requested restriction: the bundle's prebuilt set, or a rebuilt
    one when arguments are supplied (e.g. ``monotonicity(axis=w)``)."""
    key = _ENTRY_NAMES.get(name)
    if key is None:
        raise ConfigError([{"field": "--restrictions",
                            "message": f"unknown restriction {name!r} for this scenario"}])
    if not kwargs:
        return key, bundle.restrictions[key]
    from .restrictions import (additive_homogeneous, complementarity, concavity,
                               monotonicity, zero_cross_difference)
    fs = bundle.states
    try:
        if key == "homogeneity":
            rs = additive_homogeneous(fs, 0, **kwargs)
        elif key == "zero_cross":
            rs = zero_cross_difference(fs, 0, **kwargs)
        elif key == "monotonicity":
            rs = monotonicity(fs, 0, **kwargs)
        elif key == "concavity":
            rs = concavity(fs, 0, **kwargs)
        elif key == "complementarity":
            rs = complementarity(fs, 0, **kwargs)
        else:
            raise TypeError("linearity takes no arguments")
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigError([{"field": "--restrictions",
                            "message": f"cannot build {name!r} with {kwargs}: {err}"}])
    return key, rs

_GAME_BUILDERS = {
    "exchangeability": "eq",
    "adjustment-cost": "eq",
    "adjustment_cost": "eq",
    "linearity": "eq",
    "mono-own-lag": "ge",
    "mono-rivals": "ge",
}


def _beta_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError([{"field": "--beta-grid", "message": f"expected lo:hi:n, got {spec!r}"}])
    if not (lo < hi and n >= 2):
        raise ConfigError([{"field": "--beta-grid", "message": "need lo < hi and n >= 2"}])
    return np.linspace(lo, hi, n)


def _normalized_curves(grid, polys, labels):
    cols = {}
    for label, p in zip(labels, polys):
        vals = p(grid)
        scale = np.max(np.abs(vals))
        cols[label] = vals / scale if scale > 0 else vals
    return cols


def _write_curves(path, grid, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["beta"] + list(columns)) + "\n")
        for r, b in enumerate(grid):
            row = [f"{b:.17g}"] + [f"{columns[c][r]:.17g}" for c in columns]
            fh.write(",".join(row) + "\n")


def _single_agent_run(bundle, specs, grid, tol_root, tol_fp):
    psi = solve_bellman(bundle.model, tol=tol_fp).psi
    ms = master_system(psi, bundle.model.Q)
    results, curves = {}, {}
    eq_sets, ineq_sets = [], []
    for name, kwargs in specs:
        key, rs = _entry_restriction(bundle, name, kwargs)
        polys = ms.residual_polys(rs.R, rs.c)
        curves.update(_normalized_curves(grid, polys, [f"{key}_{i}" for i in range(len(polys))]))
        if rs.kind == "eq":
            ident = equality_identified_set(ms, rs, residual_tol=tol_root)
            eq_sets.append(ident)
        else:
            ident = inequality_region(ms, rs)
            ineq_sets.append(ident)
        results[key] = ident.to_json_dict()
    combined = _combine_many(eq_sets, ineq_sets)
    return results, combined, curves


def _fd_run(bundle, specs, grid, tol_root, tol_fp):
    model = bundle.model
    sol = solve_bellman(model, tol=tol_fp)
    fs = bundle.states
    pairs = [((0, x), (0, (x + fs.n_states // 2) % fs.n_states)) for x in (0,)]
    cert = check_finite_dependence(model.Q, pairs, rho_max=4)
    if not cert.satisfied:
        raise ConfigError([{"field": "scenario",
                            "message": "scenario is not finitely dependent; use mode 'single'"}])
    rho = cert.rho
    results, curves = {}, {}
    eq_sets, ineq_sets = [], []
    for name, kwargs in specs:
        key, rs = _entry_restriction(bundle, name, kwargs)
        polys = [finite_restriction_poly(sol.psi, model.Q, rs.R[i], rs.c[i], rho)
                 for i in range(rs.n_rows)]
        curves.update(_normalized_curves(grid, polys, [f"{key}_{i}" for i in range(len(polys))]))
        if rs.kind == "eq":
            ident = finite_equality_set(polys, residual_tol=tol_root)
            eq_sets.append(ident)
        else:
            ident = finite_inequality_region(polys)
            ineq_sets.append(ident)
        d = ident.to_json_dict()
        d["rho"] = rho
        results[key] = d
    combined = _combine_many(eq_sets, ineq_sets)
    return results, combined, curves


def _game_run(bundle, specs, grid, firm, tol_fp, damping):
    model = bundle.model
    mpe = solve_mpe(model, damping=damping, tol=tol_fp)
    system = build_system(model, mpe, firm)
    results, curves = {}, {}
    eq_sets, ineq_sets = [], []
    for name, kwargs in specs:
        if name not in _GAME_BUILDERS:
            raise ConfigError([{"field": "--restrictions",
                                "message": f"unknown restriction {name!r} for the game scenario"}])
        if name == "exchangeability":
            R3 = r3_exchangeability(model, firm)
        elif name in ("adjustment-cost", "adjustment_cost"):
            R3 = r3_adjustment_cost(model, firm)
        elif name == "linearity":
            R3 = r3_linear(model, firm, bundle.designs[firm])
        elif name == "mono-own-lag":
            R4, c4 = r4_monotone_own_lag(model, firm)
        else:
            R4, c4 = r4_monotone_rivals(model, firm)
        key = name.replace("-", "_")
        if _GAME_BUILDERS[name] == "eq":
            ident = identified_set_game(system, R3)
            polys, _ = _system_polys(system, R3, None, "natural")
            eq_sets.append(ident)
        else:
            ident = inequality_region_game(system, R4, c4)
            # boundary polynomials for plotting
            X, Y = system.X_a, system.Y_a_coeffs()
            W = np.linalg.solve(X, Y)
            polys = [BetaPoly(row) for row in (R4 @ W)]
            ineq_sets.append(ident)
        curves.update(_normalized_curves(grid, polys, [f"{key}_{i}" for i in range(len(polys))]))
        d = ident.to_json_dict()
        d["firm"] = firm + 1  # firms are reported 1-based on the CLI surface
        results[key] = d
    combined = _combine_many(eq_sets, ineq_sets)
    return results, combined, curves


def _combine_many(eq_sets, ineq_sets):
    """Intersect equality root sets and inequality regions.

    An equality set flagged ``no_identifying_content`` holds at every discount
    factor, so it constrains nothing; if every equality set is flagged, the
    combined result carries the flag instead of an empty root list.
    """
    informative = [s for s in eq_sets if not s.diagnostics.get("no_identifying_content")]
    eq = None
    for s in informative:
        if eq is None:
            eq = list(s.equality_roots or [])
        else:
            eq = [r for r in eq if any(abs(r - q) <= 1e-6 for q in (s.equality_roots or []))]
    region = None
    for s in ineq_sets:
        ivs = list(s.inequality_intervals or [])
        if region is None:
            region = ivs
        else:
            region = _intersect_intervals(region, ivs)
    out = IdentifiedSet(
        equality_roots=eq,
        inequality_intervals=region,
        combined=None if eq is None else (
            eq if region is None
            else [r for r in eq if any(lo - 1e-6 <= r <= hi + 1e-6 for lo, hi in region)]
        ),
        diagnostics={"no_identifying_content": True} if eq_sets and not informative else {},
    )
    return out.to_json_dict()


def _intersect_intervals(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return out


def cmd_run(args) -> int:
    grid = _beta_grid(args.beta_grid)
    specs = parse_restriction_specs(args.restrictions) if args.restrictions else []
    if not specs:
        raise ConfigError([{"field": "--restrictions", "message": "at least one restriction is required"}])
    config_echo = {"scenario": args.scenario, "config": args.config, "firm": args.firm,
                   "restrictions": args.restrictions, "beta_grid": args.beta_grid,
                   "tol_root": args.tol_root, "tol_fixedpoint": args.tol_fixedpoint,
                   "damping": args.damping}

    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        issues = validate_config(cfg)
        if issues:
            raise ConfigError(issues)
        model = _model_from_config(cfg)
        psi = (psi_from_ccps(np.asarray(cfg["ccps"], dtype=float)) if "ccps" in cfg
               else solve_bellman(model, tol=args.tol_fixedpoint).psi)
        ms = master_system(psi, model.Q)
        inline = {r["label"]: RestrictionSet.from_json_dict(r) for r in cfg.get("restrictions", [])}
        results, curves = {}, {}
        eq_sets, ineq_sets = [], []
        for name, kwargs in specs:
            if name not in inline:
                raise ConfigError([{"field": "--restrictions",
                                    "message": f"restriction {name!r} not found in config"}])
            rs = inline[name]
            polys = ms.residual_polys(rs.R, rs.c)
            curves.update(_normalized_curves(grid, polys,
                                             [f"{name}_{i}" for i in range(len(polys))]))
            if rs.kind == "eq":
                ident = equality_identified_set(ms, rs, residual_tol=args.tol_root)
                eq_sets.append(ident)
            else:
                ident = inequality_region(ms, rs)
                ineq_sets.append(ident)
            results[name] = ident.to_json_dict()
        combined = _combine_many(eq_sets, ineq_sets)
    elif args.scenario == "entry":
        results, combined, curves = _single_agent_run(build_entry_model(), specs, grid,
                                                      args.tol_root, args.tol_fixedpoint)
    elif args.scenario == "entry-fd":
        results, combined, curves = _fd_run(build_entry_model_fd(), specs, grid,
                                            args.tol_root, args.tol_fixedpoint)
    elif args.scenario == "entry-game":
        if args.firm is None:
            raise ConfigError([{"field": "--firm", "message": "--firm is required for the game scenario"}])
        if args.firm < 1:
            raise ConfigError([{"field": "--firm", "message": "firm indices are 1-based"}])
        results, combined, curves = _game_run(build_entry_game(), specs, grid, args.firm - 1,
                                              max(args.tol_fixedpoint, 1e-13), args.damping)
    else:
        raise ConfigError([{"field": "--scenario",
                            "message": "scenario must be entry, entry-fd, or entry-game (or use --config)"}])

    os.makedirs(args.out_dir, exist_ok=True)
    _write_curves(os.path.join(args.out_dir, "curves.csv"), grid, curves)
    ident_doc = {"schema_version": SCHEMA_VERSION, "restrictions": results, "combined": combined}
    with open(os.path.join(args.out_dir, "identified_set.json"), "w", encoding="utf-8") as fh:
        json.dump(ident_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": config_echo,
        "tolerances": {"root_residual": args.tol_root, "fixed_point": args.tol_fixedpoint,
                       "damping": args.damping},
        "threads": os.environ.get("DDC_IDENT_THREADS", "1"),
        "outputs": ["curves.csv", "identified_set.json", "run_manifest.json"],
    }
    with open(os.path.join(args.out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _model_from_config(cfg) -> SingleAgentModel:
    if "payoffs" in cfg:
        return model_from_dict(cfg)
    # CCP-only configs still need transitions and a placeholder payoff
    K, J = int(cfg["n_actions"]), int(cfg["n_states"])
    return SingleAgentModel(u=np.zeros((K, J)), Q=np.asarray(cfg["Q"], dtype=float),
                            beta=float(cfg.get("beta", 0.0)))


def cmd_validate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    issues = validate_config(cfg)
    print(json.dumps({"config": args.config, "issues": issues}, indent=2, sort_keys=True))
    return 0 if not issues else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ddcident",
                                 description="Identified sets for discount factors in dynamic discrete choice models")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an identification pipeline and write artifacts")
    run.add_argument("--scenario", choices=["entry", "entry-fd", "entry-game"],
                     help="built-in scenario name")
    run.add_argument("--config", help="path to a model JSON config (overrides --scenario)")
    run.add_argument("--restrictions", required=True,
                     help="comma list of restriction names, e.g. homogeneity,zero-cross")
    run.add_argument("--firm", type=int, help="firm index for the game scenario (1-based)")
    run.add_argument("--beta-grid", default="0:1:2001", help="lo:hi:n curve grid")
    run.add_argument("--out-dir", default=".", help="output directory")
    run.add_argument("--tol-root", type=float, default=1e-8, help="root residual tolerance")
    run.add_argument("--tol-fixedpoint", type=float, default=1e-12, help="solver tolerance")
    run.add_argument("--damping", type=float, default=0.5, help="best-response damping (games)")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="validate a model JSON config")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        json.dump({"error": "invalid_config", "issues": err.issues}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except FileNotFoundError as err:
        json.dump({"error": "file_not_found", "issues": [{"message": str(err)}]}, sys.stderr,
                  sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
