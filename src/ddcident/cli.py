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
from .betapoly import _number, check_stochastic, polyval_rows
from .ddc import SingleAgentModel, master_system, psi_from_ccps, solve_bellman
from .errors import ConvergenceError
from .games import (
    build_system,
    r3_adjustment_cost,
    r3_exchangeability,
    r3_linear,
    r4_monotone_own_lag,
    r4_monotone_rivals,
    solve_mpe,
)
from .identify import (
    check_finite_dependence,
    combine,
    finite_restriction_poly,
    identified_set,
)
from .restrictions import RestrictionSet
from .scenarios import (
    build_entry_game,
    build_entry_model,
    build_entry_model_fd,
    entry_restrictions,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run or model configuration; carries a machine-readable issue list."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i.get("message", i)) for i in self.issues))


# ---- model config ------------------------------------------------------------


def validate_config(cfg: dict) -> list:
    """Every check ``run --config`` relies on; returns an issue list."""
    return _check_config(cfg)[0]


def _check_config(cfg) -> tuple:
    """Issues of a config, then its model and its inline restrictions by label
    (both ``None`` unless the issue list is empty)."""
    issues = []

    def issue(field, message):
        issues.append({"field": field, "message": message})

    def numbers(name):
        """The field as a float array if its entries follow the rule of the
        row format's ``vals`` and ``c`` (finite, no bool, no string)."""
        arr = np.asarray(cfg.get(name, []), dtype=object)  # uneven lists stay lists
        if all(map(_number, arr.flat)):
            return arr.astype(float)
        issue(name, f"{name} must be an array of numbers, all finite")

    if not isinstance(cfg, dict):
        return [{"field": "config", "message": "config must be a JSON object"}], None, None
    if cfg.get("schema_version") != SCHEMA_VERSION:
        issue("schema_version", f"schema_version must be {SCHEMA_VERSION}")
    if cfg.get("mode") != "single":
        issue("mode", "mode must be 'single'")
        return issues, None, None
    sizes = [name for name in ("n_actions", "n_states") if type(cfg.get(name)) is not int]
    for name in sizes:
        issue(name, f"{name} must be a JSON integer")
    if sizes:
        return issues, None, None
    K, J = cfg["n_actions"], cfg["n_states"]
    Q = numbers("Q")
    if Q is not None and Q.shape != (K, J, J):
        issue("Q", f"Q must have shape {(K, J, J)}, got {Q.shape}")
    elif Q is not None:
        try:
            check_stochastic(Q, "transition row", ("action", "state"))
        except ValueError as err:
            issue("Q", str(err))
    if "payoffs" not in cfg and "ccps" not in cfg:
        issue("payoffs", "config needs 'payoffs' (with beta) or 'ccps'")
    if "payoffs" in cfg:
        u = numbers("payoffs")
        if u is not None and u.shape != (K, J):
            issue("payoffs", f"payoffs must have shape {(K, J)}")
        if "beta" not in cfg:
            issue("beta", "beta is required with payoffs")
    if "beta" in cfg and not _number(cfg["beta"]):
        issue("beta", "beta must be a number")
    if "ccps" in cfg and "payoffs" in cfg:
        issue("ccps", "give 'payoffs' (with beta) or 'ccps', not both")
    if "ccps" in cfg:
        p = numbers("ccps")
        if p is not None and p.shape != (K, J):
            issue("ccps", f"ccps must have shape {(K, J)}")
        elif p is not None and (np.any(p <= 0) or np.any(np.abs(p.sum(axis=0) - 1) > 1e-8)):
            issue("ccps", "ccps must be positive and sum to 1 per state")

    p_cols = J * (K - 1)
    rdicts = cfg.get("restrictions", [])
    if not isinstance(rdicts, list):
        issue("restrictions", "restrictions must be a list")
        rdicts = []
    elif not rdicts:
        issue("restrictions", "config defines no restrictions; run needs at least one")
    inline = {}
    for r, rd in enumerate(rdicts):  # the format is the decoder's; its size and labels the config's
        field = f"restrictions[{r}]"
        if isinstance(rd, dict) and rd.get("n_columns") != p_cols:
            issue(f"{field}.n_columns", f"n_columns must be {p_cols}, the number of stacked payoff cells")
            continue
        try:
            rs = RestrictionSet.from_json_dict(rd)
        except (ValueError, IndexError) as err:
            issue(field, f"cannot build the restriction: {type(err).__name__}: {err}")
            continue
        if not rs.label:
            issue(f"{field}.label", "label must be a nonempty string")
        elif rs.label in inline:
            issue(f"{field}.label", f"duplicate label {rs.label!r}")
        if not rs.n_rows:
            issue(f"{field}.rows", "rows must be a nonempty list")
        inline.setdefault(rs.label, rs)
    if issues:
        return issues, None, None
    # the model's own checks (sign, beta range, sizes): what validate
    # accepts, run accepts
    try:
        return [], _model_from_config(cfg), inline
    except (TypeError, ValueError, OverflowError) as err:
        return [{"field": "model", "message": str(err)}], None, None


# ---- restriction spec parsing ----------------------------------------------

_SPEC_RE = re.compile(r"^([a-zA-Z_][\w-]*)(?:\(([^()]*)\))?$")


def parse_restriction_specs(text: str) -> list:
    """Parse ``name(arg=val,...)`` comma-separated restriction requests; an
    empty item, unbalanced parentheses or an argument that is not
    ``key=value`` is a ``ConfigError``."""
    out = []
    for part in re.split(r",(?![^()]*\))", text):  # commas outside parentheses
        part = part.strip()
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

def _beta_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError([{"field": "--beta-grid", "message": f"expected lo:hi:n, got {spec!r}"}])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi and n >= 2):
        raise ConfigError([{"field": "--beta-grid", "message": "need finite lo < hi and n >= 2"}])
    return np.linspace(lo, hi, n)


def _check_tolerances(args):
    """Reject a tolerance or damping that would give a wrong set, a
    traceback or an endless solve (NaN fails every comparison, so it is
    caught here too)."""
    issues = []
    if not 0.0 < args.tol_root < np.inf:
        issues.append({"field": "--tol-root", "message": "must be a positive finite number"})
    if not 0.0 <= args.tol_fixedpoint < np.inf:
        issues.append({"field": "--tol-fixedpoint", "message": "must be a nonnegative finite number"})
    if not 0.0 < args.damping <= 1.0:
        issues.append({"field": "--damping", "message": "must lie in (0, 1]"})
    if issues:
        raise ConfigError(issues)


def _normalized_curves(grid, rows, key):
    cols = {}
    for i, vals in enumerate(polyval_rows(rows, grid)):
        scale = np.max(np.abs(vals))
        cols[f"{key}_{i}"] = vals / scale if scale > 0 else vals
    return cols


def _write_curves(path, grid, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["beta"] + list(columns)) + "\n")
        for r, b in enumerate(grid):
            row = [f"{b:.17g}"] + [f"{columns[c][r]:.17g}" for c in columns]
            fh.write(",".join(row) + "\n")


def _read_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ConfigError([{"field": "config", "message": f"not valid JSON: {err}"}])


# Each source does its one-time setup and returns its restriction builders
# (result key -> builder called with the requested arguments), its row
# function (a restriction's R and c -> the coefficient rows of its identifying
# polynomials) and the diagnostics it adds to every per-restriction set.


def _no_arguments(rs):
    """Builder of a restriction that takes no arguments."""
    def build(**kwargs):
        if kwargs:
            raise TypeError("this restriction takes no arguments")
        return rs
    return build


def _build_restriction(builders, name, kwargs):
    """Result key and restriction of a request, looked up as written or with
    ``-`` read as ``_``."""
    key = name if name in builders else name.replace("-", "_")
    if key not in builders:
        raise ConfigError([{"field": "--restrictions", "message": f"unknown restriction {name!r}; "
                            f"this run offers {', '.join(sorted(builders))}"}])
    try:
        return key, builders[key](**kwargs)
    except (TypeError, ValueError, KeyError, IndexError) as err:
        raise ConfigError([{"field": "--restrictions",
                            "message": f"cannot build {name!r} with {kwargs}: {err}"}])


def _config_source(args):
    cfg = _read_config(args.config)
    issues, model, inline = _check_config(cfg)
    if issues:
        raise ConfigError(issues)
    psi = (psi_from_ccps(cfg["ccps"]) if "ccps" in cfg
           else solve_bellman(model, tol=args.tol_fixedpoint).psi)
    ms = master_system(psi, model.Q)
    return {label: _no_arguments(rs) for label, rs in inline.items()}, ms.payoff_polys, ms.info


def _entry_source(args):
    bundle = build_entry_model()
    ms = master_system(solve_bellman(bundle.model, tol=args.tol_fixedpoint).psi, bundle.model.Q)
    return entry_restrictions(bundle.states, bundle.H), ms.payoff_polys, ms.info


def _fd_source(args):
    bundle = build_entry_model_fd()
    model = bundle.model
    psi = solve_bellman(model, tol=args.tol_fixedpoint).psi
    cert = check_finite_dependence(model.Q, [((0, 0), (0, bundle.states.n_states // 2))], rho_max=4)
    if not cert.satisfied:
        raise ConfigError([{"field": "scenario",
                            "message": "scenario is not finitely dependent; use mode 'single'"}])

    def rows(R, c):
        return np.reshape([finite_restriction_poly(psi, model.Q, row, ci, cert.rho)
                           for row, ci in zip(R, c)], (-1, cert.rho + 1))
    return entry_restrictions(bundle.states, bundle.H), rows, {"rho": cert.rho}


def _game_source(args):
    if args.firm is None:
        raise ConfigError([{"field": "--firm", "message": "--firm is required for the game scenario"}])
    bundle = build_entry_game()
    model = bundle.model
    if not 1 <= args.firm <= model.n_firms:
        raise ConfigError([{"field": "--firm", "message":
                            f"firm indices are 1-based, from 1 to {model.n_firms}"}])
    i = args.firm - 1
    mpe = solve_mpe(model, damping=args.damping, tol=max(args.tol_fixedpoint, 1e-13))
    system = build_system(model, mpe, i)
    builders = {  # each set is labelled with its result key
        "exchangeability": lambda **kw: RestrictionSet(
            r3_exchangeability(model, i, **kw), 0.0, "eq", "exchangeability"),
        "adjustment_cost": lambda **kw: RestrictionSet(
            r3_adjustment_cost(model, i, **kw), 0.0, "eq", "adjustment_cost"),
        "linearity": lambda **kw: RestrictionSet(
            r3_linear(model, i, bundle.designs[i], **kw), 0.0, "eq", "linearity"),
        "mono_own_lag": lambda **kw: RestrictionSet(
            *r4_monotone_own_lag(model, i, **kw), "ge", "mono_own_lag"),
        "mono_rivals": lambda **kw: RestrictionSet(
            *r4_monotone_rivals(model, i, **kw), "ge", "mono_rivals"),
    }
    # firms are reported 1-based on the CLI surface
    return builders, system.payoff_polys, {**system.info, "firm": args.firm}


_SOURCES = {"entry": _entry_source, "entry-fd": _fd_source, "entry-game": _game_source}


def cmd_run(args) -> int:
    grid = _beta_grid(args.beta_grid)
    _check_tolerances(args)
    specs = parse_restriction_specs(args.restrictions) if args.restrictions else []
    if not specs:
        raise ConfigError([{"field": "--restrictions", "message": "at least one restriction is required"}])
    if args.firm is not None and (args.config or args.scenario != "entry-game"):
        raise ConfigError([{"field": "--firm", "message": "--firm applies to --scenario entry-game "
                            "only, and not with --config"}])
    config_echo = {"scenario": args.scenario, "config": args.config, "firm": args.firm,
                   "restrictions": args.restrictions, "beta_grid": args.beta_grid,
                   "tol_root": args.tol_root, "tol_fixedpoint": args.tol_fixedpoint,
                   "damping": args.damping}
    if args.config:
        source = _config_source
    elif args.scenario in _SOURCES:
        source = _SOURCES[args.scenario]
    else:
        raise ConfigError([{"field": "--scenario",
                            "message": "scenario must be entry, entry-fd, or entry-game (or use --config)"}])
    # fail before the pipeline runs if a file stands where the output directory goes
    existing = os.path.abspath(args.out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(f"cannot create the output directory {args.out_dir!r}: "
                                 f"{existing!r} is not a directory")
    builders, payoff_rows, info = source(args)

    results, curves, sets = {}, {}, []
    for name, kwargs in specs:
        key, rs = _build_restriction(builders, name, kwargs)
        if key in results:
            raise ConfigError([{"field": "--restrictions",
                                "message": f"{name!r} asks again for the result {key!r}"}])
        ident = identified_set(payoff_rows(rs.R, rs.c), rs.kind, {"label": rs.label, **info},
                               residual_tol=args.tol_root)
        results[key] = ident.to_json_dict()
        curves.update(_normalized_curves(grid, ident.rows, key))
        sets.append(ident)

    os.makedirs(args.out_dir, exist_ok=True)
    _write_curves(os.path.join(args.out_dir, "curves.csv"), grid, curves)
    ident_doc = {"schema_version": SCHEMA_VERSION, "restrictions": results,
                 "combined": combine(*sets).to_json_dict()}
    with open(os.path.join(args.out_dir, "identified_set.json"), "w", encoding="utf-8") as fh:
        json.dump(ident_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": config_echo,
        "tolerances": {"root_residual": args.tol_root, "fixed_point": args.tol_fixedpoint,
                       "damping": args.damping},
        "outputs": ["curves.csv", "identified_set.json", "run_manifest.json"],
    }
    with open(os.path.join(args.out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _model_from_config(cfg) -> SingleAgentModel:
    """The model of a config; a CCP-only config (no payoffs, maybe no beta)
    still needs transitions and gets a placeholder payoff."""
    K, J = cfg["n_actions"], cfg["n_states"]
    return SingleAgentModel(u=cfg.get("payoffs", np.zeros((K, J))), Q=cfg["Q"], beta=float(cfg.get("beta", 0.0)))


def cmd_validate(args) -> int:
    issues = validate_config(_read_config(args.config))
    print(json.dumps({"config": args.config, "issues": issues}, indent=2, sort_keys=True))
    return 0 if not issues else 2


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors are ``ConfigError``s, so a bad command line gets
    the JSON error (its subparsers are of this class too)."""

    def error(self, message):
        raise ConfigError([{"field": "arguments", "message": f"{self.prog}: {message}"}])


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="ddcident",
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
    run.add_argument("--tol-fixedpoint", type=float, default=1e-12,
                     help="fixed-point tolerance: Newton steps of the logit solver stop at "
                          "tol * max(1, ||V||inf); game best responses at max(tol, 1e-13)")
    run.add_argument("--damping", type=float, default=0.5,
                     help="games: weight of each firm's best response in a sweep of the "
                          "accelerated equilibrium solver")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="validate a model JSON config")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        error, issues = "invalid_config", err.issues
    except FileNotFoundError as err:
        error, issues = "file_not_found", [{"message": str(err)}]
    except OSError as err:  # a directory for a file, a file for a directory, ...
        error, issues = "file_error", [{"message": str(err)}]
    except ConvergenceError as err:
        error, issues = "not_converged", [{"message": str(err)}]
    json.dump({"error": error, "issues": issues}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
