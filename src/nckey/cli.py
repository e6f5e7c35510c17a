"""Command-line experiment surface: rate-bound sweeps, protocol simulation,
and the exact conditional-mutual-information oracle.

Every emitted artifact embeds the seed and a hash of the fully resolved
configuration; identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .agreement import (
    InfeasibleAllocationError,
    SubsetAllocation,
    plan_dimensions,
    run_session,
    solve_allocation_lp_planned,
)
from .bounds import (
    OracleSizeError,
    _cut,
    exact_cmi_oracle,
    asymptotic_cmi_coefficient,
    three_terminal_rate,
    two_terminal_rate,
    uniform_dim_distribution,
    upper_bound,
)
from .channel import ChannelParams
from .fieldmath import FieldCtx, is_prime

SCHEMA = 1
SWEEP_VARS = ("ne", "na", "ell", "q", "nb")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nckey",
        description="Secret-key agreement over non-coherent network coding: "
        "bounds, simulation, and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("bounds", "emit upper/lower rate coefficients over a parameter sweep"),
        ("simulate", "run seeded key-agreement sessions and audit them"),
        ("oracle", "exact conditional mutual information on tiny instances"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--q", type=int, help="prime field modulus")
        p.add_argument("--ell", type=int, help="packet length")
        p.add_argument("--na", type=int, help="source packets per slot")
        p.add_argument("--n", type=int, nargs="+", help="per-terminal observation counts")
        p.add_argument("--ne", type=int, help="eavesdropper observations per slot")
        p.add_argument(
            "--sweep",
            help=f"<var>:<lo>:<hi> inclusive integer sweep; var in {SWEEP_VARS} "
            "(nb sets every terminal count; non-prime q values are skipped)",
        )
        p.add_argument("--slots", type=int, help="slots per session (simulate)")
        p.add_argument("--trials", type=int, help="session count (simulate)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--out", help="output path (default stdout)")
    return parser


DEFAULTS = {
    "q": 101,
    "ell": None,
    "na": None,
    "n": None,
    "ne": 0,
    "sweep": None,
    "slots": 4,
    "trials": 20,
    "seed": 0,
    "format": "csv",
    "out": None,
    "allocation": None,
}


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in ("q", "ell", "na", "n", "ne", "sweep", "slots", "trials", "seed", "format", "out"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    if cfg["ell"] is None or cfg["na"] is None or cfg["n"] is None:
        parser.error("--ell, --na and --n are required (via flags or config)")
    cfg["n"] = [int(x) for x in cfg["n"]]
    return cfg


def config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()[:16]


def parse_sweep(expr: str | None, parser) -> tuple[str, list[int]] | None:
    if not expr:
        return None
    parts = expr.split(":")
    if len(parts) != 3 or parts[0] not in SWEEP_VARS:
        parser.error(f"sweep must be <var>:<lo>:<hi> with var in {SWEEP_VARS}, got {expr!r}")
    lo, hi = int(parts[1]), int(parts[2])
    if lo > hi:
        parser.error(f"empty sweep range {lo}..{hi}")
    return parts[0], list(range(lo, hi + 1))


def make_params(cfg: dict, overrides: dict) -> ChannelParams:
    vals = {
        "q": cfg["q"],
        "ell": cfg["ell"],
        "na": cfg["na"],
        "n": list(cfg["n"]),
        "ne": cfg["ne"],
    }
    for var, value in overrides.items():
        if var == "nb":
            vals["n"] = [value] * len(vals["n"])
        else:
            vals[var] = value
    return ChannelParams(FieldCtx(vals["q"]), vals["ell"], vals["na"], tuple(vals["n"]), vals["ne"])


def _lower_bound(params: ChannelParams) -> tuple[Fraction, str]:
    """Absolute lower-bound coefficient and the method used."""
    if params.m == 1:
        return two_terminal_rate(params).absolute(params), "two_terminal"
    if params.m == 2 and params.n[0] == params.n[1] and params.n[0] <= params.n_a and params.n_e <= params.n_a:
        return three_terminal_rate(params).absolute(params), "closed_form_symmetric"
    _, value = solve_allocation_lp_planned(plan_dimensions(params))
    return value * (params.ell - params.n_a), "allocation_lp"


def cmd_bounds(cfg: dict, parser) -> dict:
    sweep = parse_sweep(cfg["sweep"], parser)
    points = [(None, None)] if sweep is None else [(sweep[0], v) for v in sweep[1]]
    rows = []
    for var, value in points:
        overrides = {} if var is None else {var: value}
        if var == "q" and not is_prime(value):
            continue
        try:
            params = make_params(cfg, overrides)
        except ValueError as exc:
            parser.error(f"invalid parameters at {var}={value}: {exc}")
        upper = upper_bound(params)
        lower_abs, method = _lower_bound(params)
        dof = params.ell - params.n_a
        binding_cut, _ = min((_cut(params, n_i) for n_i in params.n), key=lambda c: c[1])
        mismatch = binding_cut != params.n_a
        common = {
            "sweep_var": var or "none",
            "sweep_value": value if value is not None else "",
            "q": params.ctx.q,
            "ell": params.ell,
            "na": params.n_a,
            "n": ";".join(str(x) for x in params.n),
            "ne": params.n_e,
        }
        rows.append(
            {
                **common,
                "normalization": "absolute",
                "upper_coeff": str(upper.coefficient),
                "lower_coeff": str(lower_abs),
                "lower_method": method,
                "norm_mismatch": mismatch,
            }
        )
        rows.append(
            {
                **common,
                "normalization": "per_dof",
                "upper_coeff": str(upper.coefficient / dof),
                "lower_coeff": str(lower_abs / dof),
                "lower_method": method,
                "norm_mismatch": mismatch,
            }
        )
    return {"rows": rows}


def cmd_simulate(cfg: dict, parser) -> dict:
    try:
        params = make_params(cfg, {})
    except ValueError as exc:
        parser.error(f"invalid parameters: {exc}")
    for key in ("trials", "seed"):
        if int(cfg[key]) < 0:
            parser.error(f"--{key} must be nonnegative, got {cfg[key]}")
    plan = plan_dimensions(params)
    if cfg["allocation"] is not None:
        try:
            alloc = SubsetAllocation(
                params.m, {int(k): Fraction(v) for k, v in cfg["allocation"].items()}
            )
        except (ValueError, ZeroDivisionError) as exc:
            parser.error(f"invalid allocation: {exc}")
        lp_value = None
    else:
        alloc, lp_value = solve_allocation_lp_planned(plan)
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    trials = int(cfg["trials"])
    streams = rng.spawn(trials) if trials else []
    for i in range(trials):
        try:
            result = run_session(params, int(cfg["slots"]), alloc, streams[i])
        except InfeasibleAllocationError as exc:
            parser.error(f"allocation refused: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        audit = result.audit
        rows.append(
            {
                "session": i,
                "achieved_per_slot": str(audit.achieved_per_slot),
                "agreement": bool(audit.subset_agreement and audit.final_agreement)
                if audit.subset_agreement is not None
                else None,
                "leakage_certificate": audit.leakage_certificate,
                "degenerate": audit.degenerate,
            }
        )
    good = [r for r in rows if not r["degenerate"]]
    summary = {
        "trials": trials,
        "slots": int(cfg["slots"]),
        "allocation": {str(k): str(v) for k, v in alloc.items()},
        "lp_value": str(lp_value) if lp_value is not None else None,
        "degenerate": len(rows) - len(good),
        "degeneracy_rate": (len(rows) - len(good)) / trials if trials else None,
        "agreement_rate": (sum(1 for r in good if r["agreement"]) / len(good)) if good else None,
        "certificate_rate": (sum(1 for r in good if r["leakage_certificate"]) / len(good))
        if good
        else None,
    }
    return {"rows": rows, "summary": summary}


ORACLE_INPUTS = "uniform over each fixed input dimension 0..na"


def cmd_oracle(cfg: dict, parser) -> dict:
    sweep = parse_sweep(cfg["sweep"], parser)
    points = [(None, None)] if sweep is None else [(sweep[0], v) for v in sweep[1]]
    rows = []
    for var, value in points:
        if var == "q" and not is_prime(value):
            continue
        overrides = {} if var is None else {var: value}
        try:
            params = make_params(cfg, overrides)
        except ValueError as exc:
            parser.error(f"invalid parameters at {var}={value}: {exc}")
        if params.m != 1:
            parser.error("oracle needs exactly one terminal (--n with one count)")
        coeff = asymptotic_cmi_coefficient(params)
        for dim in range(params.n_a + 1):
            dist = uniform_dim_distribution(params.ell, dim, params.ctx)
            try:
                cmi = exact_cmi_oracle(params, dist)
            except OracleSizeError as exc:
                parser.error(str(exc))
            rows.append(
                {
                    "sweep_var": var or "none",
                    "sweep_value": value if value is not None else "",
                    "q": params.ctx.q,
                    "ell": params.ell,
                    "na": params.n_a,
                    "ni": params.n[0],
                    "ne": params.n_e,
                    "input_dim": dim,
                    "cmi_nats": repr(cmi),
                    "cmi_per_logq": repr(cmi / math.log(params.ctx.q)),
                    "coeff_bound": coeff,
                }
            )
    return {"rows": rows}


def emit(doc: dict, cfg: dict, stream) -> None:
    header = {
        "schema_version": SCHEMA,
        "command": cfg["command"],
        "seed": cfg["seed"],
        "config_hash": config_hash(cfg),
    }
    if cfg["format"] == "json":
        out = dict(header)
        out.update(doc)
        stream.write(json.dumps(out, sort_keys=True, indent=2))
        stream.write("\n")
        return
    stream.write(
        f"# schema={SCHEMA} command={cfg['command']} seed={cfg['seed']} "
        f"config_hash={header['config_hash']}\n"
    )
    rows = doc["rows"]
    if rows:
        cols = list(rows[0])
        stream.write(",".join(cols) + "\n")
        for row in rows:
            stream.write(",".join(_cell(row[c]) for c in cols) + "\n")
    if "summary" in doc:
        stream.write("# summary " + json.dumps(doc["summary"], sort_keys=True) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args, parser)
    runner = {"bounds": cmd_bounds, "simulate": cmd_simulate, "oracle": cmd_oracle}[cfg["command"]]
    doc = runner(cfg, parser)
    if cfg["out"]:
        with open(cfg["out"], "w", newline="\n") as fh:
            emit(doc, cfg, fh)
    else:
        emit(doc, cfg, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
