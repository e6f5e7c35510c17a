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
import os
import sys
from fractions import Fraction

import numpy as np

from .agreement import (
    InfeasibleAllocationError,
    SubsetAllocation,
    plan_dimensions,
    run_session,
    solve_allocation_lp_planned,
    subset_masks,
)
from .bounds import (
    _cut,
    exact_cmi_oracle,
    asymptotic_cmi_coefficient,
    three_terminal_rate,
    two_terminal_rate,
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
        ("oracle", "exact conditional mutual information of uniform fixed-dimension inputs"),
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
            help=f"<var>:<lo>:<hi> inclusive integer sweep (bounds, oracle); var in {SWEEP_VARS} "
            "(nb sets every terminal count; non-prime q values below 2**31 are skipped)",
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

# The inputs each command does not read: given, they would only move the
# config hash.
UNREAD = {
    "bounds": ("slots", "trials", "allocation"),
    "simulate": ("sweep",),
    "oracle": ("slots", "trials", "allocation"),
}


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if type(loaded) is not dict:
            parser.error(f"config {args.config} must be a JSON object, got {loaded!r}")
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
    # Exact types: JSON true and false load as bools, a subclass of int.
    for key in ("q", "ell", "na", "ne", "slots", "trials", "seed"):
        if type(cfg[key]) is not int:
            parser.error(f"{key} must be an integer, got {cfg[key]!r}")
    if type(cfg["n"]) is not list or any(type(x) is not int for x in cfg["n"]):
        parser.error(f"n must be a list of integers, got {cfg['n']!r}")
    # An int out would be opened as a file descriptor.
    for key in ("sweep", "out"):
        if cfg[key] is not None and type(cfg[key]) is not str:
            parser.error(f"{key} must be a string, got {cfg[key]!r}")
    # Shares are read by Fraction, which takes a bool as 0 or 1.
    alloc = cfg["allocation"]
    if alloc is not None and (
        type(alloc) is not dict or any(type(v) not in (int, float, str) for v in alloc.values())
    ):
        parser.error(f"allocation must map subsets to numbers or strings, got {alloc!r}")
    if cfg["format"] not in ("csv", "json"):
        parser.error(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    for key in UNREAD[args.command]:
        if cfg[key] != DEFAULTS[key]:
            parser.error(f"{args.command} does not read {key}, got {cfg[key]!r}")
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
    try:
        lo, hi = int(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"sweep bounds must be integers, got {expr!r}")
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
    """Lower-bound coefficient of log q per slot and the method used."""
    if params.m == 1:
        return two_terminal_rate(params), "two_terminal"
    if params.m == 2 and params.n[0] == params.n[1] and params.n[0] <= params.n_a and params.n_e <= params.n_a:
        return three_terminal_rate(params), "closed_form_symmetric"
    _, value = solve_allocation_lp_planned(plan_dimensions(params))
    return value * (params.ell - params.n_a), "allocation_lp"


def _sweep_points(cfg: dict, parser):
    """Yield (sweep columns, channel parameters) for each sweep point, or for
    the configured parameters alone without a sweep; non-prime q values below
    2**31 are skipped."""
    sweep = parse_sweep(cfg["sweep"], parser)
    points = [(None, None)] if sweep is None else [(sweep[0], v) for v in sweep[1]]
    for var, value in points:
        # q >= 2**31 is no field modulus; make_params reports it.
        if var == "q" and value < 2**31 and not is_prime(value):
            continue
        try:
            params = make_params(cfg, {} if var is None else {var: value})
        except ValueError as exc:
            where = "" if var is None else f" at {var}={value}"
            parser.error(f"invalid parameters{where}: {exc}")
        yield {"sweep_var": var or "none", "sweep_value": "" if value is None else value}, params


def cmd_bounds(cfg: dict, parser) -> dict:
    """Each sweep point's row twice: coefficients of log q per slot, then per
    (ell - n_a) log q."""
    rows = []
    for sweep_cols, params in _sweep_points(cfg, parser):
        upper = upper_bound(params)
        lower, method = _lower_bound(params)
        binding_cut, _ = min((_cut(params, n_i) for n_i in params.n), key=lambda c: c[1])
        for normalization, scale in (("absolute", 1), ("per_dof", params.ell - params.n_a)):
            rows.append(
                {
                    **sweep_cols,
                    "q": params.ctx.q,
                    "ell": params.ell,
                    "na": params.n_a,
                    "n": ";".join(str(x) for x in params.n),
                    "ne": params.n_e,
                    "normalization": normalization,
                    "upper_coeff": str(upper / scale),
                    "lower_coeff": str(lower / scale),
                    "lower_method": method,
                    "norm_mismatch": binding_cut != params.n_a,
                }
            )
    return {"rows": rows}


def cmd_simulate(cfg: dict, parser) -> dict:
    try:
        params = make_params(cfg, {})
    except ValueError as exc:
        parser.error(f"invalid parameters: {exc}")
    for key in ("slots", "trials", "seed"):
        if cfg[key] < 0:
            parser.error(f"--{key} must be nonnegative, got {cfg[key]}")
    plan = plan_dimensions(params)
    if cfg["allocation"] is not None:
        # One spelling per subset, str(mask) as in a transcript: " 3", "03"
        # and "+3" would all read as mask 3 under config hashes that differ.
        masks = {str(mask): mask for mask in subset_masks(params.m)}
        for key in cfg["allocation"]:
            if key not in masks:
                parser.error(
                    f"invalid allocation: subset mask {key} out of range or not canonical "
                    f"for m={params.m} (key {key!r})"
                )
        try:
            alloc = SubsetAllocation(params.m, {masks[k]: Fraction(v) for k, v in cfg["allocation"].items()})
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            parser.error(f"invalid allocation: {exc}")
        # A float reads as its binary value, 0.3 as 5404319552844595/18014398509481984.
        for key, v in cfg["allocation"].items():
            if type(v) is float:
                parser.error(
                    f"invalid allocation: share {v!r} for subset {key} is a float; "
                    f'write it exactly, as the string "{Fraction(repr(v))}"'
                )
        # One spelling per allocation in the config hash: each given share as
        # str(Fraction), so that "1/2" and "2/4" hash alike.
        cfg["allocation"] = {key: str(alloc[masks[key]]) for key in cfg["allocation"]}
        lp_value = None
    else:
        alloc, lp_value = solve_allocation_lp_planned(plan)
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    trials = cfg["trials"]
    streams = rng.spawn(trials) if trials else []
    for i in range(trials):
        try:
            result = run_session(params, cfg["slots"], alloc, streams[i])
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
    # An empty session ends before its audit, with no agreement to count.
    audited = [r for r in good if r["leakage_certificate"] is not None]
    summary = {
        "trials": trials,
        "slots": cfg["slots"],
        "allocation": {str(k): str(v) for k, v in alloc.items()},
        "lp_value": str(lp_value) if lp_value is not None else None,
        "degenerate": len(rows) - len(good),
        "degeneracy_rate": (len(rows) - len(good)) / trials if trials else None,
        "agreement_rate": (sum(1 for r in audited if r["agreement"]) / len(audited))
        if audited
        else None,
        "certificate_rate": (sum(1 for r in audited if r["leakage_certificate"]) / len(audited))
        if audited
        else None,
    }
    return {"rows": rows, "summary": summary}


def cmd_oracle(cfg: dict, parser) -> dict:
    rows = []
    for sweep_cols, params in _sweep_points(cfg, parser):
        if params.m != 1:
            parser.error("oracle needs exactly one terminal (--n with one count)")
        coeff = asymptotic_cmi_coefficient(params)
        for dim in range(params.n_a + 1):
            cmi = exact_cmi_oracle(params, dim)
            rows.append(
                {
                    **sweep_cols,
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
        return 0
    try:
        emit(doc, cfg, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (say, `| head -1`).  Standard output
        # is pointed at devnull, so that the interpreter's flush at exit does
        # not raise again (the SIGPIPE note of the Python docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
