"""Command-line front end.

Subcommands cover each laboratory area: ``simulate`` (Monte Carlo trials and
their moment records), ``walk-dp`` (exact or float sequence tables),
``series-verify`` (the exact identity suite), ``asymptotics`` (rescaled
large-n checks and constants), ``clt`` (the rescaled linear statistic),
``potlach`` (the vertex-redistribution contrast), and ``accept`` (the whole
acceptance suite).

Configuration can come from ``--config FILE`` with one ``key=value`` per
line and ``#`` comments; explicit flags override the file, and unknown keys
in the file are rejected. Tolerance gates are overridden with
``--tol.<name> <value>``. Exit codes: 0 success, 1 a tolerance/acceptance
gate failed, 2 usage or configuration error, 3 internal error (the traceback
goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import numpy as np

from . import __version__, acceptance, reporting
from .asymptotics import AsymptoticConstants, asymptotics_check
from .kernels import avg_difference_kernel, potlach_kernels, srw_kernel
from .series import verify_closed_form_d1, verify_gf_relations, verify_potlach_relation
from .simulate import DYNAMICS, WRAP_TOL, ExperimentConfig, simulate
from .stats import TEST_FUNCTIONS, clt_statistic, estimate_mean_field, estimate_moments
from .walks import (NoSeriesRouteError, SequenceTooShortError, first_return_sequence,
                    poissonized_return, return_sequence, sphere_first_return_sequence,
                    sphere_taboo_sequence)

KERNELS = {
    "srw": srw_kernel,
    "avg-diff": avg_difference_kernel,
    "potlach-ind": lambda d: potlach_kernels(d)[0],
    "potlach-coup": lambda d: potlach_kernels(d)[1],
}

TABLES = {"p": return_sequence, "q": first_return_sequence,
          "r": sphere_taboo_sequence, "s": sphere_first_return_sequence}

#: per-key parsers for config files (also the set of accepted keys)
CONFIG_TYPES = {
    "d": int, "t": float, "steps": int, "order": int, "trials": int,
    "seed": int, "mode": str, "dynamics": str, "kernel": str, "fn": str,
    "param": float, "out": str, "dump_field": str,
    "quick": None, "json_summary": None, "box_radius": int, "tables": str,
    "window": float,
}

#: the values each choice option accepts, whether from a flag or a config file
CHOICES = {"mode": ("exact", "float"), "dynamics": DYNAMICS, "kernel": KERNELS,
           "fn": TEST_FUNCTIONS}


class UsageError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


def read_config_file(path: str) -> dict:
    """key=value lines with '#' comments; unknown keys are an error."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = CONFIG_TYPES[key]
        try:
            out[key] = _parse_bool(value) if caster is None else caster(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def extract_tolerance_flags(argv: list[str]) -> tuple[list[str], dict]:
    """Pull --tol.<name> [=]<value> pairs out of the raw argv."""
    rest, overrides = [], {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--tol."):
            body = tok[len("--tol."):]
            if "=" in body:
                name, value = body.split("=", 1)
            else:
                name = body
                i += 1
                if i >= len(argv):
                    raise UsageError(f"--tol.{name} needs a value")
                value = argv[i]
            try:
                overrides[name] = float(value)
            except ValueError as exc:
                raise UsageError(f"--tol.{name}: bad value {value!r}") from exc
        else:
            rest.append(tok)
        i += 1
    return rest, overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgproc",
        description="exact-verification laboratory for mass-averaging dynamics on Z^d")
    parser.add_argument("--version", action="version", version=f"avgproc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lattice=True, mode=False):
        p.add_argument("--config", help="key=value config file; flags override it")
        if lattice:
            p.add_argument("--d", type=int, help="lattice dimension")
        if mode:
            p.add_argument("--mode", choices=CHOICES["mode"], help="arithmetic mode")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--json-summary", action="store_true", default=None,
                       help="print a one-line JSON summary to stdout")

    p = sub.add_parser("simulate", help="run Monte Carlo trials and moment records")
    common(p, mode=True)
    p.add_argument("--t", type=float, help="final time")
    p.add_argument("--trials", type=int)
    p.add_argument("--dynamics", choices=DYNAMICS)
    p.add_argument("--box-radius", type=int,
                   help=f"torus radius (default: the smallest whose wrap-around bound "
                        f"is <= {WRAP_TOL:g})")
    p.add_argument("--dump-field", help="also write the mean field as a per-site CSV")

    p = sub.add_parser("walk-dp", help="sequence tables by dynamic programming")
    common(p, mode=True)
    p.add_argument("--kernel", choices=sorted(KERNELS))
    p.add_argument("--steps", type=int, help="largest step index")
    p.add_argument("--tables", help="comma list from p,q,r,s (default p)")

    p = sub.add_parser("series-verify", help="exact generating-function identity suite")
    common(p)
    p.add_argument("--order", type=int, help="truncation order")

    p = sub.add_parser("asymptotics", help="rescaled large-n sequence checks")
    common(p, mode=True)
    p.add_argument("--kernel", choices=sorted(KERNELS))
    p.add_argument("--steps", type=int, help="largest step index")

    p = sub.add_parser("clt", help="rescaled linear statistic over trials")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--fn", help="test function: cos, one, tanh, gauss")
    p.add_argument("--param", type=float, help="test-function parameter")
    p.add_argument("--window", type=float, help="|stat - limit| window to count")

    p = sub.add_parser("potlach", help="vertex-redistribution series relation and contrast")
    common(p)
    p.add_argument("--order", type=int, help="relation truncation order")
    p.add_argument("--steps", type=int, help="float sequence length for the ratio")

    p = sub.add_parser("accept", help="run the acceptance suite")
    common(p, lattice=False)  # the suite fixes its own dimensions and modes
    p.add_argument("--quick", action="store_true", default=None,
                   help="reduced sizes for a fast end-to-end check")
    return parser


DEFAULTS = {
    "simulate": dict(d=1, t=64.0, trials=1000, seed=0, mode="float",
                     dynamics="averaging", box_radius=None, out=None,
                     dump_field=None, json_summary=False),
    "walk-dp": dict(d=1, kernel="avg-diff", steps=32, mode="exact",
                    tables="p", seed=0, out=None, json_summary=False),
    "series-verify": dict(d=1, order=None, seed=0, out=None, json_summary=False),
    "asymptotics": dict(d=1, kernel="avg-diff", steps=2000, seed=0, out=None,
                        json_summary=False, mode="float"),
    "clt": dict(d=1, t=400.0, trials=100, seed=0, fn="cos", param=1.0,
                window=0.05, out=None, json_summary=False),
    "potlach": dict(d=1, order=48, steps=600, seed=0, out=None, json_summary=False),
    "accept": dict(quick=False, seed=acceptance.DEFAULT_SEED, out=None,
                   json_summary=False),
}


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = dict(DEFAULTS[args.command])
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            if key in opts:
                opts[key] = value
            else:
                raise UsageError(f"config key {key!r} not used by {args.command!r}")
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        opts[key] = value
    return opts


def _require_at_least(opts: dict, key: str, low: int) -> None:
    if opts[key] < low:
        raise UsageError(f"--{key.replace('_', '-')} must be >= {low}, got {opts[key]}")


def _check_options(opts: dict) -> None:
    """Reject out-of-range values of the options several commands share."""
    if "d" in opts:
        _require_at_least(opts, "d", 1)
    for key, low in (("t", 0), ("order", 0), ("box_radius", 1)):
        if opts.get(key) is not None:
            _require_at_least(opts, key, low)
    for key, choices in CHOICES.items():
        if key in opts and opts[key] not in choices:
            raise UsageError(f"--{key} must be one of {sorted(choices)}, got {opts[key]!r}")


def _table(fn, kernel, steps: int, mode: str):
    """One sequence table; a float table with no series route is a usage error."""
    try:
        return fn(kernel, steps, mode=mode)
    except NoSeriesRouteError as exc:
        raise UsageError(str(exc)) from exc


def _hashable(opts: dict) -> dict:
    return {k: v for k, v in opts.items()
            if k not in ("out", "dump_field", "json_summary") and v is not None}


def _emit(opts, columns, rows, comments=()) -> None:
    text = reporting.write_csv(opts.get("out"), columns, rows,
                               seed=opts.get("seed", ""),
                               config=_hashable(opts), comments=comments)
    if opts.get("out") is None:
        sys.stdout.write(text)


def _error_budget(opts, tables) -> tuple[list[str], dict]:
    """CSV comment lines and JSON-summary entries for the float tables' error bounds."""
    budget = {} if opts["mode"] == "exact" else {t.name: t.error_bound for t in tables}
    return ([f"{name}:error_bound={bound!r}" for name, bound in budget.items()],
            {"error_bounds": budget} if budget else {})


def _wrap_budget(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    """CSV comment line and JSON-summary entries for the torus's wrap-around bound."""
    radius, bound = cfg.box.radius, cfg.wrap_bound
    return ([f"box_radius={radius},wrap_bound={bound!r}"],
            {"error_bounds": {"box_radius": radius, "wrap_bound": bound}})


def _summary(opts, payload: dict) -> None:
    if opts.get("json_summary"):
        print(json.dumps(payload, sort_keys=True))


STAT_COLUMNS = ("name", "d", "t", "trials", "seed", "value", "stderr", "target", "z")


def cmd_simulate(opts, tol) -> int:
    _require_at_least(opts, "trials", 2)
    cfg = ExperimentConfig(dimension=opts["d"], t=opts["t"], trials=opts["trials"],
                           seed=opts["seed"], dynamics=opts["dynamics"],
                           mode=opts["mode"], box_radius=opts["box_radius"])
    res = simulate(cfg)
    rows, extras = [], {}
    if cfg.dynamics == "averaging":
        mo = estimate_moments(res)
        mf = estimate_mean_field(res)
        frac = mf.fraction_within(tol["c6-mf-se"])
        for rec in (mo.two_norm, mo.centered_two_norm, mo.centered_one_norm):
            rows.append(rec.csv_row())
        rows.append(("conservation-defect", cfg.dimension, repr(cfg.t), cfg.trials,
                     cfg.seed, repr(mo.conservation_defect), "", repr(0.0), ""))
        rows.append(("mean-field-fraction", cfg.dimension, repr(cfg.t), cfg.trials,
                     cfg.seed, repr(frac), "", repr(1.0), ""))
        extras = {"two_norm_z": mo.two_norm.z, "mean_field_fraction": frac,
                  "conservation_defect": mo.conservation_defect}
    else:
        defect = res.conservation_defect()
        norms = res.two_norms_sq().astype(float)
        rows.append(("two-norm-sq", cfg.dimension, repr(cfg.t), cfg.trials, cfg.seed,
                     repr(float(norms.mean())),
                     repr(float(norms.std(ddof=1) / math.sqrt(cfg.trials))), "", ""))
        rows.append(("conservation-defect", cfg.dimension, repr(cfg.t), cfg.trials,
                     cfg.seed, repr(defect), "", repr(0.0), ""))
        extras = {"conservation_defect": defect}
    comments, budget = _wrap_budget(cfg)
    _emit(opts, STAT_COLUMNS, rows, comments=comments)
    if opts.get("dump_field"):
        mean = res.mean_field()
        reporting.write_csv(opts["dump_field"],
                            ("site", *(f"x{j}" for j in range(cfg.dimension)), "mass"),
                            reporting.field_dump_rows(res.box, np.asarray(mean, dtype=float)),
                            seed=cfg.seed, config=_hashable(opts))
    _summary(opts, {"command": "simulate", "ok": True, **extras, **budget})
    return 0


def cmd_walk_dp(opts, tol) -> int:
    _require_at_least(opts, "steps", 0)
    kernel = KERNELS[opts["kernel"]](opts["d"])
    names = [t.strip() for t in opts["tables"].split(",") if t.strip()]
    if not names:
        raise UsageError(f"--tables names no table, got {opts['tables']!r}; choose from p,q,r,s")
    unknown = set(names) - set(TABLES)
    if unknown:
        raise UsageError(f"unknown tables {sorted(unknown)}; choose from p,q,r,s")
    tables = [_table(TABLES[t], kernel, opts["steps"], opts["mode"]) for t in "pqrs" if t in names]
    rows = [row for tab in tables for row in tab.csv_rows()]
    comments, extras = _error_budget(opts, tables)
    _emit(opts, ("name", "n", "numerator", "denominator", "float_value"), rows,
          comments=comments)
    _summary(opts, {"command": "walk-dp", "ok": True,
                    "tables": [t.name for t in tables], **extras})
    return 0


def cmd_series_verify(opts, tol) -> int:
    d = opts["d"]
    reports = verify_gf_relations(d, opts["order"])
    if d == 1:
        order = opts["order"] or 64
        reports += verify_closed_form_d1(order)
    rows = []
    for rep in reports:
        defect = rep.first_defect
        rows.append((rep.name, rep.dimension, rep.order,
                     "ok" if rep.ok else "fail",
                     "" if defect is None else defect[0],
                     "" if defect is None else str(defect[1])))
    _emit(opts, ("identity", "d", "order", "status", "defect_order", "defect_value"), rows)
    ok = all(r.ok for r in reports)
    _summary(opts, {"command": "series-verify", "ok": ok,
                    "identities": len(reports)})
    return 0 if ok else 1


def cmd_asymptotics(opts, tol) -> int:
    _require_at_least(opts, "steps", 4)
    d = opts["d"]
    kernel = KERNELS[opts["kernel"]](d)
    seq = _table(return_sequence, kernel, opts["steps"], opts["mode"])
    constants = AsymptoticConstants.compute(d)
    rows_ = asymptotics_check(seq, constants=constants)
    comments = []
    if constants.alpha is not None:
        comments.append(f"alpha={constants.alpha!r},alpha_error={constants.alpha_error!r},"
                        f"oscillation={constants.oscillation!r}")
    comments.append(f"beta={constants.beta!r}")
    budget_comments, extras = _error_budget(opts, [seq])
    _emit(opts, ("n", "value", "rescaled", "target", "deviation"),
          [(r.n, repr(r.value), repr(r.rescaled), repr(r.target), repr(r.deviation))
           for r in rows_], comments=comments + budget_comments)
    _summary(opts, {"command": "asymptotics", "ok": True, "rows": len(rows_), **extras})
    return 0


def cmd_clt(opts, tol) -> int:
    _require_at_least(opts, "trials", 2)
    if opts["t"] <= 0:
        raise UsageError(f"--t must be > 0 for the rescaled statistic, got {opts['t']}")
    cfg = ExperimentConfig(dimension=opts["d"], t=opts["t"], trials=opts["trials"],
                           seed=opts["seed"], mode="float")
    res = simulate(cfg)
    rep = clt_statistic(res, opts["fn"], opts["param"], tolerance=opts["window"])
    rows = [rep.record.csv_row(),
            ("fraction-within", cfg.dimension, repr(cfg.t), cfg.trials, cfg.seed,
             repr(rep.fraction_within), "", repr(1.0), "")]
    comments, budget = _wrap_budget(cfg)
    _emit(opts, STAT_COLUMNS, rows,
          comments=[f"fn={opts['fn']},param={opts['param']!r},window={opts['window']!r}",
                    *comments])
    _summary(opts, {"command": "clt", "ok": True, "mean": rep.record.value,
                    "target": rep.record.target,
                    "fraction_within": rep.fraction_within, **budget})
    return 0


def cmd_potlach(opts, tol) -> int:
    d = opts["d"]
    rep = verify_potlach_relation(d, opts["order"])
    ind, coup = potlach_kernels(d)
    pc = return_sequence(coup, opts["steps"], mode="float")
    pi = return_sequence(ind, opts["steps"], mode="float")
    rows = [("series-relation", d, rep.order, "ok" if rep.ok else "fail", "", "")]
    ok = rep.ok
    for t in (100.0, 150.0, 200.0):
        try:
            a, _ = poissonized_return(pc, 2.0, t)
            b, _ = poissonized_return(pi, 2.0, t)
        except SequenceTooShortError as exc:
            raise UsageError(f"--steps too small for t={t:g}: {exc}") from exc
        ratio = a / b
        inside = tol["c8-lo"] <= ratio <= tol["c8-hi"]
        ok = ok and inside
        rows.append((f"coincidence-ratio-t{t:g}", d, opts["steps"],
                     "ok" if inside else "fail", "", repr(ratio)))
    _emit(opts, ("check", "d", "order", "status", "defect_order", "value"), rows)
    _summary(opts, {"command": "potlach", "ok": ok})
    return 0 if ok else 1


def cmd_accept(opts, tol) -> int:
    results = acceptance.run_acceptance(quick=opts["quick"], tolerances=tol,
                                        seed=opts["seed"])
    rows = [(r.number, r.name, "pass" if r.passed else "fail", r.detail)
            for r in results]
    if opts.get("out"):
        reporting.write_csv(opts["out"], ("criterion", "name", "status", "detail"),
                            rows, seed=opts["seed"], config=_hashable(opts))
    ok = all(r.passed for r in results)
    _summary(opts, {"command": "accept", "ok": ok, "quick": bool(opts["quick"]),
                    "criteria": {r.number: r.passed for r in results}})
    return 0 if ok else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "walk-dp": cmd_walk_dp,
    "series-verify": cmd_series_verify,
    "asymptotics": cmd_asymptotics,
    "clt": cmd_clt,
    "potlach": cmd_potlach,
    "accept": cmd_accept,
}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv, overrides = extract_tolerance_flags(list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            tol = acceptance.merged_tolerances(overrides)
        except KeyError as exc:  # an unknown --tol.<name>
            raise UsageError(exc.args[0]) from exc
        opts = resolve_options(args)
        _check_options(opts)
        return COMMANDS[args.command](opts, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the program, not in its input: keep it apart from 1 and 2
        traceback.print_exc()
        print("internal error (exit 3)", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
