"""Command-line front end: a thin wrapper over the library and the acceptance suite.

Subcommands cover each laboratory area: ``simulate`` (Monte Carlo trials and
their moment records), ``walk-dp`` (exact or float sequence tables),
``series-verify`` (the exact identity suite), ``asymptotics`` (rescaled
large-n checks and constants), ``clt`` (the rescaled linear statistic),
``potlach`` (the vertex-redistribution contrast), and ``accept`` (the whole
acceptance suite).

Each command's options are declared once, in ``OPTIONS``: type, default,
help text and, where one exists, the accepted choices or the lower bound.
The parser, the defaults, the config-file keys and the range checks all come
from that table. The records a command writes come from the library, from
the same producers the acceptance criteria gate on.

Configuration can come from ``--config FILE`` with one ``key=value`` per
line and ``#`` comments; explicit flags override the file, and unknown keys
in the file are rejected. Tolerance gates are overridden with
``--tol.<name> <value>``, on a command that reads them (``TOLERANCES_READ``).
Exit codes: 0 success, 1 a tolerance/acceptance gate failed, 2 usage or
configuration error, 3 internal error (the traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from typing import NamedTuple

from . import __version__, acceptance, reporting
from .asymptotics import AsymptoticConstants, asymptotics_check
from .kernels import KERNELS
from .series import (DEFAULT_ORDERS, verify_closed_form_d1, verify_gf_relations,
                     verify_potlach_relation)
from .simulate import DYNAMICS, WRAP_TOL, ExperimentConfig, simulate
from .stats import TEST_FUNCTIONS, StatRecord, clt_statistic, simulation_records
from .walks import (ExactPassTooLargeError, NoSeriesRouteError, first_return_sequence,
                    potlach_contrast, return_sequence, sphere_first_return_sequence,
                    sphere_taboo_sequence)

TABLES = {"p": return_sequence, "q": first_return_sequence,
          "r": sphere_taboo_sequence, "s": sphere_first_return_sequence}


class Option(NamedTuple):
    """One option: the flag ``--<key>`` and the config key ``<key>`` of a command."""

    type: type | None   # None: an on/off flag
    default: object
    help: str
    choices: object = None  # the accepted values, where they are fixed
    low: int | None = None  # the least accepted value


D = Option(int, 1, "lattice dimension", low=1)
MODE = Option(str, "float", "arithmetic mode", choices=("exact", "float"))
KERNEL = Option(str, "avg-diff", "walk kernel", choices=KERNELS)
STEPS = Option(int, 32, "largest step index", low=0)
TRIALS = Option(int, 1000, "number of trials", low=2)
ORDER = Option(int, 48, "truncation order", low=0)
#: the master seed, on the commands that draw random numbers; the others write ``seed=`` empty
SEED = Option(int, 0, "master seed", low=0)
#: the options every command takes
OUTPUT = dict(
    out=Option(str, None, "CSV output path (default: stdout)"),
    json_summary=Option(None, False, "print a one-line JSON summary to stdout"),
)

OPTIONS = {
    "simulate": dict(
        d=D, t=Option(float, 64.0, "final time", low=0), trials=TRIALS, mode=MODE,
        dynamics=Option(str, "averaging", "mass dynamics", choices=DYNAMICS),
        box_radius=Option(int, None, f"torus radius (default: the smallest whose "
                                     f"wrap-around bound is <= {WRAP_TOL:g})", low=1),
        dump_field=Option(str, None, "also write the mean field as a per-site CSV"),
        seed=SEED, **OUTPUT),
    "walk-dp": dict(
        d=D, kernel=KERNEL, steps=STEPS, mode=MODE._replace(default="exact"),
        tables=Option(str, "p", "comma list from p,q,r,s (default p)"), **OUTPUT),
    "series-verify": dict(
        d=D, order=ORDER._replace(default=None, help="truncation order (default: 64 "
                                                     "for d <= 2, 32 above)"),
        **OUTPUT),
    "asymptotics": dict(
        d=D, kernel=KERNEL, steps=STEPS._replace(default=2000, low=4), mode=MODE, **OUTPUT),
    "clt": dict(
        d=D, t=Option(float, 400.0, "final time (> 0)", low=0),
        trials=TRIALS._replace(default=100),
        fn=Option(str, "cos", "test function", choices=TEST_FUNCTIONS),
        param=Option(float, 1.0, "test-function parameter"),
        window=Option(float, 0.05, "|stat - limit| window to count", low=0),
        seed=SEED, **OUTPUT),
    "potlach": dict(
        d=D, order=ORDER._replace(help="relation truncation order"), **OUTPUT),
    # the suite fixes its own dimensions and modes
    "accept": dict(
        OUTPUT, quick=Option(None, False, "reduced sizes for a fast end-to-end check"),
        seed=SEED._replace(default=acceptance.DEFAULT_SEED)),
}


#: the --tol.<name> gates each command reads; any other is a usage error there
TOLERANCES_READ = {"simulate": ("c6-mf-se",), "potlach": ("c8-lo", "c8-hi"),
                   "accept": tuple(acceptance.DEFAULT_TOLERANCES)}


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
    """key=value lines with '#' comments; keys no command takes are an error."""
    known = {key: opt for table in OPTIONS.values() for key, opt in table.items()}
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
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = known[key].type
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
            if not math.isfinite(overrides[name]):
                raise UsageError(f"--tol.{name} must be finite, got {value!r}")
        else:
            rest.append(tok)
        i += 1
    return rest, overrides


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@cache  # built once per process: parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgproc",
        description="exact-verification laboratory for mass-averaging dynamics on Z^d")
    parser.add_argument("--version", action="version", version=f"avgproc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in OPTIONS.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, opt in table.items():
            if opt.type is None:
                p.add_argument(_flag(key), action="store_true", default=None, help=opt.help)
            else:
                # choices are checked with the config file's values, in resolve_options
                metavar = None if opt.choices is None else "{%s}" % ",".join(sorted(opt.choices))
                p.add_argument(_flag(key), type=opt.type, metavar=metavar, help=opt.help)
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, then each option's range check."""
    table = OPTIONS[args.command]
    opts = {key: opt.default for key, opt in table.items()}
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key not in table:
                raise UsageError(f"config key {key!r} not used by {args.command!r}")
            opts[key] = value
    for key in table:
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    for key, opt in table.items():
        value = opts[key]
        if value is None:
            continue
        if opt.type is float and not math.isfinite(value):
            raise UsageError(f"{_flag(key)} must be finite, got {value}")
        if opt.low is not None and value < opt.low:
            raise UsageError(f"{_flag(key)} must be >= {opt.low}, got {value}")
        if opt.choices is not None and value not in opt.choices:
            raise UsageError(f"{_flag(key)} must be one of {sorted(opt.choices)}, got {value!r}")
    return opts


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
    text = reporting.write_csv(opts["out"], columns, rows,
                               seed=opts.get("seed", ""),
                               config=_hashable(opts), comments=comments)
    if opts["out"] is None:
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
    if opts["json_summary"]:
        print(json.dumps(payload, sort_keys=True))


def cmd_simulate(opts, tol) -> int:
    """run Monte Carlo trials and moment records"""
    cfg = ExperimentConfig(dimension=opts["d"], t=opts["t"], trials=opts["trials"],
                           seed=opts["seed"], dynamics=opts["dynamics"],
                           mode=opts["mode"], box_radius=opts["box_radius"])
    res = simulate(cfg)
    records = simulation_records(res, tol["c6-mf-se"])
    comments, budget = _wrap_budget(cfg)
    _emit(opts, StatRecord.COLUMNS, [r.csv_row() for r in records.values()], comments=comments)
    if opts["dump_field"]:
        reporting.write_csv(opts["dump_field"],
                            ("site", *(f"x{j}" for j in range(cfg.dimension)), "mass"),
                            reporting.field_dump_rows(cfg.box, res.mean_field()),
                            seed=cfg.seed, config=_hashable(opts))
    _summary(opts, {"command": "simulate", "ok": True,
                    "conservation_defect": records["conservation-defect"].value,
                    "two_norm_z": records["two-norm-sq"].z,
                    "mean_field_fraction": records["mean-field-fraction"].value, **budget})
    return 0


def cmd_walk_dp(opts, tol) -> int:
    """sequence tables by dynamic programming"""
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
    """exact generating-function identity suite"""
    d = opts["d"]
    order = DEFAULT_ORDERS.get(d, 32) if opts["order"] is None else opts["order"]
    reports = verify_gf_relations(d, order)
    if d == 1:
        reports += verify_closed_form_d1(order)
    _emit(opts, ("identity", "d", "order", "status", "defect_order", "defect_value"),
          [rep.csv_row() for rep in reports])
    ok = all(r.ok for r in reports)
    _summary(opts, {"command": "series-verify", "ok": ok,
                    "identities": len(reports)})
    return 0 if ok else 1


def cmd_asymptotics(opts, tol) -> int:
    """rescaled large-n sequence checks"""
    d = opts["d"]
    kernel = KERNELS[opts["kernel"]](d)
    seq = _table(return_sequence, kernel, opts["steps"], opts["mode"])
    constants = AsymptoticConstants.compute(d)
    rows = asymptotics_check(seq, constants=constants)
    comments = []
    if constants.alpha is not None:
        comments.append(f"alpha={constants.alpha!r},alpha_error={constants.alpha_error!r},"
                        f"oscillation={constants.oscillation!r}")
    comments.append(f"beta={constants.beta!r}")
    budget_comments, extras = _error_budget(opts, [seq])
    _emit(opts, ("n", "value", "rescaled", "target", "deviation"),
          [r.csv_row() for r in rows], comments=comments + budget_comments)
    _summary(opts, {"command": "asymptotics", "ok": True, "rows": len(rows), **extras})
    return 0


def cmd_clt(opts, tol) -> int:
    """rescaled linear statistic over trials"""
    if opts["t"] <= 0:
        raise UsageError(f"--t must be > 0 for the rescaled statistic, got {opts['t']}")
    try:  # the limit must exist before any trial runs
        TEST_FUNCTIONS[opts["fn"]][1](opts["d"], opts["param"])
    except ValueError as exc:
        raise UsageError(f"--param: {exc}") from exc
    cfg = ExperimentConfig(dimension=opts["d"], t=opts["t"], trials=opts["trials"],
                           seed=opts["seed"], mode="float")
    rep = clt_statistic(simulate(cfg), opts["fn"], opts["param"], tolerance=opts["window"])
    comments, budget = _wrap_budget(cfg)
    _emit(opts, StatRecord.COLUMNS, [rep.record.csv_row(), rep.fraction_record.csv_row()],
          comments=[f"fn={opts['fn']},param={opts['param']!r},window={opts['window']!r}",
                    *comments])
    _summary(opts, {"command": "clt", "ok": True, "mean": rep.record.value,
                    "target": rep.record.target,
                    "fraction_within": rep.fraction_within, **budget})
    return 0


def cmd_potlach(opts, tol) -> int:
    """vertex-redistribution series relation and contrast"""
    d, times = opts["d"], acceptance.POTLACH_CONTRAST_TIMES
    rep = verify_potlach_relation(d, opts["order"])
    coupled, _, ratios = potlach_contrast(d, times)
    rows = [("series-relation", d, rep.order, "ok" if rep.ok else "fail", "", "")]
    ok = rep.ok
    for t, ratio in zip(times, ratios):
        inside = tol["c8-lo"] <= ratio <= tol["c8-hi"]
        ok = ok and inside
        rows.append((f"coincidence-ratio-t{t:g}", d, coupled.last_index,
                     "ok" if inside else "fail", "", repr(ratio)))
    _emit(opts, ("check", "d", "order", "status", "defect_order", "value"), rows)
    _summary(opts, {"command": "potlach", "ok": ok})
    return 0 if ok else 1


def cmd_accept(opts, tol) -> int:
    """run the acceptance suite"""
    results = acceptance.run_acceptance(quick=opts["quick"], tolerances=tol,
                                        seed=opts["seed"])
    if opts["out"]:
        reporting.write_csv(opts["out"], ("criterion", "name", "status", "detail"),
                            [r.csv_row() for r in results], seed=opts["seed"],
                            config=_hashable(opts))
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
        unread = sorted(set(overrides) - set(TOLERANCES_READ.get(args.command, ())))
        if unread:
            raise UsageError(f"{args.command} does not read the tolerances {unread}")
        opts = resolve_options(args)
        return COMMANDS[args.command](opts, tol)
    except (UsageError, ExactPassTooLargeError) as exc:  # the latter: refused before it allocates
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the program, not in its input: keep it apart from 1 and 2
        import traceback  # 1-3 ms that only this path pays

        traceback.print_exc()
        print("internal error (exit 3)", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
