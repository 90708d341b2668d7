import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from avgproc import cli
from avgproc.cli import run
from avgproc.kernels import TransitionKernel


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "avgproc" in capsys.readouterr().out


def test_walk_dp_stdout(capsys):
    assert run(["walk-dp", "--d", "1", "--kernel", "avg-diff", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "p_tilde,2,3,8,0.375" in out
    assert out.startswith("# version=")


def test_walk_dp_float_mode(capsys):
    assert run(["walk-dp", "--d", "1", "--kernel", "srw", "--steps", "2",
                "--mode", "float"]) == 0
    out = capsys.readouterr().out
    assert "p,2,,,0.5" in out


def test_walk_dp_float_error_budget(capsys):
    args = ["walk-dp", "--d", "2", "--kernel", "avg-diff", "--steps", "8",
            "--tables", "p,s", "--mode", "float", "--json-summary"]
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ") and "error_bound" in ln]
    assert [c.split(":")[0] for c in comments] == ["# p_tilde", "# s_tilde"]
    bounds = {c[2:].split(":")[0]: float(c.split("=")[1]) for c in comments}
    assert all(0 < b < 1e-12 for b in bounds.values())
    assert json.loads(lines[-1])["error_bounds"] == bounds
    assert run(args) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_walk_dp_exact_has_no_error_budget(capsys):
    assert run(["walk-dp", "--d", "1", "--steps", "4", "--json-summary"]) == 0
    out = capsys.readouterr().out
    assert "error_bound" not in out
    assert out.splitlines()[1] == "name,n,numerator,denominator,float_value"


def test_walk_dp_float_without_route_is_usage_error(monkeypatch, capsys):
    lazy = TransitionKernel(1, Fraction(1), {(1,): Fraction(1, 4), (-1,): Fraction(1, 4),
                                             (0,): Fraction(1, 2)}, name="lazy")
    monkeypatch.setitem(cli.KERNELS, "lazy", lambda d: lazy)
    assert run(["walk-dp", "--d", "1", "--kernel", "lazy", "--steps", "4"]) == 0
    capsys.readouterr()
    assert run(["walk-dp", "--d", "1", "--kernel", "lazy", "--steps", "4",
                "--mode", "float"]) == 2
    assert "mode='exact'" in capsys.readouterr().err


def test_asymptotics_float_error_budget(capsys):
    args = ["asymptotics", "--d", "3", "--kernel", "avg-diff", "--steps", "40",
            "--json-summary"]
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ") and "error_bound" in ln]
    assert [c.split(":")[0] for c in comments] == ["# p_tilde"]
    bound = float(comments[0].split("=")[1])
    assert 0 < bound < 1e-12
    assert json.loads(lines[-1])["error_bounds"] == {"p_tilde": bound}
    assert run(args) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert run(args[:-1] + ["--mode", "exact", "--json-summary"]) == 0
    out = capsys.readouterr().out
    assert "error_bound" not in out
    assert "error_bounds" not in json.loads(out.splitlines()[-1])


def test_walk_dp_table_selection(capsys):
    assert run(["walk-dp", "--d", "1", "--steps", "3", "--tables", "q,s"]) == 0
    out = capsys.readouterr().out
    assert "q_tilde,1,1,2,0.5" in out
    assert "s_tilde,1,1,4,0.25" in out
    assert "r_tilde" not in out


def test_walk_dp_unknown_table(capsys):
    assert run(["walk-dp", "--tables", "p,x"]) == 2
    assert "unknown tables" in capsys.readouterr().err


@pytest.mark.parametrize("tables", ["", ","])
def test_walk_dp_empty_table_list(tables, capsys):
    assert run(["walk-dp", "--tables", tables, "--json-summary"]) == 2
    captured = capsys.readouterr()
    assert "--tables names no table" in captured.err
    assert captured.out == ""


def test_series_verify(capsys):
    assert run(["series-verify", "--d", "1", "--order", "16"]) == 0
    out = capsys.readouterr().out
    assert "renewal-perturbed,1,16,ok" in out
    assert "central-binomial-d1" in out
    assert "fail" not in out


def test_series_verify_order_reaches_every_check(capsys):
    # --order 0 is an order, not "unset": the d=1 closed-form checks stop at z^0 too
    assert run(["series-verify", "--d", "1", "--order", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert {row.split(",")[2] for row in rows} == {"0"}
    assert "central-binomial-d1,1,0,ok,," in rows


def test_asymptotics_command(capsys):
    assert run(["asymptotics", "--d", "1", "--kernel", "srw", "--steps", "400"]) == 0
    out = capsys.readouterr().out
    assert "# beta=" in out
    assert "n,value,rescaled,target,deviation" in out


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["walk-dp", "--d", "2", "--kernel", "srw", "--steps", "6", "--tables", "p,q"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = srw   # plain walk\nsteps = 6\n")
    assert run(["walk-dp", "--config", str(cfg)]) == 0
    assert "p,6," in capsys.readouterr().out
    # explicit flags beat the file
    assert run(["walk-dp", "--config", str(cfg), "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "p,2," in out and "p,6," not in out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run(["walk-dp", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_key_not_used_by_command(tmp_path, capsys):
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text("fn = cos\n")
    assert run(["walk-dp", "--config", str(cfg)]) == 2
    assert "not used by" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert run(["walk-dp", "--config", "/nonexistent/x.cfg"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_tolerance_flag_errors(capsys):
    assert run(["accept", "--tol.not-a-gate=1"]) == 2
    capsys.readouterr()
    assert run(["accept", "--tol.c8-lo"]) == 2
    assert "needs a value" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["asymptotics", "--steps", "1"], "--steps must be >= 4"),
    (["asymptotics", "--steps", "3"], "--steps must be >= 4"),
    (["walk-dp", "--steps", "-3"], "--steps must be >= 0"),
    (["walk-dp", "--steps", "-3", "--mode", "float"], "--steps must be >= 0"),
    (["simulate", "--t", "4", "--trials", "1"], "--trials must be >= 2"),
    (["clt", "--t", "4", "--trials", "1"], "--trials must be >= 2"),
    (["walk-dp", "--d", "0"], "--d must be >= 1"),
    (["walk-dp", "--d", "-1"], "--d must be >= 1"),
    (["walk-dp", "--kernel", "srw", "--d", "0"], "--d must be >= 1"),
    (["series-verify", "--d", "0"], "--d must be >= 1"),
    (["asymptotics", "--d", "0"], "--d must be >= 1"),
    (["simulate", "--d", "0"], "--d must be >= 1"),
    (["clt", "--d", "0"], "--d must be >= 1"),
    (["potlach", "--d", "0"], "--d must be >= 1"),
    (["simulate", "--t", "-1"], "--t must be >= 0"),
    (["simulate", "--t", "2", "--box-radius", "0"], "--box-radius must be >= 1"),
    (["clt", "--t", "0"], "--t must be > 0"),
    (["clt", "--t", "4", "--fn", "sine"], "--fn must be one of"),
    (["clt", "--t", "4", "--window", "-1"], "--window must be >= 0"),
    (["clt", "--t", "4", "--fn", "gauss", "--param", "-1"], "--param: the gauss limit diverges"),
    (["clt", "--t", "4", "--d", "2", "--fn", "gauss", "--param", "-3"],
     "--param: the gauss limit diverges"),
    (["simulate", "--mode", "decimal"], "--mode must be one of ['exact', 'float'], got 'decimal'"),
    (["series-verify", "--order", "-1"], "--order must be >= 0"),
    (["potlach", "--order", "-1"], "--order must be >= 0"),
    (["accept", "--tol.not-a-gate=1"], "unknown tolerance names: ['not-a-gate']"),
    (["walk-dp", "--steps", "2", "--tol.c6-z", "9"],
     "walk-dp does not read the tolerances ['c6-z']"),
    (["clt", "--tol.c7-window", "0.5"], "clt does not read the tolerances ['c7-window']"),
    (["simulate", "--tol.c6-z", "1e-4"], "simulate does not read the tolerances ['c6-z']"),
    (["potlach", "--tol.c8-lo=1.9", "--tol.c6-z=1", "--tol.alpha-lo=1"],
     "potlach does not read the tolerances ['alpha-lo', 'c6-z']"),
    (["simulate", "--t", "nan"], "--t must be finite, got nan"),
    (["simulate", "--t", "inf"], "--t must be finite, got inf"),
    (["clt", "--t", "nan"], "--t must be finite, got nan"),
    (["clt", "--t", "inf"], "--t must be finite, got inf"),
    (["clt", "--t", "4", "--param", "nan"], "--param must be finite, got nan"),
    (["clt", "--t", "4", "--window", "inf"], "--window must be finite, got inf"),
    (["accept", "--quick", "--tol.c6-z", "nan"], "--tol.c6-z must be finite, got 'nan'"),
    (["potlach", "--tol.c8-lo=nan"], "--tol.c8-lo must be finite, got 'nan'"),
    (["simulate", "--tol.c6-mf-se=-inf"], "--tol.c6-mf-se must be finite, got '-inf'"),
    (["simulate", "--t", "1", "--trials", "3", "--seed", "-1"], "--seed must be >= 0"),
    (["clt", "--t", "4", "--trials", "5", "--seed", "-1"], "--seed must be >= 0"),
    (["accept", "--quick", "--seed", "-1"], "--seed must be >= 0"),
], ids=["asymptotics-steps-1", "asymptotics-steps-3", "walk-dp-steps-neg",
        "walk-dp-float-steps-neg", "simulate-trials-1", "clt-trials-1",
        "walk-dp-d-0", "walk-dp-d-neg", "walk-dp-srw-d-0", "series-verify-d-0",
        "asymptotics-d-0", "simulate-d-0", "clt-d-0", "potlach-d-0",
        "simulate-t-neg", "simulate-box-radius-0", "clt-t-0", "clt-unknown-fn",
        "clt-window-neg", "clt-gauss-diverges-d1", "clt-gauss-diverges-d2",
        "simulate-unknown-mode",
        "series-verify-order-neg", "potlach-order-neg",
        "unknown-tolerance", "walk-dp-unread-tolerance", "clt-unread-tolerance",
        "simulate-unread-tolerance", "potlach-unread-tolerances",
        "simulate-t-nan", "simulate-t-inf", "clt-t-nan", "clt-t-inf", "clt-param-nan",
        "clt-window-inf", "accept-tol-nan", "potlach-tol-nan", "simulate-tol-neg-inf",
        "simulate-seed-neg", "clt-seed-neg", "accept-seed-neg"])
def test_out_of_range_options_are_usage_errors(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,line", [
    ("simulate", "mode = decimal"), ("simulate", "dynamics = exclusion"),
    ("walk-dp", "kernel = lazy"), ("asymptotics", "mode = decimal"), ("clt", "fn = sine")])
def test_config_file_choices_are_usage_errors(command, line, tmp_path, capsys):
    # argparse checks these choices on the command line, but not in a file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run([command, "--config", str(cfg)]) == 2
    key, value = (part.strip() for part in line.split("="))
    err = capsys.readouterr().err
    assert f"--{key} must be one of" in err and repr(value) in err


@pytest.mark.parametrize("error", [ValueError, KeyError, ZeroDivisionError])
def test_internal_error_exits_3(error, monkeypatch, capsys):
    # a fault in the program is neither a usage error (2) nor a failed gate (1)
    def broken(opts, tol):
        raise error("fault inside the command")

    monkeypatch.setitem(cli.COMMANDS, "walk-dp", broken)
    assert run(["walk-dp", "--steps", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "fault inside the command" in err
    assert "internal error" in err


def _fresh(code: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, **kwargs)


def test_import_does_not_load_scipy_stats():
    # scipy is a test dependency only: importing scipy.special alone took 0.28 s
    # of every command's start-up, and scipy.stats about a second
    code = ("import avgproc.cli, avgproc.acceptance, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code, check=True).stdout.strip() == "[]"


def test_import_loads_no_openssl_or_lazy_module():
    # hashlib maps OpenSSL's libcrypto (3.6 MB of RSS); traceback serves only exit 3;
    # multiprocessing only runs that fork; numpy.random only commands that draw
    code = ("import sys; import avgproc, avgproc.cli, avgproc.acceptance; print(sorted(m for m in "
            "('_hashlib', 'hashlib', 'traceback', 'multiprocessing', 'numpy.random') "
            "if m in sys.modules))")
    assert _fresh(code, check=True).stdout.strip() == "[]"


def test_walk_dp_writes_its_header_without_openssl():
    code = ("import sys; from avgproc.cli import run; code = run(sys.argv[1:]); "
            "print('_hashlib' in sys.modules); sys.exit(code)")
    out = _fresh(code, "walk-dp", "--d", "1", "--kernel", "avg-diff", "--steps", "4",
                 check=True).stdout.splitlines()
    assert out[0].endswith(",config=b1cb881ab74e")  # README's example header
    assert out[-1] == "False"


@pytest.mark.parametrize("argv", [["asymptotics", "--mode", "exact", "--d", "3", "--kernel", "srw"],
                                  ["walk-dp", "--d", "3", "--steps", "2000"]])
def test_oversized_exact_pass_is_refused_before_it_allocates(argv):
    # at --steps 2000 the d=3 pass would ask numpy for 22.4 GiB; under a 3 GiB cap on the
    # address space of the child alone it must exit 2, naming its estimate and the limit
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from avgproc.cli import run; sys.exit(run(sys.argv[1:]))")
    res = _fresh(code, *argv, timeout=60)
    assert res.returncode == 2, res.stderr
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert "1,003,003,001 cone points" in res.stderr
    assert "the largest feasible step count is 253" in res.stderr


REUSE_CALLS = [(["walk-dp", "--no-such-option"], 2), (["--version"], 0),
               (["walk-dp", "--d", "2", "--steps", "6", "--tables", "p,s"], 0),
               (["simulate", "--tol.c6-z", "2.5"], 2), (["walk-dp", "--steps", "2"], 3)]


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # the parser is built once per process; each call must act as in a fresh interpreter
    def broken(opts, tol):
        raise ValueError("fault inside the command")

    fresh = ("import sys; from avgproc import cli\n"
             "def broken(opts, tol):\n    raise ValueError('fault inside the command')\n"
             "if sys.argv[1] == 'broken':\n    cli.COMMANDS['walk-dp'] = broken\n"
             "sys.exit(cli.run(sys.argv[2:]))")
    for argv, code in REUSE_CALLS:
        if code == 3:
            monkeypatch.setitem(cli.COMMANDS, "walk-dp", broken)
        assert run(argv) == code
        here = capsys.readouterr()
        there = _fresh(fresh, "broken" if code == 3 else "-", *argv)
        assert (there.returncode, there.stdout) == (code, here.out)
        if code == 3:  # the tracebacks' frames differ
            assert all("Traceback" in err and "fault inside the command" in err
                       for err in (here.err, there.stderr))
        else:
            assert there.stderr == here.err
    assert cli.build_parser() is cli.build_parser()


def test_threads_option_is_gone(tmp_path, capsys):
    assert run(["walk-dp", "--threads", "2"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    capsys.readouterr()
    assert run(["walk-dp", "--config", str(cfg)]) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.TOLERANCES_READ))
def test_tolerances_a_command_reads_are_accepted(command, monkeypatch):
    # every gate a command reads reaches it as overridden; the command is stubbed out
    seen = {}
    monkeypatch.setitem(cli.COMMANDS, command, lambda opts, tol: seen.update(tol) or 0)
    names = cli.TOLERANCES_READ[command]
    assert run([command, *(f"--tol.{name}=0.5" for name in names)]) == 0
    assert all(seen[name] == 0.5 for name in names)


def test_potlach_has_no_steps_option(tmp_path, capsys):
    # the contrast sizes its own tables from the times it Poissonizes at
    assert run(["potlach", "--steps", "600"]) == 2
    assert "unrecognized arguments: --steps 600" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 600\n")
    assert run(["potlach", "--config", str(cfg)]) == 2
    assert "config key 'steps' not used by 'potlach'" in capsys.readouterr().err


def test_potlach_gate_override_fails(capsys):
    # the measured ratio sits near 2, so demanding >= 2.1 must fail
    assert run(["potlach", "--order", "24", "--tol.c8-lo=2.1",
                "--json-summary"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["ok"] is False


def test_clt_command_json(tmp_path, capsys):
    out_file = tmp_path / "clt.csv"
    assert run(["clt", "--d", "1", "--t", "16", "--trials", "8",
                "--out", str(out_file), "--json-summary"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["command"] == "clt"
    assert 0.0 <= payload["fraction_within"] <= 1.0
    text = out_file.read_text()
    assert "clt-cos" in text


def test_simulate_command(tmp_path, capsys):
    out_file = tmp_path / "sim.csv"
    dump = tmp_path / "field.csv"
    assert run(["simulate", "--d", "1", "--t", "8", "--trials", "16",
                "--out", str(out_file), "--dump-field", str(dump),
                "--json-summary"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["ok"] is True
    assert payload["conservation_defect"] < 1e-12
    assert "two-norm-sq" in out_file.read_text()
    lines = dump.read_text().splitlines()
    assert "site,x0,mass" in lines[1]


@pytest.mark.parametrize("argv,radius,within", [
    (["simulate", "--d", "2", "--t", "16", "--trials", "4"], 14, True),
    (["simulate", "--d", "1", "--t", "16", "--trials", "4", "--box-radius", "4"], 4, False),
    (["simulate", "--d", "1", "--t", "16", "--trials", "4", "--dynamics", "potlach"], 23, True),
    (["clt", "--d", "1", "--t", "16", "--trials", "4"], 17, True),
], ids=["simulate-d2", "simulate-set-radius", "simulate-potlach", "clt"])
def test_wrap_bound_reported(tmp_path, capsys, argv, radius, within):
    # a box too small for t shows up as a wrap bound above 1e-6
    out_file = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out_file), "--json-summary"]) == 0
    bounds = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error_bounds"]
    assert bounds["box_radius"] == radius
    assert (bounds["wrap_bound"] <= 1e-6) is within
    assert f"# box_radius={radius},wrap_bound={bounds['wrap_bound']!r}" in \
        out_file.read_text().splitlines()


def test_simulate_potlach_records_have_targets(tmp_path, capsys):
    out_file = tmp_path / "sim.csv"
    assert run(["simulate", "--d", "1", "--t", "4", "--trials", "8",
                "--dynamics", "potlach", "--out", str(out_file), "--json-summary"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert math.isfinite(payload["two_norm_z"]) and 0 <= payload["mean_field_fraction"] <= 1
    rows = {r["name"]: r for r in csv.DictReader(
        line for line in out_file.read_text().splitlines() if not line.startswith("#"))}
    for name in ("two-norm-sq", "centered-two-norm-sq", "mean-field-fraction"):
        assert math.isfinite(float(rows[name]["target"])), rows[name]


def test_exact_simulate_conservation_defect_is_zero(tmp_path, capsys):
    # exact fields sum to exactly 1; summing their float images gives 2.2e-16 here
    out_file = tmp_path / "sim.csv"
    assert run(["simulate", "--mode", "exact", "--d", "1", "--t", "64", "--trials", "100",
                "--seed", "20260825", "--out", str(out_file), "--json-summary"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["conservation_defect"] == 0.0
    row = next(ln for ln in out_file.read_text().splitlines()
               if ln.startswith("conservation-defect,"))
    assert row.split(",")[5] == "0.0"


def test_accept_has_no_dimension_or_mode_options(tmp_path, capsys):
    # the suite fixes its own dimensions and arithmetic modes
    assert run(["accept", "--quick", "--d", "7", "--mode", "exact"]) == 2
    assert "unrecognized arguments: --d 7 --mode exact" in capsys.readouterr().err
    cfg = tmp_path / "accept.cfg"
    for key in ("d = 3", "mode = exact"):
        cfg.write_text(key + "\n")
        assert run(["accept", "--quick", "--config", str(cfg)]) == 2
        name = key.split()[0]
        assert f"config key {name!r} not used by 'accept'" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("series-verify", "mode"), ("potlach", "mode"), ("clt", "mode"),
    ("walk-dp", "seed"), ("series-verify", "seed"), ("asymptotics", "seed"), ("potlach", "seed"),
], ids=["series-verify", "potlach", "clt",
        "walk-dp-seed", "series-verify-seed", "asymptotics-seed", "potlach-seed"])
def test_mode_only_where_it_is_read(command, key, tmp_path, capsys):
    # these commands fix their own arithmetic, or draw no random numbers, so the
    # option would be ignored
    value = {"mode": "float", "seed": "7"}[key]
    assert run([command, f"--{key}", value]) == 2
    assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run([command, "--config", str(cfg)]) == 2
    assert f"config key {key!r} not used by {command!r}" in capsys.readouterr().err


def test_accept_quick(capsys):
    assert run(["accept", "--quick", "--json-summary"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["ok"] is True
    assert set(payload["criteria"]) == {str(i) for i in range(1, 9)}
    assert all(payload["criteria"].values())
