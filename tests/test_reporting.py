import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from avgproc import __version__, reporting
from avgproc.lattice import Box
from avgproc.reporting import config_hash, field_dump_rows, render_csv, write_csv

CONFIGS = [{}, {"d": 1, "t": 2.0}, {"d": 1, "kernel": "avg-diff", "mode": "exact", "steps": 4,
                                   "tables": "p"}, {"seed": 2 ** 128 + 1, "x": "é,=\n"}]


def _canon_digest(config) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def test_config_hash_is_order_insensitive():
    a = config_hash({"d": 1, "t": 2.0})
    b = config_hash({"t": 2.0, "d": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_hash({"d": 2, "t": 2.0})


def test_config_hash_is_sha256_of_the_canonical_rendering():
    assert reporting.sha256.__module__ in ("_sha2", "_sha256")  # CPython's built-in module
    assert [config_hash(c) for c in CONFIGS] == [_canon_digest(c) for c in CONFIGS]
    assert config_hash(CONFIGS[2]) == "b1cb881ab74e"  # README's walk-dp header


def test_config_hash_falls_back_to_hashlib():
    # with neither built-in module importable the hash comes from hashlib, digests unchanged
    code = ("import ast, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib; from avgproc import reporting\n"
            "print(reporting.sha256 is hashlib.sha256,\n"
            "      [reporting.config_hash(c) for c in ast.literal_eval(sys.argv[1])])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code, repr(CONFIGS)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == f"True {[_canon_digest(c) for c in CONFIGS]}"


def test_render_csv_layout():
    text = render_csv(("a", "b"), [(1, 0.5)], seed=7, config={"x": 1},
                      comments=["note=value"])
    lines = text.splitlines()
    assert lines[0].startswith(f"# version={__version__},seed=7,config=")
    assert lines[1] == "# note=value"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.5"


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    text = write_csv(str(path), ("v",), [(repr(0.1),)], seed=0, config={})
    assert path.read_text() == text
    # repr floats survive the trip exactly
    assert float(text.splitlines()[-1]) == 0.1


def test_field_dump_rows():
    box = Box(2, 1)
    values = np.arange(9, dtype=float).reshape(3, 3)
    rows = list(field_dump_rows(box, values))
    assert rows[0] == (0, -1, -1, repr(0.0))
    assert rows[4] == (4, 0, 0, repr(4.0))
    assert len(rows) == 9
