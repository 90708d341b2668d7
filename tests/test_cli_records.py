"""Digests of the records the CLI writes.

Each case runs one command with ``--out`` and ``--json-summary`` and hashes
the CSV, the JSON summary line and, where written, the field dump. How a
record is produced may change; what the user receives may not, unless a
digest here is updated openly.
"""
import hashlib

import pytest

from avgproc.cli import run

CASES = {
    "simulate-float-d1": (["simulate", "--d", "1", "--t", "16", "--trials", "40",
                           "--seed", "3", "--dump-field", "{field}"], "2e04834e5631d0f0"),
    "simulate-exact-d1": (["simulate", "--mode", "exact", "--d", "1", "--t", "8",
                           "--trials", "20", "--seed", "3"], "19b01c29733f5d91"),
    "simulate-potlach-d1": (["simulate", "--dynamics", "potlach", "--d", "1", "--t", "16",
                             "--trials", "40", "--seed", "3"], "09cc2fa01f42fd92"),
    "clt-d1": (["clt", "--d", "1", "--t", "16", "--trials", "20", "--seed", "3"],
               "c8a7191aa37e4163"),
    "potlach-order-24": (["potlach", "--order", "24"], "bc002ea607702011"),
    "series-verify-d1": (["series-verify", "--d", "1"], "60f148ad6e325849"),
    "series-verify-d3-order-20": (["series-verify", "--d", "3", "--order", "20"],
                                  "5a42c0a532f8617e"),
    "walk-dp-potlach-coup-d2": (["walk-dp", "--kernel", "potlach-coup", "--d", "2",
                                 "--steps", "24", "--tables", "p,q,r,s"], "da0031b183a7c98b"),
    "walk-dp-avg-diff-d3": (["walk-dp", "--kernel", "avg-diff", "--d", "3", "--steps", "24",
                             "--tables", "p,q,r,s"], "0bac6ee8354fa61e"),
    "walk-dp-float-potlach-coup-d3": (["walk-dp", "--kernel", "potlach-coup", "--mode", "float",
                                       "--d", "3", "--steps", "24", "--tables", "p,q"],
                                      "8088a1029519c803"),
}


def _digest(texts) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_outputs_pinned(case, tmp_path, capsys):
    argv, want = CASES[case]
    out, field = tmp_path / "out.csv", tmp_path / "field.csv"
    argv = [a.format(field=field) for a in argv] + ["--out", str(out), "--json-summary"]
    assert run(argv) == 0
    texts = [out.read_text(), capsys.readouterr().out]
    if field.exists():
        texts.append(field.read_text())
    assert _digest(texts) == want


def test_accept_quick_details_pinned(tmp_path, capsys):
    out = tmp_path / "accept.csv"
    assert run(["accept", "--quick", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digest([out.read_text()]) == "19233209e9af099a"
