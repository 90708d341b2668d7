"""Deterministic CSV artifacts.

Every artifact starts with one comment line carrying the package version,
the master seed, where the command draws one (else empty), and a hash of the
generating configuration, followed by a plain comma-separated table with a
header row. Floats are written with repr() so reruns of the same config are
byte-identical and values round-trip.

The hash is SHA-256 from CPython's built-in module (``_sha2`` on Python 3.12+,
``_sha256`` before), as ``random`` takes its sha512: ``hashlib`` maps OpenSSL's
libcrypto, about 3.6 MB of RSS and a few ms of every start-up, so it is the
fallback only where neither module exists.
"""
from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping

from . import __version__

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def config_hash(config: Mapping[str, object]) -> str:
    """12-hex digest of the canonical key=value rendering of a config."""
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return sha256(canon.encode()).hexdigest()[:12]


def render_csv(columns: Iterable[str], rows: Iterable[Iterable], *,
               seed: object = "", config: Mapping[str, object] | None = None,
               comments: Iterable[str] = ()) -> str:
    buf = io.StringIO()
    digest = config_hash(config or {})
    buf.write(f"# version={__version__},seed={seed},config={digest}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def write_csv(path: str | None, columns: Iterable[str], rows: Iterable[Iterable], *,
              seed: object = "", config: Mapping[str, object] | None = None,
              comments: Iterable[str] = ()) -> str:
    """Render and, if path is given, write the artifact; returns the text."""
    text = render_csv(columns, rows, seed=seed, config=config, comments=comments)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def field_dump_rows(box, values) -> Iterable[tuple]:
    """(site index, coordinates..., mass) rows for a per-site field dump."""
    flat = values.reshape(-1)
    for i, p in enumerate(box.points()):
        yield (i, *(c for c in p), repr(float(flat[i])))
