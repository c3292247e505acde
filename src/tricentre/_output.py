"""Output files: CSV text, JSON documents and the write-then-rename path.

Every file the package writes goes through write_atomic, so a reader never
sees a half-written file, and is written without newline translation, so
the bytes do not depend on the platform.  CSV values carry 17 significant
digits, which round-trip every float64.
"""
from __future__ import annotations

import json
import os
from pathlib import Path


def csv_text(header, columns) -> str:
    """CSV document of equal-length numeric array columns under a header.

    Each value is printed as "%.17g" and each line ends in CRLF: the bytes
    csv.writer writes for the same rows formatted with f"{v:.17g}".
    """
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    lines = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\r\n" + "".join([row % r for r in lines])


def write_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def write_csv(path, header, columns) -> None:
    write_atomic(path, csv_text(header, columns))


def write_json(path, doc) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True,
                                  default=str) + "\n")
