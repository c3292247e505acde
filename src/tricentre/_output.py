"""Output files: CSV text, JSON documents, trajectory tables and the
write-then-rename path.

Every file the package writes goes through write_atomic, so a reader never
sees a half-written file, and is written without newline translation, so
the bytes do not depend on the platform.  CSV values carry 17 significant
digits, which round-trip every float64.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

from .geometry import _linspace, elliptic_to_xy, physical_time_of

_CSV_ROWS = 1000  # dense-output rows of a trajectory CSV


def csv_text(header, columns) -> str:
    """CSV document of equal-length columns under a header.

    Each number is printed as "%.17g" and each line ends in CRLF: the bytes
    csv.writer writes for the same rows formatted with f"{v:.17g}".  A
    column of str, numbers a caller formatted so once, is written as it is.
    """
    row = ",".join(["%s" if len(c) and isinstance(c[0], str) else "%.17g"
                    for c in columns]) + "\r\n"
    return ",".join(header) + "\r\n" + "".join([row % r for r in zip(*columns)])


def write_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def write_csv(path, header, columns) -> None:
    write_atomic(path, csv_text(header, columns))


def write_json(path, doc) -> None:
    import json
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True,
                                  default=str) + "\n")


def trajectory_to_csv(traj, path) -> None:
    """Write tau, elliptic state, physical time and Cartesian position,
    on a uniform grid of 1000 dense-output points.

    traj is a `dynamics.Trajectory` or an `arcs.SeparatedPath`: anything
    with `taus` and a `state_at` that takes a list of times.  A path
    evaluates the list with math, so the eps = 0 commands write their arcs
    without loading numpy or the integrator.
    """
    taus = (_linspace(traj.taus[0], traj.taus[-1], _CSV_ROWS)
            if len(traj.taus) > 1 else [traj.taus[0]])
    xi, phi, *speeds = zip(*traj.state_at(taus))
    x, y = zip(*(elliptic_to_xy(*point, math) for point in zip(xi, phi)))
    write_csv(path, ["tau", "xi", "phi", "xi_prime", "phi_prime",
                     "t_physical", "x", "y"],
              [taus, xi, phi, *speeds, physical_time_of(taus, xi, phi), x, y])
