"""Trajectory records: per-iteration error series plus run metadata.

A record captures everything needed to audit a finished run from disk: the
CSV holds the per-iteration series (header `k,tracking_error,consensus_dev,
avg_error,y_dev`), and a JSON sidecar next to it holds the metadata (the
constants of the problem and network, the step size, and the seed). Records
move column by column: each series is formatted once, the CSV is joined into
one string and written in one call, and it is read back in one decode and one
numpy parse with no Python callback per cell (a line that ends in a comma, an
empty y_dev cell, gets "nan" appended first). Reading checks the JSON type of
every sidecar value, so a mistyped sidecar fails with a ValueError naming the
key and the file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

CSV_HEADER = ["k", "tracking_error", "consensus_dev", "avg_error", "y_dev"]
_ROW = np.dtype([("k", np.int64)] + [(name, np.float64) for name in CSV_HEADER[1:]])


@dataclass(frozen=True)
class RunMetadata:
    """Constants identifying a run; enough to re-evaluate bounds and audits."""

    algorithm: str
    alpha: float
    beta: float
    scenario: str
    seed: int
    n: int
    d: int
    horizon: int
    mu: float
    lipschitz: float
    normalization: float
    delta_x: float | None = None
    grad_bound: float | None = None
    grad_drift: float | None = None
    extra: dict = field(default_factory=dict)


# What a sidecar may hold for each annotation of the values it carries, and how
# to name it; a JSON true or false is no number, though Python counts a bool an int.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "dict": ((dict,), "an object"),
}


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-iteration error series for one run.

    tracking_error is the headline metric: the root mean square distance of
    agent iterates to the current optimum, divided by the squared norm of
    the optimum. consensus_dev and y_dev are root mean square deviations
    from the network averages; avg_error is the distance of the average
    iterate to the optimum. All three are stacked norms divided by sqrt(n)
    (replicating the average across agents before stacking), so they live
    on a common per-agent scale.
    """

    metadata: RunMetadata
    iterations: NDArray[np.int64]
    tracking_error: NDArray[np.float64]
    consensus_dev: NDArray[np.float64]
    avg_error: NDArray[np.float64]
    y_dev: NDArray[np.float64] | None = None
    tracker_identity_max: float | None = None

    def __post_init__(self):
        series = (self.tracking_error, self.consensus_dev, self.avg_error, self.y_dev)
        if any(s is not None and len(s) != len(self.iterations) for s in series):
            raise ValueError("record series lengths disagree")

    def __len__(self) -> int:
        return len(self.iterations)


def sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def write_record(record: TrajectoryRecord, csv_path: Path) -> None:
    """Persist the CSV series and the JSON metadata sidecar."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    # tolist() gives Python floats, so each value is written as repr(float(x)),
    # and every line ends in "\r\n", as csv.writer ends them.
    floats = (record.tracking_error, record.consensus_dev, record.avg_error)
    y_dev = [""] * len(record) if record.y_dev is None else map(repr, record.y_dev.tolist())
    columns = (map(str, record.iterations.tolist()), *(map(repr, s.tolist()) for s in floats), y_dev)
    rows = map(",".join, zip(*columns))
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\r\n".join([",".join(CSV_HEADER), *rows, ""]))
    payload = {
        "metadata": asdict(record.metadata),
        "tracker_identity_max": record.tracker_identity_max,
    }
    sidecar_path(csv_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_record(csv_path: Path) -> TrajectoryRecord:
    """Load a record written by :func:`write_record`, parsing its rows in one ``np.loadtxt``.

    The rows must number 0, 1, ..., horizon, where horizon is the sidecar's,
    so a record cut short at a line end is rejected rather than read.
    """
    csv_path = Path(csv_path)
    try:
        lines = csv_path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"record {csv_path}: {exc}") from exc
    header = lines[0].split(",") if lines else []
    if header != CSV_HEADER:
        raise ValueError(f"record {csv_path}: unexpected CSV header {header}")
    # An empty last cell (y_dev of a method without a tracker, or one emptied
    # by hand) reads as nan; splitlines has already dropped every line end.
    rows = [row + "nan" if row[-1:] == "," else row for row in lines[1:]]
    # A non-integer k, a non-numeric value or a ragged row raises ValueError.
    with warnings.catch_warnings():  # numpy warns of a header with no rows under it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"record {csv_path}: {exc}") from exc
    if table.size == 0:
        raise ValueError(f"record {csv_path} has a header but no rows")
    # Structured fields are strided views; contiguous copies make every later
    # reduction sum in the order it does on the arrays that were written.
    k, tracking, consensus, avg, y_dev = (np.ascontiguousarray(table[c]) for c in CSV_HEADER)
    wrong = np.flatnonzero(k != np.arange(k.size))  # write_record numbers the rows 0, 1, ..., M
    if wrong.size:
        row = int(wrong[0])
        raise ValueError(f"record {csv_path}: data row {row + 1} has k = {k[row]}, expected {row}")
    sidecar = sidecar_path(csv_path)
    try:
        payload = json.loads(sidecar.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"record sidecar {sidecar}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("metadata"), dict):
        raise ValueError(f"record sidecar {sidecar} holds no metadata object")
    try:
        metadata = RunMetadata(**payload["metadata"])
    except TypeError as exc:  # an unknown or a missing key
        raise ValueError(f"record sidecar {sidecar}: {exc}") from exc
    identity = payload.get("tracker_identity_max")
    annotated = [(f.name, f.type, getattr(metadata, f.name)) for f in fields(RunMetadata)]
    for name, annotation, value in [*annotated, ("tracker_identity_max", "float | None", identity)]:
        types, kind = _JSON_TYPES[annotation]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"record sidecar {sidecar}: {name} must be {kind}, got {value!r}")
    if k.size != metadata.horizon + 1:  # a CSV cut at a line end still numbers its rows 0, 1, ...
        raise ValueError(
            f"record {csv_path} has {k.size} rows, but its sidecar's horizon {metadata.horizon} "
            f"needs {metadata.horizon + 1}"
        )
    return TrajectoryRecord(
        metadata=metadata,
        iterations=k,
        tracking_error=tracking,
        consensus_dev=consensus,
        avg_error=avg,
        y_dev=None if np.isnan(y_dev).all() else y_dev,
        tracker_identity_max=identity,
    )
