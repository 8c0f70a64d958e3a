"""Reproducible run directories: manifests, content hashes, CSV round-trip.

Every command-line run lives in its own directory named by a prefix of the
hash of its parameters, next to a `latest` pointer file. The manifest
records the full parameter set, per-output sha256 hashes, wall-clock time
and the final status, so re-running it on the same build reproduces the
outputs byte-identically. Floats are written with repr(), the shortest
decimal that round-trips exactly.
"""

import csv
import hashlib
import json
import os
import time

import numpy as np

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        return path


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


def write_csv(path, header, columns):
    """Write named columns as CSV, one value of each per row.

    Numbers are written with repr(), the shortest decimal that reads back
    exactly (a float column as floats, an int column as ints); a text column
    is written quoted, since its values may contain commas.
    """
    fields = [_format_column(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*fields))
    return path


def _format_column(column):
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return ['"%s"' % x for x in column.tolist()]
    return map(repr, column.tolist())


def read_csv(path):
    """Read a CSV file with a header row back into a dict of columns.

    A column whose every field parses as a float comes back as a float
    array (exact for write_csv output); any other column, such as the quoted
    model descriptors of a sweep export, comes back as an array of str.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    columns = zip(*rows) if rows else [()] * len(header)
    return {name: _parse_column(col) for name, col in zip(header, columns)}


def _parse_column(fields):
    try:
        return np.array([float(x) for x in fields], dtype=float)
    except ValueError:
        return np.array(fields, dtype=str)
