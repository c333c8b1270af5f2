"""Data files and their run manifest: the one place both are written.

``write_csv`` and ``write_json`` set the format of every data file a command
writes: CSV through ``csv.writer``, whose rows end in ``\\r\\n`` and which
writes a Python float as its ``repr``, and JSON as ``json.dumps(doc,
indent=2)`` plus a newline. (``fingerprint.write_pca_json`` writes that same
JSON through a faster encoder.)

A command names its data files once, in ``RunManifest.write_outputs``, which
writes each file, records it, and writes the one ``manifest.json`` beside
them: the command, a digest of the effective configuration, the master seed,
the engine version, timestamps, and a sha256 digest per data file. Reruns
with the same configuration and seed produce byte-identical data files; only
the manifest's timestamps differ.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

MANIFEST_NAME = "manifest.json"


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """A header row, then ``rows``; pass floats as Python floats (``.tolist()``
    for numpy values), which ``csv`` writes as their ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def config_digest(config: dict) -> str:
    """sha256 of the canonical JSON encoding of a configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    command: str
    engine_version: str
    master_seed: int
    config_digest: str
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )
    finished_utc: str = ""
    outputs: list[dict] = field(default_factory=list)

    def add_output(self, out_dir: Path, path: Path) -> None:
        self.outputs.append(
            {
                "path": str(path.relative_to(out_dir)),
                "sha256": file_digest(path),
                "bytes": path.stat().st_size,
            }
        )

    def write_outputs(self, out_dir: Path, writers: Mapping[str, Callable[[Path], None]]) -> None:
        """Call each writer with its file's path in ``out_dir`` and add the
        file, then write the manifest."""
        for name, write in writers.items():
            write(out_dir / name)
            self.add_output(out_dir, out_dir / name)
        self.write(out_dir)

    def write(self, out_dir: Path) -> Path:
        self.finished_utc = datetime.now(timezone.utc).isoformat()
        target = out_dir / MANIFEST_NAME
        write_json(target, {
            "schema_version": 1,
            "command": self.command,
            "engine_version": self.engine_version,
            "master_seed": self.master_seed,
            "config_digest": self.config_digest,
            "created_utc": self.created_utc,
            "finished_utc": self.finished_utc,
            "outputs": self.outputs,
        })
        return target


def verify_manifest(out_dir: Path) -> list[str]:
    """Re-hash every listed output; returns a list of mismatch descriptions."""
    document = json.loads((out_dir / MANIFEST_NAME).read_text())
    problems = []
    for entry in document["outputs"]:
        path = out_dir / entry["path"]
        if not path.exists():
            problems.append(f"{entry['path']}: missing")
        elif file_digest(path) != entry["sha256"]:
            problems.append(f"{entry['path']}: digest mismatch")
    return problems
