"""Run manifests: everything needed to reproduce an output directory.

A manifest records the command, the fully resolved parameters, the seed,
sha256 digests of every input file, the tool version and timestamps.
Every command but ``generate`` writes one ``parameters`` layout:
``inputs`` (name -> absolute path of each input file; ``input_digests``
has the same names), ``config`` (the resolved config), and what its stages
add. Re-running a command with the parameters stored in a manifest must
reproduce byte-identical CSV outputs (timestamps in the manifest itself
are informational and excluded from that contract). The ``metrics`` block
holds counters that explain a result, such as the k-means iterations and
degeneracy of each sweep cell, the surrogate's holdout accuracy, size,
shuffled importance cells and skipped effect curves, the wall seconds of
each stage and worker task (``stages``, in every command's manifest) and
the worker count (``workers``); it is outside that contract too. A failed
command writes no manifest but a ``FAILED`` marker naming its stage.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int
    input_digests: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    tool_version: str = __version__
    started: str = ""
    finished: str = ""
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @staticmethod
    def start(command: str, parameters: dict, seed: int, inputs: dict) -> "RunManifest":
        return RunManifest(
            command=command,
            parameters=parameters,
            seed=seed,
            input_digests={name: file_digest(p) for name, p in inputs.items()},
            started=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        )

    def add_output(self, path) -> None:
        self.outputs.append(str(Path(path).name))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def write(self, out_dir) -> Path:
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        target = Path(out_dir) / MANIFEST_NAME
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "input_digests": self.input_digests,
            "outputs": sorted(self.outputs),
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "notes": self.notes,
            "metrics": self.metrics,
        }
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return target


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
