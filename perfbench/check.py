"""Artifact checks applied to every relufreq CLI invocation the benchmark makes.

An invocation passes when it exited 0, its ``manifest.json`` parses and has
a ``results`` object, every file the manifest lists in ``output_files``
exists, no CSV data row holds a NaN or infinity, and its bytes match:

* the digests recorded for that invocation at the benchmark's baseline
  commit, when the digest file has them (it must have them for every
  invocation made with the default workload seed);
* the bytes of the same invocation made earlier in the same run.

Manifests are compared by their ``results`` only: their configuration
fields are allowed to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, List, Optional

NONFINITE = re.compile(rb"nan|inf", re.IGNORECASE)


def key_of(argv) -> str:
    """Invocation identity: its arguments without the output directory."""
    return " ".join(argv)


def fingerprint(out_dir: str) -> Dict[str, str]:
    """sha256 of every CSV the manifest lists, plus the manifest's results.

    Raises ValueError naming the first problem found.
    """
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"manifest.json unreadable: {exc}") from None
    if not isinstance(manifest.get("results"), dict):
        raise ValueError("manifest.json has no results object")
    results = json.dumps(manifest["results"], sort_keys=True).encode()
    prints = {"manifest.results": hashlib.sha256(results).hexdigest()}
    for name in manifest.get("output_files", []):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            raise ValueError(f"{name} listed in the manifest but missing")
        if not name.endswith(".csv"):
            continue
        with open(path, "rb") as fh:
            blob = fh.read()
        _, _, rows = blob.partition(b"\n")
        if NONFINITE.search(rows):
            raise ValueError(f"{name} holds a NaN or infinite value")
        prints[name] = hashlib.sha256(blob).hexdigest()
    if len(prints) == 1:
        raise ValueError("manifest lists no CSV output")
    return prints


def mismatches(prints: Dict[str, str], reference: Dict[str, str]) -> List[str]:
    return sorted(n for n in set(reference) | set(prints) if reference.get(n) != prints.get(n))


class ArtifactChecker:
    """Checks invocations against recorded digests and against each other."""

    def __init__(self, recorded: Dict[str, Dict[str, str]], require_recorded: bool):
        self.recorded = recorded
        self.require_recorded = require_recorded
        self.seen: Dict[str, Dict[str, str]] = {}

    def check(self, argv, out_dir: str, exit_code: int) -> Optional[str]:
        """None when the invocation passes, else a one-line reason."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            prints = fingerprint(out_dir)
        except ValueError as exc:
            return str(exc)
        key = key_of(argv)
        expected = self.recorded.get(key)
        if expected is None and self.require_recorded:
            return "no digest recorded for this invocation"
        for reference, what in ((expected, "recorded digest"), (self.seen.get(key), "earlier run")):
            if reference is not None and reference != prints:
                return f"{', '.join(mismatches(prints, reference))} differ from the {what}"
        self.seen.setdefault(key, prints)
        return None


def load_digests(path: str) -> Dict[str, Dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
