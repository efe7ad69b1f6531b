"""Result archiving shared by the benchmark harnesses and the grid CLI.

Rendered tables go to ``<results>/<name>.txt`` (and the live terminal),
grid aggregates to ``<results>/GRID_<name>.json`` — both via the same
directory-creation and atomic-write rules, so benches and ``repro grid``
never disagree about where artifacts land.  The default directory is
``results/`` under the current working directory, overridable with
``REPRO_RESULTS_DIR``; ``benchmarks/_common.py`` pins it to the repo
root explicitly.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.core.serialization import atomic_write


def default_results_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def ensure_results_dir(directory=None) -> pathlib.Path:
    """Resolve (and create, parents included) the results directory."""
    directory = (pathlib.Path(directory) if directory is not None
                 else default_results_dir())
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def emit(name: str, text: str, capsys=None, directory=None) -> pathlib.Path:
    """Print ``text`` to the real terminal and archive ``<name>.txt``."""
    directory = ensure_results_dir(directory)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    if capsys is not None:
        with capsys.disabled():
            print(f"\n{text}\n")
    else:  # pragma: no cover - direct invocation
        print(f"\n{text}\n")
    return path


def write_json(name: str, payload: Any, directory=None) -> pathlib.Path:
    """Atomically archive ``<name>.json`` (see :func:`atomic_write`)."""
    path = ensure_results_dir(directory) / f"{name}.json"
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2, sort_keys=True,
                                 default=str) + "\n").encode())
    return path


def write_grid_artifact(result, directory=None) -> pathlib.Path:
    """Archive a grid's aggregate artifact as ``GRID_<name>.json``."""
    return write_json(f"GRID_{result.spec.name}", result.to_payload(),
                      directory=directory)
