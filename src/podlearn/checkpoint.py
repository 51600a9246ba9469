"""Atomic JSON and text persistence for run state and run outputs.

JSON keeps float64 values bit-exact: Python serializes every finite double
with its shortest round-tripping decimal form.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from .errors import FormatError

RUN_CHECKPOINT_VERSION = 1


def write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to a temporary file, fsync it, then rename
    it over ``path``.

    Chunks are written as they come, so a streamed document (such as
    ``JSONEncoder.iterencode``) is never held in memory as one string.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def require_fields(state, where: str, names) -> None:
    """``FormatError`` naming ``where`` or ``where.<name>`` unless ``state`` is an object
    holding every one of ``names``."""
    if not isinstance(state, dict):
        raise FormatError(f"checkpoint field {where} is not an object")
    for name in names:
        if name not in state:
            raise FormatError(f"checkpoint field {where}.{name} is missing")


def stored_array(value, where: str, integer: bool = False) -> np.ndarray:
    """``value`` as a float64 (or, when ``integer``, int64) array; ``FormatError``
    naming ``where`` unless it is a rectangular array of finite numbers of that
    type. An empty list passes as an empty array."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise FormatError(f"checkpoint field {where} is not a rectangular array")
    kind = "integers" if integer else "numbers"
    if arr.size and (arr.dtype.kind not in ("iu" if integer else "iuf")
                     or not np.isfinite(arr).all()):
        raise FormatError(f"checkpoint field {where} holds entries that are not finite {kind}")
    return arr.astype(np.int64 if integer else np.float64)


def save_run_checkpoint(path: str, config_echo: dict, runner_state: dict) -> None:
    write_text_atomic(path, json.JSONEncoder().iterencode({
        "version": RUN_CHECKPOINT_VERSION,
        "config": config_echo,
        "runner": runner_state,
    }))


def load_run_checkpoint(path: str) -> tuple[dict, dict]:
    """The config echo and runner state of a checkpoint; ``FormatError`` names
    the path when the file is not a whole checkpoint document."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as err:  # bad UTF-8 or bad JSON
        raise FormatError(f"{path}: not a complete JSON document ({err})")
    if not isinstance(blob, dict):
        raise FormatError(f"{path}: expected a JSON object")
    if blob.get("version") != RUN_CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported run checkpoint version {blob.get('version')}")
    for field in ("config", "runner"):
        if not isinstance(blob.get(field), dict):
            raise FormatError(f"{path}: missing field {field}")
    return blob["config"], blob["runner"]
