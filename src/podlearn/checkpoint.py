"""Atomic persistence for run state, run outputs and generated datasets.

JSON keeps float64 values bit-exact: Python serializes every finite double
with its shortest round-tripping decimal form.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Iterable

import numpy as np

from .errors import FormatError

RUN_CHECKPOINT_VERSION = 1


@contextlib.contextmanager
def atomic_file(path: str, mode: str = "w"):
    """A temporary file, opened with ``mode``, through which the block writes
    ``path``: after the block it is fsynced and renamed over ``path``; on any
    failure it is removed and the error re-raised.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, mode)  # outside the try: a file that did not open is not ours to remove
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` through :func:`atomic_file` as they come,
    so a document made in pieces is never held in memory as one string."""
    with atomic_file(path) as fh:
        fh.writelines(chunks)


def read_field(state: dict, path: tuple[str, ...], shape=None, integer: bool = False):
    """The field at ``path`` of a runner state and its dotted name ``runner.<path>``.

    ``FormatError`` names the field when a step of the path is missing or is
    not an object. Without ``shape`` the field must be an object and comes
    back as stored. With it, the field must be a rectangular array of finite
    numbers (integers when ``integer``) of that shape, where ``None`` matches
    any length; it comes back as float64 (int64). An empty list reads as an
    array of any expected shape that holds no entries.
    """
    where, value = "runner", state
    for key in path:
        if not isinstance(value, dict):
            raise FormatError(f"checkpoint field {where} is not an object")
        where += f".{key}"
        if key not in value:
            raise FormatError(f"checkpoint field {where} is missing")
        value = value[key]
    if shape is None:
        if not isinstance(value, dict):
            raise FormatError(f"checkpoint field {where} is not an object")
        return value, where
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise FormatError(f"checkpoint field {where} is not a rectangular array")
    if arr.size and (arr.dtype.kind not in ("iu" if integer else "iuf")
                     or not np.isfinite(arr).all()):
        kind = "integers" if integer else "numbers"
        raise FormatError(f"checkpoint field {where} holds entries that are not finite {kind}")
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.ndim != len(shape) or any(n not in (m, None) for m, n in zip(arr.shape, shape)):
        raise FormatError(f"checkpoint field {where} has shape {arr.shape}, expected {shape}")
    return arr.astype(np.int64 if integer else np.float64), where


def _json_pieces(obj) -> Iterable[str]:
    """The text of ``json.dumps(obj)`` in pieces: an object with string keys
    member by member, any other value whole.

    Each piece goes through ``json.dumps``, the C encoder, which takes half
    the time of ``JSONEncoder.iterencode``'s pure-Python one. Encoding one
    member at a time bounds the encoder's temporaries by the largest member
    (a parameter's value list) instead of the whole document.
    """
    if not (isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj)):
        yield json.dumps(obj)
        return
    sep = "{"
    for key, value in obj.items():
        yield f"{sep}{json.dumps(key)}: "
        yield from _json_pieces(value)
        sep = ", "
    yield "}"


def save_run_checkpoint(path: str, config_echo: dict, runner_state: dict) -> None:
    write_text_atomic(path, _json_pieces({
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
