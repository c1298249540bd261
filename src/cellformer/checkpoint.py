"""Versioned binary checkpoints.

Layout: one magic+version line, one header-length line, a JSON header
(model config, vocabulary, training step, RNG state, array manifest with
names/shapes/offsets), then the raw little-endian arrays. Saving the loaded
result reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .autograd import PRECISIONS, Tensor
from .model import ModelConfig, heads_present, parameter_shapes
from .optim import AdamState

MAGIC = "CELLFORMER-CKPT"
VERSION = 2

_DTYPE_CODES = {"float64": "<f8", "float32": "<f4"}


class CheckpointError(Exception):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    model_config: ModelConfig
    arrays: dict[str, np.ndarray]  # parameters only, by name
    vocab_tokens: list[str]
    step: int
    rng_state: dict
    adam: Optional[AdamState] = None
    precision: str = "float64"

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors at the checkpoint's own precision, over copies
        of the arrays: training them leaves the checkpoint as it is."""
        dtype = PRECISIONS[self.precision]
        return {name: Tensor(self.arrays[name].astype(dtype), requires_grad=True)
                for name in sorted(self.arrays)}


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write `ckpt` to `path` through a temporary file beside it, which
    replaces `path` only once it is complete: a save that fails or is
    interrupted leaves whatever `path` held before."""
    dtype_code = _DTYPE_CODES[ckpt.precision]

    manifest = []
    blobs = []
    offset = 0

    def add_array(name: str, arr: np.ndarray):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=dtype_code).tobytes()
        manifest.append({
            "name": name,
            "dtype": dtype_code,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)

    for name in sorted(ckpt.arrays):
        add_array(name, ckpt.arrays[name])
    if ckpt.adam is not None:
        for name in sorted(ckpt.adam.first_moment):
            add_array("adam.m." + name, ckpt.adam.first_moment[name])
        for name in sorted(ckpt.adam.second_moment):
            add_array("adam.v." + name, ckpt.adam.second_moment[name])

    header = {
        "model_config": asdict(ckpt.model_config),
        "vocab": ckpt.vocab_tokens,
        "step": ckpt.step,
        "rng_state": ckpt.rng_state,
        "precision": ckpt.precision,
        "adam_step_count": ckpt.adam.step_count if ckpt.adam is not None else None,
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    partial = f"{path}.partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(f"{MAGIC} {VERSION}\n".encode())
            fh.write(f"{len(header_bytes)}\n".encode())
            fh.write(header_bytes)
            for raw in blobs:
                fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None

    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointTruncatedError(f"{path}: no header")
    first = blob[:newline].decode(errors="replace").split()
    if len(first) != 2 or first[0] != MAGIC:
        raise CheckpointVersionError(f"{path}: not a {MAGIC} file")
    if first[1] != str(VERSION):
        raise CheckpointVersionError(
            f"{path}: format version {first[1]}, expected {VERSION}"
        )

    rest = blob[newline + 1:]
    newline2 = rest.find(b"\n")
    if newline2 < 0:
        raise CheckpointTruncatedError(f"{path}: missing header length")
    try:
        header_len = int(rest[:newline2])
    except ValueError:
        raise CheckpointTruncatedError(f"{path}: bad header length") from None
    body = rest[newline2 + 1:]
    if len(body) < header_len:
        raise CheckpointTruncatedError(f"{path}: header cut short")
    try:
        header = json.loads(body[:header_len])
    except json.JSONDecodeError as e:
        raise CheckpointTruncatedError(f"{path}: corrupt header: {e}") from None
    try:
        return _from_header(path, header, body[header_len:])
    except (KeyError, TypeError, ValueError) as e:
        # a field missing, of the wrong type, or rejected by ModelConfig
        raise CheckpointError(f"{path}: malformed header: {e!r}") from None


def _from_header(path, header: dict, data: bytes) -> Checkpoint:
    config = ModelConfig(**header["model_config"])
    if header["precision"] not in _DTYPE_CODES:
        raise ValueError(f"unknown precision {header['precision']!r}")

    arrays: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(data):
            raise CheckpointTruncatedError(
                f"{path}: array '{entry['name']}' extends past end of file"
            )
        arr = np.frombuffer(
            data[start:start + nbytes], dtype=entry["dtype"]
        ).reshape(entry["shape"]).copy()
        name = entry["name"]
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = arr
        else:
            arrays[name] = arr

    expected = parameter_shapes(config, heads=heads_present(arrays))
    if set(expected) != set(arrays):
        missing = sorted(set(expected) ^ set(arrays))
        raise CheckpointShapeError(f"{path}: array set mismatch: {missing}")
    for name, shape in expected.items():
        if tuple(arrays[name].shape) != shape:
            raise CheckpointShapeError(
                f"{path}: '{name}' has shape {arrays[name].shape}, expected {shape}"
            )

    adam = None
    if adam_m:
        if set(adam_m) != set(arrays) or set(adam_v) != set(arrays):
            raise CheckpointShapeError(f"{path}: optimizer state incomplete")
        adam = AdamState(
            step_count=int(header["adam_step_count"]),
            first_moment=adam_m,
            second_moment=adam_v,
        )

    return Checkpoint(
        model_config=config,
        arrays=arrays,
        vocab_tokens=list(header["vocab"]),
        step=int(header["step"]),
        rng_state=header["rng_state"],
        adam=adam,
        precision=header["precision"],
    )
