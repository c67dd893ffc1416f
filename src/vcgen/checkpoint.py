"""Binary checkpoint format.

Little-endian layout, chosen for trivial parsing in any language:

    magic  b"KMBT"
    u32    version (= 1)
    u64    config JSON byte length, then that many UTF-8 bytes
    u32    tensor count
    per tensor:
        u32 name byte length, name bytes (UTF-8)
        u32 ndim, u32 dims...
        float32 data (row-major)

The JSON document is {"run_config": <config dict>, "global_step": <int>}.
Model parameters are the entries without the reserved "opt." prefix, which
carries optional optimizer moments (opt.m.<name> / opt.v.<name>).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InputError
from .files import json_text, output_file
from .model import ModelConfig, aligned_copy, check_param_shapes
from .tensor import Tensor

MAGIC = b"KMBT"
VERSION = 1
OPT_PREFIX = "opt."


class CheckpointError(InputError):
    """A checkpoint that cannot be read, or that does not fit the run."""


@dataclass
class Checkpoint:
    config: dict  # the embedded run-config dict
    params: dict[str, np.ndarray]  # float32, model parameters only
    opt_state: dict[str, np.ndarray]
    global_step: int

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.config["model"])


def save_checkpoint(
    path: str | Path,
    run_config: dict,
    params: Mapping[str, "Tensor | np.ndarray"],
    global_step: int = 0,
    opt_state: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Write parameters (and optional optimizer moments) in file order of
    the given mappings."""
    header = json_text(
        {"run_config": run_config, "global_step": int(global_step)}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    entries: list[tuple[str, np.ndarray]] = []
    for name, value in params.items():
        if name.startswith(OPT_PREFIX):
            raise CheckpointError(f"parameter name {name!r} uses the reserved prefix {OPT_PREFIX!r}")
        data = value.data if isinstance(value, Tensor) else value
        entries.append((name, np.asarray(data, dtype=np.float32)))
    if opt_state:
        for name, data in opt_state.items():
            if not name.startswith(OPT_PREFIX):
                raise CheckpointError(f"optimizer entry {name!r} must use the {OPT_PREFIX!r} prefix")
            entries.append((name, np.asarray(data, dtype=np.float32)))

    with output_file(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(entries)))
        for name, data in entries:
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype="<f4"))


class _Reader:
    """Reads fields off the blob through a memoryview, so a slice is not a copy."""

    def __init__(self, blob: bytes, path: str | Path):
        self.blob = memoryview(blob)
        self.path = path
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and validate; tensor shapes must agree with the embedded config,
    and every value must be finite. Each tensor is read into an
    ``aligned_copy``."""
    blob = Path(path).read_bytes()
    reader = _Reader(blob, path)
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, expected {MAGIC!r}")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header_len = reader.u64()
    try:
        header = json.loads(str(reader.take(header_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable config block: {exc}") from None
    config = header.get("run_config") if isinstance(header, dict) else None
    if not isinstance(config, dict) or not isinstance(config.get("model"), dict):
        raise CheckpointError(f"{path}: config block lacks a run_config with a model section")
    try:  # the sizes are bounded before any array is read
        model_config = ModelConfig(**config["model"])
        model_config.validate()
    except (TypeError, ValueError) as exc:  # TypeError: an unknown field
        raise CheckpointError(f"{path}: model section: {exc}") from None

    n_tensors = reader.u32()
    params: dict[str, np.ndarray] = {}
    opt_state: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name_len = reader.u32()
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: unreadable tensor name: {exc}") from None
        ndim = reader.u32()
        if ndim > 8:
            raise CheckpointError(f"{path}: implausible ndim {ndim} for tensor {name!r}")
        shape = tuple(reader.u32() for _ in range(ndim))
        raw = reader.take(4 * math.prod(shape))
        data = aligned_copy(np.frombuffer(raw, dtype="<f4").reshape(shape), np.float32)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        if name.startswith(OPT_PREFIX):
            opt_state[name] = data
        else:
            params[name] = data
    if reader.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - reader.pos} trailing bytes after tensor data")

    try:
        check_param_shapes(model_config, {name: data.shape for name, data in params.items()})
    except ValueError as exc:
        raise CheckpointError(f"{path}: model section: {exc}") from None
    global_step = header.get("global_step", 0)
    if not isinstance(global_step, int):
        raise CheckpointError(f"{path}: global_step {global_step!r} is not an integer")
    return Checkpoint(config=config, params=params, opt_state=opt_state, global_step=global_step)


def check_model_config(checkpoint: Checkpoint, config: ModelConfig) -> None:
    """Raise CheckpointError listing every differing structural field.

    dropout_rate is a training knob, not a shape constraint, so finetuning
    may change it.
    """
    own = checkpoint.model_config()
    diffs = [
        f"{name}: checkpoint={getattr(own, name)!r} run={getattr(config, name)!r}"
        for name in own.__dataclass_fields__
        if name != "dropout_rate" and getattr(own, name) != getattr(config, name)
    ]
    if diffs:
        raise CheckpointError("model config mismatch: " + "; ".join(diffs))


def params_as_tensors(checkpoint: Checkpoint) -> dict[str, Tensor]:
    """Trainable tensors over the checkpoint's float32 arrays themselves, not
    copies: AdamW updates a parameter in place, so training a ``Model`` built
    from them mutates ``checkpoint.params``."""
    return {name: Tensor(data.astype(np.float32, copy=False), requires_grad=True)
            for name, data in checkpoint.params.items()}
