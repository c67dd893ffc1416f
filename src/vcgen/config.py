"""Run configuration: one JSON document, every leaf overridable by a dotted flag."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError
from .files import json_text
from .losses import LOSS_ORDER, LossWeights
from .model import ModelConfig


@dataclass
class OptimizerConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


@dataclass
class ScheduleConfig:
    epochs: int = 1
    batch_size: int = 16
    seed: int = 0


@dataclass
class PathsConfig:
    vocab: str = ""
    kcg_data: str = ""
    region_data: str = ""
    caption_data: str = ""
    train_data: str = ""
    val_data: str = ""
    out_dir: str = "run"


INTERLEAVE_MODES = ("round-robin", "joint")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    tasks: list[str] = field(default_factory=lambda: list(LOSS_ORDER))
    use_event: bool = True
    interleave: str = "round-robin"
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> None:
        self.model.validate()
        for dotted, kind in leaf_fields():
            value = self
            for name in dotted.split("."):
                value = getattr(value, name)
            if not _has_type(value, kind):
                raise InputError(f"{dotted} must be {_TYPE_NAMES[kind]}, got {value!r}")
        for name, path in vars(self.paths).items():
            if not _is_file_name(path):
                raise InputError(f"paths.{name} is no file name: {path!r}")
        if not isinstance(self.tasks, list) or not all(isinstance(t, str) for t in self.tasks):
            raise InputError(f"tasks must be a list of strings, got {self.tasks!r}")
        if not self.tasks:
            raise InputError("task mix must be non-empty")
        unknown = set(self.tasks) - set(LOSS_ORDER)
        if unknown:
            raise InputError(f"unknown tasks {sorted(unknown)}; choose from {LOSS_ORDER}")
        if len(set(self.tasks)) != len(self.tasks):
            raise InputError("task mix has duplicates")
        if self.interleave not in INTERLEAVE_MODES:
            raise InputError(f"interleave must be one of {INTERLEAVE_MODES}")
        if self.schedule.batch_size < 1 or self.schedule.epochs < 0 or self.schedule.seed < 0:
            raise InputError("schedule needs batch_size >= 1, epochs >= 0 and seed >= 0")
        opt = self.optimizer  # AdamW's moments turn non-finite outside these ranges
        if not (0 <= opt.beta1 < 1 and 0 <= opt.beta2 < 1 and opt.eps > 0 and min(opt.lr, opt.weight_decay) >= 0):
            raise InputError("optimizer needs beta1 and beta2 in [0, 1), eps > 0, lr >= 0 and weight_decay >= 0")


# The model presets, as changes to ``ModelConfig``'s defaults. "desk" is
# those defaults, what the test suite exercises end to end; "paper" mirrors a
# base-size 6+6 layer model and is configuration only.
PRESET_MODELS = {
    "desk": {},
    "paper": dict(d_model=768, n_enc_layers=6, n_dec_layers=6, n_heads=12, d_ffn=3072, max_positions=1024),
}


def preset(name: str) -> RunConfig:
    if name not in PRESET_MODELS:
        raise InputError(f"unknown preset {name!r}; choose from {sorted(PRESET_MODELS)}")
    cfg = RunConfig()
    for key, value in PRESET_MODELS[name].items():
        setattr(cfg.model, key, value)
    return cfg


# ---------------------------------------------------------------------------
# (de)serialization


def to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


_SECTIONS = {
    "model": ModelConfig,
    "optimizer": OptimizerConfig,
    "schedule": ScheduleConfig,
    "loss_weights": LossWeights,
    "paths": PathsConfig,
}


def from_dict(data: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from a (possibly partial) dict over ``base``."""
    cfg = base if base is not None else RunConfig()
    for key, value in data.items():
        if key in _SECTIONS:
            section = getattr(cfg, key)
            if not isinstance(value, dict):
                raise InputError(f"config section {key!r} must be an object")
            for sub_key, sub_value in value.items():
                if sub_key not in section.__dataclass_fields__:
                    raise InputError(f"unknown config field {key}.{sub_key}")
                setattr(section, sub_key, sub_value)
        elif key in ("tasks", "use_event", "interleave"):
            setattr(cfg, key, value)
        else:
            raise InputError(f"unknown config field {key!r}")
    return cfg


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """``from_dict`` over the JSON object in the file at ``path``; any
    failure to read one names the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise InputError(f"the top level must be a JSON object, got {type(data).__name__}")
        return from_dict(data, base=base)
    except (InputError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"config {path}: {exc}") from None


def without_paths(cfg: RunConfig) -> dict:
    """The run config but ``paths``: what a checkpoint embeds and
    ``config_hash`` hashes, so the same run gives the same bytes and hash
    from any directory. The manifest records the paths."""
    return {key: value for key, value in to_dict(cfg).items() if key != "paths"}


def config_hash(cfg: RunConfig) -> str:
    canonical = json_text(without_paths(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# dotted command-line overrides


# Leaf annotations are strings here (``from __future__ import annotations``).
_LEAF_TYPES = {"bool": bool, "int": int, "float": float, "str": str}


def leaf_fields() -> list[tuple[str, type]]:
    """(dotted name, type) for every scalar leaf, e.g. ("model.d_model", int)."""
    out: list[tuple[str, type]] = []
    for section_name, section_cls in _SECTIONS.items():
        for f in dataclasses.fields(section_cls):
            out.append((f"{section_name}.{f.name}", _LEAF_TYPES[f.type]))
    out.append(("use_event", bool))
    out.append(("interleave", str))
    return out


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _has_type(value, kind: type) -> bool:
    """A bool is no integer or number here, an integer is a number, and a
    number is finite."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _is_file_name(path: str) -> bool:
    """Whether the OS can take ``path``: no NUL, and no lone surrogate that
    the file system encoding cannot write."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        return False
    return "\x00" not in path


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_scalar(raw: str, kind: type, dotted: str):
    """The value of flag ``--dotted`` from its raw string."""
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise InputError(f"--{dotted} expects {_TYPE_NAMES[kind]}, got {raw!r}") from None


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> None:
    """Set one leaf by its dotted name from a raw command-line string."""
    known = dict(leaf_fields())
    if dotted not in known:
        raise InputError(f"unknown config field {dotted!r}")
    value = parse_scalar(raw, known[dotted], dotted)
    if "." in dotted:
        section, name = dotted.split(".", 1)
        setattr(getattr(cfg, section), name, value)
    else:
        setattr(cfg, dotted, value)
