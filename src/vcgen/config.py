"""Run configuration: one JSON document, every leaf overridable by a dotted flag."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

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
        if not self.tasks:
            raise ValueError("task mix must be non-empty")
        unknown = set(self.tasks) - set(LOSS_ORDER)
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}; choose from {LOSS_ORDER}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError("task mix has duplicates")
        if self.interleave not in INTERLEAVE_MODES:
            raise ValueError(f"interleave must be one of {INTERLEAVE_MODES}")
        if self.schedule.batch_size < 1 or self.schedule.epochs < 0:
            raise ValueError("schedule needs batch_size >= 1 and epochs >= 0")


# The model presets. "desk" is what the test suite exercises end to end;
# "paper" mirrors a base-size 6+6 layer model and is configuration only.
PRESET_MODELS = {
    "desk": dict(
        d_model=128,
        n_enc_layers=2,
        n_dec_layers=2,
        n_heads=4,
        d_ffn=256,
        max_positions=128,
        dropout_rate=0.1,
    ),
    "paper": dict(
        d_model=768,
        n_enc_layers=6,
        n_dec_layers=6,
        n_heads=12,
        d_ffn=3072,
        max_positions=1024,
        dropout_rate=0.1,
    ),
}


def preset(name: str = "desk") -> RunConfig:
    if name not in PRESET_MODELS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_MODELS)}")
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
                raise ValueError(f"config section {key!r} must be an object")
            for sub_key, sub_value in value.items():
                if sub_key not in section.__dataclass_fields__:
                    raise ValueError(f"unknown config field {key}.{sub_key}")
                setattr(section, sub_key, sub_value)
        elif key in ("tasks", "use_event", "interleave"):
            setattr(cfg, key, value)
        else:
            raise ValueError(f"unknown config field {key!r}")
    return cfg


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return from_dict(json.load(fh), base=base)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# dotted command-line overrides


def leaf_fields() -> list[tuple[str, type]]:
    """(dotted name, type) for every scalar leaf, e.g. ("model.d_model", int)."""
    out: list[tuple[str, type]] = []
    for section_name, section_cls in _SECTIONS.items():
        for f in dataclasses.fields(section_cls):
            out.append((f"{section_name}.{f.name}", f.type if isinstance(f.type, type) else _resolve(f.type)))
    out.append(("use_event", bool))
    out.append(("interleave", str))
    return out


def _resolve(annotation) -> type:
    mapping = {"int": int, "float": float, "str": str, "bool": bool}
    return mapping.get(str(annotation), str)


def parse_scalar(raw: str, kind: type):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return kind(raw)


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> None:
    """Set one leaf by its dotted name from a raw command-line string."""
    known = dict(leaf_fields())
    if dotted not in known:
        raise ValueError(f"unknown config field {dotted!r}")
    value = parse_scalar(raw, known[dotted])
    if "." in dotted:
        section, name = dotted.split(".", 1)
        setattr(getattr(cfg, section), name, value)
    else:
        setattr(cfg, dotted, value)
