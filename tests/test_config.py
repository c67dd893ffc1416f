"""Run-config loading, presets, dotted overrides, and hashing."""

from __future__ import annotations

import json

import pytest

from vcgen.config import (
    RunConfig,
    apply_override,
    config_hash,
    from_dict,
    leaf_fields,
    load_config,
    preset,
    to_dict,
)
from vcgen.errors import InputError


def test_presets():
    desk = preset("desk")
    assert desk.model.d_model == 128 and desk.model.n_enc_layers == 2
    paper = preset("paper")
    assert paper.model.n_enc_layers == 6 and paper.model.n_dec_layers == 6
    with pytest.raises(ValueError, match="preset"):
        preset("napkin")


def test_round_trip_dict():
    cfg = preset("desk")
    cfg.tasks = ["kcg", "mlm"]
    again = from_dict(to_dict(cfg))
    assert to_dict(again) == to_dict(cfg)


def test_partial_config_merges_over_base(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"d_model": 64}, "use_event": False}))
    cfg = load_config(path, base=preset("desk"))
    assert cfg.model.d_model == 64
    assert cfg.model.n_enc_layers == 2  # untouched preset value
    assert cfg.use_event is False


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown config field"):
        from_dict({"model": {"n_wheels": 4}})
    with pytest.raises(ValueError, match="unknown config field"):
        from_dict({"turbo": True})


def test_apply_override_types():
    cfg = preset("desk")
    apply_override(cfg, "model.d_model", "64")
    apply_override(cfg, "optimizer.lr", "1e-3")
    apply_override(cfg, "use_event", "false")
    apply_override(cfg, "paths.vocab", "v.txt")
    assert cfg.model.d_model == 64
    assert cfg.optimizer.lr == pytest.approx(1e-3)
    assert cfg.use_event is False
    assert cfg.paths.vocab == "v.txt"
    with pytest.raises(ValueError, match="unknown config field"):
        apply_override(cfg, "model.nope", "1")


def test_leaf_fields_cover_every_scalar():
    names = {name for name, _ in leaf_fields()}
    assert "model.d_model" in names
    assert "optimizer.weight_decay" in names
    assert "schedule.seed" in names
    assert "loss_weights.mlm" in names
    assert "paths.out_dir" in names


def test_config_hash_is_stable_and_sensitive():
    a = preset("desk")
    b = preset("desk")
    assert config_hash(a) == config_hash(b)
    b.schedule.seed = 99
    assert config_hash(a) != config_hash(b)


def test_validate_rejects_bad_mixes():
    cfg = preset("desk")
    cfg.model.vocab_size = 20
    cfg.tasks = []
    with pytest.raises(ValueError, match="non-empty"):
        cfg.validate()
    cfg.tasks = ["kcg", "kcg"]
    with pytest.raises(ValueError, match="duplicates"):
        cfg.validate()
    cfg.tasks = ["kcg", "zzz"]
    with pytest.raises(ValueError, match="unknown tasks"):
        cfg.validate()
    cfg.tasks = ["kcg"]
    cfg.interleave = "zigzag"
    with pytest.raises(ValueError, match="interleave"):
        cfg.validate()
    cfg.interleave = "joint"
    cfg.schedule.seed = -1  # the seed streams take no negative entropy
    with pytest.raises(ValueError, match="seed >= 0"):
        cfg.validate()


@pytest.mark.parametrize("field, value", [("n_heads", True), ("vocab_size", 20.0), ("d_ffn", "256")])
def test_validate_rejects_non_integer_counts(field, value):
    cfg = preset("desk")
    setattr(cfg.model, field, value)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        cfg.validate()


def test_validate_checks_n_heads_before_dividing_by_it():
    cfg = preset("desk")
    cfg.model.n_heads = 0
    with pytest.raises(ValueError, match="n_heads must be at least 1"):
        cfg.validate()


def test_validate_rejects_a_dropout_rate_that_is_no_number():
    cfg = preset("desk")
    cfg.model.dropout_rate = "0.1"
    with pytest.raises(ValueError, match="dropout_rate must be a number"):
        cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("beta1", 1.0), ("beta2", 1.5), ("beta1", -0.1), ("eps", 0.0), ("lr", -1e-3), ("weight_decay", -0.01),
])
def test_validate_rejects_optimizer_settings_that_make_adamw_diverge(field, value):
    cfg = preset("desk")
    cfg.model.vocab_size = 20
    cfg.validate()
    setattr(cfg.optimizer, field, value)
    with pytest.raises(InputError, match="optimizer needs"):
        cfg.validate()


@pytest.mark.parametrize("path", ["a\x00b", "\ud800"])
def test_validate_rejects_a_path_no_file_system_takes(path):
    cfg = preset("desk")
    cfg.model.vocab_size = 20
    cfg.paths.kcg_data = path
    with pytest.raises(InputError, match="paths.kcg_data is no file name"):
        cfg.validate()
