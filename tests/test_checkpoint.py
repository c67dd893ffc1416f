"""Binary checkpoint round-trips and the distinct failure kinds."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from vcgen import cli
from vcgen.checkpoint import (
    CheckpointError,
    check_model_config,
    load_checkpoint,
    params_as_tensors,
    save_checkpoint,
)
from vcgen.config import RunConfig, to_dict
from vcgen.model import Model

from helpers import tiny_config, tiny_vocab
from oracles import save_checkpoint_reference


@pytest.fixture()
def saved(tmp_path):
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 0)
    run = RunConfig(model=config)
    path = tmp_path / "model.kmbt"
    save_checkpoint(path, to_dict(run), model.params, global_step=17)
    return path, model, run


def test_round_trip_preserves_every_parameter_bit_exactly(saved):
    path, model, _ = saved
    ckpt = load_checkpoint(path)
    assert ckpt.global_step == 17
    assert set(ckpt.params) == set(model.params)
    for name, tensor in model.params.items():
        assert np.array_equal(ckpt.params[name], tensor.data)


def test_save_load_save_is_byte_identical(saved, tmp_path):
    path, _, _ = saved
    first = path.read_bytes()
    ckpt = load_checkpoint(path)
    second_path = tmp_path / "again.kmbt"
    save_checkpoint(second_path, ckpt.config, ckpt.params, global_step=ckpt.global_step)
    assert second_path.read_bytes() == first


def test_magic_mismatch(saved, tmp_path):
    path, _, _ = saved
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.kmbt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)


def test_truncated_file(saved, tmp_path):
    path, _, _ = saved
    blob = path.read_bytes()
    bad = tmp_path / "cut.kmbt"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_corrupted_length_field_is_truncation_not_crash(saved, tmp_path):
    path, _, _ = saved
    blob = bytearray(path.read_bytes())
    # config-JSON length field sits right after magic+version
    blob[8:16] = (2**40).to_bytes(8, "little")
    bad = tmp_path / "len.kmbt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_shape_disagreement_with_embedded_config(saved, tmp_path):
    path, model, run = saved
    doctored = to_dict(run)
    doctored["model"]["d_model"] = 32  # tensors were built with 16
    bad = tmp_path / "shape.kmbt"
    save_checkpoint(bad, doctored, model.params)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(bad)


def test_missing_parameter_is_shape_error(saved, tmp_path):
    path, model, run = saved
    subset = dict(model.params)
    subset.pop("lm_head.bias")
    bad = tmp_path / "missing.kmbt"
    save_checkpoint(bad, to_dict(run), subset)
    with pytest.raises(CheckpointError, match="missing.*lm_head.bias"):
        load_checkpoint(bad)


def test_config_mismatch_lists_fields(saved):
    path, _, run = saved
    ckpt = load_checkpoint(path)
    other = tiny_config(run.model.vocab_size)
    other.d_model = 32
    other.n_heads = 8
    with pytest.raises(CheckpointError, match="model config mismatch") as err:
        check_model_config(ckpt, other)
    message = str(err.value)
    assert "d_model" in message and "n_heads" in message


def test_config_mismatch_ignores_dropout(saved):
    path, _, run = saved
    ckpt = load_checkpoint(path)
    other = tiny_config(run.model.vocab_size, dropout=0.3)
    check_model_config(ckpt, other)  # no raise


def test_optimizer_state_round_trip(saved, tmp_path):
    path, model, run = saved
    opt_state = {
        f"opt.m.{name}": np.full_like(p.data, 0.25, dtype=np.float32)
        for name, p in model.params.items()
    }
    with_state = tmp_path / "opt.kmbt"
    save_checkpoint(with_state, to_dict(run), model.params, global_step=3, opt_state=opt_state)
    ckpt = load_checkpoint(with_state)
    assert set(ckpt.opt_state) == set(opt_state)
    for name, data in opt_state.items():
        assert np.array_equal(ckpt.opt_state[name], data)


def test_params_as_tensors_rebuilds_model(saved):
    path, model, run = saved
    ckpt = load_checkpoint(path)
    rebuilt = Model(ckpt.model_config(), params_as_tensors(ckpt))
    for name in model.params:
        assert np.array_equal(rebuilt.params[name].data, model.params[name].data)


def test_reserved_prefix_rejected_on_save(saved, tmp_path):
    path, model, run = saved
    with pytest.raises(CheckpointError, match="reserved"):
        save_checkpoint(tmp_path / "x.kmbt", to_dict(run), {"opt.m.sneaky": np.zeros(1)})


def test_writer_bytes_match_the_copying_writer(saved, tmp_path):
    """Writing each tensor's buffer directly gives the bytes of the writer
    that wrote a ``tobytes`` copy, optimizer moments included."""
    _, model, run = saved
    rng = np.random.default_rng(3)
    opt_state = {}
    for name, p in model.params.items():
        opt_state[f"opt.m.{name}"] = rng.normal(size=p.shape).astype(np.float32)
        opt_state[f"opt.v.{name}"] = rng.random(size=p.shape).astype(np.float32)
    params = dict(model.params)
    params["tok_emb.weight"] = model.params["tok_emb.weight"].data.T.copy().T  # a Fortran-ordered buffer
    mine, ref = tmp_path / "mine.kmbt", tmp_path / "ref.kmbt"
    save_checkpoint(mine, to_dict(run), params, global_step=9, opt_state=opt_state)
    save_checkpoint_reference(ref, to_dict(run), params, global_step=9, opt_state=opt_state)
    assert mine.read_bytes() == ref.read_bytes()


def _with_header(path, header) -> bytes:
    """The bytes of the checkpoint at ``path`` with its config block
    replaced by ``header``, as JSON."""
    blob = path.read_bytes()
    (old_len,) = struct.unpack_from("<Q", blob, 8)
    new = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + old_len :]


@pytest.mark.parametrize(
    "header",
    [
        lambda run: [1, 2],
        lambda run: {"run_config": {"model": [16, 2]}, "global_step": 0},
        lambda run: {"run_config": {"model": {"bogus": 1}}, "global_step": 0},
        lambda run: {"run_config": to_dict(run), "global_step": [3]},
        lambda run: {"run_config": {"model": {**to_dict(run)["model"], "n_heads": 3}}, "global_step": 0},
        lambda run: {"run_config": {"model": {**to_dict(run)["model"], "n_enc_layers": 1.0}}, "global_step": 0},
    ],
    ids=["header-list", "model-list", "model-unknown-field", "global-step-list", "model-invalid",
         "float-layer-count"],
)
def test_malformed_header_is_a_checkpoint_error_and_exits_2(saved, tmp_path, capsys, header):
    path, _, run = saved
    bad = tmp_path / "bad.kmbt"
    bad.write_bytes(_with_header(path, header(run)))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    assert cli.main(["inspect-checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_spliced_header_still_loads(saved, tmp_path):
    """The splice the malformed-header cases use keeps a good header good."""
    path, _, run = saved
    good = tmp_path / "good.kmbt"
    good.write_bytes(_with_header(path, {"run_config": to_dict(run), "global_step": 4}))
    assert load_checkpoint(good).global_step == 4


def _with_layers(path, run, tmp_path, n_enc_layers):
    header = {"run_config": to_dict(run), "global_step": 0}
    header["run_config"]["model"]["n_enc_layers"] = n_enc_layers
    bad = tmp_path / "layers.kmbt"
    bad.write_bytes(_with_header(path, header))
    return bad


def test_spliced_layer_count_is_a_short_shape_error(saved, tmp_path, capsys):
    """A layer count the file cannot hold fails before the expected name map
    is built, with a short message."""
    path, _, run = saved
    bad = _with_layers(path, run, tmp_path, 20000)
    with pytest.raises(CheckpointError, match="need") as caught:
        load_checkpoint(bad)
    assert len(str(caught.value)) < 4096
    assert cli.main(["inspect-checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_shape_error_names_at_most_8_missing_tensors(saved, tmp_path):
    path, _, run = saved
    with pytest.raises(CheckpointError, match="16 missing") as caught:
        load_checkpoint(_with_layers(path, run, tmp_path, 2))
    assert str(caught.value).count("'enc.1.") == 8
