"""Assembly layout, embedding, transformer properties, and heads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import dataclasses

from vcgen.config import preset
from vcgen.data import MultimodalExample, pad_batch
from vcgen.errors import InputError
from vcgen.losses import training_ops
from vcgen.model import (
    MAX_PARAMS,
    Model,
    ModelConfig,
    RoIFeature,
    assemble_input,
    param_shapes,
)
from vcgen.synthetic import make_rois
from vcgen.tensor import ARRAYS, TAPE, Tape, Tensor
from vcgen.vocab import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    EVENT_END_ID,
    EVENT_ID,
    IMG_END_ID,
    IMG_FEAT_ID,
    IMG_ID,
    MLM_END_ID,
    MLM_ID,
    TaskType,
)

from helpers import tiny_config, tiny_examples, tiny_vocab, denoise_seed_with_both_masks, zero_model
from oracles import count_params
from ops import mul, softmax, sum_all


@pytest.fixture(scope="module")
def setup():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 0, dtype=np.float64)
    kcg, region, caption = tiny_examples()
    return vocab, config, model, kcg, region, caption


# ---------------------------------------------------------------------------
# assembly


def test_assembly_layout_with_event(setup):
    vocab, _, _, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg", use_event=True)
    w = vocab.encode(kcg.event_text)
    expected = [17, IMG_ID, IMG_FEAT_ID, IMG_FEAT_ID, IMG_END_ID, EVENT_ID] + w + [EVENT_END_ID]
    assert a.enc_ids.tolist() == expected
    assert a.visual_slots.tolist() == [2, 3]
    tgt = vocab.encode(kcg.target_text)
    assert a.dec_ids.tolist() == [BOS_ID] + tgt
    assert a.dec_labels.tolist() == tgt + [EOS_ID]


def test_assembly_layout_without_event(setup):
    vocab, _, _, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg", use_event=False)
    assert a.enc_ids.tolist() == [17, IMG_ID, IMG_FEAT_ID, IMG_FEAT_ID, IMG_END_ID]


def test_assembly_zero_rois_caption(setup):
    vocab, *_ = setup
    ex = MultimodalExample(
        task=TaskType.CAPTION, rois=[], event_text=None, target_text="w1", source_id="x"
    )
    a = assemble_input(ex, vocab, "mlm", seed=0)
    assert a.enc_ids.tolist()[:4] == [13, IMG_ID, IMG_END_ID, MLM_ID]
    assert a.enc_ids.tolist()[-1] == MLM_END_ID
    assert len(a.enc_ids) == 6
    assert a.visual_slots.tolist() == []


def test_assembly_mirror_for_region_pass(setup):
    vocab, _, _, _, region, _ = setup
    a = assemble_input(region, vocab, "ap")
    assert a.dec_ids.tolist() == a.enc_ids.tolist()
    assert a.dec_labels is None
    # region passes carry no text block
    assert a.enc_len == 2 + len(region.rois) + 1


def test_assembly_denoise_substitutions(setup):
    vocab, _, _, _, _, caption = setup
    seed = denoise_seed_with_both_masks(caption, vocab)
    a = assemble_input(caption, vocab, "mlm", seed=seed)
    for pos in a.mlm_positions:
        assert a.dec_ids[pos] == CLS_ID
    for pos in a.mrm_positions:
        assert a.dec_ids[pos] == CLS_ID
    unmasked_slots = [s for s in a.visual_slots if s not in a.mrm_positions]
    for pos in unmasked_slots:
        assert a.dec_ids[pos] == IMG_FEAT_ID
    # mlm targets are the original ids
    words = vocab.encode(caption.target_text)
    text_start = a.enc_len - len(words) - 1
    for pos, tgt in zip(a.mlm_positions, a.mlm_targets):
        assert words[pos - text_start] == tgt


def test_assembly_event_ignored_for_denoise(setup):
    vocab, _, _, _, _, caption = setup
    a_true = assemble_input(caption, vocab, "mlm", use_event=True, seed=3)
    a_false = assemble_input(caption, vocab, "mlm", use_event=False, seed=3)
    assert a_true.enc_ids.tolist() == a_false.enc_ids.tolist()
    assert MLM_ID in a_true.enc_ids


def test_assembly_empty_target_rejected(setup):
    vocab, *_ = setup
    ex = MultimodalExample(
        task=TaskType.INTENT, rois=[], event_text="w1", target_text="   ", source_id="x"
    )
    with pytest.raises(ValueError, match="empty target"):
        assemble_input(ex, vocab, "kcg")


def test_assembly_length_error(setup):
    vocab, _, _, kcg, _, _ = setup
    with pytest.raises(ValueError, match="max_positions"):
        assemble_input(kcg, vocab, "kcg", max_positions=4)


def test_assembly_unknown_mode(setup):
    vocab, _, _, kcg, _, _ = setup
    with pytest.raises(ValueError, match="mode"):
        assemble_input(kcg, vocab, "nope")


# ---------------------------------------------------------------------------
# embedding


def test_zero_roi_feature_with_zero_bias_gives_positional_embedding(setup):
    vocab, config, model, kcg, _, _ = setup
    model.params["vis_proj.bias"].data[:] = 0.0
    try:
        ex = MultimodalExample(
            task=TaskType.INTENT,
            rois=[RoIFeature(np.zeros(config.d_visual), np.full(config.n_classes, 1.0 / config.n_classes))],
            event_text="w1",
            target_text="tgt1",
            source_id="z",
        )
        a = assemble_input(ex, vocab, "kcg")
        emb = model.embed(pad_batch([(a, ex)]))
        slot = a.visual_slots[0]
        pos = model.params["pos_emb.weight"].data[slot]
        assert np.allclose(emb.data[0, slot], pos, atol=1e-12)
    finally:
        model.params["vis_proj.bias"].data[:] = 0.0


def test_roi_permutation_permutes_projected_rows(setup):
    vocab, _, model, kcg, _, _ = setup
    swapped = dataclasses.replace(kcg, rois=[kcg.rois[1], kcg.rois[0]])
    a = assemble_input(kcg, vocab, "kcg")
    emb = model.embed(pad_batch([(a, kcg), (a, swapped)])).data
    pos = model.params["pos_emb.weight"].data
    first, second = a.visual_slots
    assert np.allclose(emb[0, first] - pos[first], emb[1, second] - pos[second])
    assert np.allclose(emb[0, second] - pos[second], emb[1, first] - pos[first])


def test_embed_shape_is_length_by_d_model(setup):
    vocab, config, model, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg")
    emb = model.embed(pad_batch([(a, kcg)]))
    assert emb.shape == (1, a.enc_len, config.d_model)
    longer = _longer_event(kcg)
    b = assemble_input(longer, vocab, "kcg")
    padded = model.embed(pad_batch([(a, kcg), (b, longer)]))
    assert padded.shape == (2, a.enc_len + 4, config.d_model)


def _mask_multiply_embed(model, batch, ops):
    """The encoder embedding built the long way: token rows times a 0/1
    mask that is 0 at the visual slots, plus the projected regions
    scattered over a zero buffer, plus the positions."""
    rows, length = batch.enc_ids.shape
    d = model.config.d_model
    times = mul if ops is TAPE else np.multiply
    tok = ops.gather_rows(ops.param(model.params["tok_emb.weight"]), batch.enc_ids)
    pos = ops.gather_rows(ops.param(model.params["pos_emb.weight"]), np.arange(length))
    keep = np.ones((rows * length, 1), dtype=model.dtype)
    keep[batch.slot_index] = 0.0
    w, b = (ops.param(model.params[f"vis_proj.{part}"]) for part in ("weight", "bias"))
    projected = ops.linear(ops.param(Tensor(batch.roi_feats.astype(model.dtype))), w, b)
    regions = ops.gather_rows(ops.reshape(projected, (-1, d)), batch.roi_index)
    visual = ops.scatter_rows(ops.param(Tensor(np.zeros((rows, length, d), model.dtype))), regions, batch.slot_index)
    return ops.add(ops.add(times(tok, ops.param(Tensor(keep.reshape(rows, length, 1)))), visual), pos)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_has_the_bits_of_the_mask_multiply_chain(setup, dtype):
    """Writing the region rows over the token rows with one scatter gives
    the value and every parameter gradient of the mask-multiply chain, on
    ``TAPE`` and on ``ARRAYS``, over rows with 0, 1 and 3 regions, some of
    them masked for region modelling."""
    vocab, config, _, kcg, _, caption = setup
    model = Model.init_random(config, 5, dtype=dtype)
    one = dataclasses.replace(kcg, rois=kcg.rois[:1])
    none = dataclasses.replace(caption, rois=[])
    three = dataclasses.replace(caption, rois=make_rois(np.random.default_rng(6), 3, config.d_visual, config.n_classes))
    items = [
        (assemble_input(one, vocab, "kcg"), one),
        (assemble_input(none, vocab, "mlm", seed=0), none),
        (assemble_input(three, vocab, "mlm", seed=denoise_seed_with_both_masks(three, vocab)), three),
    ]
    assert [len(a.visual_slots) for a, _ in items] == [1, 0, 3] and len(items[2][0].mrm_positions)
    batch = pad_batch(items)
    weights = Tensor(np.random.default_rng(7).normal(size=batch.enc_ids.shape + (config.d_model,)).astype(dtype))
    values, grads = [], []
    for embed in (model.embed, lambda batch: _mask_multiply_embed(model, batch, TAPE)):
        model.zero_grad()
        with Tape() as tape:
            out = embed(batch)
            loss = sum_all(mul(out, weights))
        tape.backward(loss)
        values.append(out.data)
        grads.append({name: p.grad for name, p in model.params.items() if p.grad is not None})
    assert values[0].dtype == dtype and np.array_equal(values[0], values[1])
    assert set(grads[0]) == set(grads[1]) == {"tok_emb.weight", "pos_emb.weight", "vis_proj.weight", "vis_proj.bias"}
    for name in grads[0]:
        assert np.array_equal(grads[0][name], grads[1][name]), name
    arrays = model.embed(batch, ARRAYS)
    assert np.array_equal(arrays, _mask_multiply_embed(model, batch, ARRAYS))
    assert np.array_equal(arrays, values[0])


# ---------------------------------------------------------------------------
# encoder / decoder properties


def _longer_event(example, extra="w1 w2 w3 w4"):
    return dataclasses.replace(example, event_text=f"{example.event_text} {extra}")


def _forward_enc(model, assembled, example):
    return model.encoder_states(pad_batch([(assembled, example)])).data[0]


def test_encoder_is_bidirectional(setup):
    vocab, _, model, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg")
    base = _forward_enc(model, a, kcg)
    mutated = assemble_input(kcg, vocab, "kcg")
    mutated.enc_ids = mutated.enc_ids.copy()
    mutated.enc_ids[-1] = vocab.encode("tgt4")[0]
    changed = _forward_enc(model, mutated, kcg)
    assert not np.allclose(base[0], changed[0], atol=1e-9)


def test_encoder_pad_invariance(setup):
    vocab, _, model, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg")
    base = _forward_enc(model, a, kcg)
    longer = _longer_event(kcg, "w1 w2 w3 w4 w5")
    padded = model.encoder_states(pad_batch([(a, kcg), (assemble_input(longer, vocab, "kcg"), longer)]))
    assert padded.shape[1] == a.enc_len + 5
    assert np.allclose(base, padded.data[0, : a.enc_len], atol=1e-5)


def test_decoder_causality(setup):
    vocab, _, model, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg")
    batch = pad_batch([(a, kcg)])
    enc_out, mask = model.encoder_states(batch), batch.enc_mask
    base = model.decode_ids(a.dec_ids[None], enc_out, mask).data[0]
    t = 2
    mutated = a.dec_ids.copy()
    mutated[t] = vocab.encode("tgt4")[0]
    changed = model.decode_ids(mutated[None], enc_out, mask).data[0]
    assert np.allclose(base[:t], changed[:t], atol=1e-6)
    assert not np.allclose(base[t:], changed[t:], atol=1e-9)


def test_decoder_ignores_encoder_with_zeroed_cross_attention(setup):
    vocab, config, model2, kcg, _, _ = setup
    model = Model.init_random(config, 11, dtype=np.float64)
    for i in range(config.n_dec_layers):
        model.params[f"dec.{i}.cross_attn.o.weight"].data[:] = 0.0
        model.params[f"dec.{i}.cross_attn.o.bias"].data[:] = 0.0
    a = assemble_input(kcg, vocab, "kcg", use_event=True)
    b = assemble_input(kcg, vocab, "kcg", use_event=False)
    batch_a, batch_b = pad_batch([(a, kcg)]), pad_batch([(b, kcg)])
    enc_a, mask_a = model.encoder_states(batch_a), batch_a.enc_mask
    enc_b, mask_b = model.encoder_states(batch_b), batch_b.enc_mask
    out_a = model.decode_ids(a.dec_ids[None], enc_a, mask_a).data
    out_b = model.decode_ids(a.dec_ids[None], enc_b, mask_b).data
    assert np.allclose(out_a, out_b, atol=1e-12)


def test_decoder_output_shape(setup):
    vocab, config, model, kcg, _, caption = setup
    a = assemble_input(kcg, vocab, "kcg")
    b = assemble_input(caption, vocab, "mlm")
    hidden = model.forward(pad_batch([(a, kcg), (b, caption)]))
    assert hidden.shape == (2, max(a.dec_len, b.dec_len), config.d_model)


def test_single_layer_ffn_branch_matches_hand_computation(setup):
    """With zeroed attention output, a pre-norm encoder layer is
    x + FFN(LN(x)) followed by the final norm; recompute that with numpy."""
    vocab, _, _, kcg, _, _ = setup
    config = tiny_config(len(vocab))
    config.n_enc_layers = 1
    model = Model.init_random(config, 5, dtype=np.float64)
    model.params["enc.0.attn.o.weight"].data[:] = 0.0
    model.params["enc.0.attn.o.bias"].data[:] = 0.0

    ex = MultimodalExample(
        task=TaskType.INTENT, rois=[], event_text="w1 w2", target_text="tgt1", source_id="h"
    )
    a = assemble_input(ex, vocab, "kcg", use_event=True)
    emb = model.embed(pad_batch([(a, ex)])).data[0]
    got = _forward_enc(model, a, ex)

    p = {k: v.data for k, v in model.params.items()}

    def ln(x, gain, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * gain + bias

    def gelu_np(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    x = emb  # attention branch contributes exactly zero
    h = gelu_np(ln(x, p["enc.0.ln2.gain"], p["enc.0.ln2.bias"]) @ p["enc.0.ffn.fc1.weight"] + p["enc.0.ffn.fc1.bias"])
    x = x + (h @ p["enc.0.ffn.fc2.weight"] + p["enc.0.ffn.fc2.bias"])
    expected = ln(x, p["enc.ln.gain"], p["enc.ln.bias"])
    assert np.allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# heads


def test_zero_hidden_zero_bias_gives_uniform_softmax(setup):
    vocab, config, _, *_ = setup
    model = zero_model(config, dtype=np.float64)
    hidden = Tensor(np.zeros((3, config.d_model)))
    for logits, labels in (
        (model.lm_head(hidden), config.vocab_size),
        (model.mlp(hidden, "ap_head"), config.n_attr),
        (model.mlp(hidden, "mrm_head"), config.n_classes),
    ):
        probs = softmax(logits).data
        assert np.allclose(probs, 1.0 / labels, atol=1e-12)
    pair = Tensor(np.zeros((3, 2 * config.d_model)))
    probs = softmax(model.mlp(pair, "rp_head")).data
    assert np.allclose(probs, 1.0 / config.n_rel, atol=1e-12)


def test_lm_head_weight_tying_witness(setup):
    vocab, config, model, *_ = setup
    rng = np.random.default_rng(3)
    hidden = Tensor(rng.normal(size=(4, config.d_model)))
    before = model.lm_head(hidden).data.copy()
    k = 20
    model.params["tok_emb.weight"].data[k] += 0.5
    try:
        after = model.lm_head(hidden).data
    finally:
        model.params["tok_emb.weight"].data[k] -= 0.5
    diff = np.abs(after - before)
    assert np.all(diff[:, k] > 1e-9)
    other = np.delete(diff, k, axis=1)
    assert np.allclose(other, 0.0, atol=1e-12)


def test_heads_produce_finite_logits(setup):
    vocab, config, model, kcg, _, _ = setup
    a = assemble_input(kcg, vocab, "kcg")
    hidden = model.forward(pad_batch([(a, kcg)]))
    assert np.all(np.isfinite(model.lm_head(hidden).data))
    assert np.all(np.isfinite(model.mlp(hidden, "ap_head").data))
    assert np.all(np.isfinite(model.mlp(hidden, "mrm_head").data))


# ---------------------------------------------------------------------------
# parameters


def test_param_count_matches_closed_form(setup):
    _, config, model, *_ = setup
    actual = sum(int(np.prod(p.shape)) for p in model.params.values())
    assert count_params(config) == actual


def test_param_count_desk_preset():
    config = ModelConfig(vocab_size=500)
    actual = sum(int(np.prod(s)) for s in param_shapes(config).values())
    assert count_params(config) == actual


@settings(max_examples=200, deadline=None)
@given(sizes=st.fixed_dictionaries({
    name: st.integers(0 if name == "vocab_size" else 1, 2**62)
    for name in ("d_model", "n_enc_layers", "n_dec_layers", "d_ffn", "vocab_size", "d_visual",
                 "n_classes", "n_attr", "n_rel", "max_positions")
}))
def test_param_count_is_the_oracle_closed_form_at_any_size(sizes):
    config = ModelConfig(n_heads=1, **sizes)
    assert config.param_count() == count_params(config)


def test_param_count_of_the_paper_preset_at_bart_vocabulary():
    config = preset("paper").model
    config.vocab_size = 50265
    assert config.param_count() == 141_135_761


def test_validate_bounds_the_parameter_count():
    """With d_model 1 each vocabulary entry costs 2 parameters: the largest
    vocabulary under the bound validates, one more entry does not."""
    config = ModelConfig(d_model=1, n_heads=1, d_ffn=1, vocab_size=0)
    config.vocab_size = (MAX_PARAMS - config.param_count()) // 2
    config.validate()
    config.vocab_size += 1
    with pytest.raises(InputError, match=f"would hold {config.param_count()} parameters"):
        config.validate()


def test_model_rejects_bad_shapes(setup):
    vocab, config, model, *_ = setup
    params = {k: v for k, v in model.params.items()}
    params.pop("lm_head.bias")
    with pytest.raises(ValueError, match="missing"):
        Model(config, params)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_model=10, n_heads=4, vocab_size=20).validate()
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(vocab_size=20, dropout_rate=1.0).validate()


def test_dropout_train_changes_eval_does_not(setup):
    vocab, _, _, kcg, _, _ = setup
    config = tiny_config(len(tiny_vocab()), dropout=0.5)
    model = Model.init_random(config, 1, dtype=np.float64)
    batch = pad_batch([(assemble_input(kcg, vocab, "kcg"), kcg)])
    eval_a = model.forward(batch).data
    eval_b = model.forward(batch).data
    assert np.array_equal(eval_a, eval_b)
    train_a, train_b, train_c = (
        model.forward(batch, training_ops(config.dropout_rate, np.random.default_rng(seed))).data for seed in (0, 0, 1)
    )
    assert np.array_equal(train_a, train_b)
    assert not np.allclose(train_a, train_c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_array_ops_run_each_layer_with_the_tape_ops_bits(setup, dtype):
    """Each layer is one definition over an op table. On ``ARRAYS`` the
    forward, the LM head and a classifier head give the ``TAPE`` values bit
    for bit, as plain arrays, over a padded batch of three passes with
    regions (some masked), and record nothing inside an active tape."""
    vocab, config, _, kcg, region, caption = setup
    model = Model.init_random(config, 4, dtype=dtype)
    seed = denoise_seed_with_both_masks(caption, vocab)
    batch = pad_batch([
        (assemble_input(kcg, vocab, "kcg"), kcg),
        (assemble_input(region, vocab, "ap"), region),
        (assemble_input(caption, vocab, "mlm", seed=seed), caption),
    ])
    assert not batch.enc_mask.all() and len(batch.slot_index)
    hidden = model.forward(batch)
    expected = [hidden.data, model.lm_head(hidden).data, model.mlp(hidden, "ap_head").data]
    with Tape() as tape:
        states = model.forward(batch, ops=ARRAYS)
        got = [states, model.lm_head(states, ARRAYS), model.mlp(states, "ap_head", ARRAYS)]
    assert len(tape) == 0
    for array, reference in zip(got, expected, strict=True):
        assert type(array) is np.ndarray and array.dtype == dtype
        assert np.array_equal(array, reference)
