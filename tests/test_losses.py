"""Loss values, decomposition oracles, combination, and the descent smoke test."""

from __future__ import annotations

import numpy as np
import pytest

from vcgen.data import MultimodalExample, pad_batch
from vcgen.losses import (
    LOSS_ORDER,
    LossWeights,
    combine_losses,
    compute_losses,
)
from vcgen.model import Model, RoIFeature, assemble_input
from vcgen.optim import AdamW
from vcgen.synthetic import make_rois
from vcgen.tensor import Tape, Tensor, cross_entropy, gather_rows, kl_divergence, log_softmax
from vcgen.vocab import TaskType

from helpers import (
    denoise_seed_with_both_masks,
    tiny_config,
    tiny_examples,
    tiny_model_and_items,
    tiny_vocab,
    zero_model,
)
from oracles import per_example_losses


def uniform_roi(d_visual, n_classes, rng):
    return RoIFeature(rng.normal(size=d_visual), np.full(n_classes, 1.0 / n_classes))


@pytest.fixture(scope="module")
def zero_setup():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = zero_model(config)  # float32, the production dtype
    rng = np.random.default_rng(0)
    kcg = MultimodalExample(
        task=TaskType.INTENT,
        rois=[uniform_roi(config.d_visual, config.n_classes, rng) for _ in range(2)],
        event_text="w1 w2 w3",
        target_text="tgt1 tgt2 tgt3",
        source_id="k",
    )
    region = MultimodalExample(
        task=TaskType.REGION_CAPTION,
        rois=[uniform_roi(config.d_visual, config.n_classes, rng) for _ in range(3)],
        event_text=None,
        target_text="",
        attributes=[(0, 1), (1, 0), (2, 3)],
        relations=[(0, 1, 2), (1, 2, 0)],
        source_id="r",
    )
    caption = MultimodalExample(
        task=TaskType.CAPTION,
        rois=[uniform_roi(config.d_visual, config.n_classes, rng) for _ in range(2)],
        event_text=None,
        target_text="w1 w2 w3 w4 w5 w6",
        source_id="c",
    )
    return vocab, config, model, kcg, region, caption


def test_uniform_model_calibration(zero_setup):
    vocab, config, model, kcg, region, caption = zero_setup
    seed = denoise_seed_with_both_masks(caption, vocab)
    items = [
        (assemble_input(kcg, vocab, "kcg"), kcg),
        (assemble_input(region, vocab, "ap"), region),
        (assemble_input(caption, vocab, "mlm", seed=seed), caption),
    ]
    terms = compute_losses(model, items, ["kcg", "ap", "rp", "mlm", "mrm"])
    v = config.vocab_size
    assert float(terms["kcg"].data) == pytest.approx(np.log(v), abs=1e-4)
    assert float(terms["mlm"].data) == pytest.approx(np.log(v), abs=1e-4)
    assert float(terms["ap"].data) == pytest.approx(np.log(config.n_attr), abs=1e-4)
    assert float(terms["rp"].data) == pytest.approx(np.log(config.n_rel), abs=1e-4)
    # uniform detector p against the zero model's uniform q
    assert float(terms["mrm"].data) == pytest.approx(0.0, abs=1e-6)


def test_loss_ap_uniform_logits_and_confident():
    logits = Tensor(np.zeros((3, 8)))
    assert float(cross_entropy(logits, [0, 5, 7]).data) == pytest.approx(np.log(8.0), abs=1e-6)
    confident = np.full((1, 8), -1e4)
    confident[0, 2] = 1e4
    assert float(cross_entropy(Tensor(confident), [2]).data) == pytest.approx(0.0, abs=1e-7)


def test_loss_rp_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    assert float(cross_entropy(logits, [1, 3]).data) == pytest.approx(np.log(4.0), abs=1e-6)


def test_loss_mrm_one_hot_vs_uniform():
    c = 10
    logits = Tensor(np.zeros((1, c)))
    p = np.zeros((1, c))
    p[0, 3] = 1.0
    assert float(kl_divergence(Tensor(p), log_softmax(logits)).data) == pytest.approx(np.log(c), rel=1e-6)


def random_setup(seed=0, dtype=np.float64):
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, seed, dtype=dtype)
    return vocab, config, model


def test_ap_batch_equals_mean_of_singletons():
    vocab, config, model = random_setup(3)
    rng = np.random.default_rng(1)

    def region_example(attrs):
        return MultimodalExample(
            task=TaskType.REGION_CAPTION,
            rois=make_rois(rng, 3, config.d_visual, config.n_classes),
            event_text=None,
            target_text="",
            attributes=attrs,
            source_id="r",
        )

    examples = [region_example([(0, 1)]), region_example([(2, 3)]), region_example([(1, 0)])]
    items = [(assemble_input(ex, vocab, "ap"), ex) for ex in examples]
    batch_loss = float(compute_losses(model, items, ["ap"])["ap"].data)
    singles = [float(compute_losses(model, [it], ["ap"])["ap"].data) for it in items]
    assert batch_loss == pytest.approx(np.mean(singles), rel=1e-9)


def test_rp_two_pair_batch_equals_mean_of_singletons():
    vocab, config, model = random_setup(4)
    rng = np.random.default_rng(2)
    rois = make_rois(rng, 3, config.d_visual, config.n_classes)

    def with_relations(rels):
        return MultimodalExample(
            task=TaskType.REGION_CAPTION,
            rois=rois,
            event_text=None,
            target_text="",
            relations=rels,
            source_id="r",
        )

    both = with_relations([(0, 1, 2), (2, 0, 1)])
    items = [(assemble_input(both, vocab, "rp"), both)]
    batch_loss = float(compute_losses(model, items, ["rp"])["rp"].data)
    singles = []
    for rel in both.relations:
        single = with_relations([rel])
        singles.append(float(compute_losses(model, [(assemble_input(single, vocab, "rp"), single)], ["rp"])["rp"].data))
    assert batch_loss == pytest.approx(np.mean(singles), rel=1e-9)


def test_rp_swapping_subject_object_changes_loss():
    vocab, config, model = random_setup(5)
    rng = np.random.default_rng(3)
    rois = make_rois(rng, 2, config.d_visual, config.n_classes)
    fwd = MultimodalExample(
        task=TaskType.REGION_CAPTION, rois=rois, event_text=None, target_text="",
        relations=[(0, 1, 1)], source_id="r",
    )
    rev = MultimodalExample(
        task=TaskType.REGION_CAPTION, rois=rois, event_text=None, target_text="",
        relations=[(1, 0, 1)], source_id="r",
    )
    a = float(compute_losses(model, [(assemble_input(fwd, vocab, "rp"), fwd)], ["rp"])["rp"].data)
    b = float(compute_losses(model, [(assemble_input(rev, vocab, "rp"), rev)], ["rp"])["rp"].data)
    assert a != pytest.approx(b, rel=1e-9)


def test_mlm_matches_token_loss_restricted_to_masked_positions():
    vocab, config, model = random_setup(7)
    _, _, caption = tiny_examples()
    seed = denoise_seed_with_both_masks(caption, vocab)
    assembled = assemble_input(caption, vocab, "mlm", seed=seed)
    term = float(compute_losses(model, [(assembled, caption)], ["mlm"])["mlm"].data)

    hidden = Tensor(model.forward(pad_batch([(assembled, caption)])).data[0])
    logits = model.lm_head(gather_rows(hidden, assembled.mlm_positions))
    direct = float(cross_entropy(logits, assembled.mlm_targets).data)
    assert term == pytest.approx(direct, rel=1e-12)


def test_mlm_ignores_unmasked_positions():
    vocab, config, model = random_setup(8)
    _, _, caption = tiny_examples()
    seed = denoise_seed_with_both_masks(caption, vocab)
    assembled = assemble_input(caption, vocab, "mlm", seed=seed)
    hidden = model.forward(pad_batch([(assembled, caption)]))
    full_logits = model.lm_head(hidden)
    masked_logits = full_logits.data[0, assembled.mlm_positions]
    perturbed = full_logits.data[0].copy()
    unmasked = [i for i in range(assembled.dec_len) if i not in set(assembled.mlm_positions.tolist())]
    perturbed[unmasked] += 123.0
    a = float(cross_entropy(Tensor(masked_logits), assembled.mlm_targets).data)
    b = float(cross_entropy(Tensor(perturbed[assembled.mlm_positions]), assembled.mlm_targets).data)
    assert a == b


def test_kcg_invariant_to_batch_padding():
    vocab, config, model = random_setup(9, dtype=np.float32)
    kcg, region, caption = tiny_examples(1)
    short = MultimodalExample(
        task=TaskType.BEFORE,
        rois=kcg.rois,
        event_text="w1",
        target_text="tgt1",
        source_id="short",
    )
    items = [
        (assemble_input(kcg, vocab, "kcg"), kcg),
        (assemble_input(short, vocab, "kcg"), short),
    ]
    # singleton (unpadded) runs
    singles = {}
    for assembled, ex in items:
        n_units = len(assembled.dec_labels)
        singles[ex.source_id] = (
            float(compute_losses(model, [(assembled, ex)], ["kcg"])["kcg"].data),
            n_units,
        )
    batch = pad_batch(items)
    batched = float(compute_losses(model, batch, ["kcg"])["kcg"].data)
    total = sum(v * n for v, n in singles.values())
    count = sum(n for _, n in singles.values())
    assert batched == pytest.approx(total / count, abs=1e-4)


def test_combine_losses_defaults_and_arithmetic():
    terms = {k: Tensor(np.float32(1.0)) for k in ("kcg", "ap", "rp", "mlm", "mrm")}
    total, logged = combine_losses(terms)
    assert float(total.data) == 9.0
    assert logged["total"] == 9.0

    only_mlm, bd = combine_losses({"mlm": Tensor(np.float32(2.0))})
    assert float(only_mlm.data) == 10.0

    zeros = LossWeights(kcg=0, ap=0, rp=0, mlm=0, mrm=0)
    total, _ = combine_losses(terms, zeros)
    assert float(total.data) == 0.0


def test_combine_losses_linear_in_each_term():
    rng = np.random.default_rng(0)
    weights = LossWeights()
    base = {k: float(rng.uniform(0.5, 3.0)) for k in ("kcg", "ap", "rp", "mlm", "mrm")}
    for name in base:
        for delta in (0.25, 1.0):
            bumped = dict(base)
            bumped[name] = base[name] + delta
            t0, _ = combine_losses({k: Tensor(np.float64(v)) for k, v in base.items()})
            t1, _ = combine_losses({k: Tensor(np.float64(v)) for k, v in bumped.items()})
            w = weights.get(name)
            assert float(t1.data) - float(t0.data) == pytest.approx(w * delta, rel=1e-12)


def test_zero_unit_terms_are_omitted():
    vocab, config, model = random_setup(10)
    ex = MultimodalExample(
        task=TaskType.REGION_CAPTION,
        rois=make_rois(np.random.default_rng(0), 2, config.d_visual, config.n_classes),
        event_text=None,
        target_text="",
        attributes=[],  # nothing annotated
        relations=[(0, 1, 0)],
        source_id="r",
    )
    terms = compute_losses(model, [(assemble_input(ex, vocab, "ap"), ex)], ["ap", "rp"])
    assert "ap" not in terms
    assert "rp" in terms


@pytest.mark.parametrize("seed", range(5))
def test_single_step_decreases_combined_loss(seed):
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, seed, dtype=np.float32)
    kcg, region, caption = tiny_examples(seed)
    denoise_seed = denoise_seed_with_both_masks(caption, vocab)
    items = [
        (assemble_input(kcg, vocab, "kcg"), kcg),
        (assemble_input(region, vocab, "ap"), region),
        (assemble_input(caption, vocab, "mlm", seed=denoise_seed), caption),
    ]
    wanted = ["kcg", "ap", "rp", "mlm", "mrm"]

    def loss_value():
        terms = compute_losses(model, items, wanted)
        total, _ = combine_losses(terms)
        return float(total.data)

    before = loss_value()
    opt = AdamW(model.params, lr=1e-3, weight_decay=0.0)
    with Tape() as tape:
        terms = compute_losses(model, items, wanted)
        total, _ = combine_losses(terms)
    model.zero_grad()
    tape.backward(total)
    opt.step()
    after = loss_value()
    assert after < before


# ---------------------------------------------------------------------------
# the batched forward against the per-example oracle


def _grads_of(model, build):
    model.zero_grad()
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return float(loss.data), {name: p.grad.copy() for name, p in model.params.items() if p.grad is not None}


def test_batched_gradients_match_per_example_oracle():
    """In float64, every parameter gradient of each term and of the combined
    loss equals the one-example-at-a-time forward's, for a batch whose items
    are padded on both the encoder and the decoder side and carry different
    region counts. The tolerance is relative to the largest gradient entry
    in the model: the *.k.bias gradients are analytically zero, so a
    per-tensor ratio would compare rounding noise."""
    vocab, config, model, items = tiny_model_and_items(dtype=np.float64, seed=0)
    rng = np.random.default_rng(9)
    long_event = MultimodalExample(
        task=TaskType.AFTER,
        rois=make_rois(rng, 1, config.d_visual, config.n_classes),
        event_text="w1 w2 w3 w4 w5 w6 w6 w5 w4 w3",
        target_text="tgt4",
        source_id="long-event",
    )
    region3 = MultimodalExample(
        task=TaskType.REGION_CAPTION,
        rois=make_rois(rng, 3, config.d_visual, config.n_classes),
        event_text=None,
        target_text="",
        attributes=[(2, 0)],
        relations=[(2, 0, 1)],
        source_id="reg-3",
    )
    items = items + [(assemble_input(long_event, vocab, "kcg"), long_event), (assemble_input(region3, vocab, "rp"), region3)]
    batch = pad_batch(items)
    assert any(a.enc_len < batch.enc_len for a, _ in items)
    assert any(a.dec_len < batch.dec_len for a, _ in items)
    assert batch.enc_len != batch.dec_len

    cases = {name: [name] for name in LOSS_ORDER}
    cases["combined"] = list(LOSS_ORDER)
    for label, wanted in cases.items():
        def batched():
            return combine_losses(compute_losses(model, batch, wanted))[0]

        def oracle():
            return combine_losses(per_example_losses(model, items, wanted))[0]

        loss, grads = _grads_of(model, batched)
        ref_loss, ref_grads = _grads_of(model, oracle)
        assert loss == pytest.approx(ref_loss, rel=1e-12), label
        assert set(grads) == set(ref_grads), label
        largest = max(float(np.abs(g).max()) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            worst = float(np.abs(grads[name] - ref).max())
            assert worst <= 1e-10 * largest, (label, name, worst / largest)


def _varied_items(kind: str, n: int, vocab, config):
    """``n`` items of one pass whose lengths differ between neighbours."""
    rng = np.random.default_rng(3)
    items = []
    for i in range(n):
        rois = make_rois(rng, 1 + i % 3, config.d_visual, config.n_classes)
        if kind == "kcg":
            ex = MultimodalExample(
                task=TaskType.INTENT, rois=rois, event_text=" ".join(["w1", "w2"][: 1 + i % 2]),
                target_text=" ".join(["tgt1", "tgt2", "tgt3"][: 1 + i % 3]), source_id=f"k{i}",
            )
            items.append((assemble_input(ex, vocab, "kcg"), ex))
        elif kind == "ap":
            ex = MultimodalExample(
                task=TaskType.REGION_CAPTION, rois=rois, event_text=None, target_text="",
                attributes=[(0, i % config.n_attr)], relations=[(0, len(rois) - 1, 1)] if len(rois) > 1 else [],
                source_id=f"r{i}",
            )
            items.append((assemble_input(ex, vocab, "ap"), ex))
        else:
            ex = MultimodalExample(
                task=TaskType.CAPTION, rois=rois, event_text=None,
                target_text=" ".join(f"w{j}" for j in range(1, 3 + i % 4)), source_id=f"c{i}",
            )
            seed = denoise_seed_with_both_masks(ex, vocab)
            items.append((assemble_input(ex, vocab, "mlm", seed=seed), ex))
    return items


@pytest.mark.parametrize("kind, wanted", [("kcg", ["kcg"]), ("ap", ["ap", "rp"]), ("mlm", ["mlm", "mrm"])])
def test_tape_nodes_per_step_do_not_grow_with_batch_size(kind, wanted):
    vocab = tiny_vocab()
    config = tiny_config(len(vocab), dropout=0.1)
    model = Model.init_random(config, 0)
    items = _varied_items(kind, 8, vocab, config)

    def nodes(batch_items):
        with Tape() as tape:
            terms = compute_losses(model, batch_items, wanted, np.random.default_rng(0))
            assert set(terms) == set(wanted)
            combine_losses(terms)
        return len(tape)

    assert nodes(items[:2]) == nodes(items)
