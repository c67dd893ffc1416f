"""Shared builders for tiny models and example batches."""

from __future__ import annotations

import numpy as np

from vcgen.data import MultimodalExample
from vcgen.model import Model, ModelConfig, assemble_input, param_shapes
from vcgen.synthetic import make_rois
from vcgen.tensor import Tape, Tensor
from vcgen.vocab import TaskType, Vocabulary, build_vocab

TINY_WORDS = "w1 w2 w3 w4 w5 w6 tgt1 tgt2 tgt3 tgt4"


def tiny_vocab() -> Vocabulary:
    return build_vocab([TINY_WORDS], min_freq=1)


def tiny_config(vocab_size: int, dropout: float = 0.0) -> ModelConfig:
    return ModelConfig(
        d_model=16,
        n_enc_layers=1,
        n_dec_layers=1,
        n_heads=2,
        d_ffn=16,
        vocab_size=vocab_size,
        d_visual=4,
        n_classes=5,
        n_attr=4,
        n_rel=3,
        max_positions=20,
        dropout_rate=dropout,
    )


def zero_model(config: ModelConfig, dtype=np.float32) -> Model:
    """All-zero parameters; every head then predicts a uniform distribution."""
    config.validate()
    params = {
        name: Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        for name, shape in param_shapes(config).items()
    }
    return Model(config, params)


def tiny_examples(seed: int = 0):
    """One example per dataset stream: generation, region, caption."""
    rng = np.random.default_rng(seed)
    kcg = MultimodalExample(
        task=TaskType.INTENT,
        rois=make_rois(rng, 2, 4, 5),
        event_text="w1 w2 w3 w4 w5 w6",
        target_text="tgt1 tgt2 tgt3",
        source_id="kcg-0",
    )
    region = MultimodalExample(
        task=TaskType.REGION_CAPTION,
        rois=make_rois(rng, 2, 4, 5),
        event_text=None,
        target_text="",
        attributes=[(0, 1), (1, 3)],
        relations=[(0, 1, 2), (1, 0, 1)],
        source_id="reg-0",
    )
    caption = MultimodalExample(
        task=TaskType.CAPTION,
        rois=make_rois(rng, 2, 4, 5),
        event_text=None,
        target_text="w1 w2 w3 w4 w5 w6",
        source_id="cap-0",
    )
    return kcg, region, caption


def denoise_seed_with_both_masks(caption: MultimodalExample, vocab: Vocabulary, start: int = 0) -> int:
    """First seed whose denoising plan masks at least one token and one region."""
    for seed in range(start, start + 10_000):
        assembled = assemble_input(caption, vocab, "mlm", seed=seed)
        if len(assembled.mlm_positions) > 0 and len(assembled.mrm_positions) > 0:
            return seed
    raise AssertionError("no seed with both masks found")


def tiny_model_and_items(dtype=np.float64, seed: int = 0, init: str = "random"):
    """A 1+1 layer d=16 model plus one assembled item per stream.

    The denoising item's seed is chosen so both corruptions are present and
    all five losses have units.
    """
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    if init == "random":
        model = Model.init_random(config, seed, dtype=dtype)
    else:
        model = zero_model(config, dtype=dtype)
    kcg, region, caption = tiny_examples(seed)
    denoise_seed = denoise_seed_with_both_masks(caption, vocab)
    items = [
        (assemble_input(kcg, vocab, "kcg", seed=1), kcg),
        (assemble_input(region, vocab, "ap", seed=2), region),
        (assemble_input(caption, vocab, "mlm", seed=denoise_seed), caption),
    ]
    return vocab, config, model, items


class WatchTape(Tape):
    """A tape that also holds every tensor its ops produce, which its nodes
    do not keep, so a test can look at them after recording or backward."""

    def __init__(self):
        super().__init__()
        self.outputs = []

    def _record(self, output, inputs, bw):
        super()._record(output, inputs, bw)
        self.outputs.append(output)
