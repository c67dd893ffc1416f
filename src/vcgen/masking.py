"""Seeded mask planning for text-token and region denoising."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vocab import N_RESERVED, Vocabulary

MASK_RATE = 0.15
# Action split among masked text positions.
P_MASK_TOKEN = 0.8
P_RANDOM_TOKEN = 0.1

ACTION_MASK = "mask"
ACTION_RANDOM = "random"
ACTION_KEEP = "keep"


@dataclass
class TextMask:
    position: int
    action: str
    replacement: int | None = None  # regular token id, only for ACTION_RANDOM


@dataclass
class MaskPlan:
    """Masked text positions with actions, plus masked region indices."""

    text_masks: list[TextMask] = field(default_factory=list)
    region_indices: list[int] = field(default_factory=list)


def plan_mlm_mask(positions, vocab: Vocabulary, rng_or_seed) -> MaskPlan:
    """Mask each eligible position independently with p=0.15.

    Among masked positions: 0.8 replace with <mask>, 0.1 replace with a
    uniformly random regular token, 0.1 keep the original token. Callers pass
    only non-special positions. Deterministic given the seed.
    """
    rng = np.random.default_rng(rng_or_seed)  # a Generator comes back as itself
    positions = list(positions)
    plan = MaskPlan()
    if not positions:
        return plan
    picks = rng.random(len(positions)) < MASK_RATE
    for pos, picked in zip(positions, picks):
        if not picked:
            continue
        r = rng.random()
        if r < P_MASK_TOKEN:
            plan.text_masks.append(TextMask(pos, ACTION_MASK))
        elif r < P_MASK_TOKEN + P_RANDOM_TOKEN:
            if len(vocab) > N_RESERVED:
                repl = int(rng.integers(N_RESERVED, len(vocab)))
                plan.text_masks.append(TextMask(pos, ACTION_RANDOM, repl))
            else:
                # Degenerate vocab with no regular tokens: nothing to draw.
                plan.text_masks.append(TextMask(pos, ACTION_KEEP))
        else:
            plan.text_masks.append(TextMask(pos, ACTION_KEEP))
    return plan


def plan_mrm_mask(n_regions: int, rng_or_seed) -> MaskPlan:
    """Mask each region independently with p=0.15 (feature zero-filled later)."""
    if n_regions < 0:
        raise ValueError(f"n_regions must be >= 0, got {n_regions}")
    rng = np.random.default_rng(rng_or_seed)
    plan = MaskPlan()
    if n_regions == 0:
        return plan
    picks = rng.random(n_regions) < MASK_RATE
    plan.region_indices = [i for i in range(n_regions) if picks[i]]
    return plan
