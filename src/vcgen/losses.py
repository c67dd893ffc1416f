"""The five pretraining losses and their weighted combination.

Every loss is a per-unit mean in nats: tokens for the generation and
masked-token objectives, annotated regions for attribute prediction, region
pairs for relation prediction, masked regions for region modeling. Terms
with zero applicable units in a batch are omitted rather than reported as
zero, so the weighted sum is never silently diluted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .data import PaddedBatch, pad_batch
from .tensor import (
    Tensor,
    add,
    cross_entropy,
    gather_rows,
    kl_divergence,
    log_softmax,
    reshape,
    scale,
)
from .vocab import PAD_ID

if TYPE_CHECKING:  # pragma: no cover
    from .model import Model

LOSS_ORDER = ("kcg", "ap", "rp", "mlm", "mrm")


@dataclass
class LossWeights:
    kcg: float = 1.0
    ap: float = 1.0
    rp: float = 1.0
    mlm: float = 5.0
    mrm: float = 1.0

    def get(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class LossBreakdown:
    """Float snapshot of one step's loss terms; absent terms stay None."""

    kcg: float | None
    ap: float | None
    rp: float | None
    mlm: float | None
    mrm: float | None
    weights: LossWeights
    total: float

    def term_dict(self) -> dict[str, float]:
        out = {}
        for name in LOSS_ORDER:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


# ---------------------------------------------------------------------------
# individual loss terms (logits -> scalar)


def loss_kcg(logits: Tensor, target_ids, ignore_index: int = PAD_ID) -> Tensor:
    """Teacher-forced token cross-entropy; padded positions are ignored."""
    return cross_entropy(logits, target_ids, ignore_index=ignore_index)


def loss_ap(logits: Tensor, attr_labels) -> Tensor:
    """Mean cross-entropy over annotated regions."""
    labels = np.asarray(attr_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("loss_ap needs at least one annotated region")
    return cross_entropy(logits, labels)


def loss_rp(logits: Tensor, rel_labels) -> Tensor:
    """Mean cross-entropy over (subject, object) region pairs."""
    labels = np.asarray(rel_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("loss_rp needs at least one region pair")
    return cross_entropy(logits, labels)


def loss_mlm(logits: Tensor, original_ids) -> Tensor:
    """Mean cross-entropy over masked text positions only."""
    targets = np.asarray(original_ids, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("loss_mlm needs at least one masked position")
    return cross_entropy(logits, targets)


def loss_mrm(logits: Tensor, detector_probs) -> Tensor:
    """Mean KL(p || q) against the detector distributions of masked regions."""
    p = detector_probs if isinstance(detector_probs, Tensor) else Tensor(np.asarray(detector_probs), dtype=logits.dtype)
    if p.shape[0] == 0:
        raise ValueError("loss_mrm needs at least one masked region")
    return kl_divergence(p, log_softmax(logits))


def combine_losses(
    terms: dict[str, Tensor], weights: LossWeights | None = None
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum over present terms, accumulated in the fixed order
    kcg, ap, rp, mlm, mrm (exact in the working dtype)."""
    weights = weights or LossWeights()
    present = [name for name in LOSS_ORDER if name in terms]
    if not present:
        raise ValueError("combine_losses: no loss terms present")
    unknown = set(terms) - set(LOSS_ORDER)
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}")
    total: Tensor | None = None
    for name in present:
        weighted = scale(terms[name], weights.get(name))
        total = weighted if total is None else add(total, weighted)
    breakdown = LossBreakdown(
        kcg=float(terms["kcg"].data) if "kcg" in terms else None,
        ap=float(terms["ap"].data) if "ap" in terms else None,
        rp=float(terms["rp"].data) if "rp" in terms else None,
        mlm=float(terms["mlm"].data) if "mlm" in terms else None,
        mrm=float(terms["mrm"].data) if "mrm" in terms else None,
        weights=weights,
        total=float(total.data),
    )
    return total, breakdown


# ---------------------------------------------------------------------------
# batch orchestration


def compute_losses(
    model: "Model",
    batch: "PaddedBatch | Sequence",
    wanted: Iterable[str],
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> dict[str, Tensor]:
    """Forward the batch once and build the wanted terms.

    ``batch`` is a PaddedBatch or a plain sequence of (assembled, example)
    pairs. Each term gathers its units from every row of the batch with one
    flat row index into the [B * T_dec, d] decoder states, so every term is
    a mean over all of its units, matching the singleton decomposition.
    """
    wanted = set(wanted)
    unknown = wanted - set(LOSS_ORDER)
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}")
    if not isinstance(batch, PaddedBatch):
        batch = pad_batch(batch)

    width = batch.dec_len
    ap_rows, ap_labels = [], []
    rp_rows, rp_labels = [], []
    mlm_rows, mlm_targets = [], []
    mrm_rows, mrm_probs = [], []
    for row, (assembled, example) in enumerate(batch.items):
        offset = row * width
        slots = assembled.visual_slots
        if "ap" in wanted:
            for roi_idx, label in example.attributes:
                ap_rows.append(offset + slots[roi_idx])
                ap_labels.append(label)
        if "rp" in wanted:
            n = len(slots)
            for subj, obj, label in example.relations:
                if not (0 <= subj < n and 0 <= obj < n) or subj == obj:
                    raise ValueError(
                        f"relation pair ({subj}, {obj}) out of range for {n} regions"
                    )
                rp_rows.extend((offset + slots[subj], offset + slots[obj]))
                rp_labels.append(label)
        if "mlm" in wanted:
            mlm_rows.extend(offset + assembled.mlm_positions)
            mlm_targets.extend(assembled.mlm_targets)
        if "mrm" in wanted:
            mrm_rows.extend(offset + assembled.mrm_positions)
            mrm_probs.extend(example.rois[r].class_probs for r in assembled.mrm_roi_indices)

    kcg_rows = kcg_labels = ()
    if "kcg" in wanted and batch.dec_labels is not None:
        labels = batch.dec_labels.reshape(-1)
        kcg_rows = np.flatnonzero(labels != PAD_ID)
        kcg_labels = labels[kcg_rows]

    hidden = model.forward(batch, train=train, rng=rng)
    d = hidden.shape[-1]
    flat = reshape(hidden, (-1, d))
    terms: dict[str, Tensor] = {}
    if len(kcg_rows):
        logits = model.lm_head(gather_rows(flat, kcg_rows))
        terms["kcg"] = loss_kcg(logits, kcg_labels)
    if ap_rows:
        logits = model.ap_head(gather_rows(flat, ap_rows))
        terms["ap"] = loss_ap(logits, ap_labels)
    if rp_rows:
        # subject and object rows interleave, so each pair is one [2d] row
        pairs = reshape(gather_rows(flat, rp_rows), (-1, 2 * d))
        terms["rp"] = loss_rp(model.rp_head(pairs), rp_labels)
    if mlm_rows:
        logits = model.lm_head(gather_rows(flat, mlm_rows))
        terms["mlm"] = loss_mlm(logits, mlm_targets)
    if mrm_rows:
        logits = model.mrm_head(gather_rows(flat, mrm_rows))
        probs = np.stack(mrm_probs).astype(logits.dtype)
        terms["mrm"] = loss_mrm(logits, probs)
    return terms
