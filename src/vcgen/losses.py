"""The five pretraining losses and their weighted combination.

Every loss is a per-unit mean in nats: tokens for the generation and
masked-token objectives, annotated regions for attribute prediction, region
pairs for relation prediction, masked regions for region modeling. Terms
with zero applicable units in a batch are omitted rather than reported as
zero, so the weighted sum is never silently diluted.

``compute_losses`` builds each term straight from the tensor ops, over rows
``h`` gathered from the decoder states:

- kcg: ``cross_entropy(lm_head(h), next_token)`` at non-pad positions;
- ap: ``cross_entropy(mlp(h, "ap_head"), attribute)`` at annotated regions;
- rp: ``cross_entropy(mlp([h_subj, h_obj], "rp_head"), relation)`` per pair;
- mlm: ``cross_entropy(lm_head(h), original_token)`` at masked text;
- mrm: ``kl_divergence(p, log_softmax(mlp(h, "mrm_head")))`` at masked
  regions, ``p`` the detector's class distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .data import PaddedBatch, pad_batch
from .tensor import (
    TAPE,
    Ops,
    Tensor,
    add,
    cross_entropy,
    dropout,
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


def combine_losses(
    terms: dict[str, Tensor], weights: LossWeights | None = None
) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum over present terms, accumulated in the fixed order
    kcg, ap, rp, mlm, mrm (exact in the working dtype), and the figures a
    step logs: each present term in that order, then "total"."""
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
    logged = {name: float(terms[name].data) for name in present}
    logged["total"] = float(total.data)
    return total, logged


# ---------------------------------------------------------------------------
# batch orchestration


def training_ops(rate: float, rng: np.random.Generator) -> Ops:
    """``TAPE`` whose ``dropout`` draws inverted-scaling masks at ``rate``
    from ``rng``, one per call, in the forward's order."""
    return TAPE._replace(dropout=lambda x: dropout(x, rate, rng))


def compute_losses(
    model: "Model",
    batch: "PaddedBatch | Sequence",
    wanted: Iterable[str],
    rng: np.random.Generator | None = None,
) -> dict[str, Tensor]:
    """Forward the batch once on the tape and build the wanted terms; with
    ``rng`` the forward draws dropout at the model's ``dropout_rate``
    (``training_ops``), without it it draws none.

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

    hidden = model.forward(batch, TAPE if rng is None else training_ops(model.config.dropout_rate, rng))
    d = hidden.shape[-1]
    flat = reshape(hidden, (-1, d))
    terms: dict[str, Tensor] = {}
    if len(kcg_rows):
        terms["kcg"] = cross_entropy(model.lm_head(gather_rows(flat, kcg_rows)), kcg_labels)
    if ap_rows:
        terms["ap"] = cross_entropy(model.mlp(gather_rows(flat, ap_rows), "ap_head"), ap_labels)
    if rp_rows:
        # subject and object rows interleave, so each pair is one [2d] row
        pairs = reshape(gather_rows(flat, rp_rows), (-1, 2 * d))
        terms["rp"] = cross_entropy(model.mlp(pairs, "rp_head"), rp_labels)
    if mlm_rows:
        terms["mlm"] = cross_entropy(model.lm_head(gather_rows(flat, mlm_rows)), mlm_targets)
    if mrm_rows:
        logits = model.mlp(gather_rows(flat, mrm_rows), "mrm_head")
        probs = Tensor(np.stack(mrm_probs).astype(logits.dtype))
        terms["mrm"] = kl_divergence(probs, log_softmax(logits))
    return terms
