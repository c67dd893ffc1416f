"""Independent reference implementations used as test oracles.

Deliberately plain and step-by-step; nothing here shares code with the
package paths it checks.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from vcgen.data import pad_batch
from vcgen.losses import loss_ap, loss_kcg, loss_mlm, loss_mrm, loss_rp
from vcgen.model import assemble_input
from vcgen.tensor import (
    NEG_MASK_VALUE,
    Tensor,
    add,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    permute,
    reshape,
    scale,
    scatter_rows,
    softmax,
    transpose,
)
from vcgen.vocab import BOS_ID, EOS_ID, N_RESERVED

from ops import concat


def central_difference_grads(eval_fn, params, step=1e-3):
    """Central finite differences of every parameter entry.

    ``eval_fn()`` returns a dict of named scalar losses evaluated at the
    current parameter values; ``params`` maps names to tensors whose
    ``data`` buffers are perturbed in place. Returns
    {loss_name: {param_name: grad_array}}.
    """
    base = eval_fn()
    grads = {loss: {} for loss in base}
    for pname, p in params.items():
        flat = p.data.reshape(-1)
        acc = {loss: np.zeros(flat.size) for loss in base}
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = eval_fn()
            flat[i] = original - step
            minus = eval_fn()
            flat[i] = original
            for loss in base:
                acc[loss][i] = (plus[loss] - minus[loss]) / (2.0 * step)
        for loss in base:
            grads[loss][pname] = acc[loss].reshape(p.data.shape)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-8, label=""):
    for name, num in numeric.items():
        ana = analytic.get(name)
        if ana is None:
            ana = np.zeros_like(num)
        diff = np.abs(ana - num)
        bound = atol + rtol * np.maximum(np.abs(ana), np.abs(num))
        bad = diff > bound
        assert not bad.any(), (
            f"{label} gradient mismatch for {name}: worst "
            f"|ana-fd|={diff.max():.3e} at {np.unravel_index(diff.argmax(), diff.shape)}, "
            f"ana={ana.flat[diff.argmax()]:.6e} fd={num.flat[diff.argmax()]:.6e}"
        )


# ---------------------------------------------------------------------------
# per-example forward


def per_example_forward(model, assembled, rois):
    """Decoder states [T_dec, d] of one unpadded example, without dropout.

    Built op by op from the parameters, one example at a time, as the model
    ran before it took whole batches: the reference the batched forward is
    checked against. The ops are the package's taped tensor ops, so
    gradients flow through it.
    """
    p = model.params
    cfg = model.config
    heads, d = cfg.n_heads, cfg.d_model
    dk = d // heads

    def linear(x, name):
        return add(matmul(x, p[f"{name}.weight"]), p[f"{name}.bias"])

    def norm(x, name):
        return layer_norm(x, p[f"{name}.gain"], p[f"{name}.bias"])

    def split(x, name):
        return permute(reshape(linear(x, name), (x.shape[0], heads, dk)), (1, 0, 2))

    def attention(x, kv, name, bias):
        q, k, v = split(x, f"{name}.q"), split(kv, f"{name}.k"), split(kv, f"{name}.v")
        scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(dk))
        if bias is not None:
            scores = add(scores, bias)
        ctx = permute(matmul(softmax(scores, axis=-1), v), (1, 0, 2))
        return linear(reshape(ctx, (x.shape[0], d)), f"{name}.o")

    def ffn(x, name):
        return linear(gelu(linear(x, f"{name}.fc1")), f"{name}.fc2")

    enc_len = assembled.enc_len
    tok = gather_rows(p["tok_emb.weight"], assembled.enc_ids)
    pos = gather_rows(p["pos_emb.weight"], np.arange(enc_len))
    slots = assembled.visual_slots
    if len(slots) == 0:
        x = add(tok, pos)
    else:
        feats = np.stack([r.feat for r in rois]).astype(model.dtype)
        feats[assembled.mrm_roi_indices] = 0.0
        keep = np.ones((enc_len, 1), dtype=model.dtype)
        keep[slots] = 0.0
        visual = scatter_rows(linear(Tensor(feats), "vis_proj"), slots, enc_len)
        x = add(add(mul(tok, Tensor(keep)), visual), pos)
    for i in range(cfg.n_enc_layers):
        h = norm(x, f"enc.{i}.ln1")
        x = add(x, attention(h, h, f"enc.{i}.attn", None))
        x = add(x, ffn(norm(x, f"enc.{i}.ln2"), f"enc.{i}.ffn"))
    enc = norm(x, "enc.ln")

    dec_len = assembled.dec_len
    y = add(
        gather_rows(p["tok_emb.weight"], assembled.dec_ids),
        gather_rows(p["pos_emb.weight"], np.arange(dec_len)),
    )
    causal = Tensor(np.triu(np.full((1, dec_len, dec_len), NEG_MASK_VALUE, dtype=model.dtype), k=1))
    for i in range(cfg.n_dec_layers):
        h = norm(y, f"dec.{i}.ln1")
        y = add(y, attention(h, h, f"dec.{i}.self_attn", causal))
        y = add(y, attention(norm(y, f"dec.{i}.ln2"), enc, f"dec.{i}.cross_attn", None))
        y = add(y, ffn(norm(y, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
    return norm(y, "dec.ln")


def per_example_losses(model, items, wanted):
    """The loss terms of ``compute_losses``, from one unpadded forward per
    (assembled, example) item and one gather per item and term."""
    kcg, ap, rp, mlm, mrm = ([], []), ([], []), ([], []), ([], []), ([], [])
    for assembled, example in items:
        hidden = per_example_forward(model, assembled, example.rois)
        slots = assembled.visual_slots
        if "kcg" in wanted and assembled.dec_labels is not None:
            kcg[0].append(hidden)
            kcg[1].extend(assembled.dec_labels)
        if "ap" in wanted and example.attributes:
            ap[0].append(gather_rows(hidden, [slots[r] for r, _ in example.attributes]))
            ap[1].extend(label for _, label in example.attributes)
        if "rp" in wanted and example.relations:
            subj = gather_rows(hidden, [slots[s] for s, _, _ in example.relations])
            obj = gather_rows(hidden, [slots[o] for _, o, _ in example.relations])
            rp[0].append(concat([subj, obj], axis=1))
            rp[1].extend(label for _, _, label in example.relations)
        if "mlm" in wanted and len(assembled.mlm_positions):
            mlm[0].append(gather_rows(hidden, assembled.mlm_positions))
            mlm[1].extend(assembled.mlm_targets)
        if "mrm" in wanted and len(assembled.mrm_positions):
            mrm[0].append(gather_rows(hidden, assembled.mrm_positions))
            mrm[1].extend(example.rois[r].class_probs for r in assembled.mrm_roi_indices)
    terms = {}
    if kcg[0]:
        terms["kcg"] = loss_kcg(model.lm_head(concat(kcg[0])), kcg[1])
    if ap[0]:
        terms["ap"] = loss_ap(model.ap_head(concat(ap[0])), ap[1])
    if rp[0]:
        terms["rp"] = loss_rp(model.rp_head(concat(rp[0])), rp[1])
    if mlm[0]:
        terms["mlm"] = loss_mlm(model.lm_head(concat(mlm[0])), mlm[1])
    if mrm[0]:
        rows = model.mrm_head(concat(mrm[0]))
        terms["mrm"] = loss_mrm(rows, np.stack(mrm[1]).astype(rows.dtype))
    return terms


# ---------------------------------------------------------------------------
# BLEU-2 reference


def per_row_sample_next_token(logits, config, rng):
    """One row's next token, picked the way decoding did it one row at a
    time: mask a float64 copy of the row, then argmax, or softmax, take the
    top-p prefix and draw from ``rng``."""
    allowed = np.concatenate(([EOS_ID], np.arange(N_RESERVED, len(logits))))
    masked = np.full(len(logits), -np.inf)
    masked[allowed] = logits[allowed]
    if config.mode == "greedy":
        return int(np.argmax(masked))
    exp = np.exp(masked - masked.max())
    probs = exp / exp.sum()
    order = np.lexsort((np.arange(len(probs)), -probs))
    cum = np.cumsum(probs[order])
    ids = order[: min(int(np.searchsorted(cum, config.top_p, side="left")) + 1, len(probs))]
    ids = ids[probs[ids] > 0.0]
    return int(rng.choice(ids, p=probs[ids] / probs[ids].sum()))


def per_example_generate(model, vocab, example, config, index, use_event=True):
    """Decode one example alone, sampling one row at a time, as example
    ``index`` of a file: nucleus sample k draws from the stream
    (SeedSequence([seed, index]) state, k).

    The decoder steps are the package's ``start_decoding``/``decode_step``,
    which other tests hold against the uncached decoder; what this checks
    is the grouping, chunking and batched sampling around them."""
    assembled = assemble_input(example, vocab, "gen", use_event=use_event)
    enc_out = model.encoder_states(pad_batch([(assembled, example)]))
    max_len = min(config.max_len, model.config.max_positions - 1)
    if config.mode == "nucleus":
        stream = int(np.random.SeedSequence([config.seed, index]).generate_state(1)[0])
        rngs = [np.random.default_rng([stream, k]) for k in range(config.num_samples)]
    else:
        rngs = [None]
    cache = model.start_decoding(enc_out, [0] * len(rngs), max_len)
    sequences = [[] for _ in rngs]
    live = list(range(len(rngs)))
    ids = [BOS_ID] * len(rngs)
    for _ in range(max_len):
        logits = model.lm_head(model.decode_step(np.asarray(ids), cache)).data[:, 0]
        nxt = [per_row_sample_next_token(row, config, rngs[k]) for k, row in zip(live, logits)]
        kept = [j for j, token in enumerate(nxt) if token != EOS_ID]
        if not kept:
            break
        if len(kept) < len(live):
            cache.keep(kept)
            live = [live[j] for j in kept]
        ids = [nxt[j] for j in kept]
        for k, token in zip(live, ids):
            sequences[k].append(token)
    if config.mode == "greedy":
        return [list(sequences[0]) for _ in range(config.num_samples)]
    return sequences


def bleu2_reference(pairs):
    """Corpus BLEU-2 from the definition, one small step at a time.

    ``pairs`` is a list of (hypothesis string, list of reference strings).
    """
    match_1 = match_2 = 0
    total_1 = total_2 = 0
    cand_len = 0
    ref_len = 0
    for hyp, refs in pairs:
        h = hyp.split()
        cand_len += len(h)
        best = None
        for ref in refs:
            r = len(ref.split())
            key = (abs(r - len(h)), r)
            if best is None or key < best:
                best = key
        ref_len += best[1]

        for n in (1, 2):
            h_grams = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
            cap = {}
            for ref in refs:
                r = ref.split()
                r_grams = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
                for gram, count in r_grams.items():
                    cap[gram] = max(cap.get(gram, 0), count)
            clipped = 0
            for gram, count in h_grams.items():
                clipped += min(count, cap.get(gram, 0))
            if n == 1:
                match_1 += clipped
                total_1 += sum(h_grams.values())
            else:
                match_2 += clipped
                total_2 += sum(h_grams.values())
    if cand_len == 0 or total_1 == 0 or total_2 == 0:
        return 0.0
    p1 = match_1 / total_1
    p2 = match_2 / total_2
    if p1 == 0.0 or p2 == 0.0:
        return 0.0
    if cand_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.sqrt(p1 * p2)


# ---------------------------------------------------------------------------
# CIDEr-D reference


def _grams(words, n):
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def cider_reference(pairs, n_max=4, sigma=6.0):
    """CIDEr-D from the definition: per-n TF-IDF vectors, clipped cosine,
    Gaussian length penalty, averaged over refs and n, times 10."""
    # document frequency of each n-gram over reference sets
    df = Counter()
    for _, refs in pairs:
        union = set()
        for ref in refs:
            words = ref.split()
            for n in range(1, n_max + 1):
                union.update(_grams(words, n))
        for gram in union:
            df[gram] += 1
    n_docs = len(pairs)

    def vector(words, n):
        counts = Counter(_grams(words, n))
        vec = {}
        for gram, count in counts.items():
            idf = math.log(n_docs) - math.log(max(1.0, df[gram]))
            vec[gram] = count * idf
        return vec

    def norm(vec):
        return math.sqrt(sum(v * v for v in vec.values()))

    corpus_score = 0.0
    for hyp, refs in pairs:
        h_words = hyp.split()
        per_n_sum = [0.0] * n_max
        for ref in refs:
            r_words = ref.split()
            penalty = math.exp(-((len(h_words) - len(r_words)) ** 2) / (2.0 * sigma * sigma))
            for n in range(1, n_max + 1):
                hv = vector(h_words, n)
                rv = vector(r_words, n)
                dot = 0.0
                for gram, hw in hv.items():
                    rw = rv.get(gram, 0.0)
                    dot += min(hw, rw) * rw
                hn, rn = norm(hv), norm(rv)
                cos = dot / (hn * rn) if hn > 0 and rn > 0 else 0.0
                per_n_sum[n - 1] += cos * penalty
        example_score = sum(per_n_sum) / n_max / len(refs)
        corpus_score += example_score
    return 10.0 * corpus_score / n_docs


# ---------------------------------------------------------------------------
# AdamW trace


def adamw_trace_reference(x0, grads, lr, beta1, beta2, eps, weight_decay, decay_applies):
    """Scalar AdamW trajectory scripted from the update equations."""
    x = float(x0)
    m = 0.0
    v = 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        if decay_applies and weight_decay != 0.0:
            x = x * (1.0 - lr * weight_decay)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(x)
    return history
