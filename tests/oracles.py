"""Independent reference implementations used as test oracles.

Deliberately plain and step-by-step; nothing here shares code with the
package paths it checks, apart from ``nucleus_candidates``, a one-row view
of the package's top-p ranking for tests that check it on fixed rows, and
the reference reader, which shares the package's line decoding and the
checks of the fields after the regions, leaving the region checks its own.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

import numpy as np

from vcgen.data import (
    DatasetError,
    MultimodalExample,
    PaddedBatch,
    _annotations,
    _check,
    _json_lines,
    map_comet_relation,
    pad_batch,
)
from vcgen.generate import _top_p_prefix
from vcgen.model import RoIFeature, assemble_input
from vcgen.tensor import (
    ARRAYS,
    NEG_MASK_VALUE,
    Tape,
    Tensor,
    add,
    cross_entropy,
    gather_rows,
    gelu,
    kl_divergence,
    layer_norm,
    log_softmax,
    log_softmax_kernel,
    scatter_rows,
)
from vcgen.vocab import BOS_ID, EOS_ID, GENERATION_TASKS, N_RESERVED, PAD_ID, TaskType

from ops import concat, mul, unfused_attention, unfused_linear, unfused_split_heads


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
# parameter count


def count_params(config) -> int:
    """Closed-form parameter count of a ``ModelConfig``, the formula of
    ``vcgen.model``'s docstring and README's "Parameter count"."""
    d, f = config.d_model, config.d_ffn
    v, p = config.vocab_size, config.max_positions
    attn = 4 * (d * d + d)
    ln = 2 * d
    ffn = d * f + f + f * d + d
    total = v * d + p * d + v + config.d_visual * d + d
    total += config.n_enc_layers * (attn + 2 * ln + ffn) + ln
    total += config.n_dec_layers * (2 * attn + 3 * ln + ffn) + ln
    total += d * d + d + d * config.n_attr + config.n_attr
    total += 2 * d * d + d + d * config.n_rel + config.n_rel
    total += d * d + d + d * config.n_classes + config.n_classes
    return total


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

    def linear(x, name):
        return unfused_linear(x, p[f"{name}.weight"], p[f"{name}.bias"])

    def norm(x, name):
        return layer_norm(x, p[f"{name}.gain"], p[f"{name}.bias"])

    def split(x, name):
        return unfused_split_heads(linear(x, name), cfg.n_heads)

    def attention(x, kv, name, bias):
        q, k, v = split(x, f"{name}.q"), split(kv, f"{name}.k"), split(kv, f"{name}.v")
        return linear(unfused_attention(q, k, v, bias), f"{name}.o")

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
        zeros = Tensor(np.zeros((enc_len, cfg.d_model), dtype=model.dtype))
        visual = scatter_rows(zeros, linear(Tensor(feats), "vis_proj"), slots)
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
    causal = np.triu(np.full((1, dec_len, dec_len), NEG_MASK_VALUE, dtype=model.dtype), k=1)
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
        terms["kcg"] = cross_entropy(model.lm_head(concat(kcg[0])), kcg[1])
    if ap[0]:
        terms["ap"] = cross_entropy(model.mlp(concat(ap[0]), "ap_head"), ap[1])
    if rp[0]:
        terms["rp"] = cross_entropy(model.mlp(concat(rp[0]), "rp_head"), rp[1])
    if mlm[0]:
        terms["mlm"] = cross_entropy(model.lm_head(concat(mlm[0])), mlm[1])
    if mrm[0]:
        rows = model.mlp(concat(mrm[0]), "mrm_head")
        terms["mrm"] = kl_divergence(Tensor(np.stack(mrm[1]).astype(rows.dtype)), log_softmax(rows))
    return terms


# ---------------------------------------------------------------------------
# reading, batching and the mean NLL, one row at a time


def reference_example_from_dict(obj, line_no=None, n_attr=None, n_rel=None, task_override=None):
    """One record, every check run as the line is read: each region's
    fields converted and checked for type, range, sign and sum in turn."""
    _check(isinstance(obj, dict), line_no, "record is not a JSON object")
    if task_override is None:
        raw_task = obj.get("task")
        _check(
            isinstance(raw_task, str) and raw_task in TaskType._value2member_map_,
            line_no,
            f"field 'task' must be one of {[t.value for t in TaskType]}, got {obj.get('task')!r}",
        )
        task = TaskType(raw_task)
    else:
        task = task_override

    rois_raw = obj.get("rois", [])
    _check(isinstance(rois_raw, list), line_no, "field 'rois' must be a list")
    rois = []
    for i, r in enumerate(rois_raw):
        _check(
            isinstance(r, dict) and "feat" in r and "class_probs" in r,
            line_no,
            f"roi {i} must be an object with 'feat' and 'class_probs'",
        )
        arrays = []
        for name in ("feat", "class_probs"):
            values = r[name]
            numbers = isinstance(values, list) and set(map(type, values)) <= {int, float}
            try:
                array = np.asarray(values, dtype=np.float64) if numbers else None
            except OverflowError:  # an int beyond float64
                array = None
            _check(array is not None, line_no, f"roi {i} field {name!r} must be a list of numbers")
            with np.errstate(over="ignore"):
                fits = np.isfinite(array.astype(np.float32)).all()
            if not fits:
                kind = "numbers finite in float32" if np.isfinite(array).all() else "finite numbers"
                _check(False, line_no, f"roi {i} field {name!r} must hold {kind}")
            arrays.append(array)
        feat, class_probs = arrays
        _check((class_probs >= 0).all(), line_no, f"roi {i} field 'class_probs' must hold numbers >= 0")
        total = float(class_probs.sum())
        _check(abs(total - 1.0) <= 1e-4, line_no,
               f"roi {i} field 'class_probs' must sum to 1 within 1e-4, got {total:.6f}")
        rois.append(RoIFeature(feat, class_probs))
    if rois:
        _check(
            all(len(r.feat) == len(rois[0].feat) for r in rois)
            and all(len(r.class_probs) == len(rois[0].class_probs) for r in rois),
            line_no,
            "rois must share feat/class_probs widths",
        )

    target = obj.get("target", "")
    _check(isinstance(target, str), line_no, "field 'target' must be a string")
    if task in GENERATION_TASKS:
        _check(bool(target.strip()), line_no, f"field 'target' must be non-empty for task {task.value!r}")

    event = obj.get("event")
    _check(event is None or isinstance(event, str), line_no, "field 'event' must be a string or null")

    attributes = _annotations(obj, "attributes", ("roi_idx", "attr_label"), len(rois), n_attr, line_no)
    relations = _annotations(obj, "relations", ("subj_idx", "obj_idx", "rel_label"), len(rois), n_rel, line_no)

    source_id = obj.get("source_id", "")
    _check(isinstance(source_id, str), line_no, "field 'source_id' must be a string")
    return MultimodalExample(task=task, rois=rois, event_text=event, target_text=target,
                             attributes=attributes, relations=relations, source_id=source_id)


def _reference_read(path, parse):
    records = []
    try:
        with open(path, "rb") as fh:
            for line_no, obj in _json_lines(fh):
                records.append(parse(obj, line_no))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return records


def reference_load_jsonl(path, n_attr=None, n_rel=None):
    """``data.load_jsonl``, one line fully checked before the next is read."""
    return _reference_read(path, lambda obj, line_no: reference_example_from_dict(obj, line_no, n_attr, n_rel))


def reference_load_candidates(path):
    """``data.load_candidates_jsonl``, one line fully checked before the next is read."""
    def candidate(obj, line_no):
        relation = obj.get("relation") if isinstance(obj, dict) else None
        _check(isinstance(relation, str), line_no, "candidate rows need a string 'relation' field")
        task = map_comet_relation(relation, line_no)
        return line_no, relation, reference_example_from_dict(obj, line_no, task_override=task)

    return _reference_read(path, candidate)


def reference_pad_batch(items):
    """``data.pad_batch``, one item at a time."""
    items = list(items)
    if not items:
        raise ValueError("pad_batch needs at least one item")
    n = len(items)
    enc_len = max(a.enc_len for a, _ in items)
    dec_len = max(a.dec_len for a, _ in items)
    n_rois = max(len(ex.rois) for _, ex in items)
    d_visual = next((len(ex.rois[0].feat) for _, ex in items if ex.rois), 0)
    enc_ids = np.full((n, enc_len), PAD_ID, dtype=np.int64)
    enc_mask = np.zeros((n, enc_len), dtype=bool)
    dec_ids = np.full((n, dec_len), PAD_ID, dtype=np.int64)
    any_labels = any(a.dec_labels is not None for a, _ in items)
    dec_labels = np.full((n, dec_len), PAD_ID, dtype=np.int64) if any_labels else None
    roi_feats = np.zeros((n, n_rois, d_visual))
    roi_index, slot_index = [], []
    for row, (a, ex) in enumerate(items):
        if len(a.visual_slots) != len(ex.rois):
            raise ValueError(f"{len(a.visual_slots)} visual slots but {len(ex.rois)} RoI features")
        enc_ids[row, : a.enc_len] = a.enc_ids
        enc_mask[row, : a.enc_len] = True
        dec_ids[row, : a.dec_len] = a.dec_ids
        if dec_labels is not None and a.dec_labels is not None:
            dec_labels[row, : len(a.dec_labels)] = a.dec_labels
        if ex.rois:
            roi_feats[row, : len(ex.rois)] = np.stack([r.feat for r in ex.rois])
            roi_feats[row, a.mrm_roi_indices] = 0.0
        roi_index.extend(row * n_rois + np.arange(len(ex.rois)))
        slot_index.extend(row * enc_len + a.visual_slots)
    return PaddedBatch(
        items=items, enc_len=enc_len, dec_len=dec_len, enc_ids=enc_ids, enc_mask=enc_mask,
        dec_ids=dec_ids, dec_labels=dec_labels, roi_feats=roi_feats,
        roi_index=np.asarray(roi_index, dtype=np.int64), slot_index=np.asarray(slot_index, dtype=np.int64),
    )


def per_row_mean_nll(logits, labels):
    """``tensor.mean_nll_kernel``'s means, one [T] row of losses summed at a time."""
    logp = log_softmax_kernel(logits)
    nll = -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    n = labels.shape[-1]
    means = [row.sum() / n for row in nll.reshape(-1, n)]
    return np.array(means, dtype=logits.dtype).reshape(labels.shape[:-1])


# ---------------------------------------------------------------------------
# BLEU-2 reference


def per_row_nucleus_prefix(probs, top_p):
    """One row's top-p candidates (descending prob, ties by lowest id,
    zero-probability ids dropped) and their renormalized probs."""
    order = np.lexsort((np.arange(len(probs)), -probs))
    cum = np.cumsum(probs[order])
    ids = order[: min(int(np.searchsorted(cum, top_p, side="left")) + 1, len(probs))]
    ids = ids[probs[ids] > 0.0]
    return ids, probs[ids] / probs[ids].sum()


def nucleus_candidates(probs, top_p):
    """Minimal prefix of the distribution (descending prob, ties by lowest id)
    whose cumulative mass reaches top_p, renormalized: the one-row case of
    the package's ``_top_p_prefix``, the prefix ``sample_next_token`` draws
    from. Zero-probability tokens are never candidates."""
    order, renormed, width = _top_p_prefix(np.asarray(probs, dtype=np.float64)[None], top_p)
    return order[0, : width[0]], renormed[0, : width[0]]


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
    ids, renormed = per_row_nucleus_prefix(exp / exp.sum(), config.top_p)
    return int(rng.choice(ids, p=renormed))


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
    cache = model.start_decoding(enc_out.data, [0] * len(rngs), max_len)
    sequences = [[] for _ in rngs]
    live = list(range(len(rngs)))
    ids = [BOS_ID] * len(rngs)
    for _ in range(max_len):
        logits = model.lm_head(model.decode_step(np.asarray(ids), cache), ARRAYS)[:, 0]
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


def adamw_step_reference(params, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One AdamW step over named tensors as plain whole-array expressions:
    the update ``AdamW.step`` ran before it moved to scratch buffers.
    ``m`` and ``v`` map names to moment arrays, updated in place; ``t`` is
    the 1-based step number."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        mn, vn = m[name], v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        new_data = p.data
        if weight_decay != 0.0 and p.ndim > 1:
            new_data = new_data * (1.0 - lr * weight_decay)
        update = (mn / bc1) / (np.sqrt(vn / bc2) + eps)
        p.data = (new_data - lr * update).astype(p.dtype, copy=False)


# ---------------------------------------------------------------------------
# checkpoint writer


def save_checkpoint_reference(path, run_config, params, global_step=0, opt_state=None):
    """The .kmbt writer as it was when it wrote a ``tobytes`` copy of each
    tensor; the file layout is spelled out in ``vcgen.checkpoint``."""
    header = json.dumps(
        {"run_config": run_config, "global_step": int(global_step)}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    entries = [(name, np.asarray(getattr(v, "data", v), dtype=np.float32)) for name, v in params.items()]
    entries += [(name, np.asarray(v, dtype=np.float32)) for name, v in (opt_state or {}).items()]
    with open(path, "wb") as fh:
        fh.write(b"KMBT")
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(entries)))
        for name, data in entries:
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# tape


class ReferenceTape(Tape):
    """The tape as it was before it freed consumed gradients: every node
    pins its input and output tensors, every gradient lives until
    ``backward`` returns, and every requires_grad tensor it reaches, leaf
    or not, gets ``grad``. Same rules, same accumulation order."""

    def _record(self, output, inputs, bw):
        self._ops.append((inputs, output, bw))

    def backward(self, loss):
        flows = {id(loss): np.ones_like(loss.data)}
        touched = {id(loss): loss}
        for inputs, output, bw in reversed(self._ops):
            out_grad = flows.get(id(output))
            if out_grad is None:
                continue
            for tensor, grad in zip(inputs, bw(out_grad)):
                if grad is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                if key in flows:
                    flows[key] = flows[key] + grad
                else:
                    flows[key] = grad
                    touched[key] = tensor
        produced = {id(output) for _, output, _ in self._ops}
        leaf_buffers = set()
        for key, tensor in touched.items():
            grad = flows[key]
            if key not in produced:
                buffer = id(grad if grad.base is None else grad.base)
                if buffer in leaf_buffers:
                    grad = grad.copy()
                leaf_buffers.add(buffer)
            tensor.grad = grad if tensor.grad is None else tensor.grad + grad
