"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <name>: PASS` line on success (use
``pytest tests/test_acceptance.py -v -s`` to watch them). Tolerances are
pinned here and nowhere else.

The finite-difference criterion runs the engine in float64: at float32
resolution a central difference with step 1e-3 carries ~1e-4 absolute noise
(loss rounding / step), which swamps a 1e-3 relative tolerance for
small-magnitude gradients. The backward rules under test are dtype-generic
and shared with the float32 production path, which criterion 1 also ties in
with a direct float32-vs-float64 gradient comparison.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vcgen.checkpoint import load_checkpoint, params_as_tensors, save_checkpoint
from vcgen.config import RunConfig, preset
from vcgen.data import (
    MultimodalExample,
    ScoredExample,
    filter_dataset,
    map_comet_relation,
    save_jsonl,
    score_dataset,
)
from vcgen.generate import GenerationConfig, generate, sample_next_token
from vcgen.losses import LOSS_ORDER, LossWeights, combine_losses, compute_losses
from vcgen.masking import plan_mlm_mask, plan_mrm_mask
from vcgen.metrics import EvalCorpus, EvalEntry, bleu2, cider, novel_metric, unique_metric
from vcgen.model import Model, assemble_input
from vcgen.synthetic import full_corpus_lines, make_rois, make_vcg_dataset
from vcgen.tensor import Tape
from vcgen.train import evaluate_kcg, finetune, pretrain
from vcgen.vocab import EOS_ID, N_RESERVED, TaskType, build_vocab

from helpers import (
    denoise_seed_with_both_masks,
    tiny_config,
    tiny_examples,
    tiny_model_and_items,
    tiny_vocab,
    zero_model,
)
from oracles import assert_grads_close, bleu2_reference, central_difference_grads, cider_reference, nucleus_candidates
import repro_case

FIXTURES = Path(__file__).parent / "fixtures"


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_acceptance_gradient_correctness():
    """d_model=16, 1+1 layers, 2 RoIs, 6 text tokens: every parameter
    gradient of each loss and the combined loss matches central differences
    (step 1e-3) within relative tolerance 1e-3; runtime under a minute."""
    started = time.perf_counter()
    vocab, config, model, items = tiny_model_and_items(dtype=np.float64, seed=0)
    weights = LossWeights()

    def eval_fn():
        terms = compute_losses(model, items, LOSS_ORDER)
        assert set(terms) == set(LOSS_ORDER)
        out = {name: float(terms[name].data) for name in LOSS_ORDER}
        combined = 0.0
        for name in LOSS_ORDER:
            combined += weights.get(name) * out[name]
        out["combined"] = combined
        return out

    numeric = central_difference_grads(eval_fn, model.params, step=1e-3)

    analytic: dict[str, dict[str, np.ndarray]] = {}
    for name in LOSS_ORDER:
        model.zero_grad()
        with Tape() as tape:
            terms = compute_losses(model, items, [name])
        tape.backward(terms[name])
        analytic[name] = {
            pname: p.grad.copy() for pname, p in model.params.items() if p.grad is not None
        }
    model.zero_grad()
    with Tape() as tape:
        terms = compute_losses(model, items, LOSS_ORDER)
        total, _ = combine_losses(terms, weights)
    tape.backward(total)
    analytic["combined"] = {
        pname: p.grad.copy() for pname, p in model.params.items() if p.grad is not None
    }

    # Per-entry relative tolerance 1e-3 with an absolute floor of 1e-4: at
    # the pinned step 1e-3 the central-difference oracle itself carries
    # O(h^2) truncation error up to ~5e-5 on this model (verified to scale
    # exactly as h^2), so entries below the floor are oracle noise, not
    # backward error. Tensor-norm agreement is additionally held to 1e-3.
    for name in list(LOSS_ORDER) + ["combined"]:
        assert_grads_close(analytic[name], numeric[name], rtol=1e-3, atol=1e-4, label=name)
        for pname, num in numeric[name].items():
            ana = analytic[name].get(pname, np.zeros_like(num))
            denom = max(np.linalg.norm(ana), np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(ana - num) / denom <= 1e-3, (name, pname)

    # tie the float32 production path to the verified float64 rules
    model32 = Model.init_random(config, 0, dtype=np.float32)
    model32.zero_grad()
    with Tape() as tape:
        terms32 = compute_losses(model32, items, LOSS_ORDER)
        total32, _ = combine_losses(terms32, LossWeights())
    tape.backward(total32)
    for pname, p32 in model32.params.items():
        g64 = analytic["combined"].get(pname)
        if g64 is None or p32.grad is None:
            continue
        scale = max(1e-3, float(np.abs(g64).max()))
        assert np.allclose(p32.grad, g64, atol=1e-3 * scale, rtol=1e-2), pname

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _report("gradient-correctness")


# ---------------------------------------------------------------------------
# 2. Uniform-model calibration


def test_acceptance_uniform_model_calibration():
    from vcgen.model import RoIFeature

    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = zero_model(config)  # float32 production dtype
    rng = np.random.default_rng(0)

    def uniform_rois(n):
        return [
            RoIFeature(
                feat=rng.normal(size=config.d_visual),
                class_probs=np.full(config.n_classes, 1.0 / config.n_classes),
            )
            for _ in range(n)
        ]

    kcg = MultimodalExample(
        task=TaskType.INTENT, rois=uniform_rois(2), event_text="w1 w2 w3",
        target_text="tgt1 tgt2 tgt3", source_id="k",
    )
    region = MultimodalExample(
        task=TaskType.REGION_CAPTION, rois=uniform_rois(2), event_text=None, target_text="",
        attributes=[(0, 1), (1, 2)], relations=[(0, 1, 0)], source_id="r",
    )
    caption = MultimodalExample(
        task=TaskType.CAPTION, rois=uniform_rois(2), event_text=None,
        target_text="w1 w2 w3 w4 w5 w6", source_id="c",
    )
    seed = denoise_seed_with_both_masks(caption, vocab)
    items = [
        (assemble_input(kcg, vocab, "kcg"), kcg),
        (assemble_input(region, vocab, "ap"), region),
        (assemble_input(caption, vocab, "mlm", seed=seed), caption),
    ]
    terms = compute_losses(model, items, LOSS_ORDER)
    v = config.vocab_size
    assert float(terms["kcg"].data) == pytest.approx(np.log(v), abs=1e-4)
    assert float(terms["mlm"].data) == pytest.approx(np.log(v), abs=1e-4)
    assert float(terms["ap"].data) == pytest.approx(np.log(config.n_attr), abs=1e-4)
    assert float(terms["rp"].data) == pytest.approx(np.log(config.n_rel), abs=1e-4)
    assert float(terms["mrm"].data) == pytest.approx(0.0, abs=1e-6)
    _report("uniform-model-calibration")


# ---------------------------------------------------------------------------
# 3. Overfit oracle


def test_acceptance_overfit_oracle(tmp_path):
    """Eight synthetic generation examples, desk preset with lr 1e-3, at
    most 300 steps: eval-mode mean KCG below 0.1 and greedy decoding
    reproduces every target exactly. Runtime well under five minutes."""
    started = time.perf_counter()
    vocab = build_vocab(full_corpus_lines(), min_freq=1)
    vocab.save(tmp_path / "vocab.txt")
    examples = make_vcg_dataset(8, seed=21)
    assert len({e.target_text for e in examples}) == 8
    save_jsonl(tmp_path / "train.jsonl", examples)

    cfg = preset("desk")
    cfg.optimizer.lr = 1e-3
    cfg.model.d_visual = 16
    cfg.model.n_classes = 10
    cfg.model.n_attr = 8
    cfg.model.n_rel = 6
    cfg.schedule.epochs = 150  # batch holds all 8 examples: 150 steps
    cfg.schedule.batch_size = 8
    cfg.schedule.seed = 7
    cfg.paths.vocab = str(tmp_path / "vocab.txt")
    cfg.paths.train_data = str(tmp_path / "train.jsonl")
    cfg.paths.out_dir = str(tmp_path / "run")
    result = finetune(cfg)
    assert result["steps"] <= 300

    ckpt = load_checkpoint(result["checkpoint"])
    model = Model(ckpt.model_config(), params_as_tensors(ckpt))
    final_loss = evaluate_kcg(model, vocab, examples)
    assert final_loss < 0.1, f"mean KCG {final_loss:.4f} after {result['steps']} steps"

    gen_cfg = GenerationConfig(mode="greedy", max_len=16)
    for example in examples:
        [seq] = generate(model, vocab, example, gen_cfg)
        assert vocab.decode(seq) == example.target_text.lower()

    assert time.perf_counter() - started < 300.0
    _report("overfit-oracle")


# ---------------------------------------------------------------------------
# 4. Masking statistics


def test_acceptance_masking_statistics():
    vocab = tiny_vocab()
    n_tokens = n_masked = 0
    actions = Counter()
    for seed in range(5000):
        plan = plan_mlm_mask(range(20), vocab, seed)
        n_tokens += 20
        n_masked += len(plan.text_masks)
        actions.update(m.action for m in plan.text_masks)
    assert n_tokens >= 100_000
    assert 0.14 <= n_masked / n_tokens <= 0.16
    assert abs(actions["mask"] / n_masked - 0.8) <= 0.02
    assert abs(actions["random"] / n_masked - 0.1) <= 0.02
    assert abs(actions["keep"] / n_masked - 0.1) <= 0.02

    n_regions = n_region_masked = 0
    for seed in range(25_000):
        plan = plan_mrm_mask(4, seed)
        n_regions += 4
        n_region_masked += len(plan.region_indices)
    assert n_regions >= 100_000
    assert 0.14 <= n_region_masked / n_regions <= 0.16

    # special tokens are never masked: corruption stays inside the text block
    _, _, caption = tiny_examples()
    words = vocab.encode(caption.target_text)
    for seed in range(10_000):
        assembled = assemble_input(caption, vocab, "mlm", seed=seed)
        text_lo = assembled.enc_len - 1 - len(words)
        text_hi = assembled.enc_len - 1
        assert all(text_lo <= p < text_hi for p in assembled.mlm_positions)
    _report("masking-statistics")


# ---------------------------------------------------------------------------
# 5. Filter pipeline


def test_acceptance_filter_pipeline():
    # The 18 reserved tokens force V >= 18, so the smallest legal vocab
    # replaces the criterion's V=16; what matters is ln V < 3.5.
    vocab = build_vocab(["walk to the park and drop cup"], min_freq=1)
    assert np.log(len(vocab)) < 3.5
    config = tiny_config(len(vocab))
    model = zero_model(config)

    rng = np.random.default_rng(0)
    candidates = []
    for i, relation in enumerate(["xIntent", "xWant", "xNeed", "xReact", "xEffect"] * 4):
        candidates.append(
            MultimodalExample(
                task=map_comet_relation(relation),
                rois=make_rois(rng, 2, config.d_visual, config.n_classes),
                event_text="walk to the park",
                target_text="drop the cup",
                source_id=f"c{i}",
            )
        )
    scored = score_dataset(model, vocab, candidates)
    for s in scored:
        assert s.avg_ce == pytest.approx(np.log(len(vocab)), abs=1e-4)

    kept, dropped = filter_dataset(scored, threshold=3.5)
    assert len(kept) == len(scored) and not dropped
    kept2, dropped2 = filter_dataset(scored, threshold=2.0)
    assert not kept2 and len(dropped2) == len(scored)

    assert map_comet_relation("xIntent") == TaskType.INTENT
    assert map_comet_relation("xWant") == TaskType.INTENT
    assert map_comet_relation("xNeed") == TaskType.BEFORE
    assert map_comet_relation("xReact") == TaskType.AFTER
    assert map_comet_relation("xEffect") == TaskType.AFTER

    mixed = [ScoredExample(example=candidates[0], avg_ce=v, n_tokens=4) for v in np.random.default_rng(1).uniform(0, 6, 40)]
    previous: set[int] = set()
    for threshold in (1.0, 2.0, 3.0, 3.5, 5.0):
        kept, dropped = filter_dataset(mixed, threshold)
        assert len(kept) + len(dropped) == len(mixed)
        ids = {id(s) for s in kept}
        assert previous <= ids
        previous = ids
    _report("filter-pipeline")


# ---------------------------------------------------------------------------
# 6 & 9. Loss combination and reproducibility (share the canonical runs)


@pytest.fixture(scope="module")
def repro_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    repro_case.build_workspace(root)
    pre_log = repro_case.run_repro_pretrain(root)
    ft_log = repro_case.run_repro_finetune(root)
    return root, pre_log, ft_log


def test_acceptance_loss_combination(repro_runs):
    """Every logged step satisfies total == sum(weight * term) exactly in
    float32 with the default weights (1, 1, 1, 5, 1)."""
    _, pre_log, ft_log = repro_runs
    weights = {"kcg": 1.0, "ap": 1.0, "rp": 1.0, "mlm": 5.0, "mrm": 1.0}
    n_steps = 0
    for log in (pre_log, ft_log):
        for line in Path(log).read_text().splitlines():
            record = json.loads(line)
            if record["kind"] != "step":
                continue
            n_steps += 1
            total = None
            for name in ("kcg", "ap", "rp", "mlm", "mrm"):
                if name in record:
                    term = np.float32(weights[name]) * np.float32(record[name])
                    total = term if total is None else np.float32(total + term)
            assert total is not None
            assert float(total) == record["total"]
    assert n_steps > 0
    _report("loss-combination")


def test_acceptance_reproducibility(repro_runs, tmp_path):
    root, pre_log, ft_log = repro_runs
    assert pre_log.read_bytes() == repro_case.PRETRAIN_FIXTURE.read_bytes()
    assert ft_log.read_bytes() == repro_case.FINETUNE_FIXTURE.read_bytes()

    # checkpoints round-trip byte-identically
    ckpt_path = root / "pretrain_run" / "final.kmbt"
    ckpt = load_checkpoint(ckpt_path)
    resaved = tmp_path / "resaved.kmbt"
    save_checkpoint(resaved, ckpt.config, ckpt.params, global_step=ckpt.global_step)
    assert resaved.read_bytes() == ckpt_path.read_bytes()
    _report("reproducibility")


# ---------------------------------------------------------------------------
# 7. Decoding contracts


def test_acceptance_decoding_contracts():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 3)
    kcg, _, _ = tiny_examples()
    greedy = GenerationConfig(mode="greedy", max_len=10)
    assert generate(model, vocab, kcg, greedy) == generate(model, vocab, kcg, greedy)

    probs = np.array([0.5, 0.3, 0.15, 0.05])
    ids, renormed = nucleus_candidates(probs, 0.9)
    assert ids.tolist() == [0, 1, 2]
    assert np.allclose(renormed, [10 / 19, 6 / 19, 3 / 19])

    logits = np.full(N_RESERVED + 4, 50.0)
    logits[EOS_ID] = -1e9
    logits[N_RESERVED : N_RESERVED + 4] = np.log(probs)
    nucleus = GenerationConfig(mode="nucleus", top_p=0.9)
    rng = np.random.default_rng(20240809)
    counts = Counter(sample_next_token(np.tile(logits, (10_000, 1)), nucleus, [rng] * 10_000).tolist())
    assert N_RESERVED + 3 not in counts  # token 3 of the fixture never appears
    assert set(counts) <= {N_RESERVED, N_RESERVED + 1, N_RESERVED + 2}
    expected = {N_RESERVED: 10 / 19, N_RESERVED + 1: 6 / 19, N_RESERVED + 2: 3 / 19}
    tv = 0.5 * sum(abs(counts[t] / 10_000 - p) for t, p in expected.items())
    assert tv < 0.01
    _report("decoding-contracts")


# ---------------------------------------------------------------------------
# 8. Metric oracles


def test_acceptance_metric_oracles():
    entries = json.loads((FIXTURES / "metric_corpus.json").read_text())
    corpus = EvalCorpus([EvalEntry(e["generated"], e["references"]) for e in entries])
    pairs = [(e["generated"][0], e["references"]) for e in entries]
    assert bleu2(corpus) == pytest.approx(bleu2_reference(pairs), abs=1e-6)
    assert cider(corpus) == pytest.approx(cider_reference(pairs), abs=1e-5)

    rng = np.random.default_rng(4)
    words = ["red", "dog", "runs", "home", "fast", "small", "bird", "sings"]
    seen = set()
    identity = []
    while len(identity) < 20:
        s = " ".join(words[rng.integers(len(words))] for _ in range(6))
        if s not in seen:
            seen.add(s)
            identity.append(EvalEntry([s], [s]))
    identity_corpus = EvalCorpus(identity)
    assert bleu2(identity_corpus) == pytest.approx(100.0, abs=1e-9)
    assert cider(identity_corpus) == pytest.approx(10.0, abs=1e-9)

    assert unique_metric(["a", "a", "b"]) == pytest.approx(100.0 / 3.0)
    assert unique_metric(["a", "b", "c"]) == 100.0
    assert unique_metric(["a", "a"]) == 0.0
    assert novel_metric(["a", "b", "c"], {"a"}) == pytest.approx(200.0 / 3.0)
    assert novel_metric(["a", "b"], set()) == 100.0
    assert novel_metric(["a", "b"], {"a", "b"}) == 0.0
    _report("metric-oracles")


# ---------------------------------------------------------------------------
# 10. Qualitative pretraining trend


def test_acceptance_pretraining_trend(tmp_path):
    """Pretraining on the generation objective strictly lowers the final
    validation loss of an identically seeded and scheduled finetune run."""
    root = tmp_path
    build_vocab(full_corpus_lines(), min_freq=1).save(root / "vocab.txt")
    save_jsonl(root / "kcg.jsonl", make_vcg_dataset(48, seed=100, prefix="kcg"))
    save_jsonl(root / "train.jsonl", make_vcg_dataset(24, seed=200, prefix="tr"))
    save_jsonl(root / "val.jsonl", make_vcg_dataset(24, seed=300, prefix="va"))

    def base_cfg(out: str) -> RunConfig:
        cfg = preset("desk")
        cfg.model.d_model = 32
        cfg.model.n_heads = 2
        cfg.model.d_ffn = 64
        cfg.model.n_enc_layers = 1
        cfg.model.n_dec_layers = 1
        cfg.model.max_positions = 64
        cfg.model.d_visual = 16
        cfg.model.n_classes = 10
        cfg.model.n_attr = 8
        cfg.model.n_rel = 6
        cfg.optimizer.lr = 1e-3
        cfg.schedule.batch_size = 8
        cfg.schedule.seed = 5
        cfg.schedule.epochs = 3
        cfg.paths.vocab = str(root / "vocab.txt")
        cfg.paths.out_dir = str(root / out)
        return cfg

    pre_cfg = base_cfg("pre")
    pre_cfg.tasks = ["kcg"]
    pre_cfg.paths.kcg_data = str(root / "kcg.jsonl")
    pre_result = pretrain(pre_cfg)

    def final_val(out: str, init) -> float:
        cfg = base_cfg(out)
        cfg.paths.train_data = str(root / "train.jsonl")
        cfg.paths.val_data = str(root / "val.jsonl")
        result = finetune(cfg, init_checkpoint=init)
        vals = [
            json.loads(line)["val_kcg"]
            for line in Path(result["log"]).read_text().splitlines()
            if json.loads(line)["kind"] == "val"
        ]
        return vals[-1]

    with_pretraining = final_val("ft_pre", pre_result["checkpoint"])
    from_scratch = final_val("ft_scratch", None)
    assert with_pretraining < from_scratch
    _report("pretraining-trend")
