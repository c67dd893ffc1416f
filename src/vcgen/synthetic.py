"""Synthetic toy corpora: templated events/targets plus random region features.

The event -> target mapping is a fixed function of the sampled entities, so
models can genuinely learn it and pretraining on one sample of the
distribution transfers to another. Run as a module to write a full set of
files for the CLI walkthrough:

    python -m vcgen.synthetic --out-dir data --seed 7
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .data import COMET_RELATION_TASKS, MultimodalExample, example_to_dict, save_jsonl
from .model import RoIFeature
from .vocab import TaskType

PEOPLE = ("man", "woman", "boy", "girl", "chef", "rider")
VERBS = ("holds", "lifts", "paints", "opens", "carries", "washes")
OBJECTS = ("cup", "box", "ball", "book", "lamp", "plate", "kite", "drum")
PLACES = ("park", "kitchen", "market", "beach", "studio", "yard")

VCG_TASKS = (TaskType.BEFORE, TaskType.AFTER, TaskType.INTENT)

DEFAULT_D_VISUAL = 16
DEFAULT_N_CLASSES = 10
DEFAULT_N_ATTR = 8
DEFAULT_N_REL = 6


def _entities(rng: np.random.Generator) -> tuple[str, str, str, str]:
    return (
        PEOPLE[rng.integers(len(PEOPLE))],
        VERBS[rng.integers(len(VERBS))],
        OBJECTS[rng.integers(len(OBJECTS))],
        PLACES[rng.integers(len(PLACES))],
    )


def make_event(person: str, verb: str, obj: str, place: str) -> str:
    return f"the {person} {verb} the {obj} at the {place}"


def make_target(task: TaskType, person: str, verb: str, obj: str, place: str) -> str:
    if task == TaskType.INTENT:
        return f"to {verb} the {obj}"
    if task == TaskType.BEFORE:
        return f"walk to the {place} with the {obj}"
    if task == TaskType.AFTER:
        return f"leave the {place} and drop the {obj}"
    return f"a {person} {verb} the {obj} near the {place}"  # caption


def make_rois(
    rng: np.random.Generator,
    n: int,
    d_visual: int = DEFAULT_D_VISUAL,
    n_classes: int = DEFAULT_N_CLASSES,
) -> list[RoIFeature]:
    return [
        RoIFeature(
            feat=rng.normal(0.0, 1.0, size=d_visual),
            class_probs=rng.dirichlet(np.ones(n_classes)),
        )
        for _ in range(n)
    ]


def make_vcg_dataset(
    n: int,
    seed=0,
    d_visual: int = DEFAULT_D_VISUAL,
    n_classes: int = DEFAULT_N_CLASSES,
    with_event: bool = True,
    prefix: str = "vcg",
) -> list[MultimodalExample]:
    """Generation-task examples cycling before/after/intent."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        person, verb, obj, place = _entities(rng)
        task = VCG_TASKS[i % len(VCG_TASKS)]
        out.append(
            MultimodalExample(
                task=task,
                rois=make_rois(rng, int(rng.integers(1, 4)), d_visual, n_classes),
                event_text=make_event(person, verb, obj, place) if with_event else None,
                target_text=make_target(task, person, verb, obj, place),
                source_id=f"{prefix}-{i:05d}",
            )
        )
    return out


def make_caption_dataset(
    n: int,
    seed=0,
    d_visual: int = DEFAULT_D_VISUAL,
    n_classes: int = DEFAULT_N_CLASSES,
    prefix: str = "cap",
) -> list[MultimodalExample]:
    """Caption examples for the denoising objectives (no event text)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        person, verb, obj, place = _entities(rng)
        out.append(
            MultimodalExample(
                task=TaskType.CAPTION,
                rois=make_rois(rng, int(rng.integers(1, 4)), d_visual, n_classes),
                event_text=None,
                target_text=make_target(TaskType.CAPTION, person, verb, obj, place),
                source_id=f"{prefix}-{i:05d}",
            )
        )
    return out


def make_region_dataset(
    n: int,
    seed=0,
    d_visual: int = DEFAULT_D_VISUAL,
    n_classes: int = DEFAULT_N_CLASSES,
    n_attr: int = DEFAULT_N_ATTR,
    n_rel: int = DEFAULT_N_REL,
    prefix: str = "reg",
) -> list[MultimodalExample]:
    """Region-annotation examples for attribute/relation prediction."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        n_rois = int(rng.integers(2, 5))
        rois = make_rois(rng, n_rois, d_visual, n_classes)
        attributes = [(j, int(rng.integers(n_attr))) for j in range(n_rois) if rng.random() < 0.7]
        relations = []
        for _ in range(int(rng.integers(1, 3))):
            subj, obj = rng.choice(n_rois, size=2, replace=False)
            relations.append((int(subj), int(obj), int(rng.integers(n_rel))))
        out.append(
            MultimodalExample(
                task=TaskType.REGION_CAPTION,
                rois=rois,
                event_text=None,
                target_text="",
                attributes=attributes,
                relations=relations,
                source_id=f"{prefix}-{i:05d}",
            )
        )
    return out


def make_candidate_rows(
    n: int,
    seed=0,
    d_visual: int = DEFAULT_D_VISUAL,
    n_classes: int = DEFAULT_N_CLASSES,
    nonsense_ratio: float = 0.5,
    prefix: str = "cand",
) -> list[dict]:
    """Filter candidates: template targets mixed with shuffled-word nonsense."""
    rng = np.random.default_rng(seed)
    relations = list(COMET_RELATION_TASKS)
    rows = []
    for i in range(n):
        person, verb, obj, place = _entities(rng)
        relation = relations[i % len(relations)]
        task = COMET_RELATION_TASKS[relation]
        target = make_target(task, person, verb, obj, place)
        if rng.random() < nonsense_ratio:
            words = target.split()
            rng.shuffle(words)
            target = " ".join(words)
        example = MultimodalExample(
            task=task,
            rois=make_rois(rng, int(rng.integers(1, 4)), d_visual, n_classes),
            event_text=make_event(person, verb, obj, place),
            target_text=target,
            source_id=f"{prefix}-{i:05d}",
        )
        row = example_to_dict(example)
        del row["task"]
        row["relation"] = relation
        rows.append(row)
    return rows


def full_corpus_lines() -> list[str]:
    """Every sentence the templates can emit; gives a corpus-independent vocab."""
    lines = []
    for person in PEOPLE:
        for verb in VERBS:
            for obj in OBJECTS:
                for place in PLACES:
                    lines.append(make_event(person, verb, obj, place))
                    for task in TaskType:
                        if task != TaskType.REGION_CAPTION:
                            lines.append(make_target(task, person, verb, obj, place))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write synthetic toy datasets")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=64)
    parser.add_argument("--n-val", type=int, default=32)
    parser.add_argument("--n-pretrain", type=int, default=64)
    parser.add_argument("--n-candidates", type=int, default=50)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = make_vcg_dataset(args.n_train, seed=[args.seed, 0], prefix="train")
    val = make_vcg_dataset(args.n_val, seed=[args.seed, 1], prefix="val")
    kcg = make_vcg_dataset(args.n_pretrain, seed=[args.seed, 2], prefix="kcg")
    captions = make_caption_dataset(args.n_pretrain, seed=[args.seed, 3])
    regions = make_region_dataset(args.n_pretrain, seed=[args.seed, 4])
    candidates = make_candidate_rows(args.n_candidates, seed=[args.seed, 5])

    save_jsonl(out / "vcg_train.jsonl", train)
    save_jsonl(out / "vcg_val.jsonl", val)
    save_jsonl(out / "kcg_pretrain.jsonl", kcg)
    save_jsonl(out / "captions.jsonl", captions)
    save_jsonl(out / "regions.jsonl", regions)
    with (out / "candidates.jsonl").open("w", encoding="utf-8") as fh:
        import json

        for row in candidates:
            fh.write(json.dumps(row, allow_nan=False) + "\n")
    (out / "corpus.txt").write_text("\n".join(full_corpus_lines()) + "\n", encoding="utf-8")
    print(f"wrote synthetic datasets to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
