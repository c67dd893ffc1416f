"""Canonical fixed-seed training runs backing the reproducibility fixtures.

The acceptance suite rebuilds these runs from scratch and compares the loss
logs byte-for-byte against the committed fixtures. The bits hold only under
the OpenBLAS core (kernel set) the fixtures were made with, which
``repro_blas_core.txt`` names. Regenerate (only when the training math
intentionally changes) with:

    python3 tests/repro_case.py
"""

from __future__ import annotations

import ctypes
import shutil
import sys
from pathlib import Path

from vcgen.config import RunConfig, preset
from vcgen.data import save_jsonl
from vcgen.synthetic import (
    full_corpus_lines,
    make_caption_dataset,
    make_region_dataset,
    make_vcg_dataset,
)
from vcgen.train import finetune, pretrain
from vcgen.vocab import build_vocab

FIXTURES = Path(__file__).parent / "fixtures"
PRETRAIN_FIXTURE = FIXTURES / "repro_pretrain_log.jsonl"
FINETUNE_FIXTURE = FIXTURES / "repro_finetune_log.jsonl"
BLAS_CORE_FIXTURE = FIXTURES / "repro_blas_core.txt"


def blas_core() -> str:
    """The core that the OpenBLAS numpy loaded runs on ("SkylakeX",
    "Haswell", ...), or "unknown". ``OPENBLAS_CORETYPE`` can force one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


def build_workspace(root: Path) -> None:
    build_vocab(full_corpus_lines(), min_freq=1).save(root / "vocab.txt")
    save_jsonl(root / "kcg.jsonl", make_vcg_dataset(64, seed=41, prefix="kcg"))
    save_jsonl(root / "captions.jsonl", make_caption_dataset(16, seed=42))
    save_jsonl(root / "regions.jsonl", make_region_dataset(12, seed=43))
    save_jsonl(root / "vcg_train.jsonl", make_vcg_dataset(16, seed=44, prefix="tr"))
    save_jsonl(root / "vcg_val.jsonl", make_vcg_dataset(8, seed=45, prefix="va"))


def repro_config(root: Path, out: str) -> RunConfig:
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
    cfg.optimizer.lr = 1e-4
    cfg.schedule.epochs = 2
    cfg.schedule.batch_size = 8
    cfg.schedule.seed = 1234
    cfg.paths.vocab = str(root / "vocab.txt")
    cfg.paths.out_dir = str(root / out)
    return cfg


def run_repro_pretrain(root: Path) -> Path:
    cfg = repro_config(root, "pretrain_run")
    cfg.tasks = ["kcg", "ap", "rp", "mlm", "mrm"]
    cfg.paths.kcg_data = str(root / "kcg.jsonl")
    cfg.paths.caption_data = str(root / "captions.jsonl")
    cfg.paths.region_data = str(root / "regions.jsonl")
    result = pretrain(cfg)
    return Path(result["log"])


def run_repro_finetune(root: Path) -> Path:
    cfg = repro_config(root, "finetune_run")
    cfg.model.dropout_rate = 0.3
    cfg.paths.train_data = str(root / "vcg_train.jsonl")
    cfg.paths.val_data = str(root / "vcg_val.jsonl")
    result = finetune(cfg)
    return Path(result["log"])


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_workspace(root)
        pre_log = run_repro_pretrain(root)
        ft_log = run_repro_finetune(root)
        FIXTURES.mkdir(exist_ok=True)
        shutil.copyfile(pre_log, PRETRAIN_FIXTURE)
        shutil.copyfile(ft_log, FINETUNE_FIXTURE)
        BLAS_CORE_FIXTURE.write_text(blas_core() + "\n", encoding="utf-8")
        print(f"wrote {PRETRAIN_FIXTURE}, {FINETUNE_FIXTURE} and {BLAS_CORE_FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
