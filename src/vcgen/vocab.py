"""Whitespace token vocabulary with the pipeline's reserved special tokens."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError
from .files import output_file

# Reserved tokens always occupy ids 0..17, in this exact order, regardless
# of the corpus the vocabulary was built from.
RESERVED_TOKENS: tuple[str, ...] = (
    "<pad>",
    "<s>",
    "</s>",
    "<unk>",
    "<mask>",
    "<cls>",
    "<img>",
    "</img>",
    "<img_feat>",
    "<event>",
    "</event>",
    "<mlm>",
    "</mlm>",
    "<caption>",
    "<region_caption>",
    "<before>",
    "<after>",
    "<intent>",
)
N_RESERVED = len(RESERVED_TOKENS)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
MASK_ID = 4
CLS_ID = 5
IMG_ID = 6
IMG_END_ID = 7
IMG_FEAT_ID = 8
EVENT_ID = 9
EVENT_END_ID = 10
MLM_ID = 11
MLM_END_ID = 12


class TaskType(str, Enum):
    CAPTION = "caption"
    REGION_CAPTION = "region_caption"
    BEFORE = "before"
    AFTER = "after"
    INTENT = "intent"


# Tasks whose examples carry a decodable target sentence.
GENERATION_TASKS = frozenset(
    {TaskType.CAPTION, TaskType.BEFORE, TaskType.AFTER, TaskType.INTENT}
)

TASK_TOKEN_IDS = {task: RESERVED_TOKENS.index(f"<{task.value}>") for task in TaskType}


def task_token_id(task: TaskType) -> int:
    return TASK_TOKEN_IDS[task]


class Vocabulary:
    """Frozen bidirectional token<->id map; ids are dense 0..V-1."""

    def __init__(self, regular_tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(regular_tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, text: str) -> list[int]:
        """Lowercase, split on whitespace, map unknown words to <unk>.

        No <s>/</s> are added here; sequence assembly owns those.
        """
        return [self.token_to_id.get(w, UNK_ID) for w in text.lower().split()]

    def decode(self, ids: Iterable[int]) -> str:
        """Join tokens with spaces; reserved tokens other than <unk> are dropped."""
        words = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise ValueError(f"token id {i} out of range for vocab of size {len(self)}")
            if i < N_RESERVED and i != UNK_ID:
                continue
            words.append(self.id_to_token[i])
        return " ".join(words)

    def save(self, path: str | Path) -> None:
        """One token per line; line number == id; UTF-8 with LF endings."""
        with output_file(path) as fh:
            fh.write("\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            lines = Path(path).read_bytes().decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise InputError(f"vocab file {path} is not UTF-8: {exc}") from None
        if lines and lines[-1] == "":
            lines = lines[:-1]
        if tuple(lines[:N_RESERVED]) != RESERVED_TOKENS:
            raise InputError(f"vocab file {path} does not start with the reserved tokens")
        if len(set(lines)) != len(lines):
            raise InputError(f"vocab file {path} holds a token twice")
        return cls(lines[N_RESERVED:])


def build_vocab(corpus: Iterable[str], min_freq: int = 1) -> Vocabulary:
    """Count lowercased whitespace words and keep those with count >= min_freq.

    Regular tokens are ordered by (descending count, then lexicographic) and
    assigned ids from 18 upward; the reserved tokens always hold 0..17.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(line.lower().split())
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)
