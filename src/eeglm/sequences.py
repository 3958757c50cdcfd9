"""Hybrid token sequences mixing text ids, continuous rows, and signal tokens."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ConfigError
from .hashing import word_hash

SEM_SLOT = -1  # placeholder id at positions carrying continuous embeddings


@dataclass(frozen=True)
class VocabSpec:
    """Partition of the expanded vocabulary: text ids, signal ids, markers."""

    v_text: int
    n_codes: int

    @property
    def eeg_offset(self) -> int:
        return self.v_text

    @property
    def bos(self) -> int:
        return self.v_text + self.n_codes

    @property
    def sep(self) -> int:
        return self.bos + 1

    @property
    def eos(self) -> int:
        return self.bos + 2

    @property
    def v_total(self) -> int:
        return self.v_text + self.n_codes + 3


class WhitespaceTokenizer:
    """Hash words into a fixed text vocabulary; id 0 stays reserved."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def encode(self, text: str) -> np.ndarray:
        ids = [1 + word_hash(w) % (self.vocab_size - 1) for w in text.lower().split()]
        return np.asarray(ids, dtype=np.int64)

    def ensure_distinct(self, labels: tuple[str, ...]) -> dict[str, int]:
        """Map labels to their leading token id, refusing hash collisions."""
        leading: dict[str, int] = {}
        for label in labels:
            ids = self.encode(label)
            if ids.size == 0:
                raise ConfigError(f"label {label!r} encodes to no tokens")
            leading[label] = int(ids[0])
        seen: dict[int, str] = {}
        for label, tok in leading.items():
            if tok in seen:
                raise ConfigError(
                    f"labels {seen[tok]!r} and {label!r} collide on token id {tok}; "
                    "rename a label or enlarge the text vocabulary"
                )
            seen[tok] = label
        return leading


@dataclass(frozen=True)
class HybridSequence:
    """BOS, text span, SEP, sem span, SEP, signal span, [SEP, instr, answer,] EOS."""

    ids: np.ndarray = field(repr=False)
    spans: dict[str, tuple[int, int]]  # half-open [start, end)
    vocab: VocabSpec

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        n = ids.size
        occupied = np.zeros(n, dtype=bool)
        for name, (s, e) in self.spans.items():
            if not (0 <= s <= e <= n):
                raise AssemblyError(f"span {name!r} [{s}, {e}) leaves the sequence (length {n})")
            if occupied[s:e].any():
                raise AssemblyError(f"span {name!r} overlaps another span")
            occupied[s:e] = True
        sem_s, sem_e = self.spans.get("sem", (0, 0))
        slot_positions = set(np.flatnonzero(ids == SEM_SLOT).tolist())
        if slot_positions != set(range(sem_s, sem_e)):
            raise AssemblyError("continuous-slot markers must fill exactly the sem span")
        for name in ("text", "instr", "answer"):
            s, e = self.spans.get(name, (0, 0))
            segment = ids[s:e]
            if segment.size and (segment.min() < 0 or segment.max() >= self.vocab.v_text):
                raise AssemblyError(f"{name} span carries ids outside [0, {self.vocab.v_text})")
        s, e = self.spans.get("eeg", (0, 0))
        segment = ids[s:e]
        lo, hi = self.vocab.eeg_offset, self.vocab.eeg_offset + self.vocab.n_codes
        if segment.size and (segment.min() < lo or segment.max() >= hi):
            raise AssemblyError(f"eeg span carries ids outside [{lo}, {hi})")
        if n < 2 or ids[0] != self.vocab.bos or ids[-1] != self.vocab.eos:
            raise AssemblyError("sequence must start with BOS and end with EOS")

    @property
    def length(self) -> int:
        return int(self.ids.size)


def assemble_sequence(
    text_ids,
    sem_len: int,
    eeg_ids,
    vocab: VocabSpec,
    instruction_ids=None,
    answer_ids=None,
) -> HybridSequence:
    """Lay out one hybrid sequence with `sem_len` continuous slots;
    HybridSequence checks each span's id range."""
    text_ids = np.asarray(text_ids, dtype=np.int64)
    eeg_ids = np.asarray(eeg_ids, dtype=np.int64)

    parts = [np.array([vocab.bos], dtype=np.int64), text_ids]
    spans = {"text": (1, 1 + text_ids.size)}
    cursor = 1 + text_ids.size
    parts.append(np.array([vocab.sep], dtype=np.int64))
    cursor += 1
    spans["sem"] = (cursor, cursor + sem_len)
    parts.append(np.full(sem_len, SEM_SLOT, dtype=np.int64))
    cursor += sem_len
    parts.append(np.array([vocab.sep], dtype=np.int64))
    cursor += 1
    spans["eeg"] = (cursor, cursor + eeg_ids.size)
    parts.append(eeg_ids + vocab.eeg_offset)
    cursor += eeg_ids.size

    if answer_ids is not None:
        instruction_ids = (
            np.asarray(instruction_ids, dtype=np.int64)
            if instruction_ids is not None
            else np.zeros(0, dtype=np.int64)
        )
        answer_ids = np.asarray(answer_ids, dtype=np.int64)
        parts.append(np.array([vocab.sep], dtype=np.int64))
        cursor += 1
        spans["instr"] = (cursor, cursor + instruction_ids.size)
        parts.append(instruction_ids)
        cursor += instruction_ids.size
        spans["answer"] = (cursor, cursor + answer_ids.size)
        parts.append(answer_ids)
        cursor += answer_ids.size
    elif instruction_ids is not None:
        raise AssemblyError("instruction span requires an answer span")

    parts.append(np.array([vocab.eos], dtype=np.int64))
    return HybridSequence(ids=np.concatenate(parts), spans=spans, vocab=vocab)
