"""Hybrid sequence layout, vocabulary partition, and tokenizer contracts."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm.errors import AssemblyError, ConfigError
from eeglm.sequences import (
    SEM_SLOT,
    HybridSequence,
    VocabSpec,
    WhitespaceTokenizer,
    assemble_sequence,
)

VOCAB = VocabSpec(v_text=100, n_codes=50)


def test_vocab_partition_never_collides():
    v = VocabSpec(v_text=512, n_codes=8192)
    assert v.eeg_offset == 512
    assert v.bos == 512 + 8192
    assert v.sep == v.bos + 1
    assert v.eos == v.bos + 2
    assert v.v_total == 512 + 8192 + 3
    # text ids, shifted signal ids, and markers occupy disjoint ranges
    assert 512 <= v.eeg_offset < v.bos < v.sep < v.eos < v.v_total


def test_layout_example_three_text_two_sem_four_eeg():
    seq = assemble_sequence([7, 8, 9], 2, [0, 1, 2, 3], VOCAB)
    assert seq.length == 13
    assert seq.spans["text"] == (1, 4)
    assert seq.spans["sem"] == (5, 7)
    assert seq.spans["eeg"] == (8, 12)
    assert seq.ids[0] == VOCAB.bos
    assert seq.ids[4] == VOCAB.sep
    assert seq.ids[7] == VOCAB.sep
    assert seq.ids[12] == VOCAB.eos
    assert (seq.ids[5:7] == SEM_SLOT).all()


def test_eeg_ids_offset_by_text_vocab():
    seq = assemble_sequence([1], 0, [5], VocabSpec(v_text=100, n_codes=50))
    s, e = seq.spans["eeg"]
    assert seq.ids[s:e].tolist() == [105]


def test_round_trip_recovers_ids_and_spans(rng):
    text = rng.integers(0, 100, size=6)
    eeg = rng.integers(0, 50, size=9)
    seq = assemble_sequence(text, 3, eeg, VOCAB)
    decoded_text = seq.ids[slice(*seq.spans["text"])]
    decoded_eeg = seq.ids[slice(*seq.spans["eeg"])] - VOCAB.eeg_offset
    np.testing.assert_array_equal(decoded_text, text)
    np.testing.assert_array_equal(decoded_eeg, eeg)
    rebuilt = assemble_sequence(decoded_text, 3, decoded_eeg, VOCAB)
    np.testing.assert_array_equal(rebuilt.ids, seq.ids)
    assert rebuilt.spans == seq.spans


def test_round_trip_with_instruction_and_answer(rng):
    seq = assemble_sequence(
        [1, 2], 0, [3], VOCAB, instruction_ids=[10, 11], answer_ids=[12]
    )
    # bos, 1, 2, sep, (empty sem), sep, eeg, sep, 10, 11, 12, eos
    assert seq.spans["instr"] == (7, 9)
    assert seq.spans["answer"] == (9, 10)
    assert seq.ids[-1] == VOCAB.eos
    assert seq.ids[slice(*seq.spans["instr"])].tolist() == [10, 11]
    assert seq.ids[slice(*seq.spans["answer"])].tolist() == [12]


def test_instruction_without_answer_rejected():
    with pytest.raises(AssemblyError):
        assemble_sequence([1], 0, [2], VOCAB, instruction_ids=[3])


def test_overlapping_spans_rejected():
    ids = np.array([VOCAB.bos, 1, 2, VOCAB.sep, VOCAB.sep, 105, VOCAB.eos])
    with pytest.raises(AssemblyError, match="overlap"):
        HybridSequence(
            ids=ids,
            spans={"text": (1, 3), "sem": (4, 4), "eeg": (2, 6)},
            vocab=VOCAB,
        )


def test_out_of_range_text_ids_rejected():
    with pytest.raises(AssemblyError):
        assemble_sequence([100], 0, [0], VOCAB)


def test_out_of_range_eeg_ids_rejected():
    with pytest.raises(AssemblyError):
        assemble_sequence([0], 0, [50], VOCAB)


@pytest.mark.parametrize(
    "text, eeg, instr, answer",
    [
        ([-3], [0], None, None),  # negative text id
        ([-1], [0], None, None),  # text id equal to the sem-slot marker
        ([0], [-1], None, None),  # negative signal id
        ([0], [-101], None, None),  # signal id shifted onto the sem-slot marker
        ([0], [0], [100], [1]),  # instruction id past the text vocabulary
        ([0], [0], [-2], [1]),  # negative instruction id
        ([0], [0], [1], [100]),  # answer id past the text vocabulary
        ([0], [0], [1], [-5]),  # negative answer id
    ],
)
def test_ids_outside_their_span_range_rejected(text, eeg, instr, answer):
    with pytest.raises(AssemblyError):
        assemble_sequence(text, 0, eeg, VOCAB, instruction_ids=instr, answer_ids=answer)


def test_slot_markers_only_inside_sem_span():
    ids = np.array([VOCAB.bos, SEM_SLOT, VOCAB.sep, SEM_SLOT, VOCAB.sep, 105, VOCAB.eos])
    with pytest.raises(AssemblyError):
        HybridSequence(
            ids=ids,
            spans={"text": (1, 2), "sem": (3, 4), "eeg": (5, 6)},
            vocab=VOCAB,
        )


def test_decoded_eeg_ids_within_code_range(rng):
    eeg = rng.integers(0, 50, size=30)
    seq = assemble_sequence([], 0, eeg, VOCAB)
    decoded = seq.ids[slice(*seq.spans["eeg"])] - VOCAB.eeg_offset
    assert decoded.min() >= 0 and decoded.max() < 50


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenizer_deterministic_and_in_range():
    tok = WhitespaceTokenizer(vocab_size=512)
    a = tok.encode("Delta power rises in the frontal region")
    b = tok.encode("delta power rises in the frontal region")
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 1 and a.max() < 512


def test_tokenizer_never_emits_reserved_zero(rng):
    tok = WhitespaceTokenizer(vocab_size=7)
    words = " ".join(f"w{i}" for i in range(500))
    ids = tok.encode(words)
    assert (ids >= 1).all() and (ids < 7).all()


def test_tokenizer_label_collision_refused():
    tok = WhitespaceTokenizer(vocab_size=2)  # every word maps to id 1
    with pytest.raises(ConfigError, match="collide"):
        tok.ensure_distinct(("alpha", "beta"))


def test_tokenizer_distinct_labels_mapped():
    tok = WhitespaceTokenizer(vocab_size=512)
    mapping = tok.ensure_distinct(("class-a", "class-b", "class-c"))
    assert len(set(mapping.values())) == 3


def test_tokenizer_empty_label_refused():
    tok = WhitespaceTokenizer(vocab_size=512)
    with pytest.raises(ConfigError, match="no tokens"):
        tok.ensure_distinct(("",))
