"""Montage registry and hierarchy pooling/broadcast contracts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from eeglm.errors import MontageError
from eeglm.topology import Montage, build_hierarchy, builtin_montage, get_montage, load_montage
from oracles import broadcast_level, pool_level


@pytest.fixture(scope="module")
def hier():
    return build_hierarchy(builtin_montage())


def test_builtin_level_sizes(hier):
    sizes = [len(l) for l in hier.levels]
    assert sizes[0] == 1
    assert sizes[1] == 3
    assert sizes[2] == 9
    assert sizes[3] >= 9
    assert sizes[4] == 19
    assert sizes == sorted(sizes)


def test_fz_sits_in_anterior_mid(hier):
    band, zone, _ = hier.montage.region_map["Fz"]
    assert band == "anterior"
    assert zone.endswith("mid")


def test_single_channel_montage_degenerates():
    m = Montage(labels=("X1",), region_map={"X1": ("anterior", "anterior/mid", "anterior/mid/c0")})
    h = build_hierarchy(m)
    assert [len(l) for l in h.levels] == [1, 1, 1, 1, 1]


def test_every_level_partitions_channels(hier):
    c = hier.montage.n_channels
    for level in hier.levels:
        flat = sorted(i for g in level for i in g)
        assert flat == list(range(c))


def test_levels_refine_upward(hier):
    for li in range(4):
        coarse = {i: gi for gi, g in enumerate(hier.levels[li]) for i in g}
        for group in hier.levels[li + 1]:
            assert len({coarse[i] for i in group}) == 1


def test_pool_level5_is_identity(hier):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((19, 4, 3))
    np.testing.assert_array_equal(pool_level(x, hier, 5), x)


def test_pool_level1_is_mean():
    m = Montage(
        labels=("A", "B"),
        region_map={
            "A": ("anterior", "anterior/left", "anterior/left/c0"),
            "B": ("anterior", "anterior/right", "anterior/right/c0"),
        },
    )
    h = build_hierarchy(m)
    x = np.array([[[1.0]], [[3.0]]])
    np.testing.assert_allclose(pool_level(x, h, 1), [[[2.0]]])


def test_pool_matches_bruteforce_grouping(hier):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((19, 5, 4))
    for level in range(1, 6):
        got = pool_level(x, hier, level)
        for gi, members in enumerate(hier.levels[level - 1]):
            expect = np.mean([x[i] for i in members], axis=0)
            np.testing.assert_allclose(got[gi], expect, atol=1e-12)


def test_broadcast_pool_roundtrip_level5(hier):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((19, 3, 2))
    np.testing.assert_allclose(broadcast_level(pool_level(x, hier, 5), hier, 5), x)


def test_broadcast_level1_copies():
    m = Montage(
        labels=("A", "B"),
        region_map={
            "A": ("anterior", "anterior/left", "anterior/left/c0"),
            "B": ("anterior", "anterior/right", "anterior/right/c0"),
        },
    )
    h = build_hierarchy(m)
    out = broadcast_level(np.array([[[2.0]]]), h, 1)
    np.testing.assert_allclose(out, [[[2.0]], [[2.0]]])


def test_pool_of_broadcast_is_identity_all_levels(hier):
    rng = np.random.default_rng(11)
    for level in range(1, 6):
        n = len(hier.levels[level - 1])
        g = rng.standard_normal((n, 4, 3))
        np.testing.assert_allclose(pool_level(broadcast_level(g, hier, level), hier, level), g, atol=1e-12)


def test_pooling_is_mean_preserving(hier):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((19, 2, 6))
    global_mean = x.mean(axis=0)
    for level in range(1, 6):
        pooled = pool_level(x, hier, level)
        sizes = np.array([len(g) for g in hier.levels[level - 1]], dtype=float)
        weighted = np.tensordot(sizes, pooled, axes=(0, 0)) / sizes.sum()
        np.testing.assert_allclose(weighted, global_mean, atol=1e-12)


def test_refinement_composition(hier):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((19, 3, 2))
    for k in range(1, 5):
        coarse = pool_level(x, hier, k)
        fine = pool_level(x, hier, k + 1)
        fine_sizes = np.array([len(g) for g in hier.levels[k]], dtype=float)
        # map each fine group to its parent coarse group and re-average
        parent = []
        coarse_lookup = {i: gi for gi, g in enumerate(hier.levels[k - 1]) for i in g}
        for group in hier.levels[k]:
            parent.append(coarse_lookup[group[0]])
        recomposed = np.zeros_like(coarse)
        weight = np.zeros(len(hier.levels[k - 1]))
        for fi, pi in enumerate(parent):
            recomposed[pi] += fine_sizes[fi] * fine[fi]
            weight[pi] += fine_sizes[fi]
        recomposed /= weight[:, None, None]
        np.testing.assert_allclose(recomposed, coarse, atol=1e-12)


def test_montage_file_roundtrip(tmp_path):
    payload = {
        "labels": ["A1", "A2", "B1"],
        "assignments": {
            "A1": {"band": "anterior", "zone": "left"},
            "A2": {"band": "anterior", "zone": "left"},
            "B1": {"band": "posterior", "zone": "mid"},
        },
    }
    path = tmp_path / "montage.json"
    path.write_text(json.dumps(payload))
    m = load_montage(path)
    h = build_hierarchy(m)
    assert [len(l) for l in h.levels] == [1, 2, 2, 2, 3]
    # A1/A2 pair into one cluster
    assert m.region_map["A1"][2] == m.region_map["A2"][2]


def test_montage_file_missing_assignment():
    m = {"labels": ["A1"], "assignments": {}}
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.json")
        with open(p, "w") as f:
            json.dump(m, f)
        with pytest.raises(MontageError) as exc:
            load_montage(p)
        assert "A1" in str(exc.value)


def test_montage_file_nesting_a_cluster_in_two_zones_is_refused(tmp_path):
    # zone "left" names cluster "x/c0"; zone "left/x" gets the same key by default
    payload = {
        "labels": ["A1", "A2"],
        "assignments": {
            "A1": {"band": "anterior", "zone": "left", "cluster": "x/c0"},
            "A2": {"band": "anterior", "zone": "left/x"},
        },
    }
    path = tmp_path / "montage.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(MontageError, match="level 4 does not refine level 3"):
        build_hierarchy(load_montage(path))


def test_require_accepts_only_the_montage_channels_in_order():
    m = builtin_montage()
    m.require(m.labels)
    m.require(list(m.labels))
    for channels in (m.labels[::-1], m.labels[:-1], m.labels + ("X",)):
        with pytest.raises(MontageError, match="do not match the montage"):
            m.require(channels)


def test_get_montage_default_is_builtin():
    assert get_montage(None).labels == builtin_montage().labels
    assert get_montage("builtin-1020").n_channels == 19


def test_shape_mismatch_rejected(hier):
    with pytest.raises(MontageError):
        pool_level(np.zeros((5, 2, 2)), hier, 2)
    with pytest.raises(MontageError):
        broadcast_level(np.zeros((5, 2, 2)), hier, 2)


def test_level_matrices_are_built_once_and_read_only(hier):
    for level in range(1, 6):
        for get in (hier.mean_matrix, hier.member_matrix):
            mat = get(level)
            assert get(level) is mat
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 2.0
    groups = hier.levels[1]
    assert [tuple(np.flatnonzero(row)) for row in hier.mean_matrix(2)] == list(groups)
    assert np.array_equal(hier.mean_matrix(2).sum(axis=1), np.ones(len(groups)))
    assert np.array_equal(hier.member_matrix(2), (hier.mean_matrix(2) > 0).T)
    with pytest.raises(MontageError, match="1..5"):
        hier.mean_matrix(6)
