"""Electrode montages and the 5-level brain topology hierarchy.

Level 1 treats the whole head as one group, level 2 splits it into three
front-to-back bands, level 3 splits each band into left/mid/right zones,
level 4 clusters adjacent electrodes inside each zone, and level 5 keeps
every channel as its own singleton. Pooling is an unweighted mean within
each group; broadcasting copies a group feature back to its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MontageError, read_json_object

BANDS = ("anterior", "central", "posterior")
SIDES = ("left", "mid", "right")

# Standard 19-channel 10-20 montage. Level-4 clusters pair adjacent
# electrodes within each zone in `labels` order (front-to-back rows).
_BUILTIN_1020 = {
    "labels": [
        "Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8",
        "T3", "C3", "Cz", "C4", "T4",
        "T5", "P3", "Pz", "P4", "T6",
        "O1", "O2",
    ],
    "assignments": {
        "Fp1": {"band": "anterior", "zone": "left"},
        "F7":  {"band": "anterior", "zone": "left"},
        "F3":  {"band": "anterior", "zone": "left"},
        "Fz":  {"band": "anterior", "zone": "mid"},
        "Fp2": {"band": "anterior", "zone": "right"},
        "F4":  {"band": "anterior", "zone": "right"},
        "F8":  {"band": "anterior", "zone": "right"},
        "T3":  {"band": "central", "zone": "left"},
        "C3":  {"band": "central", "zone": "left"},
        "P3":  {"band": "central", "zone": "left"},
        "Cz":  {"band": "central", "zone": "mid"},
        "Pz":  {"band": "central", "zone": "mid"},
        "C4":  {"band": "central", "zone": "right"},
        "T4":  {"band": "central", "zone": "right"},
        "P4":  {"band": "central", "zone": "right"},
        "T5":  {"band": "posterior", "zone": "left"},
        "O1":  {"band": "posterior", "zone": "mid"},
        "O2":  {"band": "posterior", "zone": "mid"},
        "T6":  {"band": "posterior", "zone": "right"},
    },
}


@dataclass(frozen=True)
class Montage:
    """Ordered electrode labels plus per-electrode (band, zone, cluster) keys."""

    labels: tuple[str, ...]
    # per-label: (band, zone, cluster) string keys; zone/cluster keys are
    # globally unique because they embed their parent key.
    region_map: dict[str, tuple[str, str, str]]

    def __post_init__(self):
        for lab in self.labels:
            if lab not in self.region_map:
                raise MontageError(f"electrode {lab!r} has no region assignment")

    @property
    def n_channels(self) -> int:
        return len(self.labels)

    def require(self, channels: tuple[str, ...]) -> None:
        """Refuse a recording whose channels are not this montage's, in order."""
        if tuple(channels) != self.labels:
            raise MontageError(
                f"recording channels {list(channels)[:4]}... do not match the montage "
                f"({self.n_channels} channels); configure the montage the recording "
                f"was made with"
            )


@dataclass(frozen=True)
class BthHierarchy:
    """Five nested partitions of the channel set, coarse to fine."""

    montage: Montage
    # levels[i] is a tuple of groups; each group is a tuple of channel indices
    levels: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    group_names: tuple[tuple[str, ...], ...] = field(repr=False)

    def mean_matrix(self, level: int) -> np.ndarray:
        """Row-stochastic (n_level x C) matrix averaging member channels (read-only)."""
        return self._matrices[self._index(level)][0]

    def member_matrix(self, level: int) -> np.ndarray:
        """(C x n_level) indicator matrix mapping group rows back to channels (read-only)."""
        return self._matrices[self._index(level)][1]

    @cached_property
    def _matrices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each level's (mean, member) pair, built once and shared by every caller."""
        pairs = []
        for groups in self.levels:
            member = np.zeros((self.montage.n_channels, len(groups)))
            for gi, idx in enumerate(groups):
                member[list(idx), gi] = 1.0
            mean = np.ascontiguousarray(member.T / member.sum(axis=0)[:, None])
            mean.setflags(write=False)
            member.setflags(write=False)
            pairs.append((mean, member))
        return tuple(pairs)

    def _index(self, level: int) -> int:
        if not 1 <= level <= 5:
            raise MontageError(f"hierarchy level must be 1..5, got {level}")
        return level - 1


def build_hierarchy(montage: Montage) -> BthHierarchy:
    """Derive the five nested partitions from a montage's region keys."""
    c = montage.n_channels
    if c == 0:
        raise MontageError("montage has no electrodes")

    def group_by(key_fn) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
        order: list[str] = []
        groups: dict[str, list[int]] = {}
        for idx, lab in enumerate(montage.labels):
            key = key_fn(lab)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(idx)
        return tuple(tuple(groups[k]) for k in order), tuple(order)

    level1 = ((tuple(range(c)),), ("whole",))
    level2 = group_by(lambda lab: montage.region_map[lab][0])
    level3 = group_by(lambda lab: montage.region_map[lab][1])
    level4 = group_by(lambda lab: montage.region_map[lab][2])
    level5 = (tuple((i,) for i in range(c)), tuple(montage.labels))

    levels = (level1[0], level2[0], level3[0], level4[0], level5[0])
    names = (level1[1], level2[1], level3[1], level4[1], level5[1])

    # grouping every channel once makes each level a partition; a montage
    # file can still nest a cluster in two zones, so check each finer group
    # sits inside exactly one coarser group
    for li in range(4):
        coarse = {i: gi for gi, g in enumerate(levels[li]) for i in g}
        for group in levels[li + 1]:
            parents = {coarse[i] for i in group}
            if len(parents) != 1:
                raise MontageError(f"level {li + 2} does not refine level {li + 1}")

    return BthHierarchy(montage=montage, levels=levels, group_names=names)


def _pair_clusters(zone_key: str, members_in_order: list[str]) -> dict[str, str]:
    """Assign cluster keys by pairing adjacent electrodes within a zone."""
    out: dict[str, str] = {}
    for start in range(0, len(members_in_order), 2):
        pair = members_in_order[start : start + 2]
        key = f"{zone_key}/c{start // 2}"
        for lab in pair:
            out[lab] = key
    return out


def _expand_assignments(
    labels: list[str], raw: dict[str, dict[str, str]]
) -> dict[str, tuple[str, str, str]]:
    """Normalise user assignments into nested (band, zone, cluster) keys.

    `zone` may be a bare side ("left") or any zone name; `cluster` is
    optional and defaults to adjacent-pair grouping inside the zone in
    label order.
    """
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise MontageError(f"duplicate electrode labels: {dupes}")
    region: dict[str, tuple[str, str, str]] = {}
    zone_members: dict[str, list[str]] = {}
    explicit_cluster: dict[str, str] = {}
    for lab in labels:
        if lab not in raw:
            raise MontageError(f"unknown electrode label {lab!r}: no assignment present")
        entry = raw[lab]
        if not isinstance(entry, dict) or "band" not in entry or "zone" not in entry:
            raise MontageError(f"assignment of electrode {lab!r} needs 'band' and 'zone'")
        band = str(entry["band"]).lower()
        if band not in BANDS:
            raise MontageError(f"electrode {lab!r} has unknown band {entry['band']!r}")
        zone = f"{band}/{str(entry['zone']).lower()}"
        zone_members.setdefault(zone, []).append(lab)
        if "cluster" in entry:
            explicit_cluster[lab] = f"{zone}/{entry['cluster']}"
        region[lab] = (band, zone, "")
    for zone, members in zone_members.items():
        defaults = _pair_clusters(zone, [m for m in members if m not in explicit_cluster])
        for lab in members:
            cluster = explicit_cluster.get(lab, defaults.get(lab))
            band, zone_key, _ = region[lab]
            region[lab] = (band, zone_key, cluster)
    return region


def builtin_montage() -> Montage:
    """The standard 19-channel 10-20 montage shipped with the package."""
    labels = list(_BUILTIN_1020["labels"])
    region = _expand_assignments(labels, _BUILTIN_1020["assignments"])
    return Montage(labels=tuple(labels), region_map=region)


def load_montage(path: str | Path) -> Montage:
    """Load a montage from a JSON file with `labels` and `assignments`."""
    payload = read_json_object(path, MontageError, "montage file")
    if "labels" not in payload or "assignments" not in payload:
        raise MontageError(f"montage file {path} needs 'labels' and 'assignments'")
    if not isinstance(payload["labels"], list) or not isinstance(payload["assignments"], dict):
        raise MontageError(f"montage file {path}: 'labels' must be a list, 'assignments' an object")
    labels = [str(x) for x in payload["labels"]]
    try:
        region = _expand_assignments(labels, payload["assignments"])
    except MontageError as e:
        raise MontageError(f"montage file {path}: {e}") from None
    return Montage(labels=tuple(labels), region_map=region)


def synthetic_montage(n_channels: int) -> Montage:
    """Deterministic montage for synthetic data: X0..X{C-1} round-robin over bands."""
    if n_channels < 1:
        raise MontageError(f"synthetic montage needs >= 1 channel, got {n_channels}")
    labels = tuple(f"X{i}" for i in range(n_channels))
    region = {}
    for i, lab in enumerate(labels):
        band = BANDS[i % 3] if n_channels >= 3 else BANDS[0]
        zone = f"{band}/mid"
        region[lab] = (band, zone, f"{zone}/c{i}")
    return Montage(labels=labels, region_map=region)


def get_montage(name_or_path: str | None) -> Montage:
    """Resolve a montage reference: None/'builtin-1020', 'synthetic-<C>',
    or a JSON file path."""
    if name_or_path in (None, "", "builtin-1020"):
        return builtin_montage()
    if isinstance(name_or_path, str) and name_or_path.startswith("synthetic-"):
        suffix = name_or_path[len("synthetic-"):]
        if not suffix.isdigit():
            raise MontageError(f"bad synthetic montage spec {name_or_path!r}")
        return synthetic_montage(int(suffix))
    return load_montage(name_or_path)
