"""Per-level token vocabularies over hierarchical grid keys.

Each level maps observed cell keys to dense ids assigned in first-seen order
after the two specials (SOS=0, PAD=1). The vocabulary is closed: tokenizing a
key that was never observed raises instead of falling back to an UNK token.
The flat count (distinct finest-scale cells) is kept for compression
reporting. Building and lookup both work on whole key columns
(`grid.encode_points`); a single point is a one-row call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import INT64_END, GridSpec, encode_point, encode_points, finest_cells

SOS_ID = 0
PAD_ID = 1
NUM_SPECIALS = 2
SPECIALS = {"sos": SOS_ID, "pad": PAD_ID}


class OutOfVocabularyError(KeyError):
    """A grid key at some level was never seen when the vocabulary was built."""

    def __init__(self, level: int, key):
        self.level = level
        self.key = key
        super().__init__(f"unseen key {key!r} at level {level}")


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _is_entry(entry) -> bool:
    """A `[key, id]` pair with an int id; `from_json` checks the key per level."""
    return isinstance(entry, list) and len(entry) == 2 and type(entry[1]) is int


@dataclass(frozen=True)
class TokenizedLocation:
    """Per-level token ids for one point, plus the raw keys they came from."""

    ids: tuple[int, ...]
    raw_keys: tuple


class Vocabulary:
    """Immutable per-level key -> id maps (build once via `build_vocab`)."""

    def __init__(self, spec: GridSpec, level_maps: list[dict], flat_count: int):
        self.spec = spec
        self._maps = level_maps
        self.flat_count = flat_count

    @property
    def levels(self) -> int:
        return self.spec.levels

    def size(self, level: int) -> int:
        """Token count at a level, specials included."""
        return len(self._maps[level - 1]) + NUM_SPECIALS

    def sizes(self) -> list[int]:
        return [self.size(h) for h in range(1, self.levels + 1)]

    def total_size(self) -> int:
        """Sum of observed per-level counts, specials excluded."""
        return sum(len(m) for m in self._maps)

    def ids_for(self, keys: np.ndarray) -> np.ndarray:
        """Token ids [N, levels] of `encode_points` key columns [N, levels + 1].

        Each level looks up its distinct keys in its dict and scatters the ids
        back. A key never seen raises OutOfVocabularyError for the first row
        that holds one, at that row's lowest unseen level.
        """
        ids = np.empty((len(keys), self.levels), dtype=np.int64)
        for h, level_map in enumerate(self._maps, start=1):
            column = _pair_codes(keys[:, :2]) if h == 1 else keys[:, h]
            _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
            distinct = map(tuple, keys[first, :2].tolist()) if h == 1 else keys[first, h].tolist()
            found = np.array([level_map.get(k, -1) for k in distinct], dtype=np.int64)
            ids[:, h - 1] = found[inverse]  # -1 marks an unseen key
        unseen = ids < 0
        if unseen.any():
            row, level = np.argwhere(unseen)[0]  # row-major: the first row, its lowest level
            key = keys[row].tolist()
            raise OutOfVocabularyError(
                int(level) + 1, tuple(key[:2]) if level == 0 else key[level + 1]
            )
        return ids

    def sos_tuple(self) -> tuple[int, ...]:
        return tuple(SOS_ID for _ in range(self.levels))

    def to_json(self) -> dict:
        levels = []
        for level_map in self._maps:
            entries = [[list(k) if isinstance(k, tuple) else k, i] for k, i in level_map.items()]
            levels.append({"specials": dict(SPECIALS), "entries": entries})
        return {
            "scales": list(self.spec.scales),
            "origin": list(self.spec.origin),
            "ref_lat": self.spec.ref_lat,
            "levels": levels,
            "flat_count": self.flat_count,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Vocabulary":
        """Rebuild from `to_json`'s document; a missing or ill-typed key raises
        ValueError naming it.

        `scales`, `origin` and `ref_lat` must make a `GridSpec`, whose rules
        name the key they reject. Each level's `specials` must be `SPECIALS`.
        A level-1 key must be a pair of ints, and a level-h key (h > 1) an int
        offset in `[0, ratios[h-2]**2)`; a violation names the level and the
        field, and 'scales' too where its bound comes from them.
        """
        if not isinstance(doc, dict):
            raise ValueError("a vocabulary must be a JSON object")
        for key in ("scales", "origin", "ref_lat", "levels", "flat_count"):
            if key not in doc:
                raise ValueError(f"missing key '{key}'")
        scales, origin, levels = doc["scales"], doc["origin"], doc["levels"]
        if not (isinstance(scales, list) and scales and all(map(_is_number, scales))):
            raise ValueError(f"'scales' must be a non-empty list of numbers, got {scales!r}")
        if not (isinstance(origin, list) and len(origin) == 2 and all(map(_is_number, origin))):
            raise ValueError(f"'origin' must be two numbers, got {origin!r}")
        if not _is_number(doc["ref_lat"]):
            raise ValueError(f"'ref_lat' must be a number, got {doc['ref_lat']!r}")
        if not (isinstance(levels, list) and len(levels) == len(scales)):
            raise ValueError(
                f"'levels' must be a list of {len(scales)} levels, one per 'scales' entry"
            )
        if type(doc["flat_count"]) is not int or doc["flat_count"] < 0:
            raise ValueError(f"'flat_count' must be a non-negative int, got {doc['flat_count']!r}")
        spec = GridSpec(tuple(scales), tuple(origin), doc["ref_lat"])
        maps = []
        for h, lev in enumerate(levels, start=1):
            entries = lev.get("entries") if isinstance(lev, dict) else None
            if not (isinstance(entries, list) and all(map(_is_entry, entries))):
                raise ValueError(f"level {h} 'entries' must be a list of [key, int id] pairs")
            specials = lev.get("specials")
            if not (specials == SPECIALS and all(type(v) is int for v in specials.values())):
                raise ValueError(f"level {h} 'specials' must be {SPECIALS}, got {specials!r}")
            offsets = spec.ratios[h - 2] ** 2 if h > 1 else 0
            m = {}
            for key, tid in entries:
                if h == 1:
                    if not (isinstance(key, list) and len(key) == 2
                            and all(type(c) is int and abs(c) < INT64_END for c in key)):
                        raise ValueError(
                            f"level 1 'entries' key {key!r} is not a pair of int64 ints"
                        )
                    key = tuple(key)
                elif not (type(key) is int and 0 <= key < offsets):
                    raise ValueError(
                        f"level {h} 'entries' key {key!r} is not an int in [0, {offsets}), "
                        f"the squared ratio of the 'scales' of levels {h - 1} and {h}"
                    )
                m[key] = tid
            expected = set(range(NUM_SPECIALS, NUM_SPECIALS + len(m)))
            if set(m.values()) != expected:
                raise ValueError(f"level {h} ids are not dense after specials")
            maps.append(m)
        return cls(spec, maps, doc["flat_count"])

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(self.to_json()))  # dumps runs the C encoder; dump does not

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read `save`'s file; malformed JSON or a malformed document raises
        ValueError naming the file."""
        with open(path, encoding="utf-8") as f:
            try:
                return cls.from_json(json.load(f))
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None


def _pair_codes(pairs: np.ndarray) -> np.ndarray:
    """Codes of the rows of an int64 array [N, 2], equal exactly where the rows
    are equal. `np.unique(axis=0)` groups the same way but sorts structured
    rows: ≈6 against ≈1 ms over the 19 k level-1 keys of the 200-user corpus."""
    _, i = np.unique(pairs[:, 0], return_inverse=True)
    _, j = np.unique(pairs[:, 1], return_inverse=True)
    return i * len(pairs) + j


def _first_rows(column: np.ndarray) -> np.ndarray:
    """The rows that hold each distinct value's first occurrence, in order."""
    return np.sort(np.unique(column, return_index=True)[1])


def build_vocab(points, spec: GridSpec) -> Vocabulary:
    """Register every key of (x, y) points in projected meters: an [N, 2] array
    or an iterable of pairs.

    Ids follow first-seen order starting at 2 (after SOS=0, PAD=1), so the
    same corpus in the same order reproduces the same ids exactly.
    """
    xy = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64)
    if xy.size == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points must be (x, y) pairs, got an array of shape {xy.shape}")
    x, y = xy[:, 0], xy[:, 1]
    keys = encode_points(x, y, spec)
    first = keys[_first_rows(_pair_codes(keys[:, :2])), :2].tolist()
    maps = [dict(zip(map(tuple, first), range(NUM_SPECIALS, NUM_SPECIALS + len(first))))]
    for h in range(2, spec.levels + 1):
        first = keys[_first_rows(keys[:, h]), h].tolist()
        maps.append(dict(zip(first, range(NUM_SPECIALS, NUM_SPECIALS + len(first)))))
    flat_count = len(np.unique(_pair_codes(finest_cells(x, y, spec))))
    return Vocabulary(spec, maps, flat_count)


def tokenize(x: float, y: float, vocab: Vocabulary) -> TokenizedLocation:
    """Encode one projected point and map each level's key to its token id."""
    keys = encode_point(x, y, vocab.spec)
    ids = vocab.ids_for(np.array([[*keys[0], *keys[1:]]], dtype=np.int64))[0]
    return TokenizedLocation(ids=tuple(ids.tolist()), raw_keys=tuple(keys))
