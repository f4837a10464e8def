"""A scalar oracle of the hierarchical grid keys and the closed vocabulary.

Written with `math.floor`, Python's `%` (Euclidean for a positive divisor) and
per-point dicts, so the column code in `geoseq.grid` and `geoseq.vocab` is
checked against arithmetic it does not share. Specs and vocabularies enter as
plain data: scales, origin, and a vocabulary's `to_json` document.
"""

import math


class OracleUnseenKey(Exception):
    """A key missing from the oracle's vocabulary: args are (level, key)."""


def oracle_keys(x: float, y: float, scales, origin) -> list:
    """`[(i, j), offset_2, ..., offset_L]` of one point."""
    x0, y0 = origin
    keys = [(math.floor((x - x0) / scales[0]), math.floor((y - y0) / scales[0]))]
    for h in range(1, len(scales)):
        q = round(scales[h - 1] / scales[h])
        ox = math.floor((x - x0) / scales[h]) % q
        oy = math.floor((y - y0) / scales[h]) % q
        keys.append(ox * q + oy)
    return keys


def oracle_finest_cell(x: float, y: float, scales, origin) -> tuple[int, int]:
    return math.floor((x - origin[0]) / scales[-1]), math.floor((y - origin[1]) / scales[-1])


def oracle_vocab(points, scales, origin) -> tuple[list[dict], int]:
    """Per-level key -> id dicts in first-seen order from 2, and the flat count."""
    maps = [{} for _ in scales]
    flat = set()
    for x, y in points:
        for level_map, key in zip(maps, oracle_keys(x, y, scales, origin)):
            if key not in level_map:
                level_map[key] = 2 + len(level_map)
        flat.add(oracle_finest_cell(x, y, scales, origin))
    return maps, len(flat)


def doc_maps(doc: dict) -> list[dict]:
    """A vocabulary document's per-level key -> id dicts (level-1 keys as tuples)."""
    return [{tuple(k) if isinstance(k, list) else k: i for k, i in level["entries"]}
            for level in doc["levels"]]


def oracle_ids(x: float, y: float, doc: dict, maps: list[dict]) -> tuple[int, ...]:
    """One point's ids under `maps`; the first level whose key is missing raises."""
    ids = []
    for level, (level_map, key) in enumerate(
            zip(maps, oracle_keys(x, y, doc["scales"], doc["origin"])), start=1):
        if key not in level_map:
            raise OracleUnseenKey(level, key)
        ids.append(level_map[key])
    return tuple(ids)
