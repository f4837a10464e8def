"""Vocabulary building, closed-vocabulary tokenization, JSON persistence."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq.grid import GridSpec
from geoseq.vocab import (
    OutOfVocabularyError,
    Vocabulary,
    build_vocab,
    tokenize,
)

from grid_oracle import OracleUnseenKey, doc_maps, oracle_ids, oracle_vocab

SPEC3 = GridSpec((100_000.0, 1_000.0, 100.0))


def test_single_point_corpus_sizes():
    vocab = build_vocab([(50.0, 50.0)], SPEC3)
    assert vocab.sizes() == [3, 3, 3]  # SOS, PAD, one cell per level
    assert vocab.flat_count == 1


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([], SPEC3)


def test_first_seen_ids_start_after_specials():
    vocab = build_vocab([(50.0, 50.0)], SPEC3)
    loc = tokenize(50.0, 50.0, vocab)
    assert loc.ids == (2, 2, 2)
    assert vocab.sos_tuple() == (0, 0, 0)


def test_sibling_cells_share_coarse_ids():
    # same 1 km cell, different 100 m sub-cell: only the finest id moves
    points = [(123_450.0, 7_850.0), (123_450.0, 7_950.0)]
    vocab = build_vocab(points, SPEC3)
    a = tokenize(*points[0], vocab).ids
    b = tokenize(*points[1], vocab).ids
    assert a[:2] == b[:2]
    assert a[2] != b[2]


def test_out_of_vocabulary_names_the_level():
    vocab = build_vocab([(50.0, 50.0)], SPEC3)
    with pytest.raises(OutOfVocabularyError) as err:
        tokenize(5_000_000.0, 50.0, vocab)
    assert err.value.level == 1


def test_structural_offset_caps():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 250_000, size=(5000, 2))
    vocab = build_vocab(map(tuple, pts), SPEC3)
    assert vocab.size(2) - 2 <= 100 * 100
    assert vocab.size(3) - 2 <= 10 * 10


def test_hierarchical_total_beats_flat_on_spread_corpus():
    # 10,000 distinct fine cells across several coarse cells
    rng = np.random.default_rng(2)
    cells = rng.choice(500 * 500, size=12_000, replace=False)
    pts = [(float(c % 500) * 100 + 50, float(c // 500) * 100 + 50) for c in cells]
    vocab = build_vocab(pts, GridSpec((10_000.0, 1_000.0, 100.0)))
    assert vocab.flat_count >= 10_000
    assert vocab.total_size() < vocab.flat_count


def test_json_round_trip_preserves_ids():
    rng = np.random.default_rng(3)
    pts = [tuple(p) for p in rng.uniform(-50_000, 150_000, size=(200, 2))]
    vocab = build_vocab(pts, SPEC3)
    clone = Vocabulary.from_json(vocab.to_json())
    assert clone.sizes() == vocab.sizes()
    assert clone.flat_count == vocab.flat_count
    for x, y in pts[:50]:
        assert tokenize(x, y, clone).ids == tokenize(x, y, vocab).ids


def test_json_document_shape():
    doc = build_vocab([(50.0, 50.0)], SPEC3).to_json()
    assert doc["scales"] == [100_000.0, 1_000.0, 100.0]
    assert doc["origin"] == [0.0, 0.0]
    assert doc["flat_count"] == 1
    assert doc["levels"][0]["specials"] == {"sos": 0, "pad": 1}
    assert doc["levels"][0]["entries"] == [[[0, 0], 2]]
    assert doc["levels"][1]["entries"] == [[0, 2]]


def test_save_load_file(tmp_path):
    vocab = build_vocab([(50.0, 50.0), (99_950.0, 50.0)], SPEC3)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    clone = Vocabulary.load(path)
    assert clone.sizes() == vocab.sizes()
    assert tokenize(99_950.0, 50.0, clone).ids == tokenize(99_950.0, 50.0, vocab).ids


def test_dense_id_validation_on_load():
    doc = build_vocab([(50.0, 50.0)], SPEC3).to_json()
    doc["levels"][0]["entries"][0][1] = 7  # break density
    with pytest.raises(ValueError, match="dense"):
        Vocabulary.from_json(doc)


@pytest.mark.parametrize("level, field, value, message", [
    (0, "specials", {"sos": 1, "pad": 0}, "level 1 'specials'"),
    (1, "specials", None, "level 2 'specials'"),
    (2, "specials", {"sos": False, "pad": True}, "level 3 'specials'"),
    (0, "specials", {"sos": 0, "pad": 1, "unk": 2}, "level 1 'specials'"),
    (0, "key", 0, "level 1 'entries' key 0"),
    (0, "key", [0, 0, 0], "level 1 'entries' key"),
    (0, "key", [0, True], "level 1 'entries' key"),
    (1, "key", [0, 0], "level 2 'entries' key"),
    (1, "key", True, "level 2 'entries' key True"),
    (1, "key", 10**9, r"level 2 'entries' key 1000000000 is not an int in \[0, 10000\)"),
    (2, "key", 100, r"level 3 'entries' key 100 is not an int in \[0, 100\)"),
    (2, "key", -1, "level 3 'entries' key -1"),
], ids=["specials_swapped", "specials_missing", "specials_bool", "specials_extra",
        "level1_int_key", "level1_triple_key", "level1_bool_coordinate", "level2_pair_key",
        "level2_bool_key", "level2_key_huge",
        "level3_key_at_q2", "level3_key_negative"])
def test_specials_and_keys_are_checked_on_load(level, field, value, message):
    doc = build_vocab([(50.0, 50.0)], SPEC3).to_json()
    lev = doc["levels"][level]
    if field == "key":
        lev["entries"][0][0] = value
    elif value is None:
        del lev[field]
    else:
        lev[field] = value
    with pytest.raises(ValueError, match=message):
        Vocabulary.from_json(doc)


def test_last_offset_below_q_squared_loads():
    doc = build_vocab([(50.0, 50.0)], SPEC3).to_json()
    doc["levels"][1]["entries"][0][0] = 100 * 100 - 1
    doc["levels"][2]["entries"][0][0] = 10 * 10 - 1
    assert tokenize(99_950.0, 99_950.0, Vocabulary.from_json(doc)).ids == (2, 2, 2)


_points = st.lists(
    st.tuples(st.floats(-300_000.0, 300_000.0), st.floats(-300_000.0, 300_000.0)),
    min_size=1, max_size=40,
)
_specs = st.sampled_from([SPEC3, GridSpec((1_000.0,)), GridSpec((10_000.0, 100.0), (5.0, -7.0))])


@settings(max_examples=60, deadline=None)
@given(points=_points, spec=_specs)
def test_json_round_trip_property(points, spec):
    doc = build_vocab(points, spec).to_json()
    clone = Vocabulary.from_json(json.loads(json.dumps(doc)))
    assert clone.to_json() == doc
    assert clone.spec == spec


@settings(max_examples=20, deadline=None)
@given(points=_points, key=st.sampled_from(["scales", "origin", "levels", "flat_count"]))
def test_missing_top_level_key_is_named(points, key):
    doc = build_vocab(points, SPEC3).to_json()
    del doc[key]
    with pytest.raises(ValueError, match=f"'{key}'"):
        Vocabulary.from_json(doc)


def _paths(doc, prefix=()):
    """Every (path, is_dict_key) into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for k, v in items:
        out.append((prefix + (k,), isinstance(doc, dict)))
        if isinstance(v, (dict, list)):
            out += _paths(v, prefix + (k,))
    return out


_json_values = st.lists(st.sampled_from([100.0, 1_000.0, 10_000.0, 100_000.0]),
                        min_size=1, max_size=4) | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12_000) | st.integers()
    | st.sampled_from([10**400, -(10**400)]) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
_DELETE = object()


@settings(max_examples=400, deadline=None)
@given(points=_points, spec=_specs, data=st.data())
def test_one_mutated_field_loads_as_written_or_is_named(points, spec, data):
    # a document with one value replaced (or one object key deleted) either
    # loads into a vocabulary whose own document is the mutated one, or raises
    # ValueError naming the field: its key, or "level h" inside level h
    doc = build_vocab(points, spec).to_json()
    path, in_dict = data.draw(st.sampled_from(_paths(doc)))
    value = data.draw(st.just(_DELETE) | _json_values if in_dict else _json_values)
    mutated = copy.deepcopy(doc)
    parent = mutated
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    names = [f"'{path[0]}'"]
    if path[0] == "levels":
        names.append(f"level {path[1] + 1}" if len(path) > 1 else "level ")
    try:
        vocab = Vocabulary.from_json(mutated)
    except ValueError as e:
        assert any(name in str(e) for name in names), (path, value, str(e))
    else:
        assert vocab.to_json() == mutated, (path, value)


# -- the column build and lookup equal the per-point oracle ----------------------

_pool = st.lists(
    st.tuples(st.integers(-3_000, 3_000).map(lambda k: k * 100.0)
              | st.floats(-300_000.0, 300_000.0), st.floats(-300_000.0, 300_000.0)),
    min_size=1, max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(pool=_pool, spec=_specs, data=st.data())
def test_build_vocab_equals_the_first_seen_oracle(pool, spec, data):
    # few distinct points, drawn with repeats, many of them on cell edges
    points = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    maps, flat_count = oracle_vocab(points, spec.scales, spec.origin)
    for given in (points, np.array(points)):
        vocab = build_vocab(given, spec)
        doc = vocab.to_json()
        assert doc_maps(doc) == maps
        assert [list(m) for m in doc_maps(doc)] == [list(m) for m in maps]  # first-seen order
        assert doc["flat_count"] == flat_count


@settings(max_examples=150, deadline=None)
@given(pool=_pool, spec=_specs, data=st.data())
def test_tokenize_equals_the_oracle_or_raises_its_unseen_key(pool, spec, data):
    # a vocabulary of some points; other points tokenize to the oracle's ids or
    # raise at the oracle's lowest unseen level with its key
    seen = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    vocab = build_vocab(seen, spec)
    doc = vocab.to_json()
    maps = doc_maps(doc)
    for x, y in pool:
        try:
            want = oracle_ids(x, y, doc, maps)
        except OracleUnseenKey as e:
            with pytest.raises(OutOfVocabularyError) as err:
                tokenize(x, y, vocab)
            assert (err.value.level, err.value.key) == e.args
        else:
            assert tokenize(x, y, vocab).ids == want


def test_vocabulary_document_rejects_a_level_1_key_past_int64():
    doc = build_vocab([(50.0, 50.0)], SPEC3).to_json()
    doc["levels"][0]["entries"][0][0] = [2**63, 0]
    with pytest.raises(ValueError, match="level 1 'entries' key .* int64"):
        Vocabulary.from_json(doc)
