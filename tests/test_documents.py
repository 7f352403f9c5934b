"""Document round trips, canonical emission, and builtin resolution."""

import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import MalformedDocumentError, cyclic_group_ring, fibonacci, su2_level
from fusionrings.documents import (
    builtin_ring,
    emit_document,
    load_document,
    module_from_document,
    module_to_document,
    parse_document,
    resolve_ring,
    ring_from_document,
    ring_to_document,
    write_document,
    write_text,
)
from fusionrings.modules import quotient_module, standard_module
from fusionrings.rings import frobenius_perron_dims, verify_based_ring


def test_ring_round_trip_bytes():
    doc = ring_to_document(fibonacci())
    text = emit_document(doc)
    again = parse_document(text)
    assert again == doc
    assert emit_document(again) == text
    assert text.endswith("\n") and "\r" not in text


def test_ring_document_reconstructs_table():
    ring = su2_level(3)
    loaded = ring_from_document(ring_to_document(ring))
    assert loaded.basis == ring.basis
    for a in ring.basis:
        for b in ring.basis:
            assert loaded.product(a, b) == ring.product(a, b)
    assert verify_based_ring(loaded).ok


def test_round_trip_su2_dims_match_closed_form():
    # the document keeps no dimensions for numeric rings, so they are
    # recomputed from the products
    for level in range(1, 41):
        loaded = ring_from_document(ring_to_document(su2_level(level)))
        dims = frobenius_perron_dims(loaded)
        q = math.pi / (level + 2)
        for label in loaded.basis:
            exact = math.sin((int(label) + 1) * q) / math.sin(q)
            assert dims(label) == pytest.approx(exact, rel=1e-13)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 8))
def test_cyclic_ring_documents_round_trip(n):
    ring = cyclic_group_ring(n)
    doc = ring_to_document(ring)
    assert parse_document(emit_document(doc)) == doc
    loaded = ring_from_document(doc)
    assert loaded.unit == ring.unit
    assert loaded.basis == ring.basis


def test_integer_dims_serialized():
    doc = ring_to_document(cyclic_group_ring(3))
    assert all(entry["dim"] == 1 for entry in doc["basis"])
    fib_doc = ring_to_document(fibonacci())
    assert all("dim" not in entry for entry in fib_doc["basis"])


def test_lazy_tags_round_trip():
    from fusionrings import free_product, free_unitary_ring, su2_ring

    for ring in (su2_ring(), free_unitary_ring()):
        doc = ring_to_document(ring)
        loaded = ring_from_document(doc)
        assert loaded.metadata["kind"] == ring.metadata["kind"]
    fp = free_product([fibonacci(), cyclic_group_ring(2)])
    doc = ring_to_document(fp)
    loaded = ring_from_document(doc)
    assert loaded.product("0:phi", "0:phi") == fp.product("0:phi", "0:phi")


def test_su2_level_tag_materializes():
    ring = ring_from_document({"format": "fusionring/1", "lazy": {"kind": "su2_level", "level": 2}})
    assert not ring.is_lazy
    assert ring.basis == ("0", "1", "2")


def test_module_document_round_trip():
    ring = cyclic_group_ring(4)
    module = quotient_module(ring, ["0", "2"])
    doc = module_to_document(module)
    text = emit_document(doc)
    assert parse_document(text) == doc
    loaded = module_from_document(doc)
    assert loaded.basis == module.basis
    for alpha in ring.basis:
        for b in module.basis:
            assert loaded.action_row(alpha, b) == module.action_row(alpha, b)


def test_module_document_with_ring_reference(tmp_path):
    ring = cyclic_group_ring(2)
    ring_path = tmp_path / "z2.json"
    write_document(str(ring_path), ring_to_document(ring))
    module = standard_module(ring)
    doc = module_to_document(module, ring_ref=str(ring_path))
    loaded = module_from_document(doc)
    assert loaded.ring.basis == ring.basis


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("unit"),
        lambda d: d.pop("basis"),
        lambda d: d["products"].append(["0", "0", "0", 0]),
        lambda d: d["products"].append(["0", "zz", "0", 1]),
        lambda d: d["products"].remove(["0", "1", "1", 1]),
        lambda d: d.__setitem__("format", "nonsense/9"),
        lambda d: d["basis"].append({"id": "0", "dual": "0"}),
    ],
)
def test_malformed_ring_documents_rejected(mutate):
    doc = ring_to_document(cyclic_group_ring(2))
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(MalformedDocumentError):
        ring_from_document(doc)


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedDocumentError) as err:
        parse_document("{oops")
    assert "line" in str(err.value)


def test_builtin_uris():
    assert builtin_ring("builtin:fibonacci").name == "fibonacci"
    assert builtin_ring("builtin:a1").metadata["kind"] == "a1"
    assert builtin_ring("builtin:a2").metadata["kind"] == "a2"
    assert builtin_ring("builtin:su2?level=3").size == 4
    assert builtin_ring("builtin:cyclic?n=5").size == 5
    assert builtin_ring("builtin:trivial").size == 1
    with pytest.raises(MalformedDocumentError):
        builtin_ring("builtin:unknown")
    with pytest.raises(MalformedDocumentError):
        builtin_ring("builtin:su2")


def test_resolve_ring_from_path(tmp_path):
    path = tmp_path / "ring.json"
    write_document(str(path), ring_to_document(fibonacci()))
    ring = resolve_ring(str(path))
    assert ring.basis == ("1", "phi")
    with pytest.raises(MalformedDocumentError):
        resolve_ring(str(tmp_path / "missing.json"))


def test_write_document_is_atomic_and_canonical(tmp_path):
    path = tmp_path / "out.json"
    doc = ring_to_document(cyclic_group_ring(2))
    write_document(str(path), doc)
    write_document(str(path), doc)  # overwrite cleanly
    text = path.read_bytes()
    assert text == emit_document(doc).encode()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_write_text_bytes_and_mode_follow_the_umask(tmp_path, mask, mode):
    # the bytes are what a UTF-8 text handle writes, and the renamed temp
    # file gets the mode of a file opened under the umask, not 0600
    text = 'line one\nφ ≠ "1"\n'
    path = tmp_path / "sub" / "out.txt"
    previous = os.umask(mask)
    try:
        write_text(str(path), text)
        assert os.umask(mask) == mask
    finally:
        os.umask(previous)
    with open(tmp_path / "reference.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    assert path.read_bytes() == (tmp_path / "reference.txt").read_bytes() == text.encode("utf-8")
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_load_document(tmp_path):
    path = tmp_path / "m.json"
    module = standard_module(cyclic_group_ring(2))
    write_document(str(path), module_to_document(module))
    doc = load_document(str(path))
    assert doc["format"] == "fusionmodule/1"


def test_boolean_multiplicity_rejected_in_ring_documents():
    doc = ring_to_document(cyclic_group_ring(2))
    doc["products"] = [entry[:3] + [True] for entry in doc["products"]]
    with pytest.raises(MalformedDocumentError, match="bad product entry"):
        ring_from_document(doc)


def test_boolean_multiplicity_rejected_in_module_documents():
    doc = module_to_document(standard_module(cyclic_group_ring(2)))
    doc["action"][0][3] = True
    with pytest.raises(MalformedDocumentError, match="bad action entry"):
        module_from_document(doc)


def test_boolean_su2_level_rejected():
    with pytest.raises(MalformedDocumentError, match="positive integer level"):
        ring_from_document({"format": "fusionring/1", "lazy": {"kind": "su2_level", "level": True}})


def test_module_document_with_a_ring_document_reference():
    ring = cyclic_group_ring(3)
    ring_doc = ring_to_document(ring)
    doc = module_to_document(standard_module(ring), ring_ref=ring_doc)
    assert doc["ring"] is ring_doc
    assert doc == module_to_document(standard_module(ring))


def _json_reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# text with quotes, backslashes, control, non-ASCII and astral characters
_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001F600'),
    st.characters(codec="utf-8"),
), max_size=8)
_scalars = st.one_of(
    _text,
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_text, _trees, max_size=5))
def test_emission_matches_json_dumps(doc):
    assert emit_document(doc) == _json_reference(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, {"a": [{"b": 1, True: 2}]}, {"a": 1, 2.5: 1}])
def test_emission_rejects_a_key_that_is_not_a_string(doc):
    with pytest.raises(TypeError):
        emit_document(doc)

