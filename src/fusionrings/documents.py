"""Bit-exact JSON documents for rings and modules, plus builtin ring URIs.

Documents are UTF-8 JSON with a required ``format`` field; emission is
byte-canonical (sorted keys, two-space indent, LF, trailing newline), so
``parse(emit(doc)) == doc`` and equal documents have equal bytes.  A direct
emitter writes them, pinned by test to ``json.dumps(doc, sort_keys=True,
indent=2, ensure_ascii=False)``, whose indenting encoder is pure Python;
``encode_field`` lets the class documents of one run share one encoding of
their ring.
"""

from __future__ import annotations

import json
import os
import tempfile
from urllib.parse import parse_qs, urlparse

from .constructors import (
    cyclic_group_ring,
    fibonacci,
    free_product,
    free_unitary_ring,
    permutation_group_ring,
    su2_level,
    su2_ring,
)
from .errors import MalformedDocumentError
from .modules import BasedModuleTable
from .rings import BasedRingTable, Ring

RING_FORMAT = "fusionring/1"
MODULE_FORMAT = "fusionmodule/1"


_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


class _Encoded(str):
    """JSON text that `_emit` copies as it stands (see `encode_field`)."""


# the leaves that make up most of a document, by exact type, to their text
_LEAVES = {str: _encode_str, int: int.__repr__, _Encoded: str.__str__}


def _emit(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` writes it, where ``newline`` is the line break and
    indent before the value's own line; a dict key that is not a string
    raises TypeError."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            items.append(_encode_str(key) + ": " + _emit(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = []
        for item in value:
            leaf = _LEAVES.get(type(item))
            items.append(leaf(item) if leaf is not None else _emit(item, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _encode_scalar(value)


def emit_document(doc: dict) -> str:
    return _emit(doc, "\n") + "\n"


def encode_field(value) -> str:
    """``value`` encoded once as a field of a document's top-level object,
    so that many documents can share the text: `emit_document` copies it as
    it stands, and it emits the same bytes as ``value`` itself."""
    return _Encoded(_emit(value, "\n  "))


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise MalformedDocumentError("document root must be an object")
    return doc


def write_document(path: str, doc: dict) -> None:
    """Atomic canonical write: temp file in the target directory, then rename."""
    text = emit_document(doc)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- ring documents -------------------------------------------------------------------


def ring_to_document(ring: Ring) -> dict:
    if ring.is_lazy:
        kind = ring.metadata.get("kind")
        if kind in ("a1", "a2"):
            return {"format": RING_FORMAT, "lazy": {"kind": kind}}
        if kind == "free_product":
            return {
                "format": RING_FORMAT,
                "lazy": {
                    "kind": "free_product",
                    "factors": [ring_to_document(f) for f in ring.metadata["factors"]],
                },
            }
        raise MalformedDocumentError(f"lazy ring {ring.name} has no document form")
    integer_dims = ring.dims is not None and ring.dims.exactness == "integer"
    basis = []
    for label in ring.basis:
        entry = {"id": label, "dual": ring.involution_of(label)}
        if integer_dims:
            entry["dim"] = int(round(ring.dims(label)))
        basis.append(entry)
    return {
        "format": RING_FORMAT,
        "name": ring.name,
        "unit": ring.unit,
        "basis": basis,
        "products": _rows_to_list(ring.basis, ring.basis, ring.product),
    }


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocumentError(f"missing required field {key!r}")
    return doc[key]


def _document_name(doc, fmt: str, kind: str) -> str:
    """The name of a ``kind`` document of format ``fmt``, checked to be an
    object with that format and a name, if any, that is UTF-8 text."""
    if not isinstance(doc, dict):
        raise MalformedDocumentError(f"a {kind} document must be an object, got {doc!r}")
    if doc.get("format") != fmt:
        raise MalformedDocumentError(f"not a {kind} document (format={doc.get('format')!r})")
    name = doc.get("name") or f"document {kind}"
    if not isinstance(name, str):
        raise MalformedDocumentError(f"{kind} document name must be a string, got {name!r}")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedDocumentError(f"{kind} document name is not UTF-8 text: {name!r}") from None
    return name


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON ``true`` is not 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rows_to_list(sources, targets, row) -> list[list]:
    """The sorted ``[a, b, c, multiplicity]`` list of the rows ``row(a, b)``."""
    return sorted([a, b, c, mult] for a in sources for b in targets for c, mult in row(a, b).items())


def _rows_from_list(raw, kind: str, sources, targets) -> dict[tuple[str, str], dict[str, int]]:
    """The rows ``{(a, b): {c: multiplicity}}`` of a ``[a, b, c, multiplicity]``
    list with a in ``sources``, b and c in ``targets`` and positive integer
    multiplicities, each (a, b, c) at most once; ``kind`` names an entry."""
    if not isinstance(raw, list):
        raise MalformedDocumentError(f"{kind} entries must be a list of [a, b, c, multiplicity]")
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for item in raw:
        shaped = isinstance(item, list) and len(item) == 4 and all(isinstance(x, str) for x in item[:3])
        if not shaped or not is_int(item[3]):
            raise MalformedDocumentError(f"bad {kind} entry {item!r}")
        a, b, c, mult = item
        if a not in sources or b not in targets or c not in targets:
            raise MalformedDocumentError(f"{kind} entry {item!r} uses unknown ids")
        if mult < 1:
            raise MalformedDocumentError(f"{kind} entry {item!r} has multiplicity < 1")
        row = rows.setdefault((a, b), {})
        if c in row:
            raise MalformedDocumentError(f"duplicate {kind} entry for {item[:3]!r}")
        row[c] = mult
    return rows


def ring_from_document(doc: dict) -> Ring:
    name = _document_name(doc, RING_FORMAT, "ring")
    lazy = doc.get("lazy")
    if lazy is not None:
        if not isinstance(lazy, dict):
            raise MalformedDocumentError(f"lazy tag must be an object, got {lazy!r}")
        kind = lazy.get("kind")
        if kind == "a1":
            return su2_ring()
        if kind == "a2":
            return free_unitary_ring()
        if kind == "su2_level":
            level = lazy.get("level")
            if not is_int(level) or level < 1:
                raise MalformedDocumentError("su2_level tag needs a positive integer level")
            return su2_level(level)
        if kind == "free_product":
            factors = lazy.get("factors")
            if not isinstance(factors, list) or not factors:
                raise MalformedDocumentError("free_product tag needs a factor list")
            return free_product([ring_from_document(f) for f in factors])
        raise MalformedDocumentError(f"unknown lazy ring kind {kind!r}")

    basis_entries = _require(doc, "basis")
    unit = _require(doc, "unit")
    products_raw = _require(doc, "products")
    if not isinstance(basis_entries, list) or not basis_entries:
        raise MalformedDocumentError("basis must be a non-empty list")
    involution = {}
    for entry in basis_entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str) and isinstance(entry.get("dual"), str)):
            raise MalformedDocumentError("each basis entry needs a string 'id' and 'dual'")
        if entry["id"] in involution:
            raise MalformedDocumentError("duplicate basis ids")
        involution[entry["id"]] = entry["dual"]
    if not isinstance(unit, str) or unit not in involution:
        raise MalformedDocumentError(f"unit {unit!r} is not a basis id")
    for label, bar in involution.items():
        if bar not in involution:
            raise MalformedDocumentError(f"dual of {label!r} is not a basis id")
    products = _rows_from_list(products_raw, "product", involution, involution)
    for a in involution:
        for b in involution:
            if (a, b) not in products:
                raise MalformedDocumentError(f"no product entries for the pair ({a!r}, {b!r})")
    return BasedRingTable(list(involution), unit, involution, products, name=name)


# -- builtin URIs -----------------------------------------------------------------------


def builtin_ring(uri: str) -> Ring:
    """Resolve ``builtin:`` names: fibonacci, a1, a2, trivial,
    su2?level=N, cyclic?n=N, symmetric?n=N."""
    parsed = urlparse(uri)
    if parsed.scheme != "builtin":
        raise MalformedDocumentError(f"not a builtin URI: {uri!r}")
    name = parsed.path
    query = parse_qs(parsed.query)

    def int_param(key: str) -> int:
        values = query.get(key)
        if not values:
            raise MalformedDocumentError(f"builtin {name!r} needs ?{key}=N")
        try:
            return int(values[0])
        except ValueError:
            raise MalformedDocumentError(f"bad integer for {key!r} in {uri!r}") from None

    if name == "fibonacci":
        return fibonacci()
    if name == "a1":
        return su2_ring()
    if name == "a2":
        return free_unitary_ring()
    if name == "trivial":
        return cyclic_group_ring(1)
    if name == "su2":
        return su2_level(int_param("level"))
    if name == "cyclic":
        return cyclic_group_ring(int_param("n"))
    if name == "symmetric":
        return permutation_group_ring(int_param("n"))
    raise MalformedDocumentError(f"unknown builtin ring {name!r}")


def resolve_ring(source: str) -> Ring:
    """A ring from a ``builtin:`` URI or a document path."""
    if source.startswith("builtin:"):
        return builtin_ring(source)
    return ring_from_document(load_document(source))


# -- module documents --------------------------------------------------------------------


def module_to_document(module: BasedModuleTable, ring_ref: str | dict | None = None) -> dict:
    """The document of a finite module; its ``ring`` field is ``ring_ref``, a
    reference string or a ring document, else the module ring's document."""
    return {
        "format": MODULE_FORMAT,
        "name": module.name,
        "ring": ring_ref if ring_ref is not None else ring_to_document(module.ring),
        "basis": list(module.basis),
        "action": _rows_to_list(module.ring.basis, module.basis, module.action_row),
    }


def module_from_document(doc: dict) -> BasedModuleTable:
    name = _document_name(doc, MODULE_FORMAT, "module")
    ring_field = _require(doc, "ring")
    ring = resolve_ring(ring_field) if isinstance(ring_field, str) else ring_from_document(ring_field)
    if ring.is_lazy:
        raise MalformedDocumentError("module documents require a finite ring")
    basis = _require(doc, "basis")
    if not isinstance(basis, list) or not basis or not all(isinstance(b, str) for b in basis):
        raise MalformedDocumentError("module basis must be a non-empty list of string ids")
    bset = set(basis)
    if len(bset) != len(basis):
        raise MalformedDocumentError("duplicate module basis ids")
    rows = _rows_from_list(_require(doc, "action"), "action", ring.index, bset)
    action = {(alpha, b): rows.get((alpha, b), {}) for alpha in ring.basis for b in basis}
    return BasedModuleTable(ring, basis, action, name=name)


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise MalformedDocumentError(f"cannot read {path!r}: {exc}") from None
