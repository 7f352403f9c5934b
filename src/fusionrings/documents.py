"""Bit-exact JSON documents for rings and modules, plus builtin ring URIs.

Documents are UTF-8 JSON with a required ``format`` field; emission is
byte-canonical (sorted keys, two-space indent, LF, trailing newline), so
``parse(emit(doc)) == doc`` and equal documents have equal bytes.
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
from .elements import RingElement
from .errors import MalformedDocumentError
from .modules import BasedModuleTable
from .rings import BasedRingTable, Ring

RING_FORMAT = "fusionring/1"
MODULE_FORMAT = "fusionmodule/1"


def emit_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
        if kind == "a1":
            return {"format": RING_FORMAT, "lazy": {"kind": "a1"}}
        if kind == "a2":
            return {"format": RING_FORMAT, "lazy": {"kind": "a2"}}
        if kind == "free_product":
            return {
                "format": RING_FORMAT,
                "lazy": {
                    "kind": "free_product",
                    "factors": [ring_to_document(f) for f in ring.metadata["factors"]],
                },
            }
        raise MalformedDocumentError(f"lazy ring {ring.name} has no document form")
    basis = []
    integer_dims = None
    if ring.dims is not None and ring.dims.exactness == "integer":
        integer_dims = {b: int(round(ring.dims(b))) for b in ring.basis}
    for label in ring.basis:
        entry = {"id": label, "dual": ring.involution_of(label)}
        if integer_dims is not None:
            entry["dim"] = integer_dims[label]
        basis.append(entry)
    products = []
    for a in ring.basis:
        for b in ring.basis:
            for c, mult in ring.product(a, b).items():
                products.append([a, b, c, mult])
    products.sort()
    doc = {
        "format": RING_FORMAT,
        "name": ring.name,
        "unit": ring.unit,
        "basis": basis,
        "products": products,
    }
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocumentError(f"missing required field {key!r}")
    return doc[key]


def ring_from_document(doc: dict) -> Ring:
    if doc.get("format") != RING_FORMAT:
        raise MalformedDocumentError(f"not a ring document (format={doc.get('format')!r})")
    lazy = doc.get("lazy")
    if lazy is not None:
        kind = lazy.get("kind")
        if kind == "a1":
            return su2_ring()
        if kind == "a2":
            return free_unitary_ring()
        if kind == "su2_level":
            level = lazy.get("level")
            if not isinstance(level, int) or level < 1:
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
    labels = []
    involution = {}
    for entry in basis_entries:
        if not isinstance(entry, dict) or "id" not in entry or "dual" not in entry:
            raise MalformedDocumentError("each basis entry needs 'id' and 'dual'")
        labels.append(entry["id"])
        involution[entry["id"]] = entry["dual"]
    label_set = set(labels)
    if len(label_set) != len(labels):
        raise MalformedDocumentError("duplicate basis ids")
    if unit not in label_set:
        raise MalformedDocumentError(f"unit {unit!r} is not a basis id")
    for label, bar in involution.items():
        if bar not in label_set:
            raise MalformedDocumentError(f"dual of {label!r} is not a basis id")
    products: dict[tuple[str, str], dict[str, int]] = {}
    if not isinstance(products_raw, list):
        raise MalformedDocumentError("products must be a list of [a, b, c, multiplicity]")
    for item in products_raw:
        if (
            not isinstance(item, list)
            or len(item) != 4
            or not all(isinstance(x, str) for x in item[:3])
            or not isinstance(item[3], int)
        ):
            raise MalformedDocumentError(f"bad product entry {item!r}")
        a, b, c, mult = item
        if a not in label_set or b not in label_set or c not in label_set:
            raise MalformedDocumentError(f"product entry {item!r} uses unknown ids")
        if mult < 1:
            raise MalformedDocumentError(f"product entry {item!r} has multiplicity < 1")
        products.setdefault((a, b), {})
        if c in products[(a, b)]:
            raise MalformedDocumentError(f"duplicate product entry for {item[:3]!r}")
        products[(a, b)][c] = mult
    table = {}
    for a in labels:
        for b in labels:
            if (a, b) not in products:
                raise MalformedDocumentError(f"no product entries for the pair ({a!r}, {b!r})")
            table[(a, b)] = RingElement(products[(a, b)])
    return BasedRingTable(
        labels, unit, involution, table, name=doc.get("name", "") or "document ring"
    )


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


def module_to_document(module: BasedModuleTable, ring_ref: str | None = None) -> dict:
    ring_field = ring_ref if ring_ref is not None else ring_to_document(module.ring)
    action = []
    for alpha in module.ring.basis:
        for b in module.basis:
            for c, mult in module.action_row(alpha, b).items():
                action.append([alpha, b, c, mult])
    action.sort()
    return {
        "format": MODULE_FORMAT,
        "name": module.name,
        "ring": ring_field,
        "basis": list(module.basis),
        "action": action,
    }


def module_from_document(doc: dict) -> BasedModuleTable:
    if doc.get("format") != MODULE_FORMAT:
        raise MalformedDocumentError(f"not a module document (format={doc.get('format')!r})")
    ring_field = _require(doc, "ring")
    ring = resolve_ring(ring_field) if isinstance(ring_field, str) else ring_from_document(ring_field)
    if ring.is_lazy:
        raise MalformedDocumentError("module documents require a finite ring")
    basis = _require(doc, "basis")
    if not isinstance(basis, list) or not basis:
        raise MalformedDocumentError("module basis must be a non-empty list")
    bset = set(basis)
    if len(bset) != len(basis):
        raise MalformedDocumentError("duplicate module basis ids")
    action_raw = _require(doc, "action")
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for item in action_raw:
        if (
            not isinstance(item, list)
            or len(item) != 4
            or not all(isinstance(x, str) for x in item[:3])
            or not isinstance(item[3], int)
        ):
            raise MalformedDocumentError(f"bad action entry {item!r}")
        alpha, b, c, mult = item
        if not ring.contains(alpha):
            raise MalformedDocumentError(f"action entry {item!r} uses an unknown ring id")
        if b not in bset or c not in bset:
            raise MalformedDocumentError(f"action entry {item!r} uses unknown module ids")
        if mult < 1:
            raise MalformedDocumentError(f"action entry {item!r} has multiplicity < 1")
        rows.setdefault((alpha, b), {})
        if c in rows[(alpha, b)]:
            raise MalformedDocumentError(f"duplicate action entry for {item[:3]!r}")
        rows[(alpha, b)][c] = mult
    action = {}
    for alpha in ring.basis:
        for b in basis:
            action[(alpha, b)] = RingElement(rows.get((alpha, b), {}))
    return BasedModuleTable(
        ring, basis, action, name=doc.get("name", "") or "document module"
    )


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise MalformedDocumentError(f"cannot read {path!r}: {exc}") from None
