"""The ``fusion`` command line tool.

Exit codes: 0 pass, 1 negative mathematical verdict, 2 input error,
3 inconclusive.  The module search runs sequentially; an optional JSON
config file supplies default depths, sizes and budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .constructors import free_product, tensor_product
from .documents import (
    MODULE_FORMAT,
    RING_FORMAT,
    emit_document,
    encode_field,
    is_int,
    load_document,
    module_from_document,
    module_to_document,
    resolve_ring,
    ring_from_document,
    ring_to_document,
    write_document,
)
from .elements import parse_element
from .errors import (
    FusionError,
    MalformedDocumentError,
    NoDimensionFunctionError,
    StructuralError,
    UnknownLabelError,
)
from .modules import dim_vector, standard_module, verify_module
from .rings import fuse, ring_dims, verify_based_ring, verify_lazy_ring
from .spectra import dynkin_classify, export_dot, module_graph, symmetrize
from .torsion import ModuleSearchConfig, dimension_bound, enumerate_modules, is_torsion_free

PASS, NEGATIVE, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3


_CONFIG_VALUES = {
    "max_size": ("an integer >= 1", lambda v: is_int(v) and v >= 1),
    "depth": ("an integer >= 0", lambda v: is_int(v) and v >= 0),
    "budget": ("a number >= 0 or null",
               lambda v: v is None or ((is_int(v) or isinstance(v, float)) and v >= 0)),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedDocumentError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise MalformedDocumentError("config must be a JSON object")
    unknown = [key for key in config if key not in _CONFIG_VALUES]
    if unknown:
        raise MalformedDocumentError(f"unknown config key {unknown[0]!r}")
    for key, (wanted, valid) in _CONFIG_VALUES.items():
        if key in config and not valid(config[key]):
            raise MalformedDocumentError(f"config {key!r} must be {wanted}, got {config[key]!r}")
    return config


def _resolve_any(source: str):
    """A ring or finite module from a builtin URI or a document path."""
    if source.startswith("builtin:"):
        return resolve_ring(source), None
    doc = load_document(source)
    fmt = doc.get("format")
    if fmt == RING_FORMAT:
        return ring_from_document(doc), None
    if fmt == MODULE_FORMAT:
        module = module_from_document(doc)
        return module.ring, module
    raise MalformedDocumentError(f"unknown document format {fmt!r}")


def _finite_ring(path: str, command: str):
    ring, module = _resolve_any(path)
    if module is not None or ring.is_lazy:
        raise MalformedDocumentError(f"{command} expects a finite ring document")
    return ring


def _write_modules(out: str, tables, ring, name: str, stem: str, line: str) -> None:
    """Write the tables as module documents ``out/{stem}_NNN.json`` named ``{name}_NNN``,
    printing ``line`` with its fields ``i``, ``size`` and ``path`` after each.
    The ring document they all hold is encoded once."""
    os.makedirs(out, exist_ok=True)
    ring_text = encode_field(ring_to_document(ring))
    for i, table in enumerate(tables):
        doc = module_to_document(table, ring_text)
        doc["name"] = f"{name}_{i:03d}"
        path = os.path.join(out, f"{stem}_{i:03d}.json")
        write_document(path, doc)
        print(line.format(i=i, size=table.size, path=path))


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    depth = args.depth if args.depth is not None else config.get("depth", 8)
    ring, module = _resolve_any(args.path)
    if module is not None:
        report = verify_module(module)
    elif ring.is_lazy:
        report = verify_lazy_ring(ring, depth)
    else:
        report = verify_based_ring(ring)
    print("\n".join(report.lines()))
    if not report.structurally_sound:
        return INPUT_ERROR
    return PASS if report.ok else NEGATIVE


def cmd_fuse(args) -> int:
    ring, module = _resolve_any(args.path)
    if module is not None:
        raise MalformedDocumentError("fuse expects a ring, not a module")

    def resolve(text: str):
        element = parse_element(text)
        return element.map_labels(lambda l: ring.unit if l == "unit" else l)

    print(fuse(ring, resolve(args.x), resolve(args.y)).format())
    return PASS


def cmd_dims(args) -> int:
    ring = _finite_ring(args.path, "dims")
    try:
        dims = ring_dims(ring)
    except NoDimensionFunctionError as exc:
        print(f"no dimension function: {exc}")
        return NEGATIVE
    for label in ring.basis:
        print(f"{label}: {dims(label):.10g}")
    print(f"exactness: {dims.exactness}")
    return PASS


def _search_config(args, ring, config: dict) -> ModuleSearchConfig:
    max_size = args.max_size if args.max_size is not None else config.get("max_size") or dimension_bound(ring)
    budget = args.budget if args.budget is not None else config.get("budget")
    return ModuleSearchConfig(max_basis_size=max_size, time_budget=budget)


def cmd_enumerate(args) -> int:
    config = _load_config(args.config)
    ring = _finite_ring(args.path, "enumerate")
    result = enumerate_modules(ring, _search_config(args, ring, config))
    if args.out:
        _write_modules(args.out, result.classes, ring, "class", "module", "class {i:03d}: size={size} -> {path}")
    else:
        for i, table in enumerate(result.classes):
            print(f"class {i:03d}: size={table.size}")
    status = "complete" if result.complete else "inconclusive"
    print(f"classes={len(result.classes)} certified_bound={result.certified_bound} status={status}")
    return PASS if result.complete else INCONCLUSIVE


def cmd_torsion(args) -> int:
    config = _load_config(args.config)
    ring = _finite_ring(args.path, "torsion")
    verdict = is_torsion_free(ring, _search_config(args, ring, config))
    print(verdict.status)
    if args.out and verdict.witnesses:
        _write_modules(args.out, verdict.witnesses, ring, "witness", "witness", "witness: {path}")
    elif verdict.witnesses:
        for witness in verdict.witnesses:
            print(f"witness: size={witness.size}")
    return {"torsion_free_certified": PASS, "not_torsion_free": NEGATIVE}.get(verdict.status, INCONCLUSIVE)


def cmd_product(args) -> int:
    rings = []
    for source in args.paths:
        ring, module = _resolve_any(source)
        if module is not None:
            raise MalformedDocumentError("product expects ring documents")
        rings.append(ring)
    if args.tensor:
        if any(r.is_lazy for r in rings):
            raise MalformedDocumentError("tensor products require finite tables")
        out = rings[0]
        for other in rings[1:]:
            out = tensor_product(out, other)
    else:
        out = free_product(rings)
    doc = ring_to_document(out)
    if args.out:
        write_document(args.out, doc)
        print(args.out)
    else:
        sys.stdout.write(emit_document(doc))
    return PASS


def cmd_graph(args) -> int:
    ring, module = _resolve_any(args.path)
    if module is None:
        if not args.standard:
            raise MalformedDocumentError("a ring document needs --standard to pick its module")
        module = standard_module(ring)
        if ring.is_lazy:
            module = module.truncate(args.depth)
    alpha = module.ring.unit if args.alpha == "unit" else args.alpha
    dims = module.dims
    if dims is None and not module.ring.is_lazy:
        try:
            dims = dim_vector(module)
        except FusionError:
            pass
    graph = module_graph(module, alpha, dims=dims)
    text = export_dot(graph)
    if args.dot:
        directory = os.path.dirname(os.path.abspath(args.dot))
        os.makedirs(directory, exist_ok=True)
        with open(args.dot, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(args.dot)
    else:
        sys.stdout.write(text)
    symmetric = symmetrize(graph)
    parts = symmetric.components()
    if len(parts) <= 1:
        print(f"verdict: {dynkin_classify(symmetric).describe()}")
        return PASS
    print(f"verdict: disconnected, {len(parts)} components")
    for part in parts:
        print(f"component {' '.join(part.vertices)}: {dynkin_classify(part).describe()}")
    return PASS


@functools.cache  # parse_args leaves the parser as it was, and each cmd_* looks its callees up when called
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion",
        description="Exact computations with based rings, fusion rings and their modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining axioms of a ring or module document")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=None, help="level truncation for lazy rings")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fuse", help="multiply two elements given as expressions")
    p.add_argument("path")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("dims", help="print the dimension function of a finite ring")
    p.add_argument("path")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("enumerate", help="enumerate connected based modules up to isomorphism")
    p.add_argument("path")
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--out", default=None, help="directory for module documents")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("torsion", help="decide torsion-freeness of a finite fusion ring")
    p.add_argument("path")
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", default=None, help="directory for witness documents")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("product", help="emit a tensor or free product document")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tensor", action="store_true")
    group.add_argument("--free", action="store_true")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("graph", help="export a fusion graph as DOT and classify it")
    p.add_argument("path")
    p.add_argument("--alpha", required=True)
    p.add_argument("--standard", action="store_true", help="use the ring's standard module")
    p.add_argument("--depth", type=int, default=8, help="truncation depth for lazy rings")
    p.add_argument("--dot", default=None, help="output file")
    p.set_defaults(fn=cmd_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MalformedDocumentError, StructuralError, UnknownLabelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
