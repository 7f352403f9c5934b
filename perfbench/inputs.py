"""Seeded input documents for the benchmark, built without the package.

Every ring and module document here is written from first principles
(permutation composition, the level-N Verlinde rule), so the inputs and the
brute-force oracle share no code with the search they check.

The seed renames labels.  ``order`` mode (the benchmark default) keeps the
relative order of labels and the basis order, so the search, whose choices
break ties by label order, does the same work for every seed: one run's
figures compare with the next.  ``shuffle`` mode renames by a random
permutation; it shows how far the work depends on labelling and is used
only for the notes in README.md.  Seed 0 keeps the labels as constructed in
both modes.
"""

from __future__ import annotations

import itertools
import random


def _renaming(labels: list[str], seed: int, mode: str) -> dict[str, str]:
    if seed == 0:
        return {label: label for label in labels}
    rng = random.Random(seed)
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    ranked = sorted(labels)
    slots = list(range(len(ranked)))
    if mode == "shuffle":
        rng.shuffle(slots)
    elif mode != "order":
        raise ValueError(f"unknown relabel mode {mode!r}")
    width = len(str(len(ranked) - 1))
    return {label: f"{tag}{slots[i]:0{width}d}" for i, label in enumerate(ranked)}


def ring_document(name: str, basis: list[str], dual: dict, mul: dict, dims: dict | None = None) -> dict:
    """A ``fusionring/1`` document; ``mul[(a, b)]`` maps c to its multiplicity."""
    entries = []
    for label in basis:
        entry = {"id": label, "dual": dual[label]}
        if dims is not None:
            entry["dim"] = dims[label]
        entries.append(entry)
    products = sorted([a, b, c, m] for (a, b), row in mul.items() for c, m in row.items())
    return {"format": "fusionring/1", "name": name, "unit": basis[0], "basis": entries, "products": products}


def relabel_ring(doc: dict, seed: int, mode: str) -> dict:
    names = _renaming([e["id"] for e in doc["basis"]], seed, mode)
    out = dict(doc)
    out["unit"] = names[doc["unit"]]
    out["basis"] = [dict(e, id=names[e["id"]], dual=names[e["dual"]]) for e in doc["basis"]]
    out["products"] = sorted([names[a], names[b], names[c], m] for a, b, c, m in doc["products"])
    return out


# -- groups --------------------------------------------------------------------


def dihedral_group(n: int):
    """The dihedral group of order 2n as (labels, multiplication table):
    ``r{i}`` is rotation i and ``r{i}s`` rotation i after the reflection."""

    def label(i, j):
        return f"r{i}" + ("s" if j else "")

    labels = [label(i, j) for i in range(n) for j in (0, 1)]
    mul = {}
    for i1 in range(n):
        for j1 in (0, 1):
            for i2 in range(n):
                for j2 in (0, 1):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    mul[(label(i1, j1), label(i2, j2))] = label(i, (j1 + j2) % 2)
    return labels, mul


def symmetric_group(n: int):
    """The symmetric group on n points, labelled by one-line notation in
    lexicographic order, with ``(p*q)(i) = p(q(i))``."""
    perms = sorted(itertools.permutations(range(n)))
    label = {p: "".join(map(str, p)) for p in perms}
    mul = {(label[p], label[q]): label[tuple(p[q[i]] for i in range(n))] for p in perms for q in perms}
    return [label[p] for p in perms], mul


def group_document(name: str, labels: list[str], mul: dict) -> dict:
    """The group ring; ``labels[0]`` must be the identity."""
    identity = labels[0]
    dual = {a: b for (a, b), c in mul.items() if c == identity}
    products = {pair: {c: 1} for pair, c in mul.items()}
    return ring_document(name, labels, dual, products, dims={b: 1 for b in labels})


def standard_module_document(ring_doc: dict, name: str) -> dict:
    """The ring acting on itself by left multiplication."""
    return {
        "format": "fusionmodule/1",
        "name": name,
        "ring": ring_doc,
        "basis": [e["id"] for e in ring_doc["basis"]],
        "action": [list(p) for p in ring_doc["products"]],
    }


def subgroup_indices(labels: list[str], mul: dict) -> list[int]:
    """Indices [G:H] of the subgroups H of G, one per conjugacy class, by
    brute force over all subsets.  These are the sizes of the transitive
    G-sets G/H, i.e. of the connected based modules of the group ring."""
    identity = labels[0]
    inverse = {a: b for (a, b), c in mul.items() if c == identity}
    others = labels[1:]
    subgroups = []
    for mask in range(1 << len(others)):
        h = {identity} | {others[i] for i in range(len(others)) if mask >> i & 1}
        if all(mul[(a, b)] in h for a in h for b in h):
            subgroups.append(frozenset(h))
    classes = {frozenset(frozenset(mul[(mul[(g, x)], inverse[g])] for x in h) for g in labels) for h in subgroups}
    return sorted(len(labels) // len(next(iter(c))) for c in classes)


# -- Verlinde rings ---------------------------------------------------------------


def verlinde_document(level: int) -> dict:
    """su(2) at level N on basis 0..N: k*m runs over |k-m|, |k-m|+2, ...,
    min(k+m, 2N-k-m)."""
    basis = [str(k) for k in range(level + 1)]
    mul = {}
    for k in range(level + 1):
        for m in range(level + 1):
            top = min(k + m, 2 * level - k - m)
            mul[(str(k), str(m))] = {str(j): 1 for j in range(abs(k - m), top + 1, 2)}
    return ring_document(f"su2_level[{level}]", basis, {b: b for b in basis}, mul)
