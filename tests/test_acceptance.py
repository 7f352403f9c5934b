"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
the stated runtime limits and tolerances are asserted, not just observed.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import cyclic_group_data, klein_four_data, subgroups_up_to_conjugacy, symmetric3_data

from fusionrings import (
    ModuleSearchConfig,
    a_infinity_check,
    canonical_key,
    chebyshev_coeffs,
    cyclic_group_ring,
    dimension_bound,
    dynkin_classify,
    enumerate_modules,
    fibonacci,
    free_product,
    free_product_module_probe,
    free_unitary_ring,
    fuse,
    integer_dim_shortcut,
    is_cofinite,
    is_connected,
    is_divisible,
    is_torsion_free,
    induced_module,
    permutation_group_ring,
    quotient_module,
    RingElement,
    ring_dims,
    schur_norm_check,
    singleton_module,
    spectral_radius,
    standard_module,
    subring_generated,
    su2_level,
    su2_ring,
    tensor_obstruction_probe,
    tensor_product,
    twisted_tensor_module,
    unfold_word_module,
    verify_based_ring,
    verify_lazy_ring,
    verify_module,
    word_module_structure_check,
)
from fusionrings.cli import main as fusion_main
from fusionrings.spectra import FusionGraph

SRC = Path(__file__).resolve().parents[1] / "src"


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} FAIL  {description}", flush=True)
                raise
            print(f"criterion {number:>2} PASS  {description}", flush=True)

        return wrapper

    return decorate


def run_fusion(argv, env=None, capsys=None):
    """Run the CLI in-process, returning (exit code, stdout text)."""
    code = fusion_main(argv)
    out = capsys.readouterr().out
    return code, out


@criterion(1, "golden-ratio ring certified torsion-free, single tadpole class, < 10 s")
def test_criterion_1_fibonacci_torsion_free(capsys):
    start = time.monotonic()
    code, out = run_fusion(["torsion", "builtin:fibonacci"], capsys=capsys)
    assert code == 0
    assert out == "torsion_free_certified\n"
    result = enumerate_modules(fibonacci(), ModuleSearchConfig(max_basis_size=2))
    assert len(result.classes) == 1
    matrix = result.classes[0].matrix("phi")
    permutations = [
        matrix,
        matrix[np.ix_([1, 0], [1, 0])],
    ]
    assert any(np.array_equal(m, np.array([[0, 1], [1, 1]])) for m in permutations)
    assert time.monotonic() - start < 10.0


@criterion(2, "group-ring class counts match the subgroup oracle, all not torsion-free, < 60 s")
def test_criterion_2_group_ring_oracle():
    start = time.monotonic()
    cases = [
        (cyclic_group_ring(2), cyclic_group_data(2), 2),
        (cyclic_group_ring(3), cyclic_group_data(3), 2),
        (cyclic_group_ring(4), cyclic_group_data(4), 3),
        (tensor_product(cyclic_group_ring(2), cyclic_group_ring(2)), klein_four_data(), 5),
        (permutation_group_ring(3), symmetric3_data(), 4),
    ]
    for ring, group, expected in cases:
        oracle = subgroups_up_to_conjugacy(*group)
        assert oracle == expected
        result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
        assert result.complete
        assert len(result.classes) == oracle, ring.name
        verdict = is_torsion_free(ring)
        assert verdict.status == "not_torsion_free", ring.name
    assert time.monotonic() - start < 60.0


@criterion(3, "axiom suites pass on all finite builtins, tensor squares, and lazy truncations")
def test_criterion_3_axiom_suites():
    finite = [
        fibonacci(),
        cyclic_group_ring(2),
        cyclic_group_ring(3),
        cyclic_group_ring(4),
        tensor_product(cyclic_group_ring(2), cyclic_group_ring(2)),
        permutation_group_ring(3),
    ] + [su2_level(n) for n in range(1, 7)]
    for ring in finite:
        report = verify_based_ring(ring)
        assert report.ok, f"{ring.name}: {report.text()}"
    for r1, r2 in itertools.combinations_with_replacement(finite, 2):
        report = verify_based_ring(tensor_product(r1, r2))
        assert report.ok, f"{r1.name} x {r2.name}: {report.text()}"

    report = verify_lazy_ring(su2_ring(), 20)
    assert report.ok, report.text()
    a2_report = verify_lazy_ring(free_unitary_ring(), 4)
    assert a2_report.ok, a2_report.text()
    # the word-triple associativity check is the named check of that suite
    assert any(c.name == "associativity" and c.passed for c in a2_report.checks)
    fp_report = verify_lazy_ring(free_product([fibonacci(), fibonacci()]), 4)
    assert fp_report.ok, fp_report.text()


@criterion(4, "tensor square of the golden ring yields isomorphic subring witnesses")
def test_criterion_4_tensor_obstruction():
    report = tensor_obstruction_probe(fibonacci(), fibonacci())
    assert not report.torsion_free
    assert report.witness_reports
    for wr in report.witness_reports:
        assert wr.nontrivial and wr.finite and wr.isomorphic
        assert wr.subring_left == ("1", "phi")
        assert wr.subring_right == ("1", "phi")
    twisted = twisted_tensor_module(fibonacci())
    assert verify_module(twisted).ok
    assert is_connected(twisted)
    assert is_cofinite(twisted).status == "cofinite"
    square = tensor_product(fibonacci(), fibonacci())
    assert canonical_key(twisted) != canonical_key(standard_module(square))


@criterion(5, "word-ring proof replay at depth 5: tree structure and half-line unfolding, < 30 s")
def test_criterion_5_word_ring_replay():
    start = time.monotonic()
    std = standard_module(free_unitary_ring())
    report = word_module_structure_check(std, 5)
    assert report.loop_free
    assert report.multi_edge_free
    assert report.two_way_free
    assert report.degree_bounds_ok
    assert report.is_tree
    assert report.dims_increasing
    assert report.branching_ok
    for depth in range(1, 7):
        unfolded = unfold_word_module(std, depth)
        assert all(a_infinity_check(c) for c in unfolded.components), depth
    assert time.monotonic() - start < 30.0


@criterion(6, "tensor-power coefficients re-expand to every label n <= 16 exactly")
def test_criterion_6_chebyshev_identity():
    ring = su2_ring()
    one = RingElement.basis("1")
    for n in range(17):
        coeffs = chebyshev_coeffs(n)
        total = RingElement()
        power = RingElement.basis("0")
        for k, c in enumerate(coeffs):
            if k > 0:
                power = fuse(ring, power, one)
            total = total + c * power
        assert total == RingElement.basis(str(n)), n


@criterion(7, "Schur bound on truncated lazy standard modules within 1e-6")
def test_criterion_7_schur_bound():
    window = standard_module(su2_ring()).truncate(12)
    check = schur_norm_check(window, window.dims, "1")
    assert check.radius <= 2.0 + 1e-6
    assert check.max_relative_error <= 1e-6
    assert check.rows_checked > 0

    word_window = standard_module(free_unitary_ring()).truncate(4)
    for label in ("p+", "p-"):
        check = schur_norm_check(word_window, word_window.dims, label)
        assert check.radius <= 2.0 + 1e-6
        assert check.max_relative_error <= 1e-6


@criterion(8, "Dynkin verdicts exact on all families, extended types cross-checked at 1e-8")
def test_criterion_8_dynkin_classifier():
    def graph(matrix, boundary=()):
        n = matrix.shape[0]
        return FusionGraph(
            tuple(f"v{i}" for i in range(n)), matrix, directed=False, boundary=frozenset(boundary)
        )

    def path(n):
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = 1
        return m

    def cycle(n):
        m = path(n)
        m[0, n - 1] = m[n - 1, 0] = 1
        return m

    def tadpole(n):
        m = path(n)
        m[n - 1, n - 1] = 1
        return m

    def star(legs):
        n = 1 + sum(legs)
        m = np.zeros((n, n), dtype=np.int64)
        idx = 1
        for leg in legs:
            prev = 0
            for _ in range(leg):
                m[prev, idx] = m[idx, prev] = 1
                prev = idx
                idx += 1
        return m

    def extended_d(n):
        inner = n - 3
        m = np.zeros((n + 1, n + 1), dtype=np.int64)
        chain = list(range(2, 2 + inner))
        for a, b in zip(chain, chain[1:]):
            m[a, b] = m[b, a] = 1
        m[0, chain[0]] = m[chain[0], 0] = 1
        m[1, chain[0]] = m[chain[0], 1] = 1
        m[n - 1, chain[-1]] = m[chain[-1], n - 1] = 1
        m[n, chain[-1]] = m[chain[-1], n] = 1
        return m

    for n in range(1, 13):
        verdict = dynkin_classify(graph(path(n)))
        assert (verdict.kind, verdict.size, verdict.norm_class) == ("A_n", n, "lt2")
    for n in range(2, 13):
        m = cycle(n + 1)
        verdict = dynkin_classify(graph(m))
        assert (verdict.kind, verdict.size, verdict.norm_class) == ("extended_A", n, "eq2")
        assert abs(spectral_radius(m) - 2.0) <= 1e-8
    for n in range(1, 13):
        m = tadpole(n)
        verdict = dynkin_classify(graph(m))
        assert (verdict.kind, verdict.size, verdict.norm_class) == ("tadpole", n, "lt2")
        assert spectral_radius(m) < 2.0
    verdict = dynkin_classify(graph(star([1, 1, 1, 1])))
    assert (verdict.kind, verdict.size, verdict.norm_class) == ("extended_D", 4, "eq2")
    assert abs(spectral_radius(star([1, 1, 1, 1])) - 2.0) <= 1e-8
    for n in range(5, 13):
        m = extended_d(n)
        verdict = dynkin_classify(graph(m))
        assert (verdict.kind, verdict.size, verdict.norm_class) == ("extended_D", n, "eq2")
        assert abs(spectral_radius(m) - 2.0) <= 1e-8
    for legs, kind in (([2, 2, 2], "extended_E6"), ([1, 3, 3], "extended_E7"), ([1, 2, 5], "extended_E8")):
        m = star(legs)
        verdict = dynkin_classify(graph(m))
        assert (verdict.kind, verdict.norm_class) == (kind, "eq2")
        assert abs(spectral_radius(m) - 2.0) <= 1e-8


@criterion(9, "Verlinde witnesses: level-3 quotient module and level-1 integer shortcut")
def test_criterion_9_verlinde_witnesses():
    verdict = is_torsion_free(su2_level(3))
    assert verdict.status == "not_torsion_free"
    quotient = quotient_module(su2_level(3), ["0", "3"])
    assert quotient.size == 2
    assert canonical_key(quotient) in {canonical_key(w) for w in verdict.witnesses}

    shortcut = integer_dim_shortcut(su2_level(1))
    assert shortcut is not None and shortcut.size == 1
    level1 = is_torsion_free(su2_level(1))
    assert level1.status == "not_torsion_free"


@criterion(10, "divisibility of the cyclic four-ring and the level-2 refutation")
def test_criterion_10_divisibility():
    z4 = cyclic_group_ring(4)
    witness = is_divisible(z4, ["0", "2"])
    assert witness.divisible
    sub = subring_generated(z4, "2").as_table()
    induced = induced_module(z4, witness, singleton_module(sub))
    quotient = quotient_module(z4, ["0", "2"])
    assert induced.size == quotient.size == 2
    for alpha in z4.basis:
        assert np.array_equal(induced.matrix(alpha), quotient.matrix(alpha))
    refuted = is_divisible(su2_level(2), ["0", "2"])
    assert not refuted.divisible


@criterion(11, "criteria 1-2 outputs byte-identical across 1, 2, and 8 worker threads")
def test_criterion_11_thread_determinism(tmp_path):
    from fusionrings.documents import ring_to_document, write_document

    klein_path = tmp_path / "klein.json"
    write_document(
        str(klein_path),
        ring_to_document(tensor_product(cyclic_group_ring(2), cyclic_group_ring(2))),
    )
    targets = [
        ("z2", "builtin:cyclic?n=2"),
        ("z3", "builtin:cyclic?n=3"),
        ("z4", "builtin:cyclic?n=4"),
        ("klein", str(klein_path)),
        ("s3", "builtin:symmetric?n=3"),
    ]

    def run(threads):
        env = dict(os.environ, FUSION_THREADS=str(threads), PYTHONPATH=str(SRC))
        outputs = []
        proc = subprocess.run(
            [sys.executable, "-m", "fusionrings.cli", "torsion", "builtin:fibonacci"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
        for name, uri in targets:
            out_dir = tmp_path / f"t{threads}_{name}"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "fusionrings.cli", "enumerate", uri,
                    "--out", str(out_dir),
                ],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            summary = proc.stdout.splitlines()[-1]
            outputs.append(summary)
            for doc in sorted(os.listdir(out_dir)):
                outputs.append((out_dir / doc).read_bytes())
        return outputs

    first = run(1)
    for threads in (2, 8):
        assert run(threads) == first


@criterion(12, "free-product shadow: standard-module probes pass at depth 3")
def test_free_product_probe_shadow():
    fib_square = free_product([fibonacci(), fibonacci()])
    report = free_product_module_probe(fib_square, standard_module(fib_square), 3)
    assert report.ok, report.obstructions
    z2z3 = free_product([cyclic_group_ring(2), cyclic_group_ring(3)])
    report = free_product_module_probe(z2z3, standard_module(z2z3), 3)
    assert report.ok, report.obstructions
