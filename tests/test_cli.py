"""The fusion command line: outputs, exit codes, file artifacts."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionrings.cli import main
from fusionrings.documents import ring_to_document, write_document
from fusionrings import cyclic_group_ring, fibonacci

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


@pytest.fixture
def z2_path(tmp_path):
    path = tmp_path / "z2.json"
    write_document(str(path), ring_to_document(cyclic_group_ring(2)))
    return str(path)


def test_verify_fibonacci(capsys):
    assert main(["verify", "builtin:fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert "associativity" in out


def test_verify_broken_ring_exit_1(tmp_path, capsys):
    doc = ring_to_document(cyclic_group_ring(2))
    # break the unit law: 0*1 = 0 instead of 1
    doc["products"] = [["0", "0", "0", 1], ["0", "1", "0", 1], ["1", "0", "1", 1], ["1", "1", "0", 1]]
    path = tmp_path / "broken.json"
    write_document(str(path), doc)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["verify", str(path)]) == 2


def test_verify_lazy_depth(capsys):
    assert main(["verify", "builtin:a2", "--depth", "3"]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_fuse_su2_ring(capsys):
    assert main(["fuse", "builtin:a1", "1", "2"]) == 0
    assert capsys.readouterr().out == "1*1 + 1*3\n"


def test_fuse_word_ring(capsys):
    assert main(["fuse", "builtin:a2", "p+", "p-"]) == 0
    assert capsys.readouterr().out == "1*e + 1*p+p-\n"


def test_fuse_word_ring_square(capsys):
    assert main(["fuse", "builtin:a2", "p+p-", "p+p-"]) == 0
    assert capsys.readouterr().out == "1*e + 1*p+p- + 1*p+p-p+p-\n"


def test_fuse_unit_alias(capsys):
    assert main(["fuse", "builtin:fibonacci", "unit", "phi"]) == 0
    assert capsys.readouterr().out == "1*phi\n"


def test_fuse_unknown_label_exit_2(capsys):
    assert main(["fuse", "builtin:fibonacci", "zeta", "phi"]) == 2


def test_dims_fibonacci(capsys):
    assert main(["dims", "builtin:fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "phi: 1.618033989" in out
    assert "exactness: quadratic" in out


def test_dims_group_ring(capsys):
    assert main(["dims", "builtin:cyclic?n=4"]) == 0
    out = capsys.readouterr().out
    assert out.count(": 1\n") == 4


def test_dims_su2_level_2(capsys):
    assert main(["dims", "builtin:su2?level=2"]) == 0
    out = capsys.readouterr().out
    assert "1: 1.414213562" in out


def test_enumerate_writes_documents(tmp_path, z2_path, capsys):
    out_dir = tmp_path / "classes"
    assert main(["enumerate", z2_path, "--max-size", "4", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "classes=2" in out and "status=complete" in out
    files = sorted(os.listdir(out_dir))
    assert files == ["module_000.json", "module_001.json"]
    doc = json.loads((out_dir / "module_000.json").read_text())
    assert doc["format"] == "fusionmodule/1"


def test_enumerate_budget_exhaustion_exit_3(tmp_path, capsys):
    ff = tmp_path / "ff.json"
    write_document(str(ff), ring_to_document(__import__("fusionrings").tensor_product(fibonacci(), fibonacci())))
    code = main(["enumerate", str(ff), "--max-size", "6", "--budget", "0.0"])
    assert code == 3
    assert "status=inconclusive" in capsys.readouterr().out


def test_torsion_fibonacci(capsys):
    assert main(["torsion", "builtin:fibonacci"]) == 0
    assert capsys.readouterr().out == "torsion_free_certified\n"


def test_torsion_z2_with_witness_files(tmp_path, z2_path, capsys):
    out_dir = tmp_path / "witnesses"
    assert main(["torsion", z2_path, "--out", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not_torsion_free\n")
    assert "witness:" in out
    assert sorted(os.listdir(out_dir)) == ["witness_000.json"]


def test_product_tensor(tmp_path, capsys):
    out_path = tmp_path / "ff.json"
    code = main(["product", "--tensor", "builtin:fibonacci", "builtin:fibonacci", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["basis"]) == 4


def test_product_free_emits_tag(capsys):
    assert main(["product", "--free", "builtin:fibonacci", "builtin:fibonacci"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lazy"]["kind"] == "free_product"
    assert len(doc["lazy"]["factors"]) == 2


def test_product_tensor_with_lazy_factor_exit_2(capsys):
    assert main(["product", "--tensor", "builtin:fibonacci", "builtin:a1"]) == 2


def test_graph_fibonacci_tadpole(tmp_path, capsys):
    dot_path = tmp_path / "fib.dot"
    code = main(["graph", "builtin:fibonacci", "--standard", "--alpha", "phi", "--dot", str(dot_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: tadpole T_2 (norm < 2)" in out
    text = dot_path.read_text()
    assert '"phi" -> "phi";' in text


def test_graph_dot_is_written_atomically(tmp_path, capsys, monkeypatch):
    argv = ["graph", "builtin:fibonacci", "--standard", "--alpha", "phi"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.split("verdict:")[0].encode()
    dot_path = tmp_path / "out" / "fib.dot"
    assert main(argv + ["--dot", str(dot_path)]) == 0
    assert dot_path.read_bytes() == expected

    def fail(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", fail)
    other = tmp_path / "other" / "fib.dot"
    with pytest.raises(OSError, match="interrupted"):
        main(argv + ["--dot", str(other)])
    assert list(other.parent.iterdir()) == []


def test_graph_of_a_module_without_a_dimension_vector(tmp_path, capsys):
    from fusionrings import BasedModuleTable
    from fusionrings.documents import module_to_document

    z2 = cyclic_group_ring(2)
    swap = {("0", b): {b: 1} for b in ("a0", "a1", "b0", "b1")}
    swap |= {("1", "a0"): {"a1": 1}, ("1", "a1"): {"a0": 1}, ("1", "b0"): {"b1": 1}, ("1", "b1"): {"b0": 1}}
    path = tmp_path / "two.json"
    write_document(str(path), module_to_document(BasedModuleTable(z2, ["a0", "a1", "b0", "b1"], swap)))
    assert main(["graph", str(path), "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "d=" not in out
    assert "verdict: disconnected, 2 components" in out


def test_graph_su2_ring_truncation(capsys):
    assert main(["graph", "builtin:a1", "--standard", "--alpha", "1", "--depth", "10"]) == 0
    out = capsys.readouterr().out
    assert "A-infinity truncation" in out


def test_graph_quotient_module_cycle(tmp_path, capsys):
    from fusionrings import quotient_module
    from fusionrings.documents import module_to_document

    q = quotient_module(cyclic_group_ring(4), ["0", "2"])
    path = tmp_path / "q.json"
    write_document(str(path), module_to_document(q))
    assert main(["graph", str(path), "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert '"0" -> "1";' in out and '"1" -> "0";' in out


@pytest.mark.parametrize(
    "uri,alpha,lines",
    [
        ("builtin:fibonacci", "1",
         ["component 1: tadpole T_1 (norm < 2)", "component phi: tadpole T_1 (norm < 2)"]),
        ("builtin:su2?level=2", "2",
         ["component 0 2: A_2 (norm < 2)", "component 1: tadpole T_1 (norm < 2)"]),
    ],
)
def test_graph_classifies_each_component(uri, alpha, lines, capsys):
    assert main(["graph", uri, "--standard", "--alpha", alpha]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph fusion {")
    assert out.splitlines()[-3:] == ["verdict: disconnected, 2 components"] + lines


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 2}), encoding="utf-8")
    assert main(["verify", "builtin:a2", "--config", str(config)]) == 0


@pytest.mark.parametrize("command,config", [
    ("torsion", {"max_size": "8"}),
    ("enumerate", {"max_size": "8"}),
    ("torsion", {"max_size": 0}),
    ("enumerate", {"max_size": 2.0}),
    ("enumerate", {"max_size": True}),
    ("enumerate", {"max_size": None}),
    ("verify", {"depth": "3"}),
    ("verify", {"depth": -1}),
    ("enumerate", {"budget": "x"}),
    ("torsion", {"budget": -1}),
    ("torsion", {"budget": False}),
])
def test_malformed_config_value_exit_2(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "builtin:fibonacci", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config {next(iter(config))!r} must be")


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_bad_budget_flag_exit_2(capsys, budget):
    assert main(["torsion", "builtin:fibonacci", "--budget", budget]) == 2
    assert capsys.readouterr().err == "error: time_budget must be a nonnegative number of seconds\n"


@pytest.mark.parametrize("command", ["verify", "enumerate", "torsion"])
def test_unknown_config_key_exit_2(tmp_path, capsys, command):
    # a misspelt key used to be ignored: enumerate ran the full search and exited 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max-size": 1, "budgt": 0}), encoding="utf-8")
    assert main([command, "builtin:su2?level=5", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config key 'max-size'\n"


@pytest.mark.parametrize("command", ["enumerate", "torsion"])
def test_max_size_flag_zero_exit_2(capsys, command):
    assert main([command, "builtin:fibonacci", "--max-size", "0"]) == 2
    assert capsys.readouterr().err == "error: max_basis_size must be at least 1\n"


def test_config_search_values_accepted(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_size": 2, "budget": None, "depth": 0}), encoding="utf-8")
    assert main(["enumerate", "builtin:fibonacci", "--config", str(path)]) == 0
    path.write_text(json.dumps({"max_size": 2, "budget": 60}), encoding="utf-8")
    assert main(["torsion", "builtin:fibonacci", "--config", str(path)]) == 0


def test_import_loads_numpy_only():
    code = (
        "import sys, fusionrings, fusionrings.cli\n"
        "print(sorted(m for m in ('networkx', 'scipy', 'hypothesis') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)}
    )
    assert proc.stdout == "[]\n"


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionrings.cli", "torsion", "builtin:fibonacci"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "torsion_free_certified\n"


def test_verify_module_document(tmp_path, capsys):
    from fusionrings import quotient_module
    from fusionrings.documents import module_to_document

    q = quotient_module(cyclic_group_ring(4), ["0", "2"])
    path = tmp_path / "q.json"
    write_document(str(path), module_to_document(q))
    assert main(["verify", str(path)]) == 0
    assert "Frobenius reciprocity" in capsys.readouterr().out


def test_verify_broken_module_document_exit_1(tmp_path, capsys):
    from fusionrings import standard_module
    from fusionrings.documents import module_to_document

    doc = module_to_document(standard_module(cyclic_group_ring(2)))
    doc["action"] = [row for row in doc["action"] if row[:2] != ["1", "0"]]
    doc["action"].append(["1", "0", "0", 1])  # breaks reciprocity and the group law
    path = tmp_path / "bad_module.json"
    write_document(str(path), doc)
    assert main(["verify", str(path)]) == 1


def test_module_over_a_structurally_broken_ring_exit_2(tmp_path, capsys):
    # the inline Z3 ring maps duals 0 -> 0, 1 -> 1, 2 -> 1: the module is
    # rejected with the ring's own structural fault, as the ring alone is
    from fusionrings import standard_module
    from fusionrings.documents import module_to_document

    doc = json.loads(json.dumps(module_to_document(standard_module(cyclic_group_ring(3)))))
    for entry in doc["ring"]["basis"]:
        if entry["id"] in ("1", "2"):
            entry["dual"] = "1"
    line = "STRUCTURAL  involution is not a bijection of the basis"
    for name, document in (("ring.json", doc["ring"]), ("module.json", doc)):
        path = tmp_path / name
        write_document(str(path), document)
        assert main(["verify", str(path)]) == 2
        assert line in capsys.readouterr().out.splitlines()


def _swapped_duals_ring():
    # su2_3 x su2_3 with the duals of 0|1 and 1|0 swapped: associative, but
    # the dual pairing fails first
    from fusionrings import su2_level, tensor_product
    from fusionrings.rings import BasedRingTable

    base = tensor_product(su2_level(3), su2_level(3))
    products = {(a, b): base.product(a, b) for a in base.basis for b in base.basis}
    involution = {**base.involution, "0|1": "1|0", "1|0": "0|1"}
    return BasedRingTable(base.basis, base.unit, involution, products, dims=base.dims), [], "dual pairing fails at 0|1, 0|1"


def _nonassociative_ring():
    # su2 level 3 with 2*2 = 0 + 1: it has no dimension function either,
    # and the axiom check comes first, with a size bound or without one
    from fusionrings import su2_level
    from fusionrings.rings import BasedRingTable

    base = su2_level(3)
    products = {(a, b): base.product(a, b) for a in base.basis for b in base.basis}
    products["2", "2"] = {"0": 1, "1": 1}
    return BasedRingTable(base.basis, base.unit, base.involution, products), ["--max-size", "4"], "associativity fails at 1, 1"


@pytest.mark.parametrize("make", [_swapped_duals_ring, _nonassociative_ring])
@pytest.mark.parametrize("command", ["enumerate", "torsion"])
def test_a_ring_that_fails_an_axiom_is_not_searched_exit_2(tmp_path, capsys, command, make):
    ring, options, failure = make()
    path = tmp_path / "ring.json"
    write_document(str(path), ring_to_document(ring))
    out = tmp_path / "out"
    # with the given size bound and with the default one, read from the ring
    for argv in ([command, str(path), "--out", str(out), *options], [command, str(path), "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "requires a based ring: " in captured.err and failure in captured.err
        assert not out.exists()


def test_graph_symmetrizes_nonsymmetric_action(capsys):
    # the shift action of the cyclic three-ring symmetrizes to a cycle
    assert main(["graph", "builtin:cyclic?n=3", "--standard", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "extended Dynkin A~2 cycle (norm = 2)" in out


def test_enumerate_fibonacci_k6(capsys):
    assert main(["enumerate", "builtin:fibonacci", "--max-size", "6"]) == 0
    out = capsys.readouterr().out
    assert "classes=1" in out


def test_product_then_torsion_chain(tmp_path, capsys):
    square = tmp_path / "square.json"
    assert main(["product", "--tensor", "builtin:fibonacci", "builtin:fibonacci", "--out", str(square)]) == 0
    capsys.readouterr()
    assert main(["torsion", str(square)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not_torsion_free")


# sha256 of the class documents that ``fusion enumerate --out`` writes, in
# name order, as the search wrote them before leaf completion read the
# exact rows
ENUMERATED_BYTES = {
    "builtin:cyclic?n=12": "3a16cb59f1b19c2a893b485d1c6c6794f60b5f7a6f08c1bf027d04f226a55478",
    "builtin:symmetric?n=3": "d05e2c233b2a9881fb4b1b2c0f74b02b01e5dee1ecc91a77f82ef7924acdff99",
    "builtin:su2?level=5": "5978a5b49b8bd69bf921bddca1700ce9829288ec70110f3a84b751ca0788cc4e",
}


@pytest.mark.parametrize("src", list(ENUMERATED_BYTES))
def test_enumerate_documents_pinned(src, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", src, "--out", str(tmp_path)]) == 0
    docs = b"".join((tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path)))
    assert hashlib.sha256(docs).hexdigest() == ENUMERATED_BYTES[src]


def _z2_ring_doc():
    return json.loads(json.dumps(ring_to_document(cyclic_group_ring(2))))


def _z2_module_doc():
    from fusionrings import standard_module
    from fusionrings.documents import module_to_document

    return json.loads(json.dumps(module_to_document(standard_module(cyclic_group_ring(2)))))


def _edited(make, edit):
    doc = make()
    edit(doc)
    return doc


MALFORMED_DOCUMENTS = {
    "unit is a list": lambda: _edited(_z2_ring_doc, lambda d: d.__setitem__("unit", ["0"])),
    "basis id is a list": lambda: _edited(_z2_ring_doc, lambda d: d["basis"][1].__setitem__("id", ["1"])),
    "dual is a list": lambda: _edited(_z2_ring_doc, lambda d: d["basis"][1].__setitem__("dual", ["1"])),
    "lazy tag is a string": lambda: {"format": "fusionring/1", "lazy": "a2"},
    "free product factor is not an object": lambda: {
        "format": "fusionring/1",
        "lazy": {"kind": "free_product", "factors": [{"format": "fusionring/1", "lazy": {"kind": "a1"}}, "a2"]},
    },
    "module action is not a list": lambda: _edited(_z2_module_doc, lambda d: d.__setitem__("action", 7)),
    "module basis entry is unhashable": lambda: _edited(_z2_module_doc, lambda d: d["basis"].__setitem__(0, ["0"])),
    "module ring is a number": lambda: _edited(_z2_module_doc, lambda d: d.__setitem__("ring", 2)),
    "module ring is a list": lambda: _edited(_z2_module_doc, lambda d: d.__setitem__("ring", [_z2_ring_doc()])),
}


@pytest.mark.parametrize("case", list(MALFORMED_DOCUMENTS))
def test_malformed_document_exit_2(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[case]()), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_nested_free_product_document_exit_2(tmp_path, capsys):
    fib = ring_to_document(fibonacci())
    inner = {"format": "fusionring/1", "lazy": {"kind": "free_product", "factors": [fib, fib]}}
    doc = {"format": "fusionring/1", "lazy": {"kind": "free_product", "factors": [inner, _z2_ring_doc()]}}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path), "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "word separator" in err and "Traceback" not in err


# a ring whose involution maps a -> b and b -> b is structurally broken (exit
# 2 from every command); a sound ring with x.x = 2.1 has no dimension
# function, a negative verdict from verify (failed axioms) and dims
# ("multiplicativity fails at ('x', 'x')"), exit 1, and no based ring, so
# enumerate and torsion reject it as input before reading a bound, exit 2
VERDICT_DOCUMENTS = {
    "broken involution": ({
        "format": "fusionring/1", "name": "broken", "unit": "a",
        "basis": [{"id": "a", "dual": "b"}, {"id": "b", "dual": "b"}],
        "products": [["a", "a", "a", 1], ["a", "b", "b", 1], ["b", "a", "b", 1], ["b", "b", "a", 1]],
    }, {"verify": 2, "enumerate": 2, "torsion": 2, "dims": 2}, "involution is not a bijection of the basis"),
    "no dimension function": ({
        "format": "fusionring/1", "name": "nodim", "unit": "1",
        "basis": [{"id": "1", "dual": "1"}, {"id": "x", "dual": "x"}],
        "products": [["1", "1", "1", 1], ["1", "x", "x", 1], ["x", "1", "x", 1], ["x", "x", "1", 2]],
    }, {"verify": 1, "enumerate": 2, "torsion": 2, "dims": 1}, "fail"),
}


@pytest.mark.parametrize("command", ["verify", "enumerate", "torsion", "dims"])
@pytest.mark.parametrize("case", list(VERDICT_DOCUMENTS))
def test_exit_code_of_each_command(case, command, tmp_path, capsys):
    doc, codes, message = VERDICT_DOCUMENTS[case]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == codes[command]
    out, err = capsys.readouterr()
    assert message in out + err and "Traceback" not in err


def test_torsion_below_the_certified_bound_exit_3(capsys):
    assert main(["torsion", "builtin:fibonacci", "--max-size", "1"]) == 3
    assert capsys.readouterr().out == "inconclusive\n"


def test_fuse_rejects_a_second_spelling_of_a_word_exit_2(tmp_path, capsys):
    path = tmp_path / "z.json"
    assert main(["product", "--free", "builtin:cyclic?n=2", "builtin:cyclic?n=3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["fuse", str(path), "e", "01:1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'01:1' is not in ring" in err


def test_enumerate_cut_search_certifies_no_bound_exit_3(capsys):
    assert main(["enumerate", "builtin:su2?level=5", "--budget", "0"]) == 3
    assert capsys.readouterr().out == "classes=0 certified_bound=0 status=inconclusive\n"


@pytest.mark.parametrize("argv,message", [
    (["fuse", "{}", "0", "1"], "fuse expects a ring, not a module"),
    (["dims", "{}"], "dims expects a finite ring document"),
    (["enumerate", "{}"], "enumerate expects a finite ring document"),
    (["torsion", "{}"], "torsion expects a finite ring document"),
    (["product", "--free", "builtin:fibonacci", "{}"], "product expects ring documents"),
])
def test_module_document_where_a_ring_is_expected_exit_2(argv, message, tmp_path, capsys):
    from fusionrings import standard_module
    from fusionrings.documents import module_to_document

    path = tmp_path / "module.json"
    write_document(str(path), module_to_document(standard_module(cyclic_group_ring(2))))
    assert main([str(path) if arg == "{}" else arg for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_graph_of_a_ring_needs_standard_exit_2(capsys):
    assert main(["graph", "builtin:fibonacci", "--alpha", "phi"]) == 2
    assert capsys.readouterr().err == "error: a ring document needs --standard to pick its module\n"


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config"),
    ("[1, 2]", "config must be a JSON object"),
])
def test_config_that_is_not_an_object_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["enumerate", "builtin:fibonacci", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_unknown_document_format_exit_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"format": "nope/1"}', encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown document format 'nope/1'\n"


def test_graph_alpha_unit_is_the_ring_unit(capsys):
    assert main(["graph", "builtin:fibonacci", "--standard", "--alpha", "unit"]) == 0
    assert capsys.readouterr().out == (
        "digraph fusion {\n"
        '  "1" [label="1 d=1"];\n'
        '  "phi" [label="phi d=1.618033989"];\n'
        '  "1" -> "1";\n'
        '  "phi" -> "phi";\n'
        "}\n"
        "verdict: disconnected, 2 components\n"
        "component 1: tadpole T_1 (norm < 2)\n"
        "component phi: tadpole T_1 (norm < 2)\n"
    )


@pytest.mark.parametrize("argv, code", [
    (["enumerate", "builtin:symmetric?n=3"], 0),
    (["torsion", "builtin:su2?level=5"], 1),
])
def test_written_documents_are_json_dumps_of_their_content(argv, code, tmp_path):
    # the class and witness documents of one run share one encoding of their
    # ring; each file must still be the canonical json.dumps of what it holds
    from fusionrings.documents import resolve_ring

    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path)]) == code
    ring_doc = ring_to_document(resolve_ring(argv[1]))
    names = sorted(os.listdir(tmp_path))
    assert names
    for name in names:
        text = (tmp_path / name).read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert doc["ring"] == ring_doc


LONE_SURROGATE = "\ud800"  # a JSON "\ud800" escape decodes to it; UTF-8 cannot encode it


def _ring_with_a_lone_surrogate_label():
    doc = _z2_ring_doc()
    return json.loads(json.dumps(doc).replace('"1"', json.dumps(LONE_SURROGATE)))


def _module_with_a_lone_surrogate_label():
    doc = _z2_module_doc()
    doc["ring"] = "builtin:cyclic?n=2"
    swap = {"1": LONE_SURROGATE}
    doc["basis"] = [swap.get(b, b) for b in doc["basis"]]
    doc["action"] = [[alpha, swap.get(b, b), swap.get(c, c), mult] for alpha, b, c, mult in doc["action"]]
    return doc


def _ring_with_a_lone_surrogate_name():
    doc = _z2_ring_doc()
    doc["name"] = LONE_SURROGATE
    return doc


@pytest.mark.parametrize("make, commands, message", [
    (_ring_with_a_lone_surrogate_label, ["verify", "enumerate", "torsion"], "label is not UTF-8 text"),
    (_module_with_a_lone_surrogate_label, ["verify"], "label is not UTF-8 text"),
    (_ring_with_a_lone_surrogate_name, ["verify", "enumerate"], "ring document name is not UTF-8 text"),
])
def test_text_that_is_not_utf8_is_rejected_at_load_exit_2(make, commands, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make()), encoding="utf-8")
    assert "\\ud800" in path.read_text(encoding="utf-8")
    for command in commands:
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command != "verify" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}: '\\ud800'\n"
        assert not out.exists()
