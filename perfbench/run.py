"""Closed-loop benchmark of the ``fusion`` command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one operation at a time, in process, through
``fusionrings.cli.main(argv)``; an operation is one CLI invocation, or for
``verify-axioms`` a batch of three.  Every output is checked.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans recorded by ``tracing.py``) with ``--trace 1``.
End-to-end times are counted by ``refclock.RefClock`` at a fixed reference
speed of the machine, so that a busy host does not show as a slower program.
``--workload all`` runs every workload, each in its own process.  See
README.md for the metrics, the workloads and the measured baseline.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import inputs
from refclock import RefClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# torsion-verlinde5-w2 runs on request and as the twin inside traced
# torsion-verlinde5 runs; BENCHMARK.json leaves it out (see README.md)
WORKLOADS = ["enumerate-dihedral8", "torsion-verlinde5", "torsion-verlinde5-w2", "verify-axioms"]
TWINS = {"torsion-verlinde5": "torsion-verlinde5-w2", "torsion-verlinde5-w2": "torsion-verlinde5"}
SEARCH = {"enumerate-dihedral8", "torsion-verlinde5", "torsion-verlinde5-w2"}
VERLINDE = {"torsion-verlinde5", "torsion-verlinde5-w2"}
VERIFY = {"verify-axioms"}

SETUPS = 3  # set-ups measured per run: one in process, the rest in fresh interpreters
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, workloads on which it must read nonzero)
PER_LAYER = {
    "torsion.search.self_s": ("s", SEARCH),
    "torsion.search.nodes": ("count", SEARCH),
    "torsion.canonical_form.calls": ("count", SEARCH),
    "torsion.canonical_form.s": ("s", SEARCH),
    "torsion.canonical_key.calls": ("count", SEARCH),
    "torsion.canonical_key.s": ("s", SEARCH),
    "torsion.dedup.useful_ratio": ("ratio", SEARCH),
    "torsion.generating_set.s": ("s", SEARCH),
    "rings.ring_dims.s": ("s", SEARCH),
    "spectra.spectral_radius.calls": ("count", SEARCH),
    "torsion.is_torsion_free.self_s": ("s", VERLINDE),
    "torsion.workers.efficiency": ("ratio", VERLINDE),
    "rings.verify_based_ring.s": ("s", VERIFY),
    "rings.verify_lazy_ring.s": ("s", VERIFY),
    "rings.lazy_product.calls": ("count", VERIFY),
    "rings.lazy_product.s": ("s", VERIFY),
    "rings.fuse.calls": ("count", VERIFY),
    "rings.fuse.s": ("s", VERIFY),
    "modules.verify_module.s": ("s", VERIFY),
    "documents.resolve.s": ("s", set(WORKLOADS)),
    "documents.write.calls": ("count", SEARCH),
    "documents.write.s": ("s", SEARCH),
    "tracing.overhead": ("ratio", set()),
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def require_checkout() -> None:
    if not (ROOT / "src" / "fusionrings" / "__init__.py").is_file():
        fail(f"no fusionrings package under {ROOT / 'src'}; run from a full checkout")


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fusionrings.cli

    if Path(fusionrings.cli.__file__).resolve().parent != src / "fusionrings":
        fail(f"imported fusionrings from {fusionrings.cli.__file__}, not from {src}")
    return fusionrings.cli


# -- inputs and output checks ------------------------------------------------------


def prepare(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    """Write the seeded input documents; return the paths and what the
    outputs must show."""

    def save(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    if workload == "enumerate-dihedral8":
        labels, mul = inputs.dihedral_group(4)
        doc = inputs.relabel_ring(inputs.group_document("dihedral8", labels, mul), seed, mode)
        sizes = inputs.subgroup_indices(labels, mul)
        return {"ring": save("dihedral8.json", doc), "sizes": sizes, "bound": len(labels)}
    if workload in VERLINDE:
        doc = inputs.relabel_ring(inputs.verlinde_document(5), seed, mode)
        return {"ring": save("verlinde5.json", doc)}
    labels, mul = inputs.symmetric_group(4)
    ring = inputs.relabel_ring(inputs.group_document("sym4", labels, mul), seed, mode)
    return {"module": save("s4_standard.json", inputs.standard_module_document(ring, "s4_standard"))}


def invocations(workload: str, ctx: dict, outdir: str) -> list[tuple[list[str], str]]:
    """(argv, FUSION_THREADS) of each CLI call in one operation."""
    if workload == "enumerate-dihedral8":
        return [(["enumerate", ctx["ring"], "--out", outdir], "1")]
    if workload in VERLINDE:
        threads = "2" if workload.endswith("-w2") else "1"
        return [(["torsion", ctx["ring"], "--out", outdir], threads)]
    return [
        (["verify", "builtin:a2", "--depth", "4"], "1"),
        (["verify", "builtin:cyclic?n=64"], "1"),
        (["verify", ctx["module"]], "1"),
    ]


def _basis_size(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("format") != "fusionmodule/1":
        raise ValueError(f"{path} is not a module document")
    return len(doc["basis"])


def check(workload: str, ctx: dict, results: list[tuple[int, str]]) -> list[str]:
    """Problems with one operation's (exit code, stdout) results.  Checks
    only what survives a relabelling: exit codes, status lines, verdicts,
    class counts and size multisets, witness sizes."""
    problems = []
    if workload == "verify-axioms":
        for rc, out in results:
            lines = out.splitlines()
            if rc != 0 or not lines or lines[-1] != "result: ok" or any(l.startswith("FAIL") for l in lines):
                problems.append(f"verify: exit {rc}, last line {lines[-1] if lines else None!r}")
        return problems
    [(rc, out)] = results
    lines = out.splitlines()
    if workload == "enumerate-dihedral8":
        want = f"classes={len(ctx['sizes'])} certified_bound={ctx['bound']} status=complete"
        if rc != 0 or not lines or lines[-1] != want:
            return [f"enumerate: exit {rc}, last line {lines[-1] if lines else None!r}, want {want!r}"]
        sizes = []
        for line in lines[:-1]:
            size, path = line.split("size=")[1].split(" -> ")
            if _basis_size(path) != int(size):
                problems.append(f"{path} does not hold {size} basis elements")
            sizes.append(int(size))
        if sorted(sizes) != ctx["sizes"]:
            problems.append(f"class sizes {sorted(sizes)} != subgroup oracle {ctx['sizes']}")
        return problems
    witnesses = [l.split(": ", 1)[1] for l in lines[1:] if l.startswith("witness: ")]
    if rc != 1 or not lines or lines[0] != "not_torsion_free":
        return [f"torsion: exit {rc}, verdict {lines[0] if lines else None!r}, want not_torsion_free"]
    sizes = [_basis_size(p) for p in witnesses]
    if sizes != [3] or len(lines) != 2:
        problems.append(f"witness sizes {sizes}, want [3]")
    return problems


def digest(outdir: str) -> str:
    """sha256 over the emitted documents, in name order (information only)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0" + (Path(outdir) / name).read_bytes())
    return h.hexdigest()


# -- operations -------------------------------------------------------------------


class Client:
    """One closed-loop client: runs an operation, times it, checks it."""

    def __init__(self, cli, workload: str, ctx: dict, workdir: Path, clock: RefClock | None):
        self.cli = cli
        self.clock = clock
        self.workload = workload
        self.ctx = ctx
        self.outdir = str(workdir / "out")
        self.attempted = 0
        self.failed = 0

    def _call(self, calls):
        results = []
        for argv, threads in calls:
            os.environ["FUSION_THREADS"] = threads
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
            results.append((rc, out.getvalue()))
        return results

    def run(self, workload: str | None = None, tracer=None) -> dict:
        """One operation of ``workload`` (default: the client's own)."""
        workload = workload or self.workload
        shutil.rmtree(self.outdir, ignore_errors=True)
        calls = invocations(workload, self.ctx, self.outdir)
        self.attempted += 1
        spans = None
        ref0 = self.clock.read() if self.clock else None
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results = self._call(calls)
            else:
                results, spans = tracer.op("bench.op", self._call, calls)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0 + _child_cpu(children)
            ref = self.clock.read() - ref0 if self.clock else None
            problems = check(workload, self.ctx, results)
        except Exception:
            wall = cpu = ref = None
            problems = ["exception:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {workload}: " + "; ".join(problems), file=sys.stderr)
        return {"wall": wall, "cpu": cpu, "ref": ref, "ok": not problems, "spans": spans, "results": results if not problems else None}


def _child_cpu(before) -> float:
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


# -- the two kinds of run ----------------------------------------------------------


def setup(workload: str, seed: int, mode: str, workdir: Path, clock: RefClock | None):
    """Import, inputs for the seed, and one checked warm-up operation.
    Returns set-up seconds counted by ``clock`` from the start of the
    process, or wall seconds without one."""
    cli = import_package()
    ctx = prepare(workload, seed, mode, workdir)
    client = Client(cli, workload, ctx, workdir, clock)
    warm = client.run()
    setup_s = clock.read() if clock else time.perf_counter() - T_START
    emitted = os.path.isdir(client.outdir)
    info = f"emitted documents sha256 {digest(client.outdir)}" if emitted else "no documents emitted"
    return client, warm, setup_s, info


def cold_setup(args) -> float:
    """``setup`` in a fresh interpreter; returns its set-up reference seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--relabel", args.relabel, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])["setup_s"]


def closed_loop(seconds: float, step) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        step()
        if time.perf_counter() >= deadline:
            return


def twin_agreement(client: Client, tracer) -> list[str]:
    """The 1- and 2-worker searches must emit the same verdict and witness
    bytes.  Their node counts are reported but not compared."""
    seen = {}
    for name in ("torsion-verlinde5", "torsion-verlinde5-w2"):
        op = client.run(name, tracer)
        if not op["ok"]:
            return [f"{name} failed in the agreement check"]
        nodes = sum(s.facts["nodes"] for s in op["spans"] if s.name == "torsion.enumerate_modules")
        seen[name] = (op["results"][0][1].splitlines()[0], digest(client.outdir), nodes)
    (v1, d1, n1), (v2, d2, n2) = seen.values()
    print(f"worker agreement: verdict {v1!r} / {v2!r}, witness sha256 {d1[:16]} / {d2[:16]}, "
          f"nodes {n1} (1 worker) / {n2} (2 workers)")
    return [] if (v1, d1) == (v2, d2) else ["1- and 2-worker runs disagree"]


def run_untraced(args, workdir: Path, clock: RefClock) -> dict:
    client, _, first_setup, info = setup(args.workload, args.seed, args.relabel, workdir, clock)
    print(f"# {args.workload} seed={args.seed} relabel={args.relabel}: {info}")
    walls, cpus, refs = [], [], []

    def step():
        op = client.run()
        if op["ok"]:
            walls.append(op["wall"])
            cpus.append(op["cpu"])
            refs.append(op["ref"])

    closed_loop(args.seconds, step)
    clock.stop()
    peak = peak_rss_mb()
    problems = []
    setups = [first_setup]
    for _ in range(SETUPS - 1):
        client.attempted += 1
        try:
            setups.append(cold_setup(args))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            client.failed += 1
            problems.append(str(exc))
    if not walls:
        return result(client, problems + ["no operation succeeded"], {}, {})
    # CPU time at reference speed: the operation's CPU seconds, scaled as
    # the clock scaled its wall seconds
    cpu_refs = [c * r / w for w, c, r in zip(walls, cpus, refs)]
    setup_med = statistics.median(setups)
    for name, values in (("wall_ref_s", refs), ("cpu_ref_s", cpu_refs), ("wall_s", walls), ("cpu_s", cpus)):
        med, q1, q3 = quartiles(values)
        print(f"{name:12s} {med:.6f} s   q1 {q1:.6f}  q3 {q3:.6f}  n={len(values)}")
    print(f"wall_ref_s samples: {' '.join(f'{r:.3f}' for r in refs)}")
    print(f"wall_s samples:     {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s      {setup_med:.6f} s   runs {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"peak_rss_mb  {peak:.3f} MB")
    print(f"fail_ratio   {client.failed}/{client.attempted} = {client.failed / client.attempted:.4f}")
    metrics = {"wall_ref_s": statistics.median(refs), "cpu_ref_s": statistics.median(cpu_refs),
               "setup_s": setup_med, "peak_rss_mb": peak}
    return result(client, problems, metrics, END_TO_END)


def layer_metrics(spans):
    """(per-layer metrics, span table, (classes, canonical_key calls in the
    search)) of one traced operation."""
    from tracing import summarize, under

    table = summarize(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    search = [s for s in spans if s.name == "torsion.enumerate_modules"]
    keys_in_search = len(under(spans, "torsion.canonical_key", "torsion.enumerate_modules"))
    classes = sum(s.facts["classes"] for s in search)
    return {
        "torsion.search.self_s": get("torsion.enumerate_modules", "self_s"),
        "torsion.search.nodes": sum(s.facts["nodes"] for s in search),
        "torsion.canonical_form.calls": get("torsion.canonical_form", "calls"),
        "torsion.canonical_form.s": get("torsion.canonical_form", "s"),
        "torsion.canonical_key.calls": get("torsion.canonical_key", "calls"),
        "torsion.canonical_key.s": get("torsion.canonical_key", "s"),
        "torsion.dedup.useful_ratio": classes / keys_in_search if keys_in_search else 0.0,
        "torsion.generating_set.s": get("torsion.generating_set", "s"),
        "rings.ring_dims.s": get("rings.ring_dims", "s"),
        "spectra.spectral_radius.calls": get("spectra.spectral_radius", "calls"),
        "torsion.is_torsion_free.self_s": get("torsion.is_torsion_free", "self_s"),
        "rings.verify_based_ring.s": get("rings.verify_based_ring", "s"),
        "rings.verify_lazy_ring.s": get("rings.verify_lazy_ring", "s"),
        "rings.lazy_product.calls": get("rings.lazy_product", "calls"),
        "rings.lazy_product.s": get("rings.lazy_product", "s"),
        "rings.fuse.calls": get("rings.fuse", "calls"),
        "rings.fuse.s": get("rings.fuse", "s"),
        "modules.verify_module.s": get("modules.verify_module", "s"),
        "documents.resolve.s": get("documents.resolve", "s"),
        "documents.write.calls": get("documents.write", "calls"),
        "documents.write.s": get("documents.write", "s") + get("documents.to_document", "s"),
    }, table, (classes, keys_in_search)


def run_traced(args, workdir: Path) -> dict:
    client, _, _, info = setup(args.workload, args.seed, args.relabel, workdir, None)
    from tracing import Tracer

    tracer = Tracer()
    print(f"# {args.workload} seed={args.seed} relabel={args.relabel} traced: {info}")
    # untraced walls of this workload and, for the verlinde twins, of the other twin
    plain = {args.workload: []}
    if args.workload in TWINS:
        plain[TWINS[args.workload]] = []
    traced = []

    def step():
        for name, walls in plain.items():
            op = client.run(name)
            if op["ok"]:
                walls.append(op["wall"])
        op = client.run(tracer=tracer)
        if op["ok"]:
            traced.append(op)

    closed_loop(args.seconds, step)
    problems = twin_agreement(client, tracer) if args.workload in TWINS else []
    if not traced or not all(plain.values()):
        return result(client, problems + ["no operation succeeded"], {}, {})
    per_op = [layer_metrics(op["spans"]) for op in traced]
    metrics = {name: statistics.median(m[0][name] for m in per_op) for name in per_op[0][0]}
    untraced = statistics.median(plain[args.workload])
    metrics["tracing.overhead"] = statistics.median(op["wall"] for op in traced) / untraced - 1
    if args.workload in TWINS:
        one, two = (statistics.median(plain[n]) for n in ("torsion-verlinde5", "torsion-verlinde5-w2"))
        metrics["torsion.workers.efficiency"] = one / (2 * two)
    else:
        metrics["torsion.workers.efficiency"] = 0.0
    for name, (unit, exercised) in PER_LAYER.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
        if args.workload in exercised and not metrics[name] > 0:
            problems.append(f"self-test: {name} reads {metrics[name]} on {args.workload}")

    table, (classes, keys) = per_op[-1][1], per_op[-1][2]
    print(f"spans of the last traced operation ({len(traced[-1]['spans'])} spans, {len(traced)} traced ops):")
    print(f"  {'span':32s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}")
    print(f"torsion.dedup.useful_ratio base: {classes} classes / {keys} canonical_key calls under the search")
    print(f"tracing.overhead base: traced {statistics.median(op['wall'] for op in traced):.4f} s"
          f" / untraced {untraced:.4f} s, n={len(traced)}/{len(plain[args.workload])}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.dump(str(spans_path))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return result(client, problems, metrics, {name: unit for name, (unit, _) in PER_LAYER.items()})


def result(client: Client, problems: list[str], metrics: dict, units: dict) -> dict:
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed + (1 if problems and not client.failed else 0),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed ``workload/metric``."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--relabel", args.relabel]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if child is None:
            out["correct"] = False
            out["failed"] += 1
            continue
        out["correct"] &= child["correct"] and proc.returncode == 0
        out["attempted"] += child["attempted"]
        out["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            out["metrics"][f"{workload}/{name}"] = metric
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--relabel", choices=("order", "shuffle"), default="order",
                        help="order: seeded renaming that keeps label order (default); shuffle: any permutation")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    require_checkout()
    if args.workload == "all":
        out = run_all(args)
    else:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
        workdir.mkdir()
        try:
            if args.trace:
                out = run_traced(args, workdir)
            else:
                clock = RefClock(since=T_START)
                try:
                    if args.setup_only:
                        client, warm, setup_s, _ = setup(args.workload, args.seed, args.relabel, workdir, clock)
                        print(json.dumps({"setup_s": setup_s}))
                        return 0 if warm["ok"] else 1
                    out = run_untraced(args, workdir, clock)
                finally:
                    clock.stop()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
