"""The hermline benchmark: four workloads, checked against closed-form oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with no build step.  Workloads (closed loop, one client: each
operation starts when the previous one has finished):

    theorem1       CLI verify-theorem1 on four fields, one process each
    remarks        CLI verify-remarks, exhaustive and sampled sweeps
    graph          CLI graph, distant and adjacency, json, dot and csv
    constructions  decompose_isotropic and common_complement, in one process

With ``--trace 0`` the benchmark times ``import hermline`` plus the field
builds in fresh interpreters (``setup_s``), then runs untraced passes
until S seconds have passed, at least one, and reports the end-to-end
metrics.  Pass times are given in seconds and in reference units (see
reference.py), which cancel the drifting speed of a shared machine.
With ``--trace 1`` it runs one untraced pass and two traced
passes, each operation in a fresh process, and reports per-layer call
counts and self times; S does not apply.  Every CLI output is checked
against the oracles and its sha256 must repeat across all passes,
traced or not.  Per-layer call counts must repeat across the two traced
passes.  The last line of stdout is a JSON summary holding the metrics
that BENCHMARK.json names; the line before it holds every metric and the
run record.  Exit status is 0 when every check passed, 1 when one
failed and 2 when the checkout holds no hermline source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import constructions
import reference
import workloads
from workloads import CLI_WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("theorem1", "remarks", "graph", "constructions")
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170  # children still running then are killed, so a run ends in time

# Per-layer metrics: (name, unit).  Each names the end-to-end metric it
# should move in the comment beside it.
PER_LAYER = [
    ("fields.self_s", "s"),  # setup_s on constructions (GF(2^8) table build)
    ("fields.make_field.calls", "count"),
    ("fields.make_field.self_s", "s"),
    ("matrices.self_s", "s"),  # wall_s on theorem1 and remarks
    *(
        (f"matrices.{f}.{m}", u)
        for f in (
            "Matrix.init",  # wall_s on theorem1 and remarks
            "Matrix.mul",
            "Matrix.rref",
            "Matrix.rank",  # wall_s on graph
            "Matrix.inverse",  # wall_s and op_p50_ms on constructions
            "Subspace.init",
            "Subspace.intersect",
            "nullspace",
        )
        for m, u in (("calls", "count"), ("self_s", "s"))
    ),
    ("matrices.Matrix.identity.calls", "count"),
    ("projline.self_s", "s"),
    *(
        (f"projline.{f}.{m}", u)
        for f in ("bartolone", "relation", "annihilator", "JordanMapSpec.apply")
        for m, u in (("calls", "count"), ("self_s", "s"))
    ),
    ("projline.enumerate_points.self_s", "s"),
    ("projline.bartolone.useful_ratio", "ratio"),  # wall_s on theorem1, remarks
    ("projline.relation.hit_ratio", "ratio"),  # wall_s on graph and remarks
    ("hermitian.self_s", "s"),
    *(
        (f"hermitian.{f}.{m}", u)
        for f in (
            "is_totally_isotropic",  # wall_s on theorem1
            "decompose_isotropic",  # everything on constructions
            "common_complement",
            "isotropic_meeting_perp",
        )
        for m, u in (("calls", "count"), ("self_s", "s"))
    ),
    ("hermitian.hermitian_matrices.self_s", "s"),
    ("hermitian.enumerate_isotropic.self_s", "s"),
    ("harness.self_s", "s"),  # wall_s on remarks
    ("harness.pair_point_table.self_s", "s"),
    ("harness.adjacency_pairs.self_s", "s"),
    *(
        (f"harness.check_{c}.self_s", "s")
        for c in (
            "embedding_injectivity",
            "rank_law",
            "annihilator",
            "jordan_well_defined",
            "jordan_adjacency",
            "hermitian_star",
        )
    ),
    ("harness.build_graph.self_s", "s"),  # wall_s on graph
    ("harness.bfs_distances.calls", "count"),  # wall_s on graph json only
    ("harness.bfs_distances.self_s", "s"),
    ("cli.self_s", "s"),  # wall_s on graph
    ("cli.serialise.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


class Run:
    """Children, failures and counts of one benchmark invocation."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.children = 0
        self.op_walls: dict[str, list[float]] = {}
        self.op_rss: dict[str, float] = {}
        self.pass_walls: list[float] = []
        self.refs: list[float] = []
        self.measured_s = 0.0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def env(self) -> dict:
        """Child environment: the checkout's src and a per-child hash seed.

        Varying PYTHONHASHSEED between children, derived from the seed,
        lets the byte-determinism check catch output that depends on set
        or dict order.
        """
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = str((self.seed * 1_000_003 + self.children) % 2**32)
        self.children += 1
        return env

    def child(self, args: list[str]) -> tuple[float, float, int, bytes, str]:
        """Run one child in a clean temporary directory.

        Returns (wall seconds, peak RSS MiB, exit code, stdout, stderr
        tail).  The child is reaped with os.wait4, which gives its own
        rusage rather than the maximum over all children.
        """
        cwd = tempfile.mkdtemp(dir=SCRATCH)
        try:
            with tempfile.TemporaryFile(dir=SCRATCH) as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args],
                    cwd=cwd,
                    env=self.env(),
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    stderr=err,
                )
                timeout = max(1.0, self.deadline - time.perf_counter())
                watchdog = threading.Timer(timeout, proc.kill)
                watchdog.start()
                reaped = False
                try:
                    out = proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - start
                    reaped = True
                finally:
                    watchdog.cancel()
                    proc.stdout.close()
                    if not reaped:
                        proc.kill()
                        proc.wait()
                proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                tail = err.read()[-2000:].decode("utf-8", "replace")
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out, tail

    def child_json(self, args: list[str]) -> tuple[float, dict | None]:
        wall, _, rc, out, tail = self.child([str(HERE / "child.py"), *args])
        if rc != 0:
            self.fail(f"child {args[:3]} exited {rc}: {tail.strip()[-300:]}")
            return wall, None
        return wall, json.loads(out)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


# -- set-up -------------------------------------------------------------------


def workload_fields(workload: str):
    if workload == "constructions":
        return [f[:3] for f in constructions.FIELDS]
    return sorted({op.field for op in CLI_WORKLOADS[workload]})


def measure_setup(run: Run, workload: str) -> list[float]:
    """Per repeat, the summed import + make_field time of the workload's fields.

    Repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
    passed, so the median of the small CLI set-ups rests on many samples.
    """
    totals = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(totals) < SETUP_REPEATS or time.perf_counter() < deadline:
        total = 0.0
        for p, k, inv in workload_fields(workload):
            _, result = run.child_json(["setup", str(p), str(k), inv])
            if result is None:
                return []
            total += result["setup_s"]
        totals.append(total)
    return totals


# -- CLI workloads --------------------------------------------------------------


def cli_pass(run: Run, ops, expected: dict) -> dict:
    """One untraced pass: every op in its own fresh `python -m hermline.cli`.

    The first pass checks each output and records its digest and work
    units in `expected`; later passes must reproduce the digest.
    """
    wall = rss = 0.0
    for i, op in enumerate(ops):
        run.attempted += 1
        reference.sample(run.refs, run.measured_s)
        took, peak, rc, out, tail = run.child(["-m", "hermline.cli", *op.argv(run.seed)])
        wall += took
        run.measured_s += took
        rss = max(rss, peak)
        run.op_walls.setdefault(op.label(), []).append(took)
        run.op_rss[op.label()] = max(run.op_rss.get(op.label(), 0.0), peak)
        if rc != 0:
            run.fail(f"{op.label()}: exit status {rc}: {tail.strip()[-300:]}")
            continue
        digest = hashlib.sha256(out).hexdigest()
        if i not in expected:
            try:
                expected[i] = (digest, workloads.check(op, out, run.seed))
            except CheckFailed as exc:
                run.fail(f"{op.label()}: {exc}")
                expected[i] = (digest, 0)
        elif digest != expected[i][0]:
            run.fail(f"{op.label()}: stdout differs between runs")
    return {"wall": wall, "rss": rss}


def cli_traced_pass(run: Run, ops, expected: dict) -> tuple[float, dict]:
    wall = 0.0
    merged = new_trace()
    for i, op in enumerate(ops):
        run.attempted += 1
        took, result = run.child_json(["cli", *op.argv(run.seed)])
        wall += took
        if result is None:
            continue
        if result["rc"] != 0:
            run.fail(f"traced {op.label()}: exit status {result['rc']}")
        elif result["sha256"] != expected.get(i, (None,))[0]:
            run.fail(f"traced {op.label()}: stdout differs from the untraced run")
        merge_trace(merged, result["trace"])
    return wall, merged


# -- constructions --------------------------------------------------------------


def constructions_child(run: Run, seconds: float, trace: int) -> dict | None:
    _, result = run.child_json(["constructions", str(run.seed), str(seconds), str(trace)])
    if result is None:
        return None
    run.attempted += result["attempted"]
    for _ in range(result["failed"]):
        run.fail("constructions: a construction raised or broke its postconditions")
    for error in result["errors"]:
        print(f"constructions: {error}", file=sys.stderr)
    return result


# -- traces -----------------------------------------------------------------------


COUNTERS = ("bartolone_distinct", "relation_tests", "relation_hits", "output_bytes")


def new_trace() -> dict:
    return {"spans": {}, **dict.fromkeys(COUNTERS, 0)}


def merge_trace(into: dict, trace: dict) -> None:
    for name, span in trace["spans"].items():
        acc = into["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
        acc["calls"] += span["calls"]
        acc["self_s"] += span["self_s"]
    for key in COUNTERS:
        into[key] += trace.get(key, 0)


def exact_counts(trace: dict) -> dict:
    counts = {name: span["calls"] for name, span in trace["spans"].items()}
    return counts | {key: trace[key] for key in COUNTERS}


def layer_metrics(trace: dict) -> dict:
    """Every PER_LAYER value except the overhead ratio, from one traced pass."""
    spans = trace["spans"]

    def get(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    values = {}
    for name, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = get(head, "calls")
        elif field == "self_s" and "." in head:
            values[name] = get(head, "self_s")
        elif field == "self_s":
            values[name] = sum(
                s["self_s"] for n, s in spans.items() if n.startswith(head + ".")
            )
    bart = get("projline.bartolone", "calls")
    values["projline.bartolone.useful_ratio"] = (
        trace["bartolone_distinct"] / bart if bart else 0.0
    )
    tests = trace["relation_tests"]
    values["projline.relation.hit_ratio"] = trace["relation_hits"] / tests if tests else 0.0
    values["cli.output_bytes"] = trace["output_bytes"]
    return values


# -- measurement --------------------------------------------------------------------


def measure(run: Run, workload: str, seconds: float) -> dict:
    """Untraced passes until `seconds` have passed; the end-to-end metrics."""
    setup = measure_setup(run, workload)
    if workload == "constructions":
        result = constructions_child(run, seconds, 0)
        if result is None:
            return {}
        walls = result["pass_s"]
        run.refs += result["ref_s"]
        work = result["ops_per_pass"]
        rss = result["peak_rss_mib"]
        lat_ms = [t * 1e3 for t in result["latency_s"]]
    else:
        ops = CLI_WORKLOADS[workload]
        expected: dict = {}
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(cli_pass(run, ops, expected))
        reference.sample(run.refs, run.measured_s)
        walls = [p["wall"] for p in passes]
        work = sum(w for _, w in expected.values())
        rss = max(p["rss"] for p in passes)
        lat_ms = []
    run.pass_walls = walls
    wall = median(walls)
    wall_ref = wall / statistics.mean(run.refs)
    metrics = {
        "wall_s": (wall, "s", len(walls)),
        "wall_ref": (wall_ref, "ref", len(walls)),
        "setup_s": (median(setup), "s", len(setup)),
        "work_per_s": (work / wall if wall else 0.0, "1/s", len(walls)),
        "work_per_ref": (work / wall_ref if wall_ref else 0.0, "1/ref", len(walls)),
        "peak_rss_mib": (rss, "MiB", len(walls)),
    }
    if lat_ms:
        metrics["op_p50_ms"] = (percentile(lat_ms, 0.50), "ms", len(lat_ms))
        metrics["op_p99_ms"] = (percentile(lat_ms, 0.99), "ms", len(lat_ms))
    return metrics


def measure_traced(run: Run, workload: str) -> dict:
    """One untraced pass, then two traced passes whose counts must agree."""
    traced = []
    if workload == "constructions":
        plain = constructions_child(run, 0, 0)
        for _ in range(2):
            result = constructions_child(run, 0, 1)
            if plain is None or result is None:
                return {}
            if result["digest"] != plain["digest"]:
                run.fail("traced constructions: results differ from the untraced run")
            trace = new_trace()
            merge_trace(trace, result["trace"])
            traced.append((result["pass_s"][0], trace))
        untraced_wall = plain["pass_s"][0]
    else:
        ops = CLI_WORKLOADS[workload]
        expected: dict = {}
        untraced_wall = cli_pass(run, ops, expected)["wall"]
        traced = [cli_traced_pass(run, ops, expected) for _ in range(2)]
    first, second = (exact_counts(t) for _, t in traced)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        run.fail(f"traced call counts differ between two traced passes: {diff[:10]}")
    values = [layer_metrics(t) for _, t in traced]
    metrics = {
        name: (statistics.mean(v[name] for v in values), unit, 2)
        for name, unit in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    traced_wall = statistics.mean(w for w, _ in traced)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio", 2)
    return metrics


# -- run record and output -----------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hermline" / "__init__.py").is_file():
        print(f"error: no hermline source under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    run = Run(args.seed)
    try:
        run.child_json(["setup", "2", "1", "identity"])  # fill bytecode caches
        if args.trace:
            metrics = measure_traced(run, args.workload)
        else:
            metrics = measure(run, args.workload, args.seconds)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    correct = not failed and bool(metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit:6s} (n={samples})")
    print(f"{'error_rate':42s} {failed / attempted:14.6f} {'1':6s} ({failed}/{attempted})")
    record = run_record(args)
    record["failures"] = run.failures
    record["metrics"] = {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in metrics.items()
    }
    record["error_rate"] = failed / attempted
    record["pass_s"] = run.pass_walls
    record["reference_s"] = run.refs
    record["cli_ops"] = {
        label: {"wall_s": walls, "peak_rss_mib": run.op_rss[label]}
        for label, walls in run.op_walls.items()
    }
    print(json.dumps({"record": record}))
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared_metrics(args.trace)
            if name in metrics
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
