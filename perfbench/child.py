"""Child processes of the benchmark; each prints one JSON object.

    child.py setup P K INVOLUTION
        time ``import hermline`` plus ``make_field`` from inside a fresh
        interpreter;
    child.py cli ARG...
        run ``hermline.cli.main(ARGS)`` in process with every layer
        traced and stdout captured;
    child.py constructions SEED SECONDS TRACE
        run the constructions workload: untraced passes until SECONDS
        have passed (at least one), or with TRACE=1 one traced pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time


def _setup(p: str, k: str, involution: str) -> dict:
    start = time.perf_counter()
    import hermline

    hermline.make_field(int(p), int(k), involution)
    return {"setup_s": time.perf_counter() - start}


def _cli(*argv: str) -> dict:
    import hermline.cli

    from tracer import Tracer

    tracer = Tracer()
    captured = io.StringIO()
    real_stdout = sys.stdout
    tracer.install()
    sys.stdout = captured
    try:
        rc = hermline.cli.main(list(argv))
    finally:
        sys.stdout = real_stdout
        tracer.uninstall()
    out = captured.getvalue().encode("utf-8")
    trace = tracer.reduce()
    trace["output_bytes"] = len(out)
    return {"rc": rc, "sha256": hashlib.sha256(out).hexdigest(), "trace": trace}


def _constructions(seed: str, seconds: str, trace: str) -> dict:
    import hermline

    import constructions as cons
    import reference

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fields = cons.build_fields(hermline)
    if tracer:
        tracer.uninstall()
    inputs = cons.make_inputs(hermline, fields, int(seed))
    ops = cons.operations(inputs)
    clock = time.perf_counter
    deadline = clock() + float(seconds)
    expected: list[str] = []
    failed = attempted = 0
    pass_s, latencies, errors = [], [], []
    refs: list[float] = []
    reference.sample(refs, 0.0)
    while not pass_s or (tracer is None and clock() < deadline):
        if tracer:
            tracer.install()
        call = cons.calls(hermline)
        total = 0.0
        digests = []
        for kind, args in ops:
            t = clock()
            try:
                result = call[kind](*args)
            except Exception as exc:  # a construction that raises is a failed operation
                result = None
                errors.append(f"{kind}: {exc!r}")
            took = clock() - t
            total += took
            latencies.append(took)
            digests.append(None if result is None else cons.result_digest(kind, result))
            if not expected:
                ok = result is not None and cons.verify(kind, args, result)
                failed += not ok
        if tracer:
            tracer.uninstall()
        if expected:
            failed += sum(a != b for a, b in zip(digests, expected))
        else:
            expected = digests
        attempted += len(ops)
        pass_s.append(total)
        reference.sample(refs, sum(pass_s))
    out = {
        "pass_s": pass_s,
        "ref_s": refs,
        "latency_s": latencies,
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "digest": hashlib.sha256("".join(map(str, expected)).encode()).hexdigest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["trace"] = tracer.reduce()
    return out


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    handler = {"setup": _setup, "cli": _cli, "constructions": _constructions}[mode]
    result = handler(*rest)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
