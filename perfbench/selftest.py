"""Fast self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

For each workload it runs one small cycle and requires that no op fails,
that the same seed gives the same output digest, that every output check
rejects a copy of a validated output with one sign flipped, and that after
a traced cycle every rebound function ``is`` its original again.  It also
checks that the metric names the harness prints are the ones
``BENCHMARK.json`` lists.  Exits 0 when everything holds.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import sys

import run


def _snapshot(tracer):
    """Every attribute of the traced modules and of the wrapped classes."""
    owners = list(tracer.modules) + list(tracer.class_methods)
    return {id(o): (o, dict(vars(o))) for o in owners}


def _unchanged(snap) -> bool:
    for owner, before in snap.values():
        now = vars(owner)
        if set(now) != set(before) or any(now[k] is not v for k, v in before.items()):
            return False
    return True


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import gates
    import layers
    import workloads
    from pace import Pace

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    tmp = run.RUN_DIR / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for w in workloads.WORKLOADS:
            pace = Pace()
            records, _, digest, failures = run.run_pass(w, 0, tmp, cycles=1, small=True,
                                                        pace=pace)
            problems += [f"{w}: {f}" for f in failures]
            if run.run_pass(w, 0, tmp, cycles=1, small=True)[2] != digest:
                problems.append(f"{w}: the same seed gave a different digest")

            for op in workloads.cycle(w, 0, 0, tmp, small=True):
                out = op.run()
                op.check(out)
                try:
                    op.check(op.corrupt(out))
                except gates.GateError:
                    pass
                else:
                    problems.append(f"{w}: a corrupted output of {op.label} passed")

            tracer = layers.make_tracer()
            snap = _snapshot(tracer)
            tracer.install()
            try:
                traced, _, _, failures = run.run_pass(w, 0, tmp, cycles=1, tracer=tracer,
                                                      small=True, pace=pace)
            finally:
                tracer.restore()
            problems += [f"{w} traced: {f}" for f in failures]
            if not tracer.restored() or not _unchanged(snap):
                problems.append(f"{w}: a traced function was not restored")
            wrapped = [o for o, _, _ in tracer.rebound]
            if not any(inspect.isclass(o) for o in wrapped):
                problems.append(f"{w}: no RandomStream method was wrapped")

            run.adjust(records + traced, pace)
            metrics, _ = layers.per_layer(tracer, traced, records, None)
            want = [m["name"] for m in spec["per_layer"]]
            if sorted(metrics) != sorted(want):
                problems.append(f"{w}: per-layer names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(want))}")
            e2e, _ = run.end_to_end(records, 1, [(records[0]["t0"], 1.0)], pace)
            want = [m["name"] for m in spec["end_to_end"]]
            if sorted(e2e) != sorted(want):
                problems.append(f"{w}: end-to-end names differ from BENCHMARK.json")
            print(f"{w}: {len(records)} ops, {len(tracer.spans)} spans, digest {digest[:12]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
