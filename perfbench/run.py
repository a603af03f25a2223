"""relconn benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

The run generates its inputs and their expected answers from the seed,
starts a separate measuring process that imports relconn from `src/` and
calls `relconn.cli.main([... "--json"])` in a closed loop, checks every
output against the oracle, writes one record per executed operation to
`.perfbench_out/`, prints a table and the metrics, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, gen  # noqa: E402
from perfbench.tracing import METRICS as PER_LAYER  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 15
RUN_LIMIT_S = 170
# Times are scaled to a host on which measure.reference_work takes REF_S:
# each is multiplied by REF_S over the median of the reference times
# measured before it and before the REF_WINDOW operations on either side.
REF_S = 0.002
REF_WINDOW = 2

# name -> (unit, better); BENCHMARK.json lists the same metrics with bounds
END_TO_END = {"ops_per_s": ("1/s", "higher"), "latency_p50_ms": ("ms", "lower"),
              "latency_p90_ms": ("ms", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(args, workdir: Path, ops: list, warmup: list, deadline: float) -> dict:
    config = {
        "src": str(SRC), "workdir": str(workdir), "seconds": args.seconds,
        "trace": args.trace, "setup_reps": SETUP_REPS,
        "warmup": [op.argv for op in warmup],
        "ops": [op.worker_view() for op in ops],
        "result": str(workdir / "result.json"),
    }
    (workdir / "config.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.measure", str(workdir / "config.json")],
        cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with status {proc.returncode}")
    return json.loads((workdir / "result.json").read_text())


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time at the reference speed of the host around it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        out.append(t * REF_S / statistics.median(near))
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def summarize(rows: list[dict]) -> list[str]:
    """One line per (kind, size): count, median and max latency, failures."""
    groups = defaultdict(list)
    for r in rows:
        size = r["n"] if r["n"] is not None else f"k{r['max_arity']}"
        groups[r["kind"], str(size)].append(r)
    lines = [f"{'kind':<16}{'size':>6}{'ops':>6}{'p50 ms':>10}{'max ms':>10}"
             f"{'failed':>8}  routes"]
    for (kind, size), rs in sorted(groups.items(), key=lambda kv: (kv[0][0], _num(kv[0][1]))):
        lat = [r["latency_ms"] for r in rs]
        routes = ",".join(sorted({str(r["route"]) for r in rs}))
        lines.append(f"{kind:<16}{size:>6}{len(rs):>6}{statistics.median(lat):>10.2f}"
                     f"{max(lat):>10.2f}{sum(not r['ok'] for r in rs):>8}  {routes}")
    return lines


def _num(size: str) -> int:
    return int(size.lstrip("k"))


def run(args) -> dict:
    started = time.monotonic()
    if not (SRC / "relconn" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no relconn sources under {SRC}")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = gen.build(args.workload, args.seed, workdir,
                        gen.blocks_for(args.workload, args.seconds))
        warmup = gen.build_warmup(args.workload, workdir)
        gen_s = time.monotonic() - started
        result = measure(args, workdir, ops, warmup, started + RUN_LIMIT_S)

        by_id = {op.id: op for op in ops}
        verdicts = {}
        records = []
        rows = result["rows"]
        latencies = scaled([r[1] for r in rows], [r[5] for r in rows])
        for (op_id, elapsed, failure, digest, phase, ref), latency in zip(rows, latencies):
            op = by_id[op_id]
            if failure is None and (op_id, digest) not in verdicts:
                stdout = (workdir / "outputs" / f"{op_id}-{digest}.json").read_text()
                verdicts[op_id, digest] = checks.check(op, stdout, workdir)
            ok, route, reason = (False, None, failure) if failure is not None \
                else verdicts[op_id, digest]
            records.append({**op.meta, "op": op_id, "block": op.block, "kind": op.kind,
                            "phase": phase, "latency_ms": latency * 1e3,
                            "wall_ms": elapsed * 1e3, "reference_ms": ref * 1e3, "ok": ok,
                            "route": route, "reason": reason})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"records-{args.workload}-s{args.seed}-t{args.trace}.jsonl"
    (OUT / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"FAILED op {r['op']} ({r['kind']}): {r['reason']}", file=sys.stderr)

    timed = [r for r in records if r["phase"] != "untraced"]
    lat = [r["latency_ms"] for r in timed]
    busy_s = sum(lat) / 1e3
    e2e = {
        "ops_per_s": len(timed) / busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(scaled(result["setup_samples"], result["setup_refs"])),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print("\n".join(summarize(timed)))
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations generated "
          f"in {gen_s:.1f} s, {len(timed)} run in {busy_s:.2f} s, "
          f"{sum(x > e2e['latency_p90_ms'] for x in lat)} above p90")
    print(f"set-up: median {statistics.median(result['setup_samples']):.4f} s wall; reference "
          f"median {statistics.median(result['setup_refs']) * 1e3:.3f} ms in set-up, "
          f"{statistics.median(r['reference_ms'] for r in timed):.3f} ms in the loop "
          f"(times are scaled to {REF_S * 1e3:g} ms)")
    print(f"failed_ratio: {len(failed) / len(records):.4f} (failed/attempted)")
    if args.trace:
        # self times scaled by the traced loop's median reference time
        speed = REF_S / statistics.median(r["reference_ms"] / 1e3 for r in timed
                                          if r["phase"] == "traced")
        metrics = {k: v * speed if k.endswith(".self_s") else v
                   for k, v in result["per_layer"].items()}
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key][0]}")
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    summary = run(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
