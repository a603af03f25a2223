"""The measuring process: runs operations through relconn's CLI in-process.

Usage: python3 -m perfbench.measure CONFIG.json

The config names the program's source directory, the work directory that
holds the input files, the warm-up and timed operation lists, the run
length and whether to trace.  This process imports nothing heavy besides
relconn, so its peak memory is the program's.  It writes each distinct
output of an operation to the work directory and the timings to the
result file; the parent checks the outputs.

Before each operation and each set-up round, outside their timing, the
process also times `reference_work`, a fixed slice of pure-Python work of
the kinds relconn does.  A shared host's speed swings by up to 1.6x
within minutes; the parent divides every time by the reference times
measured around it, so the metrics follow the program and not the host.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from perfbench.tracing import Tracer


def peak_rss_kb() -> int:
    """This process's peak resident memory in KiB.

    VmHWM belongs to the current address space, so unlike ru_maxrss it
    does not carry over the peak of the parent that forked this process.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# 2^14-bit sets for reference_work: all indices, and those with bit 0 clear
_REF_FULL = (1 << (1 << 14)) - 1
_REF_EVEN = int("01" * (1 << 13), 2)


def reference_work() -> int:
    """Fixed pure-Python work of the kinds relconn does, 1 to 2 ms on a
    2-core x86 VM: shifts and masks of big-int bit sets, as in bitspace;
    small ints, tuples, dicts and frozensets, as in relations and
    classify; splitting text, as in the parsers."""
    s = _REF_EVEN ^ (_REF_EVEN >> 7)
    for _ in range(80):
        s = ((s & _REF_EVEN) << 1 | (s & ~_REF_EVEN) >> 1) & _REF_FULL ^ (s >> 3)
    table: dict[tuple, int] = {}
    for i in range(2400):
        t = (i & 7, (i >> 3) & 7, i % 5)
        table[t] = table.get(t, 0) + i * i % 7
    sets = {frozenset(range(k, k + 20, 3)) for k in range(300)}
    words = " ".join(format(i, "08b") for i in range(400)).split()
    return s.bit_count() + sum(table.values()) + len(sets) + len(words)


def time_reference() -> float:
    """Seconds one reference_work takes now, with no collection inside."""
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


def _purge_relconn() -> None:
    for name in [n for n in sys.modules if n == "relconn" or n.startswith("relconn.")]:
        del sys.modules[name]


def run_op(cli, argv: list[str]) -> tuple[float, str | None, str]:
    """Time one call of relconn.cli.main; returns (seconds, failure, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            failure = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit status {code}: {err.getvalue().strip()[:300]}"
    return elapsed, failure, out.getvalue()


class Recorder:
    """Per-execution rows, with each distinct output written once to disk."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.rows: list[list] = []
        self.seen: set[tuple[int, str]] = set()

    def add(self, op_id: int, elapsed: float, failure: str | None, stdout: str,
            phase: str, ref: float) -> None:
        digest = hashlib.sha1(stdout.encode()).hexdigest()
        if failure is None and (op_id, digest) not in self.seen:
            self.seen.add((op_id, digest))
            (self.outdir / f"{op_id}-{digest}.json").write_text(stdout)
        self.rows.append([op_id, elapsed, failure, digest, phase, ref])


def timed_loop(cli, ops: list[dict], seconds: float, recorder: Recorder,
               phase: str, tracer=None) -> list[dict]:
    """Closed loop, one client: the next operation starts when the last ends.

    Runs whole blocks until `seconds` have passed, so every run executes
    the workload's full mix and no single slow operation decides where the
    count stops.  The list wraps around if the program gets through it.
    """
    done = []
    start = perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        gc.collect()  # garbage left by earlier operations is not this one's cost
        ref = time_reference()
        if tracer is not None:
            tracer.begin(op["id"])
        elapsed, failure, stdout = run_op(cli, op["argv"])
        if tracer is not None:
            tracer.end()
        recorder.add(op["id"], elapsed, failure, stdout, phase, ref)
        done.append(op)
        i += 1
        block_ends = i % len(ops) == 0 or ops[i % len(ops)]["block"] != op["block"]
        if block_ends and perf_counter() - start >= seconds:
            return done


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    os.chdir(cfg["workdir"])
    outdir = Path(cfg["workdir"]) / "outputs"
    outdir.mkdir(exist_ok=True)

    # Set-up: import the package afresh, then run the warm-up operations.
    setup, setup_refs = [], []
    for _ in range(cfg["setup_reps"]):
        _purge_relconn()
        gc.collect()
        setup_refs.append(time_reference())
        start = perf_counter()
        cli = importlib.import_module("relconn.cli")
        for argv in cfg["warmup"]:
            _, failure, _ = run_op(cli, argv)
            if failure is not None:
                print(f"warm-up operation {argv} failed: {failure}", file=sys.stderr)
                return 3
        setup.append(perf_counter() - start)
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"relconn was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    recorder = Recorder(outdir)
    result = {"setup_samples": setup, "setup_refs": setup_refs}
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            done = timed_loop(cli, cfg["ops"], cfg["seconds"] / 2, recorder, "traced", tracer)
        finally:
            tracer.uninstall()
        traced_busy = sum(r[1] for r in recorder.rows)
        replay_start = len(recorder.rows)
        for op in done:
            gc.collect()
            ref = time_reference()
            elapsed, failure, stdout = run_op(cli, op["argv"])
            recorder.add(op["id"], elapsed, failure, stdout, "untraced", ref)
        untraced_busy = sum(r[1] for r in recorder.rows[replay_start:])
        # traced ops/s divided by untraced ops/s over the same operations
        result["per_layer"] = tracer.metrics(untraced_busy / traced_busy)
    else:
        timed_loop(cli, cfg["ops"], cfg["seconds"], recorder, "timed")
    result["peak_rss_kb"] = peak_rss_kb()
    result["rows"] = recorder.rows
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
