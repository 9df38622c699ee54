"""Benchmark of the quatlie command line: build, verify and wordspace.

Run from the root of a checkout that holds ``src/quatlie``::

    python3 perfbench/run.py --workload build --seed 1 --seconds 24 --trace 0

One process, one closed-loop client: the workload's operations are calls
of ``quatlie.cli.main(argv)``, made one at a time in this process.  Each
pass runs every operation once, in an order drawn from ``--seed``; passes
repeat until ``--seconds`` of measuring is used.  Every outcome is checked
against the pinned one in ``workloads.py``.

With ``--trace 0`` the last line reports the end-to-end metrics, whose
times are calibrated seconds (``calibrate.py``): wall time corrected for
the host's drifting speed by a reference chunk sampled inside each call.

- ``pass_cal_s``: one pass, as the sum over operations of each
  operation's median over the passes;
- ``setup_s``: process start to the first timed operation, i.e. the
  median of several fresh interpreters importing ``quatlie.cli``, plus
  this run's own preparation (for ``verify``, building the six algebra
  files it reads);
- ``peak_rss_mb``: peak resident memory of this process.

The wall-clock pass time is printed above the result for reference.

The share of operations whose outcome differs from the pinned one
(``ops_failed``) is printed above, and carried by the result's
``attempted`` and ``failed``.  With ``--trace 1`` one untraced pass is
followed by traced passes and the last line reports the per-layer metrics
of ``tracing.py``; spans are written to ``.perfbench_out/``.

Exit code 2, with no result line, when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 9
# Seconds between reference samples inside an operation, and inside the
# import (about 0.1 s) of a fresh interpreter.
CAL_INTERVAL_S = 0.01
IMPORT_INTERVAL_S = 0.002

# Run in a fresh interpreter: calibrated seconds of ``import quatlie.cli``.
IMPORT_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from calibrate import Calibrator
with Calibrator(float(sys.argv[3])) as cal:
    import quatlie.cli
print(cal.seconds)
"""

sys.path.insert(0, str(HERE))
from calibrate import Calibrator
from tracing import PER_LAYER, Tracer, check_complete, pass_metrics
from workloads import WORKLOADS, build_ops, parse_manifest


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe() -> float:
    """Seconds of a fixed pure-Python Fraction loop: a slowed machine shows."""
    start = time.perf_counter()
    for _ in range(60):
        acc = Fraction(0)
        for k in range(1, 300):
            acc += Fraction(1, k)
    return time.perf_counter() - start


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Median calibrated time of ``import quatlie.cli`` in fresh interpreters."""
    argv = [sys.executable, "-c", IMPORT_CHILD, str(HERE), str(SRC), str(IMPORT_INTERVAL_S)]
    times = [
        float(subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(times)


class Runner:
    """Runs operations, checks their outcomes and keeps the tallies."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.threads = set()

    def run(self, op, tracer=None):
        """Wall and calibrated seconds of one CLI call, and its manifest."""
        out = io.StringIO()
        call = self.main if tracer is None else (
            lambda argv: tracer.span(op.label, self.main, argv)
        )
        error = None
        cal = Calibrator(CAL_INTERVAL_S)
        start = time.perf_counter()
        try:
            with cal, contextlib.redirect_stdout(out):
                code = call(list(op.argv))
        except Exception:  # a crash is a failed operation, not a crashed run
            code, error = None, traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        doc = parse_manifest(out.getvalue())
        self.attempted += 1
        problems = op.problems(code, doc)
        if error:
            problems.append(error)
        if problems:
            self.failed += 1
            print(f"FAILED {op.label}: " + "; ".join(problems))
        if doc is not None and doc.get("command") == "build":
            self.threads.add(doc.get("inputs", {}).get("threads"))
        return wall, cal.seconds, doc

    def passes(self, ops, rng, seconds, tracer=None, on_pass=None):
        """Passes until ``seconds`` are used (at least one).

        Returns per-operation samples of wall and of calibrated seconds.
        Another pass starts only if it is expected to end less than half a
        pass after the deadline.
        """
        walls = {op.label: [] for op in ops}
        cals = {op.label: [] for op in ops}
        start = time.perf_counter()
        count = 0
        while True:
            docs = []
            for op in rng.sample(ops, len(ops)):
                wall, calibrated, doc = self.run(op, tracer)
                walls[op.label].append(wall)
                cals[op.label].append(calibrated)
                docs.append(doc)
            count += 1
            if on_pass is not None:
                on_pass(docs)
            used = time.perf_counter() - start
            if used + 0.5 * used / count > seconds:
                return walls, cals


def pass_seconds(samples: dict) -> float:
    return sum(statistics.median(times) for times in samples.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quatlie" / "cli.py").is_file():
        print(f"perfbench: no quatlie sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QUATLIE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import quatlie.cli

    workload = WORKLOADS[args.workload]
    print(
        f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} git={git_sha()} QUATLIE_THREADS=unset"
    )
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_work"))
    try:
        return measure(args, workload, quatlie.cli.main, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, cli_main, work: Path) -> int:
    runner = Runner(cli_main)
    prepared = time.perf_counter()
    prepare_s = 0.0
    if workload.needs_artifacts:
        for op in build_ops(work):
            prepare_s += runner.run(op)[1]
    import_s = import_seconds()

    ops = workload.ops(work)
    rng = random.Random(args.seed)
    probe_before = probe()
    if args.trace == 0:
        metrics = end_to_end(runner, ops, rng, args.seconds, import_s + prepare_s)
        ok = True
    else:
        metrics, ok = per_layer(runner, ops, rng, args, workload.name, prepared)
    probe_after = probe()
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed {runner.failed / runner.attempted:.6g} share "
          f"({runner.failed} of {runner.attempted} operations)")
    print(f"# set-up: import {import_s:.4f} s (median of {IMPORT_SAMPLES} interpreters) "
          f"+ preparation {prepare_s:.4f} s, calibrated; "
          f"inputs.threads={sorted(runner.threads) or '-'}")
    print(f"# drift probe: {probe_before:.4f} s before, {probe_after:.4f} s after "
          f"(ratio {probe_after / probe_before:.3f})")
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end(runner, ops, rng, seconds, setup_s) -> dict:
    walls, cals = runner.passes(ops, rng, seconds)
    passes = len(cals[ops[0].label])
    print(f"# {passes} passes x {len(ops)} operations = {passes * len(ops)} samples "
          f"(calibrated s / wall s)")
    for label in sorted(cals):
        print(f"#   {label}: median {statistics.median(cals[label]):.4f} / "
              f"{statistics.median(walls[label]):.4f} s of {passes}: "
              + " ".join(f"{c:.4f}/{w:.4f}" for c, w in zip(cals[label], walls[label])))
    print(f"# wall-clock pass {pass_seconds(walls):.4f} s")
    return {
        "pass_cal_s": {"value": pass_seconds(cals), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(runner, ops, rng, args, workload: str, origin: float):
    """One untraced pass, then traced passes for the rest of the time."""
    plain_wall, plain = runner.passes(ops, rng, 0.0)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{args.seed}.tsv"
    spans_path.unlink(missing_ok=True)
    tracer = Tracer()
    per_pass = []

    def on_pass(docs):
        per_pass.append(pass_metrics(tracer, docs))
        tracer.write(spans_path, len(per_pass), origin)
        tracer.clear()

    tracer.install()
    try:
        remaining = max(args.seconds - pass_seconds(plain_wall), 0.0)
        _, traced = runner.passes(ops, rng, remaining, tracer, on_pass)
    finally:
        tracer.uninstall()
    # median_low keeps counts whole: it picks one pass's value
    values = {
        name: statistics.median_low(p[name] for p in per_pass)
        for name, _ in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    values["trace.overhead_ratio"] = pass_seconds(traced) / pass_seconds(plain)
    problems = [p for m in per_pass for p in check_complete(workload, m)]
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}")
    for target, where in sorted(tracer.bindings.items()):
        print(f"# patched {target} in {', '.join(where)}")
    print(f"# {len(per_pass)} traced passes; spans in {spans_path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, not problems


if __name__ == "__main__":
    sys.exit(main())
