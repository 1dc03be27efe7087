r"""PyraNet benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload curate_cold --seed 0 \
        --seconds 8 --trace 0
    python3 perfbench/run.py --workload train_eval --seed 0 \
        --seconds 8 --trace 1

Set-up runs three times and its median is ``setup_s``.  With
``--trace 0`` the measuring window runs untraced and the end-to-end
metrics are reported; with ``--trace 1`` it runs with the layer
wrappers of ``layers.py`` installed instead, and the per-layer table is
reported (per op; self times plus ``unattributed_s`` add up to
``wall_s``, the traced window timed apart from the layer clock).  The
wrappers time their own bookkeeping: ``obs.tracing_overhead_ratio``.
(Comparing a traced with an untraced window would measure the host
instead: ``train_eval``'s window is a single ~60 s op, and two such
ops on the same input can differ by a third on a shared 2-CPU host.)

Every operation's output is checked against ``reference.json``; on a
seed it does not cover, the run can only check that its ops agree with
each other, and it prints the outputs it checked that way.

Every workload reports the same end-to-end metrics, each meaning that
workload's unit of work: ``throughput_per_s`` is raw files curated per
second (curate_*), machine-suite samples evaluated per second
(train_eval) or jobs completed per second (service_mixed);
``latency_p50_s`` is the median curation pass, the median store
write + open + fine-tune (``train_s``) or the median job's submit-to-done
time.  Human-readable lines come first: the run record (seed, versions,
CPU count), then the workload's own figures by name —
``curate_files_per_s``, ``eval_human_samples_per_s``,
``job_latency_tail_s`` with its percentile, ``query_latency_p50_s``,
``peak_rss_mb``, ``error_rate`` and so on.  Peak memory is printed but
not gated: a wide datapath that exhausts the formal tier's BDD budget
adds ~100 MB, and whether a corpus holds one decides it.  The last line
is one JSON object with ``correct``, ``attempted``, ``failed`` (their
ratio is ``error_rate``) and the metrics ``BENCHMARK.json`` lists for
the mode.

A run writes its files under a fresh ``.perfbench-work/<workload>-*/``
(git-ignored).  After its result it deletes the directories of runs
more than ``STALE_WORK_S`` old, not its own: on a file system mounted
with online discard, unlinking fsync'd files (the service's journals
and checkpoints) costs up to tens of milliseconds each for many minutes
after they were written, so deleting its own directory would make a
service run several times longer; an hour later it is cheap.  The
directory thus holds at most an hour of runs (about 40 MB per
service_mixed run, 30 MB per curate_warm run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: The traced table must close to within this share of the wall time.
CLOSURE_TOLERANCE = 0.01
#: Age after which an earlier run's work directory is deleted.
STALE_WORK_S = 3600


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_record(seed: int) -> str:
    import numpy

    return (f"run: seed={seed} python={platform.python_version()} "
            f"numpy={numpy.__version__} nproc={os.cpu_count()}")


def _set_up(workload) -> float:
    """Set up ``SETUP_REPEATS`` times; keep the last; median seconds."""
    times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        started = time.perf_counter()
        workload.setup(attempt)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _measure(workload, seconds: float, trace: bool):
    """Returns ``(records, end-to-end values, layer values)``; a traced
    window gives no end-to-end values, an untraced one no layer
    values."""
    import layers

    if not trace:
        started = time.perf_counter()
        records = workload.run(seconds)
        wall_s = time.perf_counter() - started
        return records, workload.end_to_end(records, wall_s), {}
    clock = layers.LayerClock()
    installation = layers.install(clock)
    started = time.perf_counter()
    clock.restart()
    try:
        records = workload.run(seconds, new_op=clock.new_op)
    finally:
        clock.close()
        wall_s = time.perf_counter() - started
        installation.uninstall()
    extra = {}
    if hasattr(workload, "service_split"):
        extra = workload.service_split(records)
    return records, {}, layers.layer_table(clock, wall_s, len(records),
                                           extra)


def _closure_error(table: Dict[str, float]) -> float:
    import layers

    parts = sum(table[f"{layer}.self_s"]
                for layer in layers.SELF_TIME_LAYERS)
    parts += table["unattributed_s"]
    return abs(parts - table["wall_s"]) / table["wall_s"]


def _sweep_stale(work: Path) -> None:
    """Delete the work directories of runs older than ``STALE_WORK_S``."""
    cutoff = time.time() - STALE_WORK_S
    for path in work.iterdir():
        if path.stat().st_mtime < cutoff:
            shutil.rmtree(path, ignore_errors=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no PyraNet sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = _spec()
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = _set_up(workload)
    try:
        records, e2e, table = _measure(workload, args.seconds,
                                       bool(args.trace))
    finally:
        workload.teardown()

    failed = [record for record in records if not record.ok]
    values = {"setup_s": setup_s,
              **{k: v for k, v in e2e.items()
                 if not k.startswith("report.")}}
    e2e["report.peak_rss_mb"] = _peak_rss_mb()
    print(_run_record(args.seed))
    print(f"workload: {args.workload} ops={len(records)} "
          f"error_rate={len(failed) / len(records):.4f}")
    for record in failed[:5]:
        print(f"  failed {record.kind}: {record.detail}")
    gaps = workload.reference_gaps()
    if gaps:
        print(f"no reference for seed {args.seed}: checked only for "
              f"agreement between this run's ops: {', '.join(gaps)}")
    for name, value in sorted(e2e.items()):
        if name.startswith("report."):
            print(f"  {name[len('report.'):]} = {value:.6g}")
    correct = not failed
    if args.trace:
        closure = _closure_error(table)
        correct = correct and closure <= CLOSURE_TOLERANCE
        print(f"layer table (per op; closure error {closure:.2e}):")
        for name, value in sorted(table.items()):
            print(f"  {name} = {value:.6g}")
        wanted = spec["per_layer"]
        values = table
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if not args.trace:
            print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}),
          flush=True)
    _sweep_stale(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
