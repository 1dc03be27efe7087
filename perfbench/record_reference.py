"""Record the reference outputs the benchmark checks against.

Run from the repository root after a change that is *meant* to alter
outputs (never to make a failing benchmark pass)::

    python3 perfbench/record_reference.py

Each entry is what the current code produced for one input: per corpus
seed, the curated dataset's digest and size (every corpus a curate run
cycles through), and the service's curate and formal job results
(dataset digest, shard names, verified facet);
once, the seed-independent eval-job summary and ``train_eval``'s
pass@{1,5,10} on both suites (its inputs are pinned).  Workload seeds
0-19 are recorded; on any other seed ``run.py`` can only check that the
ops of a run agree with each other, and prints which outputs it checked
that way.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload seeds whose outputs are recorded.
RECORDED_SEEDS = range(20)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from repro.service import ServiceClient

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-",
                                    dir=ROOT / ".perfbench-work"))
    empty = {"curate": {}, "train_eval": {}, "service": {},
             "service_eval": {}}
    out = {section: {} for section in empty}

    # Every service corpus: its curate job, then the formal job on it.
    service = workloads.ServiceMixed(0, workdir / "service")
    service.reference = empty
    service.setup(0)
    try:
        client = ServiceClient(service.url)
        for corpus in workloads.SERVICE_CORPORA:
            for record in (
                    service.curate(client, "r", corpus, f"c{corpus}"),
                    service.formal(client, "r", corpus, f"f{corpus}")):
                if not record.ok:
                    raise RuntimeError(record.detail)
        record = service.simple_job(client, "eval", "eval", None)
        if not record.ok:
            raise RuntimeError(record.detail)
    finally:
        service.teardown()
    out["service"] = service.expected.observed()
    out["service_eval"] = dict(service.eval_expected.observed)
    for seed in RECORDED_SEEDS:
        cold = workloads.CurateCold(seed, workdir)
        cold.reference = empty
        cold.setup(0)
        cold.n_ops = 0
        for _ in range(cold.n_corpora):
            cold.op()
        out["curate"].update(cold.expected.observed())
        print(f"seed {seed}: {len(out['curate'])} corpora recorded",
              flush=True)

    train_eval = workloads.TrainEval(0, workdir / "train_eval")
    train_eval.reference = empty
    train_eval.setup(0)
    train_eval.op()
    shutil.rmtree(workdir, ignore_errors=True)
    out["train_eval"] = dict(train_eval.expected.observed)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
