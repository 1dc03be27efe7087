"""Check that the layer wrappers see every call, not only some call sites.

Run from the repository root::

    python3 perfbench/validate.py

Installs the wrappers of ``layers.py`` and drives a small, single-
threaded slice of every layer — cold and warm curation through a disk
cache, store write/read, fine-tuning and evaluation on a serial
executor — under cProfile.  For each wrapped function, the wrapper's
call count must equal cProfile's ``ncalls`` for the original function:
a call that reached the original without passing the wrapper (a
``from … import`` copy the sweep missed) shows as a difference.

The HTTP client wrappers run against a live service afterwards, outside
the profiler (the service answers on other threads); their counts are
checked against the server's own per-route request counters.

Exits 1 on any mismatch or if a wrapper was never exercised.
"""

from __future__ import annotations

import cProfile
import pstats
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Targets checked against the service's counters instead of cProfile.
CLIENT_TARGETS = ("repro.service.client:ServiceClient._request",
                  "repro.service.client:ServiceClient.job",
                  "repro.service.client:ServiceClient.wait")


def _profiled_drive(workdir: Path) -> None:
    from repro import PyraNet
    from repro.dataset.pipeline import build_pyranet
    from repro.pipeline import DiskCache, ParallelExecutor, ResultCache

    for _ in range(2):  # cold fill, then warm through the disk tier
        cache = ResultCache(name="curation",
                            disk=DiskCache(workdir / "cache"))
        build_pyranet(n_github_files=200, n_llm_prompts=4,
                      n_queries_per_prompt=4, seed=0, cache=cache)
    pyranet = PyraNet(seed=0, n_samples=3,
                      executor=ParallelExecutor.serial())
    pyranet.build_dataset(n_github_files=200, n_llm_prompts=4,
                          n_queries_per_prompt=4)
    pyranet.save_store(workdir / "store")
    source = PyraNet.load_store(workdir / "store", seed=0)
    model = pyranet.finetune("codellama-7b-instruct-sim",
                             recipe="architecture", dataset=source)
    pyranet.evaluate(model, suite="machine", n_problems=4)
    pyranet.evaluate(model, suite="human", n_problems=4)


def _service_drive(workdir: Path) -> dict:
    """Probe jobs and queries over HTTP; returns the server's counts."""
    from repro.service import PyraNetService, ServiceClient, serve_in_thread

    service = PyraNetService(workdir / "svc")
    server, thread = serve_in_thread(service)
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        for number in range(5):
            sub = client.submit("probe", {"spin": 10},
                                idempotency_key=f"validate-{number}")
            client.wait(sub["job_id"], timeout=60)
        client.stores()
    finally:
        server.shutdown()
        server.server_close()
        service.stop(drain_queue=True)
        thread.join(timeout=60)
    counters = service.obs.registry.counters("service.http.")
    return {
        CLIENT_TARGETS[0]: counters.get("service.http.requests", 0),
        CLIENT_TARGETS[1]: counters.get("service.http.GET /jobs/<id>", 0),
        CLIENT_TARGETS[2]: 5,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers

    workdir = ROOT / ".perfbench-work" / "validate"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clock = layers.LayerClock()
    installation = layers.install(clock)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        try:
            _profiled_drive(workdir)
        finally:
            profiler.disable()
        profiled = dict(clock.target_calls)
        expected_client = _service_drive(workdir)
    finally:
        installation.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    client_calls = {target: clock.target_calls.get(target, 0)
                    - profiled.get(target, 0) for target in CLIENT_TARGETS}

    ncalls = {}
    for (filename, line, name), row in pstats.Stats(profiler).stats.items():
        ncalls[(filename, line, name)] = row[1]
    failures = 0
    print(f"{'target':<58} {'wrapper':>9} {'independent':>11}")
    for target, original in installation.originals.items():
        if target in CLIENT_TARGETS:
            seen, independent = client_calls[target], expected_client[target]
        else:
            code = original.__code__
            seen = profiled.get(target, 0)
            independent = ncalls.get(
                (code.co_filename, code.co_firstlineno, code.co_name), 0)
        if seen != independent:
            verdict = "MISMATCH"
        else:
            verdict = "ok" if seen else "NOT EXERCISED"
        failures += verdict != "ok"
        print(f"{target:<58} {seen:>9} {independent:>11}  {verdict}")
    print(f"{len(installation.originals) - failures}/"
          f"{len(installation.originals)} wrappers call-site complete")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
