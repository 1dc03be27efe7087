"""The four benchmark workloads, driven through the public entry points.

Every workload is a closed loop in one process.  ``setup`` builds the
inputs from the workload seed (corpus synthesis is the load generator,
so it counts as set-up); ``run`` repeats whole operations until the
measuring window has passed and returns one :class:`OpRecord` per
operation, each already checked against the reference outputs.

* ``curate_cold`` — ``CurationPipeline.run`` with no cache, each op on
  the next of several freshly synthesized 6,240-file corpora.  A corpus
  holds only a handful of formal-tier candidates, and about one corpus
  in three holds a wide datapath that exhausts the BDD budget (~0.3 s,
  an eighth of a pass); throughput over several corpora averages those
  lumps instead of letting one corpus decide the run.
* ``curate_warm`` — the first of those corpora through a fresh
  ``ResultCache`` on a ``DiskCache`` filled in set-up: a user's second
  ``--cache-dir`` run.
* ``train_eval`` — store write + ``load_store`` + ``architecture``
  fine-tune, then pass@k on the full machine and human suites at n=10.
  Its inputs are pinned to the seed-0 corpus: at seed 0 two machine
  samples loop until the simulator's 1,000,000-iteration cap, and other
  corpora carry anywhere from zero to several such samples (~22 s each),
  which would make its figures measure the seed instead of the code.
* ``service_mixed`` — the HTTP job service with its shipped defaults,
  two closed-loop ``ServiceClient`` threads with the default ``wait``
  poll, mostly ``probe`` jobs plus a fixed minority of curate→store,
  formal and human-suite eval jobs, with facet/sample queries between.
  The heavy jobs curate a fixed pool of corpora, and the store the
  queries read is always curated in set-up from the first of them: a
  small corpus either holds a BDD-budget design (~0.3 s in the curate
  job, more than doubling the set-up, and again in the formal job) or
  not, so seed-drawn corpora would make jobs/s and ``setup_s`` count
  those designs.  The workload seed picks the probe payloads.

References are recorded per corpus seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Scale of the curation corpus (raw files = github + llm prompts x 8).
CURATE_GITHUB_FILES = 6000
CURATE_LLM_PROMPTS = 30
CURATE_QUERIES_PER_PROMPT = 8
#: Corpora per curate_cold run; ops cycle through them (an 8 s window
#: curates three or four).
CURATE_CORPORA = 6

#: train_eval's pinned corpus seed and the model profile it tunes.
TRAIN_EVAL_SEED = 0
PROFILE = "codellama-7b-instruct-sim"
#: Store write + open + fine-tune repeats per block; an op runs three:
#: before, between and after the two evaluations.  ``train_s`` is their
#: median.  One repeat is ~0.2 s and the evaluation ~60 s, so a run gets
#: a single op; many repeats spread across it keep ``train_s`` from
#: resting on a few seconds of a host whose speed swings from second to
#: second.
TRAIN_REPEATS = 8

#: service_mixed: one client's repeating schedule of operations.
SERVICE_CLIENTS = 2
SERVICE_CYCLE = ("curate", "probe", "probe", "facets", "probe", "probe",
                 "formal", "probe", "probe", "sample", "probe", "probe",
                 "eval", "probe", "probe", "facets", "probe", "probe",
                 "probe", "sample", "probe", "probe", "probe", "probe")
#: Corpus seeds the service's curate jobs cycle through (the clients
#: take turns, so consecutive curate jobs use different corpora).
SERVICE_CORPORA = tuple(range(8))
#: Corpus seed of the store the facet/sample queries read.
SHARED_CORPUS = SERVICE_CORPORA[0]
PROBE_SPIN = 200
CURATE_JOB = {"n_github_files": 120, "n_llm_prompts": 4,
              "n_queries_per_prompt": 4}
EVAL_JOB = {"suite": "human", "n_problems": 6, "seed": 0}
SAMPLE_ROWS = 8
JOB_TIMEOUT_S = 120.0


@dataclass
class OpRecord:
    """One completed operation: what it was, how long, whether right."""

    kind: str
    latency_s: float
    ok: bool
    detail: str = ""
    values: Dict[str, float] = field(default_factory=dict)


def corpus_seed(seed: int, index: int) -> int:
    """The seed of corpus ``index`` of workload seed ``seed``."""
    return seed * 1000 + index


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Expected:
    """Reference outputs for one input.  Keys with a recorded value are
    checked against it.  A key without one (an input ``reference.json``
    does not cover) is held to the first value this run observed, so
    later ops on the same input must reproduce it; such keys are listed
    by :meth:`gaps`, because that checks consistency, not correctness."""

    def __init__(self, recorded: Optional[Dict[str, Any]] = None,
                 label: str = "") -> None:
        self.recorded = dict(recorded or {})
        self.observed: Dict[str, Any] = {}
        self.label = label
        self._lock = threading.Lock()

    def matches(self, key: str, value: Any) -> bool:
        with self._lock:
            if key in self.recorded:
                return self.recorded[key] == value
            return self.observed.setdefault(key, value) == value

    def get(self, key: str) -> Any:
        with self._lock:
            return self.recorded.get(key, self.observed.get(key))

    def gaps(self) -> List[str]:
        """The keys checked without a recorded reference."""
        with self._lock:
            return [f"{self.label}{key}" for key in sorted(self.observed)]


class References:
    """One :class:`Expected` per corpus seed of a reference section."""

    def __init__(self, section: Dict[str, Any]) -> None:
        self.section = section
        self._by_seed: Dict[int, Expected] = {}
        self._lock = threading.Lock()

    def __getitem__(self, seed: int) -> Expected:
        with self._lock:
            if seed not in self._by_seed:
                self._by_seed[seed] = Expected(self.section.get(str(seed)),
                                               label=f"corpus {seed}: ")
            return self._by_seed[seed]

    def observed(self) -> Dict[str, Dict[str, Any]]:
        """What every input produced, recorded values included."""
        return {str(seed): {**expected.recorded, **expected.observed}
                for seed, expected in sorted(self._by_seed.items())}

    def gaps(self) -> List[str]:
        with self._lock:
            checked = list(self._by_seed.values())
        return [gap for expected in checked for gap in expected.gaps()]


def _dataset_digest(dataset) -> str:
    from repro.service.handlers import dataset_digest

    return dataset_digest(dataset)


def _synthesize(seed: int):
    """The seeded raw corpus: scraped files plus LLM generations."""
    from repro.corpus.github_sim import GitHubScrapeSimulator
    from repro.corpus.keywords import build_keyword_database
    from repro.corpus.llm_sim import SimulatedCommercialLLM

    raw = GitHubScrapeSimulator(seed=seed).scrape(CURATE_GITHUB_FILES)
    db = build_keyword_database()
    llm = SimulatedCommercialLLM(seed=seed + 1)
    rng = random.Random(seed + 2)
    generated = []
    for _ in range(CURATE_LLM_PROMPTS):
        generated.extend(llm.generate_batch(
            db.sample(rng), n_queries=CURATE_QUERIES_PER_PROMPT))
    return raw, generated


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference()

    def setup(self, attempt: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (nothing by default)."""

    def run(self, seconds: float,
            new_op: Callable[[], None] = lambda: None) -> List[OpRecord]:
        """Closed loop: whole ops until ``seconds`` have passed (at least
        one; an op longer than the window runs to its end)."""
        deadline = time.perf_counter() + seconds
        records = []
        while True:
            new_op()
            records.append(self.op())
            if time.perf_counter() >= deadline:
                return records

    def op(self) -> OpRecord:
        raise NotImplementedError

    def end_to_end(self, records: List[OpRecord],
                   wall_s: float) -> Dict[str, float]:
        raise NotImplementedError

    def reference_gaps(self) -> List[str]:
        """Outputs checked only for consistency within this run."""
        return [gap for name in ("expected", "eval_expected")
                if hasattr(self, name) for gap in getattr(self, name).gaps()]


# -- curation -----------------------------------------------------------


class CurateCold(Workload):
    name = "curate_cold"
    n_corpora = CURATE_CORPORA

    def setup(self, attempt: int) -> None:
        self.corpora = [_synthesize(corpus_seed(self.seed, index))
                        for index in range(self.n_corpora)]
        self.expected = References(self.reference["curate"])

    def run(self, seconds: float,
            new_op: Callable[[], None] = lambda: None) -> List[OpRecord]:
        self.n_ops = 0
        return super().run(seconds, new_op)

    def _cache(self):
        return None

    def _curate(self, index: int):
        from repro.dataset.pipeline import CurationPipeline

        raw, generated = self.corpora[index]
        return CurationPipeline(seed=corpus_seed(self.seed, index),
                                cache=self._cache()).run(raw, generated)

    def op(self) -> OpRecord:
        index = self.n_ops % self.n_corpora
        self.n_ops += 1
        started = time.perf_counter()
        result = self._curate(index)
        latency = time.perf_counter() - started
        digest = _dataset_digest(result.dataset)
        expected = self.expected[corpus_seed(self.seed, index)]
        ok = (expected.matches("dataset_digest", digest)
              and expected.matches("n_entries", len(result.dataset)))
        raw, generated = self.corpora[index]
        return OpRecord("curate", latency, ok,
                        "" if ok else f"corpus {index}: digest {digest}",
                        values={"files": len(raw) + len(generated)})

    def end_to_end(self, records, wall_s):
        passes = [record.latency_s for record in records]
        files_per_s = (sum(record.values["files"] for record in records)
                       / sum(passes))
        return {
            "throughput_per_s": files_per_s,
            "latency_p50_s": statistics.median(passes),
            "report.curate_files_per_s": files_per_s,
            "report.passes": len(passes),
        }


class CurateWarm(CurateCold):
    name = "curate_warm"
    n_corpora = 1

    def setup(self, attempt: int) -> None:
        super().setup(attempt)
        self.cache_dir = self.workdir / f"cache-{attempt}"
        # Warm must be byte-identical to cold: the cold fill is held to
        # the same reference as every warm pass.
        if not self.expected[corpus_seed(self.seed, 0)].matches(
                "dataset_digest", _dataset_digest(self._curate(0).dataset)):
            raise RuntimeError("the cold fill differs from its reference")

    def _cache(self):
        from repro.pipeline import DiskCache, ResultCache

        return ResultCache(name="curation", disk=DiskCache(self.cache_dir))


# -- the paper path -----------------------------------------------------


class TrainEval(Workload):
    name = "train_eval"

    def setup(self, attempt: int) -> None:
        from repro import PyraNet

        pyranet = PyraNet(seed=TRAIN_EVAL_SEED)
        pyranet.build_dataset()
        self.curation = pyranet.curation
        self.expected = Expected(self.reference["train_eval"])
        self.n_stores = 0

    def op(self) -> OpRecord:
        from repro import PyraNet

        # A fresh facade per op, so no evaluation cache carries over.
        pyranet = PyraNet(seed=TRAIN_EVAL_SEED)
        pyranet.curation = self.curation
        train_s: List[float] = []

        def train_block():
            for _ in range(TRAIN_REPEATS):
                store = self.workdir / f"store-{self.n_stores}"
                self.n_stores += 1
                started = time.perf_counter()
                pyranet.save_store(store)
                source = PyraNet.load_store(store, seed=TRAIN_EVAL_SEED)
                model = pyranet.finetune(PROFILE, recipe="architecture",
                                         dataset=source)
                train_s.append(time.perf_counter() - started)
            return model

        model = train_block()
        started = time.perf_counter()
        machine = pyranet.evaluate(model, suite="machine")
        machine_s = time.perf_counter() - started
        train_block()
        started = time.perf_counter()
        human = pyranet.evaluate(model, suite="human")
        human_s = time.perf_counter() - started
        train_block()
        machine_samples = sum(r.n_samples for r in machine.results)
        human_samples = sum(r.n_samples for r in human.results)
        ok = (self.expected.matches("machine", machine.summary((1, 5, 10)))
              and self.expected.matches("human", human.summary((1, 5, 10)))
              and self.expected.matches("machine_samples", machine_samples)
              and self.expected.matches("human_samples", human_samples))
        return OpRecord("train_eval", machine_s + human_s + sum(train_s),
                        ok,
                        "" if ok else (f"machine {machine.summary()} "
                                       f"human {human.summary()}"),
                        values={
                            "train_s": statistics.median(train_s),
                            "machine_per_s": machine_samples / machine_s,
                            "human_per_s": human_samples / human_s,
                        })

    def end_to_end(self, records, wall_s):
        def median(key):
            return statistics.median(record.values[key]
                                     for record in records)

        return {
            "throughput_per_s": median("machine_per_s"),
            "latency_p50_s": median("train_s"),
            "report.train_s": median("train_s"),
            "report.eval_machine_samples_per_s": median("machine_per_s"),
            "report.eval_human_samples_per_s": median("human_per_s"),
        }


# -- the job service ----------------------------------------------------


def tail(samples: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), with that percentile; the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0}
    rank = n - 11  # ten samples strictly above this one
    return {"value": ordered[rank],
            "percentile": round(100.0 * (rank + 1) / n, 1)}


def _probe_digest(params: Dict[str, Any]) -> str:
    """What a ``probe`` job must return: a blake2b chain of ``spin``
    links seeded with the params digest."""
    from repro.service.jobs import params_digest

    digest = params_digest(params).encode("ascii")
    for _ in range(params["spin"]):
        digest = hashlib.blake2b(digest, digest_size=16).hexdigest() \
            .encode("ascii")
    return digest.decode("ascii")


class ServiceMixed(Workload):
    name = "service_mixed"

    def setup(self, attempt: int) -> None:
        from repro.service import (PyraNetService, ServiceClient,
                                   serve_in_thread)

        self.attempt = attempt
        self.n_runs = 0
        self.expected = References(self.reference["service"])
        self.eval_expected = Expected(self.reference["service_eval"])
        self.service = PyraNetService(self.workdir / f"svc-{attempt}")
        self.server, self.thread = serve_in_thread(self.service)
        self.url = f"http://127.0.0.1:{self.server.port}"
        record = self.curate(ServiceClient(self.url), "shared",
                             SHARED_CORPUS, key=f"setup-{self.seed}")
        if not record.ok:
            raise RuntimeError(f"set-up curate job failed: {record.detail}")

    def teardown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.stop(drain_queue=True)
        self.thread.join(timeout=JOB_TIMEOUT_S)

    def run(self, seconds: float,
            new_op: Callable[[], None] = lambda: None) -> List[OpRecord]:
        self.n_runs += 1
        barrier = threading.Barrier(SERVICE_CLIENTS)
        deadline: List[float] = []
        per_client: List[List[OpRecord]] = [[] for _ in
                                            range(SERVICE_CLIENTS)]
        errors: List[BaseException] = []

        def client_loop(index: int) -> None:
            try:
                barrier.wait()
                if index == 0:
                    deadline.append(time.perf_counter() + seconds)
                barrier.wait()
                self._client(index, deadline[0], per_client[index])
            except BaseException as exc:  # re-raised below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client_loop, args=(index,),
                                    name=f"perfbench-client-{index}")
                   for index in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [record for records in per_client for record in records]

    def _client(self, index: int, deadline: float,
                out: List[OpRecord]) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(self.url)
        rng = random.Random(self.seed * SERVICE_CLIENTS + index)
        store = f"c{index}"
        corpus = None
        n_curated = 0
        number = 0
        while True:
            kind = SERVICE_CYCLE[number % len(SERVICE_CYCLE)]
            # Unique per set-up, run, client and op: a repeated key
            # would be deduplicated onto the earlier job.
            key = f"{self.attempt}-{self.n_runs}-{index}-{number}"
            number += 1
            if kind == "curate":
                corpus = SERVICE_CORPORA[(n_curated * SERVICE_CLIENTS + index)
                                         % len(SERVICE_CORPORA)]
                n_curated += 1
                out.append(self.curate(client, store, corpus, key))
            elif kind == "formal":
                out.append(self.formal(client, store, corpus, key))
            elif kind in ("facets", "sample"):
                out.append(self._query(client, kind))
            else:
                out.append(self.simple_job(client, kind, key, rng))
            if time.perf_counter() >= deadline:
                return

    def _submit(self, client, kind: str, params: Dict[str, Any], key: str):
        """Submit and wait: ``(record, result, latency_s)``."""
        started = time.perf_counter()
        sub = client.submit(kind, params, idempotency_key=key)
        record = client.wait(sub["job_id"], timeout=JOB_TIMEOUT_S)
        latency = time.perf_counter() - started
        return record, record.get("result") or {}, latency

    def _op(self, kind: str, record, latency: float, ok: bool,
            detail: str = "") -> OpRecord:
        ok = ok and record["status"] == "done"
        reason = record.get("error") or detail
        return OpRecord(kind, latency, ok, "" if ok else f"{kind}: {reason}",
                        values={"handler_s": record.get("wall_s", 0.0)})

    def _store_shards(self, result: Dict[str, Any], store: str):
        """The shard names (content digests) of ``store`` on disk, or
        None when the job's manifest digest is not the one on disk."""
        from repro.store import StoreManifest

        manifest = StoreManifest.load(self.service.context.store_dir(store))
        on_disk = hashlib.blake2b(manifest.to_json(indent=2).encode("utf-8"),
                                  digest_size=16).hexdigest()
        if result.get("manifest_digest") != on_disk:
            return None
        return [info.name for info in manifest.shards]

    def curate(self, client, store: str, corpus: int, key: str) -> OpRecord:
        record, result, latency = self._submit(
            client, "curate", {**CURATE_JOB, "seed": corpus, "store": store},
            key)
        expected = self.expected[corpus]
        shards = self._store_shards(result, store)
        ok = (record["status"] == "done" and shards is not None
              and expected.matches("curate_dataset_digest",
                                   result.get("dataset_digest"))
              and expected.matches("n_entries", result.get("n_entries"))
              and expected.matches("curate_shards", shards))
        return self._op("curate", record, latency, ok, f"corpus {corpus}")

    def formal(self, client, store: str, corpus: int, key: str) -> OpRecord:
        record, result, latency = self._submit(client, "formal",
                                               {"store": store}, key)
        expected = self.expected[corpus]
        shards = self._store_shards(result, store)
        ok = (record["status"] == "done" and shards is not None
              and expected.matches("verified_facet",
                                   result.get("verified_facet"))
              and expected.matches("formal_shards", shards))
        return self._op("formal", record, latency, ok, f"corpus {corpus}")

    def _query(self, client, kind: str) -> OpRecord:
        n_entries = self.expected[SHARED_CORPUS].get("n_entries")
        started = time.perf_counter()
        if kind == "facets":
            reply = client.facets("shared")
        else:
            reply = client.sample("shared", n=SAMPLE_ROWS)
        latency = time.perf_counter() - started
        if kind == "facets":
            ok = reply.get("n_entries") == n_entries
        else:
            rows = reply.get("rows", [])
            ok = (len(rows) == min(SAMPLE_ROWS, n_entries)
                  and all(row.get("code") for row in rows))
        return OpRecord(kind, latency, ok)

    def simple_job(self, client, kind: str, key: str,
                   rng: random.Random) -> OpRecord:
        """A ``probe`` or ``eval`` job: submit, wait, check the result."""
        if kind == "probe":
            params = {"spin": PROBE_SPIN, "nonce": rng.getrandbits(32)}
        else:
            params = dict(EVAL_JOB)
        record, result, latency = self._submit(client, kind, params, key)
        if kind == "probe":
            ok = result.get("digest") == _probe_digest(params)
        else:
            ok = self.eval_expected.matches("eval_summary",
                                            result.get("summary"))
        return self._op(kind, record, latency, ok)

    def end_to_end(self, records, wall_s):
        jobs = [r for r in records if r.kind not in ("facets", "sample")]
        queries = [r for r in records if r.kind in ("facets", "sample")]
        latencies = [r.latency_s for r in jobs]
        job_tail = tail(latencies)
        by_kind: Dict[str, List[float]] = {}
        for record in records:
            by_kind.setdefault(record.kind, []).append(record.latency_s)
        return {
            **{f"report.{kind}_latency_p50_s": statistics.median(values)
               for kind, values in by_kind.items()},
            "throughput_per_s": len(jobs) / wall_s,
            "latency_p50_s": statistics.median(latencies),
            "report.jobs_per_s": len(jobs) / wall_s,
            "report.job_latency_p50_s": statistics.median(latencies),
            "report.job_latency_tail_s": job_tail["value"],
            "report.job_latency_tail_percentile": job_tail["percentile"],
            "report.jobs": len(jobs),
            "report.query_latency_p50_s": statistics.median(
                r.latency_s for r in queries) if queries else 0.0,
            "report.queries": len(queries),
        }

    def service_split(self, records: List[OpRecord]) -> Dict[str, float]:
        """Median handler time and median (latency − handler) over the
        jobs, read from each job's record."""
        jobs = [r for r in records if r.kind not in ("facets", "sample")]
        return {
            "service.handler.self_s": statistics.median(
                r.values["handler_s"] for r in jobs),
            "service.overhead_s": statistics.median(
                r.latency_s - r.values["handler_s"] for r in jobs),
        }


WORKLOADS = {cls.name: cls for cls in
             (CurateCold, CurateWarm, TrainEval, ServiceMixed)}
