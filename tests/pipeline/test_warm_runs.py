"""Warm-run proof: a persistent cache makes re-runs recompute nothing.

The acceptance contract for the disk tier, asserted through the run's
own telemetry rather than timing: running curation (and evaluation)
twice over an unchanged corpus with a shared ``--cache-dir`` style
:class:`DiskCache` must serve *every* cached stage lookup of the second
run from disk — ``cache.<name>.disk.hits > 0`` and zero cache misses,
which is exactly "zero syntax-check / rank / describe / simulation
recompute" because a miss is what triggers a compute — and, counted
directly, zero ``verilog.parse.calls``.
"""

from repro.corpus import GitHubScrapeSimulator
from repro.dataset import CurationPipeline
from repro.eval.config import EvalConfig
from repro.eval.harness import evaluate_model
from repro.eval.problems.machine import build_machine_problems
from repro.model.interfaces import FineTunable, TrainStats
from repro.obs import Observability
from repro.pipeline import DiskCache, ResultCache


class TinyModel(FineTunable):
    """Deterministic stand-in: same description -> same completion."""

    def train_batch(self, examples, loss_weight):
        return TrainStats()

    def generate(self, description, temperature=0.8, rng=None,
                 module_header=None):
        header = module_header or "module top_module();"
        return f"{header}\n  // {len(description)}\nendmodule"


def _curation_cache(tmp_path, obs):
    return ResultCache(name="curation", registry=obs.registry,
                       disk=DiskCache(tmp_path / "curation", obs=obs))


class TestCurationWarmRun:
    def test_second_run_recomputes_nothing(self, tmp_path):
        raw_files = GitHubScrapeSimulator(seed=5).scrape(80)

        def run_once():
            obs = Observability()
            cache = _curation_cache(tmp_path, obs)
            result = CurationPipeline(seed=5, obs=obs,
                                      cache=cache).run(raw_files)
            return result, obs.run_report().metrics["counters"]

        cold_result, cold = run_once()
        warm_result, warm = run_once()

        # Cold run: everything was computed and written through.
        assert cold["cache.curation.disk.hits"] == 0
        assert cold["cache.curation.disk.misses"] > 0

        # Warm run: every lookup served from the persistent tier —
        # zero misses means zero syntax/rank/describe recomputes.
        assert warm["cache.curation.disk.hits"] > 0
        assert warm["cache.curation.disk.misses"] == 0
        assert warm["cache.curation.disk.corrupt"] == 0
        assert warm["cache.curation.misses"] == 0
        assert (warm["cache.curation.hits"]
                == warm["cache.curation.disk.hits"])

        # The work itself, not only the cache: the cold run parsed each
        # distinct text once, the warm run parsed nothing at all (family
        # descriptions included).
        assert cold["verilog.parse.calls"] > 0
        assert warm["verilog.parse.calls"] == 0
        assert warm["verilog.parse.memo_hits"] == 0

        # And the cache cannot have changed any decision.
        assert ([e.code for e in warm_result.dataset]
                == [e.code for e in cold_result.dataset])
        assert (warm_result.dataset.layer_sizes()
                == cold_result.dataset.layer_sizes())

    def test_trace_meta_carries_disk_stats(self, tmp_path):
        raw_files = GitHubScrapeSimulator(seed=5).scrape(40)
        obs = Observability()
        cache = _curation_cache(tmp_path, obs)
        result = CurationPipeline(seed=5, obs=obs,
                                  cache=cache).run(raw_files)
        disk = result.report.trace.meta["cache"]["disk"]
        assert disk["entries"] > 0
        assert disk["misses"] > 0


class TestEvalWarmRun:
    def test_second_evaluation_skips_all_simulation(self, tmp_path):
        problems = build_machine_problems()[:6]

        def run_once():
            obs = Observability()
            cache = ResultCache(name="eval", registry=obs.registry,
                                disk=DiskCache(tmp_path / "eval",
                                               obs=obs))
            report = evaluate_model(
                TinyModel(), problems,
                EvalConfig(n_samples=3, seed=3, n_test_vectors=8),
                cache=cache, obs=obs)
            return report, obs.run_report().metrics["counters"]

        cold_report, cold = run_once()
        warm_report, warm = run_once()

        assert cold["cache.eval.disk.misses"] > 0
        assert warm["cache.eval.disk.hits"] > 0
        assert warm["cache.eval.disk.misses"] == 0
        assert warm["cache.eval.misses"] == 0
        # Identical pass@k: the cache replays, never alters, outcomes.
        assert warm_report.pass_at(1) == cold_report.pass_at(1)
