"""Quickstart: build PyraNet, fine-tune a model, evaluate pass@k.

Runs the whole reproduction at small scale in under a second (0.7–0.8 s
wall, serial, on a 2-CPU AMD EPYC host with Python 3.11)::

    python examples/quickstart.py
    python examples/quickstart.py --seed 3 --parallel \
        --trace-json run.json --store-dir pyranet_store

Shared flags (see ``_cli.py``): ``--trace-json`` writes the merged
run report — one JSON document with spans and metrics from curation,
the store, fine-tuning and evaluation; ``--report-json`` writes the
tuned model's evaluation report; ``--store-dir`` round-trips the
curated dataset through the sharded store before fine-tuning;
``--cache-dir`` persists curation and evaluation stage results on disk
so a re-run over the same corpus skips the recomputation.
"""

import _cli
from repro import PyraNet


def main() -> None:
    args = _cli.build_parser(
        "Build PyraNet, fine-tune, evaluate pass@k").parse_args()
    pyranet = PyraNet(seed=args.seed, n_samples=5, n_test_vectors=12,
                      executor=_cli.executor_from(args),
                      obs=_cli.observability_from(args),
                      cache_dir=args.cache_dir)

    print("1) Building the PyraNet dataset "
          "(simulated scrape + LLM generation + curation)…")
    dataset = pyranet.build_dataset(
        n_github_files=300, n_llm_prompts=10, n_queries_per_prompt=5)
    for line in pyranet.curation.report.summary_lines():
        print("   ", line)

    train_data = None
    if args.store_dir:
        print(f"\n   sharding into {args.store_dir} and serving the "
              "curriculum off the store…")
        manifest = pyranet.save_store(args.store_dir)
        print(f"   {manifest.n_entries} entries -> "
              f"{len(manifest.shards)} shards")
        train_data = pyranet.load_store(args.store_dir, seed=args.seed,
                                        obs=pyranet.obs)

    print("\n2) Evaluating the un-tuned base model (CodeLlama-7B "
          "stand-in)…")
    base = pyranet.base_model("codellama-7b-instruct-sim")
    report_base = pyranet.evaluate(base, suite="machine", n_problems=16)
    print("    baseline            :", report_base.summary())

    print("\n3) Fine-tuning with the full PyraNet recipe "
          "(loss weighting + curriculum)…")
    tuned = pyranet.finetune("codellama-7b-instruct-sim",
                             recipe="architecture", dataset=train_data)
    report_tuned = pyranet.evaluate(tuned, suite="machine",
                                    n_problems=16)
    print("    pyranet-architecture:", report_tuned.summary())

    print("\n4) One generated completion:")
    problem = pyranet.problems("machine")[2]
    print("    prompt  :", problem.description[:90], "…")
    code = tuned.generate(problem.description, temperature=0.2,
                          module_header=problem.module_header)
    for line in code.splitlines()[:12]:
        print("   |", line)

    improvement = (report_tuned.pass_at(5) - report_base.pass_at(5))
    print(f"\npass@5 improvement over baseline: {improvement:+.1f} points")

    _cli.write_report(args, report_tuned)
    _cli.write_trace(args, pyranet.obs, example="quickstart")


if __name__ == "__main__":
    main()
