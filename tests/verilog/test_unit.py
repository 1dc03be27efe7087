"""The per-run parse scope: one parse per text, errors replayed, and an
AST every consumer can share without changing it."""

import contextvars
import pickle
import random
import sys
import threading
from pathlib import Path

import pytest

import repro.verilog.parser as parser_module
from repro.corpus.templates import family_names, generate_design
from repro.dataset.describe import describe_blocks, describe_source
from repro.obs import Observability
from repro.pipeline import ParallelExecutor
from repro.verilog import ParseError, build_library, check, lint, measure
from repro.verilog.formal import verify_code
from repro.verilog.sim.elaborate import elaborate
from repro.verilog.unit import ast_for, parse_scope

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

GOOD = "module m(input a, output y);\n  assign y = ~a;\nendmodule\n"
BAD = "module m(input a, output y);\n  assign y = ;\nendmodule\n"
UNLEXABLE = "module m;\n  wire `w;\nendmodule\n"


@pytest.fixture
def parse_calls(monkeypatch):
    """Texts handed to the real parser, in call order."""
    seen = []
    original = parser_module.parse

    def counting(source):
        seen.append(source)
        return original(source)

    monkeypatch.setattr(parser_module, "parse", counting)
    return seen


class TestScope:
    def test_outside_a_scope_every_call_parses(self, parse_calls):
        first, second = ast_for(GOOD), ast_for(GOOD)
        assert first is not second
        assert parse_calls == [GOOD, GOOD]

    def test_inside_a_scope_each_text_parses_once(self, parse_calls):
        with parse_scope() as scope:
            trees = [ast_for(GOOD) for _ in range(3)]
            other = ast_for(GOOD + "\n")
        assert all(tree is trees[0] for tree in trees)
        assert other is not trees[0]
        assert parse_calls == [GOOD, GOOD + "\n"]
        assert (scope.calls, scope.memo_hits) == (2, 2)

    @pytest.mark.parametrize("source", [BAD, UNLEXABLE])
    def test_errors_replay_with_message_line_and_col(self, source,
                                                     parse_calls):
        with pytest.raises(ParseError) as direct:
            parser_module.parse(source)
        expected = (str(direct.value), direct.value.message,
                    direct.value.line, direct.value.col)
        with parse_scope():
            for _ in range(2):
                with pytest.raises(ParseError) as replayed:
                    ast_for(source)
                assert (str(replayed.value), replayed.value.message,
                        replayed.value.line, replayed.value.col) == expected
        assert parse_calls == [source, source]

    def test_nothing_carries_over_between_scopes(self, parse_calls):
        with parse_scope():
            first = ast_for(GOOD)
        with parse_scope():
            second = ast_for(GOOD)
        assert first is not second
        assert ast_for(GOOD) is not second
        assert parse_calls == [GOOD, GOOD, GOOD]

    def test_other_threads_do_not_see_a_scope(self):
        seen = []
        with parse_scope():
            tree = ast_for(GOOD)
            thread = threading.Thread(
                target=lambda: seen.append(ast_for(GOOD)))
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(seen) == 1 and seen[0] is not tree

    def test_thread_pool_work_shares_the_callers_scope(self):
        executor = ParallelExecutor(mode="thread", max_workers=2,
                                    chunk_size=1)
        with parse_scope() as scope:
            tree = ast_for(GOOD)
            mapped = executor.map(ast_for, [GOOD] * 4)
            streamed = list(executor.stream_map(ast_for, [GOOD] * 3))
        assert all(other is tree for other in mapped + streamed)
        assert (scope.calls, scope.memo_hits) == (1, 7)

    def test_counts_stay_exact_under_thread_contention(self):
        texts = [GOOD.replace("m(", f"m{index}(") for index in range(6)]
        rounds = 40

        def work():
            for _ in range(rounds):
                for text in texts:
                    ast_for(text)

        with parse_scope() as scope:
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                # Each thread enters its own copy of this context, as
                # ParallelExecutor's pool threads do.
                threads = [threading.Thread(
                    target=contextvars.copy_context().run, args=(work,))
                    for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert scope.calls + scope.memo_hits == 8 * rounds * len(texts)
        assert scope.calls >= len(texts)

    def test_counters_land_in_the_run_report(self):
        obs = Observability()
        with parse_scope(obs):
            for source in (GOOD, GOOD, BAD, BAD):
                try:
                    ast_for(source)
                except ParseError:
                    pass
        counters = obs.run_report().metrics["counters"]
        assert counters["verilog.parse.calls"] == 2
        assert counters["verilog.parse.memo_hits"] == 2


def _designs():
    return [generate_design(name, random.Random(1)).source
            for name in family_names()]


class TestSharedAstSafety:
    """Every consumer runs on one memoised AST and leaves it unchanged."""

    @pytest.mark.parametrize("source", _designs(),
                             ids=list(family_names()))
    def test_consumers_do_not_mutate_the_shared_tree(self, source):
        with parse_scope() as scope:
            tree = ast_for(source)
            before = pickle.dumps(tree)
            assert check(source).source is tree
            lint(source)
            measure(source)
            describe_source(source)
            describe_blocks(source)
            library = build_library(source)
            assert list(library.values()) == tree.modules
            elaborate(library, tree.modules[-1].name)
            verify_code(source)
            assert scope.calls == 1
        assert pickle.dumps(tree) == before


def test_every_ast_comes_through_parse():
    """``Parser(`` is built only by ``parser.parse``, the function the
    benchmark's tracing wraps."""
    offenders = [path.relative_to(SRC_DIR).as_posix()
                 for path in SRC_DIR.rglob("*.py")
                 if path.name != "parser.py"
                 and "Parser(" in path.read_text(encoding="utf-8")]
    assert offenders == []
