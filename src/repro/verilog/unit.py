"""One parse per text per curation run.

The curation funnel looks at every surviving file several times — the
syntax check, the 0–20 ranking (lint + structural metrics), the
complexity tier, the description and the formal tier's elaboration —
and each look needs the same AST.  :func:`ast_for` is where those
consumers get it.  Inside a :func:`parse_scope` it maps the exact text
parsed to that text's :class:`~.ast_nodes.SourceFile`, or to the
:class:`~.parser.ParseError` it raised (replayed with the same message,
line and column), so each distinct text is parsed once; outside a
scope it simply parses.

The key is the exact string handed to the parser.  The syntax check and
``build_library`` parse *preprocessed* text, the other consumers raw
text; for a file without directives the two are the same string and
share one entry, and for a file with them they stay apart, since they
are different programs.

A scope lives in a :class:`contextvars.ContextVar`, so it is visible to
the thread that opened it and to thread-pool work submitted from it
(:class:`~repro.pipeline.ParallelExecutor` runs pool threads in a copy
of the caller's context), and to nothing else: no process-global memo,
nothing carried between runs.  A curation run opens one scope
(:meth:`~repro.dataset.CurationPipeline.run`, or one per batch in the
streaming workers), and every AST dies with it.  Sharing is safe
because no consumer mutates an AST (pinned by a test that runs every
consumer on one memoised tree and compares its pickle bytes).
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Union

from ..obs import Observability, resolve
from . import ast_nodes as ast
from . import parser as _parser
from .parser import ParseError

_Entry = Union[ast.SourceFile, Tuple[str, int, int]]


class ParseScope:
    """The memo of one curation run: text -> AST or parse error.

    ``calls`` counts real parses (one per distinct text), ``memo_hits``
    the lookups served from the memo.
    """

    def __init__(self) -> None:
        self._memo: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self.calls = 0
        self.memo_hits = 0

    def ast_for(self, text: str) -> ast.SourceFile:
        entry = self._memo.get(text)
        if entry is None:
            with self._lock:
                self.calls += 1
            try:
                # Through the module attribute, so a wrapper installed
                # on ``parser.parse`` sees every real parse.
                entry = _parser.parse(text)
            except ParseError as exc:
                entry = (exc.message, exc.line, exc.col)
            self._memo[text] = entry
        else:
            with self._lock:
                self.memo_hits += 1
        if isinstance(entry, tuple):
            raise ParseError(*entry)
        return entry


_SCOPE: "contextvars.ContextVar[Optional[ParseScope]]" = (
    contextvars.ContextVar("repro.verilog.unit.scope", default=None))


@contextmanager
def parse_scope(obs: Optional[Observability] = None) -> Iterator[ParseScope]:
    """Share one AST per distinct text until the block exits.

    On exit the scope's tallies are added to ``obs``'s
    ``verilog.parse.calls`` / ``verilog.parse.memo_hits`` counters (a
    no-op under the disabled instance).
    """
    scope = ParseScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
        record_parse_counts(obs, scope.calls, scope.memo_hits)


def record_parse_counts(obs: Optional[Observability], calls: int,
                        memo_hits: int) -> None:
    """Add parse tallies (e.g. shipped back from worker processes) to
    ``obs``'s counters."""
    obs = resolve(obs)
    obs.counter("verilog.parse.calls").inc(calls)
    obs.counter("verilog.parse.memo_hits").inc(memo_hits)


def ast_for(text: str) -> ast.SourceFile:
    """The AST of ``text``: memoised inside a :func:`parse_scope`,
    parsed afresh outside one.  Raises :class:`ParseError` either way."""
    scope = _SCOPE.get()
    if scope is None:
        return _parser.parse(text)
    return scope.ast_for(text)


__all__ = ["ParseScope", "ast_for", "parse_scope", "record_parse_counts"]
