"""Inputs and digests for the lexer's token-stream goldens.

``tests/verilog/data/token_goldens.json`` pins, for every input built
here, the exact token stream the lexer produces — as a digest of its
``(kind, text, line, col)`` tuples — or the exact ``LexError`` it
raises, as a ``[message, line, col]`` triple.  The fixture was recorded
with the original character-at-a-time lexer, so it holds any later
lexer to that behaviour token for token.

The inputs are seeded scrape corpora (clean, broken, junk, duplicate
and dependency-broken files), LLM-simulator responses with and without
their markdown fences, single-operator mutants, and hand-written cases:
one per ``LexError`` kind plus non-ASCII identifiers and digits, whose
classification follows ``str.isalpha``/``str.isalnum``/``str.isdigit``.

Re-record (only when the lexer's behaviour is meant to change)::

    PYTHONPATH=src python tests/verilog/token_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Union

FIXTURE = Path(__file__).with_name("data") / "token_goldens.json"

SCRAPE_SEEDS = (0, 1, 2, 3)
SCRAPE_FILES = 400
LLM_SEEDS = (0, 1, 2)
LLM_PROMPTS = 6
LLM_QUERIES = 6
MUTANT_SOURCES = 60

#: One input per LexError kind, then the corner cases of each token
#: class, then non-ASCII letters and digits.
HANDWRITTEN = [
    # unterminated block comment / attribute
    "module m; /* never closed",
    "a /*/ b",
    "(* keep",
    "(*",
    # invalid base character
    "8'q1",
    "8 'x0",
    "'z0",
    "4'sq",
    # based literal missing digits
    "8'h;",
    "8'",
    "'b",
    "8's",
    "'h \t;",
    # unterminated string literal
    '"abc',
    '"abc\ndef"',
    '"abc\\',
    # unexpected character
    "`define W 8",
    "a # b ` c",
    "x\fy",
    "x\x00y",
    "x\u00a0y",
    "12'x",
    "3.5 'q",
    # trivia and attributes
    "(* keep = 1 *) wire w; @(*) a/**/b // tail",
    "/* multi\nline */ x\r\n  y\t\tz",
    "(*)",
    # identifiers
    "foo _bar a$b $ $a$b $display \\esc+id! next \\",
    # numbers
    "1.5e3 1e 1e+ 1e+5 2.5E-3 3._5 1_000 1.5.3 8 'd 255 8\t'hF F",
    "4'b10xz 4'sb1010 'hFF 12'h?z_X 8'O17",
    "1e5'h1F 8'h1'h2 8 \n'd1 3 'sd 7",
    # strings and escapes
    '"a\\tb\\n\\"q\\"\\\\ \\q" "line\\\ncontinued" x',
    # operators, longest first
    "a<<<=b>>>c===d!==e<<f>>g<=h>=i==j!=k&&l||m**n~&o~|p~^q^~r->s+:t-:u",
    "{a,b}?c:d; #1 @e . f % g",
    # non-ASCII identifiers and digits
    "módulo é_x ñ1 naïve café$1",
    "x² y₃ z½",
    "²",
    "1² 12 ٣٤ 5٣",
    "½",
    "Ⅷ",
    "一二 三",
    "12'h٣ 'd٤",
    "$ñ $x²",
]

Outcome = Union[str, List]


def stream_digest(source: str) -> Outcome:
    """``"<n tokens>:<digest>"`` of the token stream, or the LexError
    as ``[message, line, col]``."""
    from repro.verilog.lexer import LexError, Lexer

    try:
        tokens = Lexer(source).tokenize()
    except LexError as exc:
        return [exc.message, exc.line, exc.col]
    rows = [(token.kind.value, token.text, token.line, token.col)
            for token in tokens]
    digest = hashlib.blake2b(repr(rows).encode("utf-8"),
                             digest_size=8).hexdigest()
    return f"{len(rows)}:{digest}"


def corpus_groups() -> Dict[str, List[str]]:
    """Every golden input, by group, in a fixed order."""
    from repro.corpus import GitHubScrapeSimulator
    from repro.corpus.keywords import build_keyword_database
    from repro.corpus.llm_sim import (
        SimulatedCommercialLLM,
        strip_markdown_fences,
    )
    from repro.dataset.corrupt import operator_mutants

    groups: Dict[str, List[str]] = {}
    for seed in SCRAPE_SEEDS:
        files = GitHubScrapeSimulator(seed=seed).scrape(SCRAPE_FILES)
        groups[f"scrape/{seed}"] = list(dict.fromkeys(
            raw.content for raw in files))
    database = build_keyword_database()
    for seed in LLM_SEEDS:
        llm = SimulatedCommercialLLM(seed=seed)
        rng = random.Random(seed)
        texts: List[str] = []
        for _ in range(LLM_PROMPTS):
            for sample in llm.generate_batch(database.sample(rng),
                                             n_queries=LLM_QUERIES):
                texts.append(sample.raw_response)
                texts.append(strip_markdown_fences(sample.raw_response))
        groups[f"llm/{seed}"] = list(dict.fromkeys(texts))
    mutants: List[str] = []
    for source in groups[f"scrape/{SCRAPE_SEEDS[0]}"][:MUTANT_SOURCES]:
        mutants.extend(operator_mutants(source))
    groups["mutants"] = list(dict.fromkeys(mutants))
    groups["handwritten"] = list(HANDWRITTEN)
    return groups


def record() -> Dict[str, List[Outcome]]:
    return {name: [stream_digest(source) for source in sources]
            for name, sources in corpus_groups().items()}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=0, ensure_ascii=True)
                       + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
