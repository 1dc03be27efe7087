"""Token-stream goldens: the lexer reproduces every recorded stream.

The fixture (see :mod:`.token_corpus`) was recorded with the original
character-at-a-time lexer before it was replaced by one compiled
master regex; every token's kind, text, line and column — and every
``LexError``'s message, line and column — must still match.
"""

import json

import pytest

from repro.verilog.lexer import LexError, Lexer, TokenKind

from .token_corpus import FIXTURE, HANDWRITTEN, corpus_groups, stream_digest

GOLDENS = json.loads(FIXTURE.read_text(encoding="utf-8"))
GROUPS = corpus_groups()


@pytest.mark.parametrize("group", sorted(GOLDENS))
def test_stream_matches_recording(group):
    sources = GROUPS[group]
    recorded = GOLDENS[group]
    assert len(sources) == len(recorded)
    mismatches = [(index, source[:60], expected, stream_digest(source))
                  for index, (source, expected)
                  in enumerate(zip(sources, recorded))
                  if stream_digest(source) != expected]
    assert not mismatches, mismatches[:3]


def test_every_lex_error_kind_is_covered():
    kinds = {outcome[0].split(" '")[0]
             for outcome in GOLDENS["handwritten"]
             if isinstance(outcome, list)}
    assert kinds == {"unterminated block comment", "unterminated attribute",
                     "invalid base character",
                     "based literal missing digits",
                     "unterminated string literal", "unexpected character"}


def test_scraped_corpora_include_lex_errors():
    # The broken/junk scrape categories must keep exercising the error
    # paths, not only the clean token classes.
    assert any(isinstance(outcome, list)
               for group in GOLDENS if group.startswith("scrape/")
               for outcome in GOLDENS[group])


def test_handwritten_inputs_are_the_recorded_ones():
    assert GROUPS["handwritten"] == HANDWRITTEN


class TestIncrementalApi:
    """``next_token``/iteration agree with ``tokenize`` on the corpus."""

    SOURCES = GROUPS["scrape/0"][:40] + HANDWRITTEN

    @staticmethod
    def _drain(lexer):
        tokens = []
        while True:
            token = lexer.next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    @pytest.mark.parametrize("index", range(len(SOURCES)))
    def test_next_token_and_iteration_match_tokenize(self, index):
        source = self.SOURCES[index]
        try:
            expected = Lexer(source).tokenize()
        except LexError as exc:
            error = (exc.message, exc.line, exc.col)
            for drain in (self._drain, list):
                with pytest.raises(LexError) as raised:
                    drain(Lexer(source))
                assert (raised.value.message, raised.value.line,
                        raised.value.col) == error
            return
        assert self._drain(Lexer(source)) == expected
        assert list(Lexer(source)) == expected

    def test_a_lex_error_repeats(self):
        lexer = Lexer("a `b")
        assert lexer.next_token().text == "a"
        for _ in range(2):
            with pytest.raises(LexError, match="unexpected character"):
                lexer.next_token()
        with pytest.raises(LexError, match="unexpected character"):
            lexer.tokenize()

    def test_eof_repeats(self):
        lexer = Lexer("a")
        lexer.tokenize()
        again = lexer.next_token()
        assert again.kind is TokenKind.EOF
        assert lexer.next_token() == again
