"""Tokenizer for a Verilog-2001 subset.

The lexer converts preprocessed source text into a stream of
:class:`Token` objects carrying position information, which the parser
and the diagnostics machinery use to produce readable error messages.

The supported language subset covers everything the PyraNet corpus and
evaluation problems use: module declarations (ANSI and non-ANSI),
parameters, nets and variables, continuous assignments, always and
initial blocks, case statements, loops, instantiations, functions, and
the full Verilog expression grammar including sized/based literals.
"""

from __future__ import annotations

import enum
import functools
import re
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SYSTEM_IDENT = "system_ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


#: Reserved words of the supported subset.  Anything else that looks like
#: an identifier is an IDENT token.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case
    casez casex endcase default for while repeat forever posedge negedge
    or and not nand nor xor xnor buf bufif0 bufif1 notif0 notif1
    function endfunction task endtask generate endgenerate genvar
    signed unsigned defparam specify endspecify supply0 supply1
    tri tri0 tri1 triand trior wand wor
    disable wait fork join deassign force release
    """.split()
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes:
        kind: lexical category.
        text: exact source spelling (for numbers, the full literal).
        line: 1-based source line.
        col: 1-based source column.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_op(self, *ops: str) -> bool:
        """Return True when this token is an operator with one of ``ops``."""
        return self.kind is TokenKind.OPERATOR and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        """Return True when this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.text in kws

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.col}"


class LexError(Exception):
    """Raised when the source contains a character sequence that cannot
    be tokenized (e.g. an unterminated string or a stray byte)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _unicode_classes() -> Tuple[str, str]:
    """Escaped non-ASCII members of two character classes ``re`` has no
    name for: ``str.isalnum`` characters that are neither letters nor
    decimal digits (they must not start an identifier), and the subset
    of those that ``str.isdigit`` accepts (they start and continue a
    number)."""
    numeric = [ch for ch in map(chr, range(0x80, sys.maxunicode + 1))
               if ch.isalnum() and not ch.isalpha() and not ch.isdecimal()]
    digits = [ch for ch in numeric if ch.isdigit()]
    return re.escape("".join(numeric)), re.escape("".join(digits))


@functools.lru_cache(maxsize=None)
def _master() -> "re.Pattern[str]":
    """The one compiled regex every token comes from.

    A match is any trivia (whitespace, comments, ``(* ... *)``
    attributes) followed by one token group.  Group order decides ties
    on a first character: an unterminated comment or attribute before
    the ``/`` and ``(`` operators, ``eof`` only at the end, and
    ``error`` (any single character) last, so :func:`re.finditer`
    walks the source without gaps.  Built on first use: the Unicode
    classes take a scan of the code space.
    """
    numeric, digits = _unicode_classes()
    digit = rf"[\d{digits}]"
    digit_ = rf"[\d{digits}_]"
    based = r"'[sS]?[bodhBODH][ \t]*[\w?]+"
    return re.compile(rf"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*[\s\S]*?\*/ | \(\*(?!\))[\s\S]*?\*\) )*
    (?: (?P<ident>[^\W\d{numeric}][\w$]*)
      | (?P<unclosed>/\* | \(\*(?!\)))
      | (?P<op><<< | >>> | === | !== | << | >> | <= | >= | == | != | && | \|\|
               | \*\* | ~& | ~\| | ~\^ | \^~ | -> | \+: | -:
               | [-+*/%<>!~&|^()\[\]{{}},;:?=.@\#])
      | (?P<number>{digit}{digit_}*(?:\.{digit}{digit_}*)?(?:[eE][+-]?{digit}+)?
                   (?:[ \t]*{based})?)
      | (?P<based>{based})
      | (?P<system>\$\w*)
      | (?P<escaped>\\[^ \t\r\n]*)
      | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
      | (?P<eof>\Z)
      | (?P<error>[\s\S]) )
    """, re.VERBOSE)


#: After a number, the start of a based-literal suffix the master regex
#: could not complete (``8'x``): the lexer reports it there.
_SUFFIX_START = re.compile(r"[ \t]*'")
_STRING_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


def _based_error(src: str, quote: int) -> str:
    """Why the based literal whose quote is at ``quote`` is malformed."""
    index = quote + 1
    if src[index:index + 1] in ("s", "S"):
        index += 1
    base = src[index:index + 1]
    if base and base not in "bodhBODH":
        return f"invalid base character {base!r}"
    return "based literal missing digits"


class Lexer:
    """Maximal-munch tokenizer driven by one compiled master regex.

    Usage::

        tokens = Lexer(source).tokenize()

    Identifier and number classes follow ``str.isalpha``,
    ``str.isalnum`` and ``str.isdigit``, non-ASCII characters included.
    Line and column come from counting the newlines each match spans.
    """

    def __init__(self, source: str) -> None:
        self._src = source
        self._stream = self._scan()
        #: Where the stream ended: its EOF token, or the LexError it
        #: raised; later calls repeat it.
        self._eof: Optional[Token] = None
        self._error: Optional[LexError] = None

    def _fail(self, message: str, line: int, col: int) -> LexError:
        self._error = LexError(message, line, col)
        return self._error

    def _scan(self) -> Iterator[Token]:
        src = self._src
        line, line_start = 1, 0
        keywords = KEYWORDS
        for match in _master().finditer(src):
            group = match.lastgroup
            start = match.start(group)
            if start != match.start():
                # Leading trivia: count the newlines it spans.
                newlines = src.count("\n", match.start(), start)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", 0, start) + 1
            col = start - line_start + 1
            text = match.group(group)
            if group == "ident":
                yield Token(TokenKind.KEYWORD if text in keywords
                            else TokenKind.IDENT, text, line, col)
            elif group == "op":
                yield Token(TokenKind.OPERATOR, text, line, col)
            elif group == "number":
                if "'" not in text:
                    suffix = _SUFFIX_START.match(src, match.end())
                    if suffix is not None:
                        quote = suffix.end() - 1
                        raise self._fail(_based_error(src, quote), line,
                                         quote - line_start + 1)
                yield Token(TokenKind.NUMBER, text, line, col)
            elif group == "based":
                yield Token(TokenKind.NUMBER, text, line, col)
            elif group == "system":
                yield Token(TokenKind.OPERATOR if text == "$"
                            else TokenKind.SYSTEM_IDENT, text, line, col)
            elif group == "escaped":
                yield Token(TokenKind.IDENT, text, line, col)
            elif group == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = _STRING_ESCAPE.sub(
                        lambda esc: _ESCAPES.get(esc[1], esc[1]), body)
                yield Token(TokenKind.STRING, body, line, col)
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rindex("\n") + 1
            elif group == "eof":
                yield Token(TokenKind.EOF, "", line, col)
                return
            elif group == "unclosed":
                raise self._fail("unterminated block comment" if text == "/*"
                                 else "unterminated attribute", line, col)
            elif text == "'":
                raise self._fail(_based_error(src, start), line, col)
            elif text == '"':
                raise self._fail("unterminated string literal", line, col)
            else:
                raise self._fail(f"unexpected character {text!r}", line, col)

    # -- public API ----------------------------------------------------------

    def next_token(self) -> Token:
        """Return the next token, or an EOF token at end of input."""
        if self._error is not None:
            raise self._error
        if self._eof is not None:
            return self._eof
        token = next(self._stream)
        if token.kind is TokenKind.EOF:
            self._eof = token
        return token

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input, returning a list ending with EOF."""
        if self._error is not None:
            raise self._error
        if self._eof is not None:
            return [self._eof]
        tokens = list(self._stream)
        self._eof = tokens[-1]
        return tokens

    def __iter__(self) -> Iterator[Token]:
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` into a token list."""
    return Lexer(source).tokenize()
