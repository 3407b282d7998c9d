"""Lexer for MiniC.

MiniC is the small C-like language the reproduction instruments and
executes in place of LLVM-compiled C.  The lexer supports integers,
double-quoted strings with the usual escapes, ``//`` line comments and
``/* */`` block comments.

One compiled master pattern scans the ASCII lexemes every workload is
made of, a match per token.  Everything else -- a token that starts
with, or runs into, a non-ASCII character (Unicode names, digits
``str.isdigit`` accepts), and every malformed lexeme -- is lexed by the
character-at-a-time rules below, so both paths accept the same
programs with the same tokens, locations and errors.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError, SourceLocation
from repro.lang.tokens import EOF, INT, KEYWORDS, NAME, PUNCTUATION, STRING, Token

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    '"': '"',
    "\\": "\\",
}

# Group order is match priority: a terminated block comment before the
# "/" operator, and ``slow`` (an unterminated comment, or a string the
# ``string`` group rejects) before any operator, so those go to the
# character rules that diagnose them.
_MASTER = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<line>//[^\n]*)"
    r"|(?P<block>/\*.*?\*/)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"(?:[^"\\\n]|\\[ntr0"\\])*")'
    r'|(?P<slow>/\*|")'
    "|(?P<punct>" + "|".join(re.escape(punct) for punct in PUNCTUATION) + ")",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)")


class Lexer:
    """Converts MiniC source text into a list of tokens."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    # -- public API --------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Return all tokens in the source, ending with an EOF token."""
        source = self._source
        size = len(source)
        match = _MASTER.match
        tokens: List[Token] = []
        append = tokens.append
        pos, line, line_start = 0, 1, 0
        while pos < size:
            found = match(source, pos)
            kind = found.lastgroup if found is not None else "slow"
            end = found.end() if found is not None else pos
            if (kind == "name" or kind == "int") and end < size and (
                source[end] >= "\x80"
                or (kind == "int" and (source[end].isalpha() or source[end] == "_"))
            ):
                # A Unicode continuation, or a digit run the character
                # rules reject: let them decide.
                kind = "slow"
            if kind == "slow":
                self._pos, self._line = pos, line
                self._column = pos - line_start + 1
                self._skip_trivia()
                if not self._at_end():
                    append(self._next_token())
                pos, line = self._pos, self._line
                line_start = pos - self._column + 1
                continue
            text = found.group()
            if kind == "space" or kind == "block":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
            elif kind != "line":
                location = SourceLocation(line, pos - line_start + 1)
                if kind == "name":
                    append(Token(
                        text if text in KEYWORDS else NAME, text, text, location
                    ))
                elif kind == "punct":
                    append(Token(text, text, text, location))
                elif kind == "int":
                    append(Token(INT, text, int(text), location))
                else:
                    value = _ESCAPE.sub(_unescape, text[1:-1])
                    append(Token(STRING, value, value, location))
            pos = end
        append(Token(EOF, "", None, SourceLocation(line, pos - line_start + 1)))
        return tokens

    # -- internals -----------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column)

    def _at_end(self) -> bool:
        return self._pos >= len(self._source)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._at_end():
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments."""
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._at_end():
                        raise LexerError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        ch = self._peek()
        if ch.isdigit():
            return self._lex_int()
        if ch.isalpha() or ch == "_":
            return self._lex_name()
        if ch == '"':
            return self._lex_string()
        return self._lex_punct()

    def _lex_int(self) -> Token:
        start = self._location()
        begin = self._pos
        while self._peek().isdigit():
            self._advance()
        if self._peek().isalpha() or self._peek() == "_":
            raise LexerError("identifier cannot start with a digit", start)
        text = self._source[begin : self._pos]
        try:
            value = int(text)
        except ValueError:
            # str.isdigit() accepts digits int() does not (``²``).
            raise LexerError(f"invalid integer literal {text!r}", start) from None
        return Token(INT, text, value, start)

    def _lex_name(self) -> Token:
        start = self._location()
        begin = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[begin : self._pos]
        kind = text if text in KEYWORDS else NAME
        return Token(kind, text, text, start)

    def _lex_string(self) -> Token:
        start = self._location()
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self._at_end() or self._peek() == "\n":
                raise LexerError("unterminated string literal", start)
            ch = self._peek()
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                escape = self._peek(1)
                if escape not in _ESCAPES:
                    raise LexerError(f"unknown escape \\{escape}", self._location())
                chars.append(_ESCAPES[escape])
                self._advance(2)
            else:
                chars.append(ch)
                self._advance()
        text = "".join(chars)
        return Token(STRING, text, text, start)

    def _lex_punct(self) -> Token:
        start = self._location()
        for punct in PUNCTUATION:
            if self._source.startswith(punct, self._pos):
                self._advance(len(punct))
                return Token(punct, punct, punct, start)
        raise LexerError(f"unexpected character {self._peek()!r}", start)


def _unescape(found: "re.Match") -> str:
    return _ESCAPES[found.group(1)]


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize MiniC source text."""
    return Lexer(source).tokenize()
