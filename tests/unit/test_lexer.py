"""Unit tests for the MiniC lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import EOF, INT, NAME, STRING, Token


def kinds(source):
    return [token.kind for token in tokenize(source)]


def test_empty_source_yields_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == EOF


def test_integer_literal():
    tokens = tokenize("42")
    assert tokens[0].kind == INT
    assert tokens[0].value == 42


def test_identifier_and_keyword():
    tokens = tokenize("foo while")
    assert tokens[0].kind == NAME
    assert tokens[0].text == "foo"
    assert tokens[1].kind == "while"


def test_string_literal_with_escapes():
    tokens = tokenize('"a\\nb\\t\\"c\\\\"')
    assert tokens[0].kind == STRING
    assert tokens[0].value == 'a\nb\t"c\\'


def test_unterminated_string_raises():
    with pytest.raises(LexerError):
        tokenize('"abc')


def test_string_may_not_span_lines():
    with pytest.raises(LexerError):
        tokenize('"abc\ndef"')


def test_unknown_escape_raises():
    with pytest.raises(LexerError):
        tokenize('"\\q"')


def test_line_comment_skipped():
    assert kinds("1 // comment\n2") == [INT, INT, EOF]


def test_block_comment_skipped():
    assert kinds("1 /* multi\nline */ 2") == [INT, INT, EOF]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexerError):
        tokenize("/* never closed")


def test_two_char_operators_win_over_one_char():
    assert kinds("== != <= >= && || +=") == [
        "==",
        "!=",
        "<=",
        ">=",
        "&&",
        "||",
        "+=",
        EOF,
    ]


def test_positions_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
    assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)


def test_identifier_cannot_start_with_digit():
    with pytest.raises(LexerError):
        tokenize("1abc")


def test_unexpected_character_raises():
    with pytest.raises(LexerError):
        tokenize("@")


def test_keywords_are_not_names():
    for word in ("fn", "var", "if", "else", "return", "true", "false", "nil"):
        assert tokenize(word)[0].kind == word


def test_digits_int_rejects_are_lexer_errors():
    # str.isdigit() accepts "²", int() does not: a diagnosed LexerError
    # at the literal, never a bare ValueError.
    with pytest.raises(LexerError) as exc_info:
        tokenize("var x = ²;")
    assert exc_info.value.location == tokenize("var x = 1;")[3].location
    assert "'²'" in str(exc_info.value)


def test_unicode_names_and_digits_lex_as_before():
    tokens = tokenize("var café = ٣2; caf2é")
    assert [(t.kind, t.value) for t in tokens] == [
        ("var", "var"), (NAME, "café"), ("=", "="), (INT, 32), (";", ";"),
        (NAME, "caf2é"), (EOF, None),
    ]
    assert (tokens[5].location.line, tokens[5].location.column) == (1, 16)


def test_locations_after_multiline_comments_and_strings():
    tokens = tokenize('a /* x\n y\n */ "s\\n" b\n  // c\n d')
    assert [(t.text, t.location.line, t.location.column) for t in tokens] == [
        ("a", 1, 1), ("s\n", 3, 5), ("b", 3, 11), ("d", 5, 2), ("", 5, 3),
    ]


def _lex_char_at_a_time(source):
    # The character rules alone, token by token: the reference the
    # master pattern must agree with.
    lexer = Lexer(source)
    tokens = []
    while True:
        lexer._skip_trivia()
        if lexer._at_end():
            tokens.append(Token(EOF, "", None, lexer._location()))
            return tokens
        tokens.append(lexer._next_token())


def _lexed(lex, source):
    try:
        return [
            (t.kind, t.text, t.value, t.location.line, t.location.column)
            for t in lex(source)
        ]
    except LexerError as error:
        return str(error)


def test_master_pattern_matches_character_rules_on_every_workload():
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        assert _lexed(tokenize, workload.source) == _lexed(
            _lex_char_at_a_time, workload.source
        ), workload.name


_ALPHABET = list('ab_Z09 \t\r\n/*"\\ntr0q+-=<>!&|(){}[],;%@') + [
    "²", "٣", "é", "½", " ", "ǅ", "ⅷ",
]


@given(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=16))
@settings(max_examples=400, deadline=None)
def test_master_pattern_matches_character_rules(source):
    assert _lexed(tokenize, source) == _lexed(_lex_char_at_a_time, source)
