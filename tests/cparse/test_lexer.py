"""Unit tests for the C/OpenMP lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.cparse.lexer import LexError, Token, TokenKind, tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


class TestBasicTokens:
    def test_identifier_and_keyword(self):
        toks = tokenize("int foo;")
        assert toks[0].kind is TokenKind.KEYWORD and toks[0].text == "int"
        assert toks[1].kind is TokenKind.IDENT and toks[1].text == "foo"
        assert toks[2].is_punct(";")
        assert toks[-1].kind is TokenKind.EOF

    def test_integer_literal(self):
        toks = tokenize("x = 1000;")
        lit = [t for t in toks if t.kind is TokenKind.INT_LIT]
        assert len(lit) == 1 and lit[0].text == "1000"

    def test_float_literal(self):
        toks = tokenize("double y = 3.14;")
        assert any(t.kind is TokenKind.FLOAT_LIT and t.text == "3.14" for t in toks)

    def test_float_exponent(self):
        toks = tokenize("a = 1e-4;")
        assert any(t.kind is TokenKind.FLOAT_LIT for t in toks)

    def test_string_literal(self):
        toks = tokenize('printf("a[500]=%d\\n", a[500]);')
        strings = [t for t in toks if t.kind is TokenKind.STRING_LIT]
        assert len(strings) == 1
        assert strings[0].text.startswith('"')

    def test_char_literal(self):
        toks = tokenize("c = 'x';")
        assert any(t.kind is TokenKind.CHAR_LIT for t in toks)

    def test_multichar_punctuators(self):
        toks = tokenize("a += b; c && d; e <= f; g++;")
        texts = [t.text for t in toks if t.kind is TokenKind.PUNCT]
        assert "+=" in texts and "&&" in texts and "<=" in texts and "++" in texts


class TestDirectivesAndComments:
    def test_include(self):
        toks = tokenize("#include <stdio.h>\nint x;")
        assert toks[0].kind is TokenKind.INCLUDE
        assert "<stdio.h>" in toks[0].text

    def test_pragma_token_text(self):
        toks = tokenize("#pragma omp parallel for private(i)\nfor (i=0;i<10;i++) ;")
        pragma = toks[0]
        assert pragma.kind is TokenKind.PRAGMA
        assert pragma.text == "omp parallel for private(i)"

    def test_pragma_line_continuation(self):
        src = "#pragma omp parallel for \\\n  reduction(+:sum)\nx = 1;"
        toks = tokenize(src)
        assert toks[0].kind is TokenKind.PRAGMA
        assert "reduction(+:sum)" in toks[0].text

    def test_comments_dropped_by_default(self):
        src = "/* block */\n// line\nint x;"
        toks = tokenize(src)
        assert all(t.kind is not TokenKind.COMMENT for t in toks)

    def test_comments_kept_on_request(self):
        src = "/* Data race pair: a[i+1]@64:10:R vs. a[i]@64:5:W */\nint x;"
        toks = tokenize(src, keep_comments=True)
        comments = [t for t in toks if t.kind is TokenKind.COMMENT]
        assert len(comments) == 1
        assert "Data race pair" in comments[0].text

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"open')

    def test_empty_directive_raises_lex_error(self):
        with pytest.raises(LexError, match="unsupported preprocessor directive ''") as info:
            tokenize("int x;\n  #\n")
        assert (info.value.line, info.value.col) == (2, 3)


class TestLocations:
    def test_line_and_column_tracking(self):
        src = "int a;\n  a = 1;\n"
        toks = tokenize(src)
        a_tokens = [t for t in toks if t.kind is TokenKind.IDENT and t.text == "a"]
        assert a_tokens[0].line == 1 and a_tokens[0].col == 5
        assert a_tokens[1].line == 2 and a_tokens[1].col == 3

    def test_columns_after_tabs_and_spaces(self):
        toks = tokenize("    x = y + z;")
        x = next(t for t in toks if t.text == "x")
        assert x.col == 5

    def test_multiline_positions(self):
        src = "int main()\n{\n  int i;\n}\n"
        toks = tokenize(src)
        brace = next(t for t in toks if t.is_punct("{"))
        assert brace.line == 2 and brace.col == 1


class TestLexerProperties:
    @given(
        st.lists(
            st.sampled_from(["x", "y", "foo", "1", "42", "+", "-", "*", ";", "(", ")"]),
            min_size=1,
            max_size=30,
        )
    )
    def test_token_count_matches_word_stream(self, pieces):
        """Space-separated simple tokens round-trip one-to-one (plus EOF)."""
        source = " ".join(pieces)
        toks = tokenize(source)
        assert len(toks) == len(pieces) + 1

    @given(st.text(alphabet="abcxyz_ (){}[];=+-*/<>0123456789\n\t", max_size=200))
    def test_terminates_on_supported_alphabet(self, text):
        """The lexer either tokenizes or reports a LexError; it never hangs or
        raises anything else (unterminated ``/*`` comments are legal failures)."""
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind is TokenKind.EOF

    @given(st.integers(min_value=0, max_value=10**9))
    def test_integer_values_preserved(self, value):
        toks = tokenize(f"x = {value};")
        lit = next(t for t in toks if t.kind is TokenKind.INT_LIT)
        assert int(lit.text) == value


def _blank_swapped(source: str) -> str:
    """``source`` with the spaces of every code line turned into form feeds
    and vertical tabs, in turn.  Directive lines and lines holding a literal
    keep theirs: there a blank is part of a token's text."""
    blanks = iter("\f\v" * len(source))
    lines = []
    for line in source.split("\n"):
        if not line.lstrip().startswith("#") and '"' not in line and "'" not in line:
            line = "".join(next(blanks) if char == " " else char for char in line)
        lines.append(line)
    return "\n".join(lines)


class TestFormFeedAndVerticalTab:
    """C counts ``\\f`` and ``\\v`` as white space; only ``\\n`` ends a line."""

    @pytest.fixture(scope="class")
    def sources(self):
        from repro.corpus import CorpusConfig, build_corpus

        corpus = build_corpus(CorpusConfig())
        pairs = [(bench.code, _blank_swapped(bench.code)) for bench in corpus[:40]]
        assert all("\f" in swapped and "\v" in swapped for _, swapped in pairs)
        return pairs

    @pytest.mark.parametrize("blank", ["\f", "\v"])
    def test_single_blank(self, blank):
        from repro.cparse import parse
        from repro.dataset.trim import trim_comments

        assert trim_comments(f"int x;{blank}\n").trimmed_code == "int x;\n"
        assert parse(f"int main(){{{blank} int x = 1; return x;}}") == parse(
            "int main(){  int x = 1; return x;}"
        )
        tokens = tokenize(f"a{blank}b\nc")
        assert [(t.text, t.line, t.col) for t in tokens] == [
            ("a", 1, 1), ("b", 1, 3), ("c", 2, 1), ("", 2, 2)
        ]

    def test_tokens_match_spaces(self, sources):
        for code, swapped in sources:
            assert tokenize(swapped) == tokenize(code)
            assert [
                token._replace(text=token.text.replace("\f", " ").replace("\v", " "))
                for token in tokenize(swapped, keep_comments=True)
            ] == tokenize(code, keep_comments=True)

    def test_comment_spans_and_trim_match_spaces(self, sources):
        from repro.cparse.lexer import comment_spans
        from repro.dataset.trim import trim_comments

        for code, swapped in sources:
            assert comment_spans(swapped) == comment_spans(code)
            reference, trimmed = trim_comments(code), trim_comments(swapped)
            assert trimmed.line_map == reference.line_map
            assert trimmed.trimmed_code.replace("\f", " ").replace("\v", " ") == (
                reference.trimmed_code
            )

    def test_ast_matches_spaces(self, sources):
        from repro.cparse import parse

        for code, swapped in sources:
            assert parse(swapped) == parse(code)
