"""Property-based tests on cross-cutting invariants of the core data structures."""

import re

from hypothesis import example, given, settings, strategies as st

from repro.analysis.dependence import SubscriptForm, may_overlap
from repro.cparse.lexer import LexError, TokenKind, tokenize
from repro.dataset.tokenizer import CodeTokenizer
from repro.dataset.trim import TrimResult, trim_comments
from repro.eval.metrics import ConfusionCounts, mean_std
from repro.llm.behavior import deterministic_uniform


# -- comment trimming -----------------------------------------------------------


@st.composite
def c_like_source(draw):
    """Random mixtures of code-ish lines, comment lines and blank lines."""
    lines = draw(
        st.lists(
            st.sampled_from(
                [
                    "int x = 1;",
                    "  a[i] = a[i+1] + 1;",
                    "/* block comment */",
                    "// line comment",
                    "",
                    "#pragma omp parallel for",
                    "for (i = 0; i < n; i++)  // trailing",
                ]
            ),
            min_size=1,
            max_size=25,
        )
    )
    return "\n".join(lines) + "\n"


class TestTrimProperties:
    @given(c_like_source())
    @settings(max_examples=60)
    def test_line_map_is_strictly_increasing(self, source):
        result = trim_comments(source)
        mapped = [result.line_map[k] for k in sorted(result.line_map)]
        assert mapped == sorted(mapped)
        assert len(set(mapped)) == len(mapped)

    @given(c_like_source())
    @settings(max_examples=60)
    def test_mapped_lines_preserve_code_prefix(self, source):
        """Every surviving line's code content (up to any comment) is
        preserved verbatim at the same columns."""
        result = trim_comments(source)
        original_lines = source.splitlines()
        trimmed_lines = result.trimmed_code.splitlines()
        for orig_no, trimmed_no in result.line_map.items():
            original = original_lines[orig_no - 1]
            code_part = original.split("//")[0].split("/*")[0].rstrip()
            assert trimmed_lines[trimmed_no - 1].startswith(code_part)

    @given(c_like_source())
    @settings(max_examples=60)
    def test_trimmed_has_no_comment_markers(self, source):
        result = trim_comments(source)
        assert "/*" not in result.trimmed_code
        assert "//" not in result.trimmed_code


def reference_trim(source):
    """Trimming as it was built on the full lexer: blank every comment token
    :func:`tokenize` keeps.  The oracle for :func:`trim_comments`."""
    line_starts = [0] + [match.end() for match in re.finditer("\n", source)]
    pieces = []
    copied = 0
    for kind, text, line, col in tokenize(source, keep_comments=True):
        if kind is TokenKind.COMMENT:
            start = line_starts[line - 1] + col - 1
            pieces.append(source[copied:start])
            pieces.append(re.sub(r"[^\n]", " ", text))
            copied = start + len(text)
    pieces.append(source[copied:])
    out_lines = []
    line_map = {}
    for original_idx, text in enumerate("".join(pieces).split("\n"), start=1):
        if text.strip() == "":
            continue
        out_lines.append(text.rstrip())
        line_map[original_idx] = len(out_lines)
    trimmed = "\n".join(out_lines)
    return TrimResult(trimmed_code=trimmed + "\n" if trimmed else "", line_map=line_map)


def trim_outcome(trim, source):
    """``(trimmed_code, line_map)``, or the error's message, line and col."""
    try:
        result = trim(source)
    except LexError as error:
        return "error", error.args[0], error.line, error.col
    return "ok", result.trimmed_code, result.line_map


#: Characters and fragments the front-end fuzz snapshot never inserts
#: (form feed, vertical tab, carriage return, a non-ASCII letter and digit,
#: ``\`` continuations in ``#define``/``#pragma``, unknown directives),
#: mixed with code, quotes, ``/`` and ``*``.
_TRIM_PIECES = [
    "int x = 1;",
    "a[i] = a[i+1] / 2;",
    "x /= 3.5e+2f;",
    "s = 'c' + .5;",
    "/",
    "*",
    "/*",
    "*/",
    "//",
    '"',
    "'",
    '"a\\"/*"',
    "\\",
    "\n",
    " ",
    "\t",
    "\r",
    "\f",
    "\v",
    "é",
    "٣",
    "#define N 10 \\\n  + 1",
    "#define M \\",
    "#pragma omp parallel \\\n for",
    "#pragma omp atomic \\\r\n",
    "#include <omp.h>",
    "#ifdef X",
    "#endif",
    "#foo bar",
    "#",
    "@",
]


@st.composite
def trim_stress_source(draw):
    """Sources joined from :data:`_TRIM_PIECES` and short strings of their characters."""
    alphabet = "".join(sorted({ch for piece in _TRIM_PIECES for ch in piece}))
    parts = draw(
        st.lists(st.one_of(st.sampled_from(_TRIM_PIECES), st.text(alphabet=alphabet, max_size=4)), max_size=30)
    )
    return "".join(parts)


class TestTrimMatchesReference:
    @given(trim_stress_source())
    @settings(max_examples=400, deadline=None)
    @example("a\f/* x */\n")
    @example("x /=*y; a//*b*/\n")
    @example("é٣ = 1; // ok\n#foo\n")
    @example("#define A \\\n /* still define */ x\n#pragma omp \\\n")
    @example('"/* not a comment */" /* one */ \'"\' "unterminated')
    @example("x = 1;\n\v")
    def test_trim_equals_scan_based_reference(self, source):
        assert trim_outcome(trim_comments, source) == trim_outcome(reference_trim, source)


# -- tokenizer -------------------------------------------------------------------


class TestTokenizerProperties:
    @given(st.text(alphabet="abcxyz_[]()+-*/;= \n0123456789", max_size=300))
    @settings(max_examples=60)
    def test_count_equals_tokenize_length(self, text):
        tok = CodeTokenizer()
        assert tok.count(text) == len(tok.tokenize(text))

    @given(st.text(alphabet="abcxyz_ ;\n", max_size=120))
    @settings(max_examples=60)
    def test_appending_a_token_increases_count(self, text):
        tok = CodeTokenizer()
        assert tok.count(text + " zz9") == tok.count(text) + 1


# -- dependence tests --------------------------------------------------------------


class TestDependenceProperties:
    forms = st.builds(
        SubscriptForm,
        text=st.just("s"),
        variable=st.one_of(st.none(), st.just("i")),
        coeff=st.integers(-3, 3),
        offset=st.integers(-10, 10),
        is_affine=st.booleans(),
    )

    @given(forms, forms, st.booleans())
    @settings(max_examples=100)
    def test_may_overlap_is_symmetric(self, a, b, same_iter):
        assert may_overlap(a, b, same_iteration_ok=same_iter) == may_overlap(
            b, a, same_iteration_ok=same_iter
        )

    @given(forms)
    @settings(max_examples=60)
    def test_non_affine_always_overlaps(self, form):
        other = SubscriptForm(text="x", is_affine=False)
        assert may_overlap(form, other)


# -- metrics ----------------------------------------------------------------------


class TestMetricsProperties:
    counts = st.builds(
        ConfusionCounts,
        tp=st.integers(0, 200),
        fp=st.integers(0, 200),
        tn=st.integers(0, 200),
        fn=st.integers(0, 200),
    )

    @given(counts)
    def test_f1_bounded_by_precision_and_recall(self, c):
        lo, hi = sorted([c.precision, c.recall])
        assert lo - 1e-12 <= c.f1 <= hi + 1e-12 or c.f1 == 0.0

    @given(counts)
    def test_metric_ranges(self, c):
        for value in (c.precision, c.recall, c.f1, c.accuracy):
            assert 0.0 <= value <= 1.0

    @given(counts, counts)
    def test_addition_accumulates_counts(self, a, b):
        total = a + b
        assert total.total == a.total + b.total

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_sd_zero_iff_constant(self, values):
        mean, sd = mean_std(values)
        if len(set(values)) == 1:
            assert sd == 0.0
        assert sd >= 0.0


# -- deterministic pseudo-randomness ----------------------------------------------


class TestDeterministicUniform:
    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=80)
    def test_range_and_stability(self, a, b):
        value = deterministic_uniform(a, b)
        assert 0.0 <= value < 1.0
        assert value == deterministic_uniform(a, b)

    def test_distribution_is_roughly_uniform(self):
        values = [deterministic_uniform("salt", str(i)) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        assert sum(v < 0.25 for v in values) / len(values) > 0.2
