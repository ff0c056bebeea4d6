"""Parse and static-analysis outcomes of the front-end, pinned to digests.

``fixtures/frontend_parse_snapshot.json`` holds one SHA-256 digest per
corpus program.  Each digest covers

* for every fuzz mutant of the program (``test_frontend_fuzz.mutants``):
  the ``repr`` of the parsed ``TranslationUnit``, or the error's type,
  message and ``line:col``; for a mutant that parses, the ``repr`` of its
  ``AccessModel`` and ``StaticRaceReport`` (or the typed error);
* for the program itself and its seeded variant
  (``test_frontend_snapshot.programs``): the ``repr`` of the access model
  and of the static report, which carry ``has_race``, the pairs, their rule
  IDs, the diagnostics, the suppressions and the unit's constants.

The ``walk:<probe>`` entries pin the access model and report of small
programs that hide a write, an index-array store or a parallel region in
each kind of node the analyzer's tree walks pass through.  The
``nesting:<construct>`` entries pin where input nested 10,000 levels
deep fails: the ``ParseError`` names the token at which the charged
nesting first passed the limit, so moving a ``NESTING_COST`` charge moves
the token.  Re-record only for an intended change of parser or analyzer
output::

    PYTHONPATH=src python tests/cparse/test_frontend_parse_snapshot.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.accesses import extract_access_model
from repro.analysis.static_race import StaticRaceDetector
from repro.cparse import parse
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError

from test_frontend_fuzz import MUTANTS
from test_frontend_snapshot import PROGRAMS, sha256

FIXTURE = Path(__file__).with_name("fixtures") / "frontend_parse_snapshot.json"
DETECTOR = StaticRaceDetector()
NESTING_LEVELS = 10_000

#: ``construct: (opening, innermost, closing)``: ``opening * n + innermost
#: + closing * n`` nests ``construct`` n deep, as the expression of
#: ``x = ...;`` or, for the statements, as a statement of ``main``.  Each
#: goes through a different parser path.
NESTED_EXPRESSIONS = {
    "prefix": ("!", "1", ""),
    "prefix-incdec": ("--", "a", ""),
    "deref": ("*", "p", ""),
    "paren": ("(", "1", ")"),
    "binary-paren": ("a + (", "1", ")"),
    "binary-ident": ("a * (b + ", "c", ")"),
    "subscript": ("a[", "i", "]"),
    "subscript-ident": ("a[i + ", "j", "]"),
    "call": ("f(", "1", ")"),
    "call-args": ("f(a, ", "b", ")"),
    "sizeof": ("sizeof(", "a", ")"),
    "cast": ("(int)", "a", ""),
    "conditional": ("a ? ", "b", " : c"),
    "assign-paren": ("(a = ", "b", ")"),
    "postfix-paren": ("(a++ + ", "b", ")"),
    "member-paren": ("(s.m - ", "b", ")"),
    # A cast backtracks on a ParseError unless the charged depth is past
    # the limit; these trip the limit inside a cast, at a prefix operator,
    # a subscript and a binary operator.
    "cast-prefix": ("(int)- - -", "a", ""),
    "cast-subscript": ("(int)a[b[", "i", "]]"),
    "cast-binary": ("(int)(a || b && c + ", "d", ")"),
}
NESTED_STATEMENTS = {
    "block": ("{", "", "}"),
    "if": ("if (a) ", "x = 1;", ""),
    "for": ("for (i = 0; i < n; i++) ", "x = 1;", ""),
    "while": ("while (a) ", "x = 1;", ""),
    "pragma": ("#pragma omp critical\n", "x = 1;", ""),
}
NESTED = {**NESTED_EXPRESSIONS, **NESTED_STATEMENTS}

#: ``name: statements``: each writes ``n`` (otherwise a constant, so it
#: shows in the access model's ``constants``), stores to an index array or
#: opens a parallel region from a different place in the tree, so the unit
#: pre-pass and the region search must visit that node.
WALK_PROBES = {
    "for-step": "for (i = 0; i < 10; n++) x = 1;",
    "for-step-comma": "for (i = 0; i < 10; i++, n++) x = 1;",
    "for-cond": "for (i = 0; (n = i) < 10; i++) x = 1;",
    "for-init": "for (n = 0; n < 10; x++) x = 1;",
    "for-init-decl": "for (int k = (n = 2); k < 10; k++) x = 1;",
    "while-cond": "while (n--) x = 1;",
    "while-body": "while (x) { n = 2; }",
    "if-cond": "if ((n = 2)) x = 1;",
    "if-then": "if (x) n = 1;",
    "if-else": "if (x) x = 1; else n = 3;",
    "return": "return n++;",
    "call-arg": "f(x, n = 3);",
    "decl-init": "int k = (n = 4);",
    "init-list": "int b[2] = {n = 1, 2};",
    "conditional-cond": "x = (n = 2) ? 1 : 0;",
    "conditional": "x = x ? n++ : 0;",
    "conditional-else": "x = x ? 0 : --n;",
    "subscript": "a[n++] = 1;",
    "subscript-base": "x = (n = 1)[a];",
    "incdec-operand": "a[n++]++;",
    "binary-left": "x = (n = 1) + 1;",
    "binary-right": "x = 1 + (n += 2);",
    "unary": "x = -(n = 2);",
    "address-of": "x = *(&(n = 2));",
    "sizeof": "x = sizeof(n = 2);",
    "omp-body": "#pragma omp critical\nn = 5;",
    "block": "{ { n = 5; } }",
    "store-in-loop": "for (i = 0; i < 10; i++) a[i] = 2 * i + n;",
    "store-in-nested-loop": "for (i = 0; i < 10; i++) for (x = 0; x < 10; x++) a[x] = x + 1;",
    "store-in-while": "while (x) for (i = 0; i < 10; i++) { a[i] = i; }",
    "store-in-region": "#pragma omp parallel for\nfor (i = 0; i < 10; i++) a[i] = i;",
    "store-twice": "for (i = 0; i < 10; i++) a[i] = i; for (i = 0; i < 10; i++) a[i] = i;",
    "region-in-then": "if (x) {\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = a[i + 1];\n}",
    "region-in-if": "if (x) x = 1; else {\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = a[i + 1];\n}",
    "region-in-while": "while (x) {\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = a[i + 1];\n}",
    "region-in-for": "for (x = 0; x < 2; x++)\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = a[i + 1];",
    "region-in-omp": "#pragma omp critical\n{\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = a[i + 1];\n}",
    "region-simd": "#pragma omp simd\nfor (i = 0; i < n; i++) a[i + 1] = a[i];",
}


def walk_probe_source(name: str) -> str:
    return (
        "int main() {\nint n = 8;\nint a[100];\nint i;\nint x = 0;\n"
        + WALK_PROBES[name]
        + "\nreturn 0;\n}\n"
    )


def nested_source(construct: str, levels: int) -> str:
    opening, innermost, closing = NESTED[construct]
    body = opening * levels + innermost + closing * levels
    if construct in NESTED_EXPRESSIONS:
        body = f"x = {body};"
    return "int main() { " + body + " }"


def error_text(exc: Exception) -> str:
    """Type, message and position of a typed front-end error."""
    if isinstance(exc, ParseError):
        where = f"{exc.token.line}:{exc.token.col}"
    elif isinstance(exc, LexError):
        where = f"{exc.line}:{exc.col}"
    else:
        where = "-"
    return f"{type(exc).__name__}\t{exc}\t{where}"


def analysis_text(unit) -> str:
    try:
        return repr(extract_access_model(unit)) + "\0" + repr(DETECTOR.analyze_unit(unit))
    except PragmaError as exc:
        return error_text(exc)


def parse_and_analyze(code: str) -> str:
    try:
        unit = parse(code)
    except (LexError, ParseError, PragmaError) as exc:
        return error_text(exc)
    return "ok\t" + repr(unit) + "\0" + analysis_text(unit)


def program_digests() -> Dict[str, str]:
    """One digest per corpus program: its mutants, itself and its variant."""
    codes = dict(PROGRAMS)
    variants = {name.split("#", 1)[0]: code for name, code in PROGRAMS if "#" in name}
    out = {}
    for name, mutants in MUTANTS:
        parts: List[str] = [parse_and_analyze(code) for code in mutants]
        parts.append(analysis_text(parse(codes[name])))
        parts.append(analysis_text(parse(variants[name])))
        out[name] = sha256("\1".join(parts))
    return out


def nesting_digests() -> Dict[str, str]:
    return {
        f"nesting:{construct}": sha256(parse_and_analyze(nested_source(construct, NESTING_LEVELS)))
        for construct in NESTED
    }


def walk_digests() -> Dict[str, str]:
    return {f"walk:{name}": sha256(parse_and_analyze(walk_probe_source(name))) for name in WALK_PROBES}


def digests() -> Dict[str, str]:
    return {**program_digests(), **nesting_digests(), **walk_digests()}


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, str]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_every_program_and_construct(snapshot):
    expected = [name for name, _codes in MUTANTS] + [f"nesting:{c}" for c in NESTED]
    expected += [f"walk:{name}" for name in WALK_PROBES]
    assert sorted(snapshot) == sorted(expected)


def test_deep_nesting_fails_with_the_nesting_error():
    for construct in NESTED:
        outcome = parse_and_analyze(nested_source(construct, NESTING_LEVELS))
        assert outcome.startswith("ParseError\tnesting deeper than"), construct


def test_parse_and_analysis_outcomes_match_snapshot(snapshot):
    current = program_digests()
    mismatched = [name for name, digest in current.items() if digest != snapshot[name]]
    assert mismatched == [], f"parse/analysis outcomes differ for {mismatched[:5]}"


def test_nesting_limit_trips_at_the_pinned_token(snapshot):
    current = nesting_digests()
    mismatched = [name for name, digest in current.items() if digest != snapshot[name]]
    assert mismatched == [], f"nesting errors differ for {mismatched}"


def test_walk_probes_parse():
    for name in WALK_PROBES:
        assert parse_and_analyze(walk_probe_source(name)).startswith("ok\t"), name


def test_walk_probe_outcomes_match_snapshot(snapshot):
    current = walk_digests()
    mismatched = [name for name, digest in current.items() if digest != snapshot[name]]
    assert mismatched == [], f"pre-pass or region search differs for {mismatched}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [f"{json.dumps(name)}: {json.dumps(digest)}" for name, digest in digests().items()]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
