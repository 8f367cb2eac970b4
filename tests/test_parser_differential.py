"""Differential tests: the binding-power parsers against the frozen ladder.

``tests/parser_oracle.py`` keeps the recursive-descent parsers the
binding-power loop replaced.  Over random token streams, random
expression text, random skeleton lines, generated programs and every
bundled workload, both must give the same trees, the same programs and
the same diagnostics (code, message, line and column).  The fault-corpus
fixture pins the recovery diagnostics of every corrupted workload.
"""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diagnostics.corpus import run_corpus
from repro.errors import ExpressionError, ReproError
from repro.expressions import parse_expr
from repro.expressions.expr import Expr
from repro.expressions.parser import ExprParser
from repro.skeleton import (
    BranchArm, Statement, format_skeleton, parse_skeleton,
    parse_skeleton_recover,
)
from repro.workloads import names, spec
from tests import parser_oracle as oracle
from tests.test_property_model import programs

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# -- token streams -------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0.5", "2.25", "1e3", "1.5e-2", "4k", "2M", "1G",
                     "1.5k", "007", "1e999"]))
NAMES = st.sampled_from(["n", "m", "x_1", "_tmp", "nx", "step", "prob",
                         "as", "flops", "float64"])
KEYWORDS = st.sampled_from(["and", "or", "not"])
FUNCTIONS = st.sampled_from(["min", "max", "abs", "ceil", "floor", "sqrt",
                             "log", "log2", "exp", "pow", "frob"])
OPERATORS = st.sampled_from(["+", "-", "*", "/", "//", "%", "^", "<", "<=",
                             ">", ">=", "==", "!=", "(", ")", ","])
STATEMENT_ONLY = st.sampled_from([":", "?", "=", "[", "]", '"lbl"',
                                  '"a b"'])
TOKENS = st.one_of(NUMBERS, NAMES, KEYWORDS, FUNCTIONS, OPERATORS,
                   OPERATORS, STATEMENT_ONLY)


INFIX = ["or", "and", "<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/",
         "//", "%", "^"]


@st.composite
def well_formed(draw, depth=0):
    """Operands joined by random infix operators, unparenthesized, so the
    binding levels decide the tree; an operand may carry prefix
    operators, be parenthesized or be a call."""
    tokens = []
    for position in range(draw(st.integers(1, 6))):
        if position:
            tokens.append(draw(st.sampled_from(INFIX)))
        if draw(st.integers(0, 5)) == 0:
            tokens.append("not")
        tokens += ["-"] * draw(st.integers(0, 2))
        kind = draw(st.integers(0, 5 if depth < 2 else 3))
        if kind <= 3:
            tokens.append(draw(st.one_of(NUMBERS, NAMES)))
        elif kind == 4:
            tokens += ["("] + draw(well_formed(depth + 1)) + [")"]
        else:
            tokens += [draw(FUNCTIONS), "("]
            for index in range(draw(st.integers(0, 2))):
                tokens += ([","] if index else []) + draw(
                    well_formed(depth + 1))
            tokens.append(")")
    return tokens


WELL_FORMED = well_formed()


@st.composite
def token_streams(draw):
    """A well-formed stream with a few random tokens inserted or dropped,
    or a random one; sometimes behind a run of openers deep enough to
    cross the nesting limit."""
    if draw(st.booleans()):
        tokens = draw(WELL_FORMED)
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(tokens)))
            if draw(st.booleans()) and at < len(tokens):
                del tokens[at]
            else:
                tokens.insert(at, draw(TOKENS))
    else:
        tokens = draw(st.lists(TOKENS, max_size=24))
    if draw(st.integers(0, 3)) == 0:
        opener = draw(st.sampled_from([["("], ["-"], ["not"], ["2", "^"],
                                       ["max", "("]]))
        tokens = opener * draw(st.integers(70, 90)) + tokens
    return tokens


def _oracle_tokens(tokens):
    """The ladder's ``Token`` tuples for ``tokens`` joined by spaces."""
    out, pos = [], 0
    for text in tokens:
        first = text[0]
        kind = ("num" if first.isdigit() else
                "name" if first.isalpha() or first == "_" else
                "str" if first == '"' else "op")
        out.append(oracle.Token(kind, text, pos))
        pos += len(text) + 1
    return out


def _run(parser, method):
    try:
        return getattr(parser, method)(), None
    except ExpressionError as exc:
        return None, str(exc)


def assert_same_tree(new, old):
    assert new == old
    assert repr(new) == repr(old)


class TestTokenStreams:
    """The loop that skeleton lines use, entered mid-stream like
    ``_Line.expr`` enters it."""

    @given(token_streams(), st.integers(0, 3))
    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_tree_end_and_error(self, tokens, skip):
        start = min(skip, len(tokens))
        source = " ".join(tokens)
        new = ExprParser(tokens, source)
        new.index = start
        old = oracle._Parser(_oracle_tokens(tokens), source)
        old.index = start
        new_tree, new_error = _run(new, "parse")
        old_tree, old_error = _run(old, "parse_or")
        assert new_error == old_error
        if old_error is None:
            assert_same_tree(new_tree, old_tree)
        # the cursor decides the SKOP107 column, on failure too
        assert new.index == old.index


#: expression text: tokens, whitespace, characters no token matches, and
#: pieces that fuse with a neighbour (``1`` + ``e3``, ``a`` + ``nd``)
TEXT = st.one_of(
    WELL_FORMED.map(" ".join),
    st.lists(st.one_of(
        TOKENS, TOKENS, TOKENS, st.sampled_from([" ", " ", "", "\t"]),
        st.sampled_from(["$", '"', "#", ".", "!", "\u0663", "e", "1.",
                         "nd"])), max_size=20).map("".join))


class TestExpressionText:
    @given(TEXT)
    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_tree_or_message(self, text):
        try:
            new, new_error = parse_expr(text), None
        except ExpressionError as exc:
            new, new_error = None, str(exc)
        try:
            old, old_error = oracle.parse_expr(text), None
        except ExpressionError as exc:
            old, old_error = None, str(exc)
        assert new_error == old_error
        if old_error is None:
            assert_same_tree(new, old)


# -- whole skeletons -------------------------------------------------------------

def _value(value):
    if isinstance(value, Statement):
        return ("node", value.node_id)
    if isinstance(value, BranchArm):
        return ("arm", value.kind, repr(value.expr), value.line,
                [child.node_id for child in value.body])
    if isinstance(value, (list, tuple)):
        return [_value(item) for item in value]
    if isinstance(value, Expr):
        return repr(value)
    return repr(value)


def program_signature(program):
    """Everything the parser decides: printed form, fingerprint, and each
    statement's node id, site, label and every field (trees by repr)."""
    statements = [
        (type(statement).__name__, statement.node_id, statement.site,
         statement.label,
         sorted((name, _value(value))
                for name, value in vars(statement).items()))
        for statement in program.walk()]
    return (format_skeleton(program), program.fingerprint(),
            sorted(program.params), statements)


def _strict(parse, source):
    try:
        return program_signature(parse(source, "t.skop")), None
    except ReproError as exc:
        return None, (type(exc).__name__, str(exc),
                      getattr(exc, "code", None),
                      getattr(exc, "line", None),
                      getattr(exc, "column", None))


def _recovered(source):
    new = parse_skeleton_recover(source, "t.skop")
    program, sink = oracle.parse_skeleton_recover(source, "t.skop")
    assert new.diagnostics.as_dicts() == sink.as_dicts()
    assert (new.program is None) == (program is None)
    if program is not None:
        assert program_signature(new.program) == program_signature(program)


def assert_same_parse(source):
    assert _strict(parse_skeleton, source) == \
        _strict(oracle.parse_skeleton, source)
    _recovered(source)


def _variants(text):
    """A source as written, with CRLF and U+2028 line ends, and with a
    ``#`` inside a label string."""
    return [text, text.replace("\n", "\r\n"), text.replace("\n", "\u2028"),
            text.replace('as "', 'as "#1 ', 1) + "# trailing comment\n"]


class TestSkeletons:
    @pytest.mark.parametrize("name", names())
    def test_workloads(self, name):
        for source in _variants(spec(name).skeleton_text):
            assert_same_parse(source)

    @given(programs())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, source):
        for variant in _variants(source):
            assert_same_parse(variant)

    @given(st.sampled_from(["var", "array", "for", "forall", "while", "if",
                            "switch", "case", "call", "comp", "load",
                            "store", "lib", "break", "continue", "return",
                            "param", "def", "end", "else", "default",
                            "frobnicate", "(", "7"]),
           st.lists(st.one_of(TOKENS, st.sampled_from(
               ["expect", "step", "div", "vec", "iops", "from", "to",
                "stride", "footprint", "reuse", "float32", "as", "$",
                "#", '"open'])), max_size=12),
           st.integers(0, 4))
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_statement_lines(self, word, tokens, at):
        line = " ".join([word] + tokens)
        body = ["  array data: float64[n]", "  for i = 0 : n",
                "    comp 2 flops", "  end", "  load n from data"]
        body.insert(at, "  " + line)
        source = "param n = 8\ndef main(n)\n" + "\n".join(body) + "\nend\n"
        assert_same_parse(source)


class TestFaultCorpus:
    def test_diagnostics_match_fixture(self):
        expected = json.loads(
            (FIXTURES / "fault_corpus.json").read_text(encoding="utf-8"))
        report = run_corpus({name: spec(name).skeleton_text
                             for name in names()})
        assert sorted(report) == sorted(expected)
        for key, entry in expected.items():
            got = report[key]
            assert "crash" not in got
            assert [(d["code"], d["message"], d["line"], d["column"])
                    for d in got["diagnostics"]] == \
                [(d["code"], d["message"], d["line"], d["column"])
                 for d in entry["diagnostics"]], key
            assert (got["functions_recovered"],
                    got["statements_recovered"]) == \
                (entry["functions_recovered"],
                 entry["statements_recovered"]), key
