"""Parser for skeleton expressions.

Text becomes a list of plain token strings in one regular-expression
call.  A token's kind follows from its first character: a digit starts a
number, a letter or ``_`` a name, a quote a label string (skeleton lines
only) and anything else an operator.  Token offsets matter only to error
messages, so they are recomputed by rescanning the text when a parse
fails.

One binding-power loop parses every operator, over this table (loosest
first)::

    level  operators            form
    or     or                   n-ary:  a or b or c  ->  Bool("or", [a, b, c])
    and    and                  n-ary
    not    not                  prefix; looser than a comparison
    cmp    < <= > >= == !=      at most one; 1 < 2 < 3 is an error
    add    + -                  left associative
    mul    * / // %             left associative
    pow    ^                    right associative; its base is a unary
    neg    -                    prefix; tighter than ^, so -2^2 == 4

    atom := NUMBER | NAME | NAME "(" [expr {"," expr}] ")" | "(" expr ")"

Numbers accept integer, decimal, and scientific forms plus the ``k``, ``M``,
``G`` suffixes (powers of 1000) that skeletons use for operation counts.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..errors import ExpressionError
from .expr import Bool, Binary, Compare, Expr, Func, Num, Unary, Var

#: parse results memoized by source string — skeletons repeat the same
#: handful of expression strings across statements and sweep points, so
#: tokenizing each string once per process covers virtually all calls.
#: Expr trees are immutable, so sharing one tree between callers is safe.
_PARSE_CACHE: Dict[str, Expr] = {}
_PARSE_CACHE_LIMIT = 4096

#: counters for tests and `repro sweep --stats`
_PARSE_STATS = {"tokenize_calls": 0, "parse_calls": 0, "cache_hits": 0}

#: token alternatives shared with the skeleton line tokenizer
NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[kMG]?"
NAME = r"[A-Za-z_][A-Za-z_0-9]*"

#: one token and the whitespace around it; ``split`` leaves the tokens at
#: odd indices and whatever no token matched at even ones
_TOKEN_RE = re.compile(
    rf"\s*({NUMBER}|{NAME}|//|<=|>=|==|!=|[-+*/%^<>(),])\s*")

#: first characters of a name token
NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

#: first characters of operator and label-string tokens (never an atom)
_NOT_ATOM_START = frozenset('"-+*/%^<>(),:?=[]!')

_KEYWORDS = frozenset({"and", "or", "not"})

_SUFFIX = {"k": 1_000, "M": 1_000_000, "G": 1_000_000_000}

# binding levels, loosest first; an atom may be followed by any operator
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _POW, _NEG = range(8)

#: infix operator -> (its level, the level its right operand is parsed at)
_INFIX: Dict[str, Tuple[int, int]] = {
    "or": (_OR, _AND),
    "and": (_AND, _NOT),
    **dict.fromkeys(("<", "<=", ">", ">=", "==", "!="), (_CMP, _ADD)),
    "+": (_ADD, _MUL), "-": (_ADD, _MUL),
    **dict.fromkeys(("*", "/", "//", "%"), (_MUL, _POW)),
    "^": (_POW, _POW),
}

#: maximum nesting depth (parens, calls, unary chains, right-assoc pow).
#: Each level costs at most eight interpreter frames (one per binding
#: level a right operand can climb through), so this keeps hostile inputs
#: well under CPython's recursion limit and turns them into an
#: :class:`ExpressionError` with a position instead of a bare
#: ``RecursionError``.
_MAX_EXPR_DEPTH = 80


def token_starts(pattern: re.Pattern, text: str) -> List[int]:
    """Offset of each token of ``text`` (rescanned for error messages)."""
    return [match.start(1) for match in pattern.finditer(text)]


def first_unmatched(pattern: re.Pattern, text: str) -> Tuple[int, int]:
    """Where tokenizing ``text`` stops: the end of the last token before
    the stop and the offset of the first character no token matches."""
    end = resume = 0
    for match in pattern.finditer(text):
        if match.start() != resume:
            break
        end, resume = match.end(1), match.end()
    return end, len(text) - len(text[resume:].lstrip())


class ExprParser:
    """Binding-power parser over token strings, from ``index`` on.

    On an :class:`ExpressionError`, ``index`` is one past the token that
    failed, or ``len(tokens)`` when the tokens ran out.
    """

    __slots__ = ("tokens", "index", "source")

    def __init__(self, tokens: List[str], source: str):
        self.tokens = tokens
        self.index = 0
        self.source = source     # quoted in error messages

    def _error(self, message: str) -> ExpressionError:
        return ExpressionError(f"{message} in {self.source!r}")

    def _descend(self, depth: int) -> int:
        if depth >= _MAX_EXPR_DEPTH:
            raise self._error(
                f"expression nesting exceeds {_MAX_EXPR_DEPTH} levels")
        return depth + 1

    def accept(self, token: str) -> bool:
        """Consume the next token if it is ``token``."""
        index = self.index
        if index < len(self.tokens) and self.tokens[index] == token:
            self.index = index + 1
            return True
        return False

    def _close(self) -> None:
        index = self.index
        if index >= len(self.tokens):
            raise self._error("unexpected end of expression")
        self.index = index + 1
        if self.tokens[index] != ")":
            raise self._error(
                f"expected ')' but found {self.tokens[index]!r}")

    def parse(self, level: int = _OR, depth: int = 0) -> Expr:
        """Parse the longest expression whose operators bind at ``level``
        or tighter; ``depth`` counts the enclosing nestings."""
        tokens = self.tokens
        index = self.index
        if index >= len(tokens):
            raise self._error("unexpected end of expression")
        token = tokens[index]
        index += 1
        self.index = index
        # the operand: a prefix operator and its operand, or an atom.
        # ``top`` is the loosest level of operator that may follow it.
        top = _NEG
        if token[0] in NAME_START:
            if token in _KEYWORDS:
                if token != "not" or level > _NOT:
                    raise self._error(f"misplaced keyword {token!r}")
                left = Unary("not", self.parse(_NOT, self._descend(depth)))
                top = _AND
            elif index < len(tokens) and tokens[index] == "(":
                self.index = index + 1
                inner = self._descend(depth)
                args: List[Expr] = []
                if not self.accept(")"):
                    args.append(self.parse(_OR, inner))
                    while self.accept(","):
                        args.append(self.parse(_OR, inner))
                    self._close()
                left = Func(token, args)
            else:
                left = Var(token)
        elif token == "(":
            left = self.parse(_OR, self._descend(depth))
            self._close()
        elif token == "-":
            left = Unary("-", self.parse(_NEG, self._descend(depth)))
        elif token[0] in _NOT_ATOM_START:
            raise self._error(f"unexpected token {token!r}")
        else:
            left = Num(_parse_number(token))
        # the infix operators that bind at ``level`` or tighter
        while True:
            index = self.index
            if index >= len(tokens):
                return left
            op = tokens[index]
            binding = _INFIX.get(op)
            if binding is None:
                return left
            op_level, right_level = binding
            if op_level < level or op_level > top:
                return left
            self.index = index + 1
            if op_level <= _AND:
                operands = [left, self.parse(right_level, depth)]
                while self.accept(op):
                    operands.append(self.parse(right_level, depth))
                left = Bool(op, operands)
            elif op_level == _CMP:
                left = Compare(op, left, self.parse(right_level, depth))
                op_level = _AND          # comparisons do not chain
            elif op_level == _POW:
                left = Binary(op, left,
                              self.parse(right_level, self._descend(depth)))
            else:
                left = Binary(op, left, self.parse(right_level, depth))
            top = op_level


def _parse_number(text: str) -> float:
    multiplier = 1
    if text and text[-1] in _SUFFIX:
        multiplier = _SUFFIX[text[-1]]
        text = text[:-1]
    value = float(text)
    if value.is_integer():
        return int(value) * multiplier
    return value * multiplier


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an :class:`~repro.expressions.Expr`.

    Results are memoized by the exact source string (bounded cache), so a
    skeleton expression repeated across statements or sweep points is
    tokenized and parsed only once per process.  Raises
    :class:`~repro.errors.ExpressionError` on malformed input or trailing
    garbage; failures are not cached.
    """
    _PARSE_STATS["parse_calls"] += 1
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        _PARSE_STATS["cache_hits"] += 1
        return cached
    result = _parse_uncached(text)
    if len(_PARSE_CACHE) < _PARSE_CACHE_LIMIT:
        _PARSE_CACHE[text] = result
    return result


def _parse_uncached(text: str) -> Expr:
    _PARSE_STATS["tokenize_calls"] += 1
    parts = _TOKEN_RE.split(text)
    if any(parts[::2]) and text.strip():
        end, offset = first_unmatched(_TOKEN_RE, text)
        raise ExpressionError(
            f"unexpected character {text[offset]!r} at offset {end} in "
            f"{text!r}")
    tokens = parts[1::2]
    if not tokens:
        raise ExpressionError(f"empty expression {text!r}")
    parser = ExprParser(tokens, text)
    result = parser.parse()
    if parser.index < len(tokens):
        offset = token_starts(_TOKEN_RE, text)[parser.index]
        raise ExpressionError(
            f"trailing input {tokens[parser.index]!r} at offset {offset} "
            f"in {text!r}")
    return result


def parser_stats() -> Dict[str, int]:
    """Snapshot of tokenizer/parser counters (tests, ``--stats``)."""
    out = dict(_PARSE_STATS)
    out["cache_size"] = len(_PARSE_CACHE)
    return out


def clear_parse_cache(reset_stats: bool = False) -> None:
    """Drop memoized parses (tests); optionally zero the counters."""
    _PARSE_CACHE.clear()
    if reset_stats:
        for key in _PARSE_STATS:
            _PARSE_STATS[key] = 0
