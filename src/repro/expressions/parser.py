"""Recursive-descent parser for skeleton expressions.

One method per precedence level, nine levels in all, each calling the
next tighter one (``parse_or`` down to ``parse_atom``); a left-associative
level loops over its operator, while ``^`` and the prefix ``not``/``-``
recurse into themselves.  Grammar (lowest to highest precedence)::

    or-expr    := and-expr ("or" and-expr)*
    and-expr   := not-expr ("and" not-expr)*
    not-expr   := "not" not-expr | cmp-expr
    cmp-expr   := add-expr (("<"|"<="|">"|">="|"=="|"!=") add-expr)?
    add-expr   := mul-expr (("+"|"-") mul-expr)*
    mul-expr   := pow-expr (("*"|"/"|"//"|"%") pow-expr)*
    pow-expr   := unary ("^" pow-expr)?          # right associative
    unary      := "-" unary | atom
    atom       := NUMBER | NAME | NAME "(" args ")" | "(" or-expr ")"

Numbers accept integer, decimal, and scientific forms plus the ``k``, ``M``,
``G`` suffixes (powers of 1000) that skeletons use for operation counts.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional

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


class Token(NamedTuple):
    kind: str   # 'num' | 'name' | 'op'
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[kMG]?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>//|<=|>=|==|!=|[-+*/%^<>(),])"
    r")")

_SUFFIX = {"k": 1_000, "M": 1_000_000, "G": 1_000_000_000}


def tokenize_expr(text: str) -> List[Token]:
    """Tokenize an expression string; raise on any unrecognized character."""
    _PARSE_STATS["tokenize_calls"] += 1
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at offset {pos} in {text!r}")
        pos = match.end()
        if match.lastgroup is None:  # pure whitespace tail
            continue
        tokens.append(Token(match.lastgroup, match.group(match.lastgroup),
                            match.start(match.lastgroup)))
    return tokens


#: maximum nesting depth (parens, calls, unary chains, right-assoc pow).
#: Each level costs ~8 interpreter frames through the grammar ladder, so
#: this keeps hostile inputs well under CPython's recursion limit and
#: turns them into an :class:`ExpressionError` with a position instead
#: of a bare ``RecursionError``.
_MAX_EXPR_DEPTH = 80


class _Parser:
    def __init__(self, tokens: List[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.index = 0
        self.depth = 0

    def _descend(self) -> None:
        self.depth += 1
        if self.depth > _MAX_EXPR_DEPTH:
            raise ExpressionError(
                f"expression nesting exceeds {_MAX_EXPR_DEPTH} levels "
                f"in {self.source!r}")

    def _ascend(self) -> None:
        self.depth -= 1

    def peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ExpressionError(f"unexpected end of expression in "
                                  f"{self.source!r}")
        self.index += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.next()
        if token.kind != "op" or token.text != text:
            raise ExpressionError(
                f"expected {text!r} but found {token.text!r} in "
                f"{self.source!r}")

    def accept_op(self, *texts: str) -> Optional[str]:
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in texts:
            self.index += 1
            return token.text
        return None

    def accept_name(self, *names: str) -> Optional[str]:
        token = self.peek()
        if token is not None and token.kind == "name" and token.text in names:
            self.index += 1
            return token.text
        return None

    # -- grammar levels -------------------------------------------------
    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.accept_name("or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return Bool("or", operands)

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.accept_name("and"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return Bool("and", operands)

    def parse_not(self) -> Expr:
        if self.accept_name("not"):
            self._descend()
            operand = self.parse_not()
            self._ascend()
            return Unary("not", operand)
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        op = self.accept_op("<", "<=", ">", ">=", "==", "!=")
        if op is None:
            return left
        right = self.parse_add()
        return Compare(op, left, right)

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return left
            left = Binary(op, left, self.parse_mul())

    def parse_mul(self) -> Expr:
        left = self.parse_pow()
        while True:
            op = self.accept_op("*", "/", "//", "%")
            if op is None:
                return left
            left = Binary(op, left, self.parse_pow())

    def parse_pow(self) -> Expr:
        base = self.parse_unary()
        if self.accept_op("^"):
            self._descend()
            exponent = self.parse_pow()
            self._ascend()
            return Binary("^", base, exponent)
        return base

    def parse_unary(self) -> Expr:
        if self.accept_op("-"):
            self._descend()
            operand = self.parse_unary()
            self._ascend()
            return Unary("-", operand)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.next()
        if token.kind == "num":
            return Num(_parse_number(token.text))
        if token.kind == "name":
            if token.text in ("and", "or", "not"):
                raise ExpressionError(
                    f"misplaced keyword {token.text!r} in {self.source!r}")
            follow = self.peek()
            if follow is not None and follow.kind == "op" \
                    and follow.text == "(":
                self.index += 1
                self._descend()
                args: List[Expr] = []
                if not self.accept_op(")"):
                    args.append(self.parse_or())
                    while self.accept_op(","):
                        args.append(self.parse_or())
                    self.expect_op(")")
                self._ascend()
                return Func(token.text, args)
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            self._descend()
            inner = self.parse_or()
            self.expect_op(")")
            self._ascend()
            return inner
        raise ExpressionError(
            f"unexpected token {token.text!r} in {self.source!r}")


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
    tokens = tokenize_expr(text)
    if not tokens:
        raise ExpressionError(f"empty expression {text!r}")
    parser = _Parser(tokens, text)
    result = parser.parse_or()
    leftover = parser.peek()
    if leftover is not None:
        raise ExpressionError(
            f"trailing input {leftover.text!r} at offset {leftover.pos} in "
            f"{text!r}")
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
