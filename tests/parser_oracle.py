"""The skeleton and expression parsers as they were before the
binding-power rewrite, frozen as a test oracle.

The expression side is the nine-level recursive-descent ladder
(``parse_or`` down to ``parse_atom``) over ``Token`` tuples that carry
their own offsets; the skeleton side tokenizes each line with a per-token
``match`` loop and dispatches statements through ``getattr``.  The
differential tests require the production parsers to give the same
trees, programs and diagnostics.  Do not edit this module to follow a
production change: a grammar change updates the differential tests
instead.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from repro.diagnostics import DiagnosticSink
from repro.errors import ExpressionError, SkeletonSyntaxError
from repro.expressions import (
    Bool, Binary, Compare, Expr, Func, Num, Unary, Var,
)
from repro.skeleton import Program
from repro.skeleton.ast_nodes import (
    ArrayDecl, Branch, BranchArm, Break, Call, Comp, Continue, DTYPE_BYTES,
    ForLoop, FuncDef, LibCall, Load, Return, Statement, Store, VarAssign,
    WhileLoop,
)

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
    """The ladder's ``parse_expr`` (uncached)."""
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



_LINE_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[kMG]?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r'|(?P<str>"[^"]*")'
    r"|(?P<op>//|<=|>=|==|!=|[-+*/%^<>(),:?=\[\]])"
    r")")

#: words that dispatch statements at the start of a line
_STATEMENT_WORDS = frozenset({
    "def", "end", "var", "array", "for", "forall", "while", "if", "else",
    "switch", "case", "default", "call", "comp", "load", "store", "lib",
    "break", "continue", "return", "param",
})

#: structural words that can never be used as identifiers (everything else —
#: ``step``, ``as``, ``prob``, ``flops`` … — is contextual and usable as a name)
_KEYWORDS = frozenset({"def", "end", "else", "case", "default"})


class _Line:
    """Tokenized source line with a cursor and error helpers."""

    def __init__(self, tokens: List[Token], number: int, raw: str,
                 source_name: str):
        self.tokens = tokens
        self.number = number
        self.raw = raw
        self.source_name = source_name
        self.index = 0

    def error(self, message: str,
              code: str = "SKOP102") -> SkeletonSyntaxError:
        if self.index < len(self.tokens):
            column = self.tokens[self.index].pos + 1
        elif self.tokens:
            # cursor past the last token: point one past it (where the
            # missing input belongs), not column 0
            last = self.tokens[-1]
            column = last.pos + len(last.text) + 1
        else:
            column = 1
        return SkeletonSyntaxError(message, self.number, column,
                                   self.source_name, code=code)

    def peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of line")
        self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.kind == kind and \
                (text is None or token.text == text):
            self.index += 1
            return token
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            found = self.peek()
            what = repr(found.text) if found else "end of line"
            expected = repr(text) if text else kind
            raise self.error(f"expected {expected}, found {what}")
        return token

    def expect_name(self) -> str:
        token = self.expect("name")
        if token.text in _KEYWORDS:
            self.index -= 1
            raise self.error(f"keyword {token.text!r} used as a name")
        return token.text

    def expr(self) -> Expr:
        """Greedily parse an expression from the cursor position."""
        sub = _Parser(self.tokens, self.raw)
        sub.index = self.index
        try:
            result = sub.parse_or()
        except Exception as exc:  # ExpressionError carries no location
            # Point the span at the token the sub-parser choked on, not
            # at the first token of the expression.  The sub-parser's
            # raise sites consume the offending token first, so it sits
            # at ``sub.index - 1``; a cursor at end-of-tokens means the
            # line ended too early (error() then points one past the
            # last token).
            if sub.index >= len(self.tokens):
                self.index = len(self.tokens)
            elif sub.index > self.index:
                self.index = sub.index - 1
            raise self.error(str(exc), code="SKOP107") from exc
        self.index = sub.index
        return result

    def label(self) -> Optional[str]:
        if self.accept("name", "as"):
            token = self.expect("str")
            return token.text[1:-1]
        return None

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"trailing input {token.text!r}")


def _strip_comment(raw: str) -> str:
    """Drop a ``#`` comment, but not a ``#`` inside a string label."""
    if "#" not in raw:
        return raw
    in_string = False
    for position, char in enumerate(raw):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return raw[:position]
    return raw


def _tokenize_line(raw: str, number: int, source_name: str) -> _Line:
    text = _strip_comment(raw)
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _LINE_TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise SkeletonSyntaxError(
                f"unexpected character {stripped[0]!r}", number,
                pos + len(text[pos:]) - len(text[pos:].lstrip()) + 1,
                source_name, code="SKOP101")
        pos = match.end()
        if match.lastgroup is None:
            continue
        tokens.append(Token(match.lastgroup, match.group(match.lastgroup),
                            match.start(match.lastgroup)))
    return _Line(tokens, number, text, source_name)


class _BlockFrame:
    """Stack frame for an open block statement."""

    def __init__(self, kind: str, statement: Optional[Statement],
                 body: List[Statement], line: int):
        self.kind = kind           # 'def' | 'for' | 'while' | 'if' | 'switch'
        self.statement = statement
        self.body = body           # list currently receiving statements
        self.line = line
        self.saw_else = False


#: words that open a nested block (used by recovery to keep ``end``
#: pairing intact when a block header line fails to parse)
_BLOCK_WORDS = frozenset({"def", "for", "forall", "while", "if", "switch"})

_FIRST_WORD_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)")


class _SkeletonParser:
    def __init__(self, source: str, source_name: str):
        self.source = source
        self.source_name = source_name
        self.functions: List[FuncDef] = []
        self.params: List[Tuple[str, Expr]] = []
        self.stack: List[_BlockFrame] = []

    # -- helpers --------------------------------------------------------
    def _top_body(self, line: _Line) -> List[Statement]:
        if not self.stack:
            raise line.error("statement outside of a function",
                             code="SKOP105")
        return self.stack[-1].body

    def _parse_prob_or_cond(self, line: _Line) -> Tuple[str, Expr]:
        if line.accept("name", "prob"):
            return "prob", line.expr()
        return "cond", line.expr()

    def _parse_dtype(self, line: _Line) -> Optional[str]:
        token = line.peek()
        if token is not None and token.kind == "name" \
                and token.text in DTYPE_BYTES:
            line.index += 1
            return token.text
        return None

    # -- statement dispatch ----------------------------------------------
    def parse(self) -> Program:
        for number, raw in enumerate(self.source.splitlines(), start=1):
            line = _tokenize_line(raw, number, self.source_name)
            if not line.tokens:
                continue
            self._dispatch(line)
        if self.stack:
            frame = self.stack[-1]
            raise SkeletonSyntaxError(
                f"unclosed {frame.kind!r} block opened here", frame.line, 1,
                self.source_name, code="SKOP103")
        return Program(self.functions, dict(self.params),
                       source_name=self.source_name)

    # -- error recovery ---------------------------------------------------
    def _recover_line(self, raw: str, number: int) -> None:
        """Re-synchronize after a failed line.

        The parser is line-oriented, so a bad line never corrupts the
        token stream — only the *block structure* can drift.  Two cases
        matter: a failed block *header* must still open a frame (else
        its ``end`` closes the wrong block), and a failed ``end`` line
        must still close one (else the file ends with phantom unclosed
        blocks).  The junk frame's body list is attached to nothing, so
        statements inside a broken block are parsed (collecting their
        own diagnostics) but discarded.
        """
        match = _FIRST_WORD_RE.match(_strip_comment(raw))
        word = match.group(1) if match else ""
        if word in _BLOCK_WORDS:
            self.stack.append(_BlockFrame(f"junk-{word}", None, [], number))
        elif word == "end" and self.stack:
            self.stack.pop()

    def parse_recover(self, sink) -> Program:
        """Parse everything parseable, collecting diagnostics on ``sink``.

        Never raises for malformed input: failed lines are recorded and
        skipped, broken blocks are discarded, and semantic validation
        runs in collect mode.  Returns the partial (possibly empty)
        :class:`Program`.
        """
        lines = self.source.splitlines()
        for number, raw in enumerate(lines, start=1):
            try:
                line = _tokenize_line(raw, number, self.source_name)
                if not line.tokens:
                    continue
                self._dispatch(line)
            except SkeletonSyntaxError as exc:
                sink.add(exc.to_diagnostic(snippet=raw))
                self._recover_line(raw, number)
        while self.stack:
            frame = self.stack.pop()
            if frame.kind.startswith("junk-"):
                continue
            opener = lines[frame.line - 1] if 0 < frame.line <= len(lines) \
                else ""
            sink.emit(
                "SKOP103",
                f"unclosed {frame.kind!r} block opened here",
                line=frame.line, column=1, source_name=self.source_name,
                snippet=opener, phase="parse",
                hint="add a matching 'end'")
        return Program(self.functions, dict(self.params),
                       source_name=self.source_name, sink=sink)

    def _dispatch(self, line: _Line) -> None:
        head = line.peek()
        assert head is not None
        if head.kind != "name":
            raise line.error(f"expected a statement, found {head.text!r}")
        word = head.text
        handler = getattr(self, f"_stmt_{word}", None)
        if word in _STATEMENT_WORDS and handler is not None:
            line.index += 1
            handler(line)
        else:
            raise line.error(f"unknown statement {word!r}", code="SKOP106")

    # -- top level --------------------------------------------------------
    def _stmt_param(self, line: _Line) -> None:
        if self.stack:
            raise line.error("'param' is only allowed at top level",
                             code="SKOP105")
        name = line.expect_name()
        line.expect("op", "=")
        value = line.expr()
        line.done()
        self.params.append((name, value))

    def _stmt_def(self, line: _Line) -> None:
        if self.stack:
            raise line.error("nested function definitions are not allowed",
                             code="SKOP105")
        name = line.expect_name()
        line.expect("op", "(")
        params: List[str] = []
        if not line.accept("op", ")"):
            params.append(line.expect_name())
            while line.accept("op", ","):
                params.append(line.expect_name())
            line.expect("op", ")")
        label = line.label()
        line.done()
        func = FuncDef(name, params, line=line.number, label=label)
        self.functions.append(func)
        self.stack.append(_BlockFrame("def", func, func.body, line.number))

    def _stmt_end(self, line: _Line) -> None:
        line.done()
        if not self.stack:
            raise line.error("'end' with no open block", code="SKOP104")
        self.stack.pop()

    # -- block statements ---------------------------------------------------
    def _stmt_for(self, line: _Line, parallel: bool = False) -> None:
        var = line.expect_name()
        line.expect("op", "=")
        lo = line.expr()
        line.expect("op", ":")
        hi = line.expr()
        step = None
        if line.accept("name", "step"):
            step = line.expr()
        label = line.label()
        line.done()
        loop = ForLoop(var, lo, hi, step if step is not None else 1,
                       line=line.number, label=label, parallel=parallel)
        self._top_body(line).append(loop)
        self.stack.append(_BlockFrame("for", loop, loop.body, line.number))

    def _stmt_forall(self, line: _Line) -> None:
        self._stmt_for(line, parallel=True)

    def _stmt_while(self, line: _Line) -> None:
        line.expect("name", "expect")
        expect: Optional[Expr]
        if line.accept("op", "?"):
            expect = None
        else:
            expect = line.expr()
        label = line.label()
        line.done()
        loop = WhileLoop(expect, line=line.number, label=label)
        self._top_body(line).append(loop)
        self.stack.append(_BlockFrame("while", loop, loop.body, line.number))

    def _stmt_if(self, line: _Line) -> None:
        kind, expr = self._parse_prob_or_cond(line)
        label = line.label()
        line.done()
        arm = BranchArm(kind, expr, line=line.number)
        branch = Branch([arm], line=line.number, label=label)
        self._top_body(line).append(branch)
        self.stack.append(_BlockFrame("if", branch, arm.body, line.number))

    def _stmt_else(self, line: _Line) -> None:
        line.done()
        if not self.stack or self.stack[-1].kind != "if":
            raise line.error("'else' without a matching 'if'",
                             code="SKOP108")
        frame = self.stack[-1]
        if frame.saw_else:
            raise line.error("duplicate 'else'", code="SKOP108")
        frame.saw_else = True
        branch = frame.statement
        assert isinstance(branch, Branch)
        default = BranchArm("default", None, line=line.number)
        branch.arms.append(default)
        frame.body = default.body

    def _stmt_switch(self, line: _Line) -> None:
        label = line.label()
        line.done()
        branch = Branch([], line=line.number, label=label)
        self._top_body(line).append(branch)
        frame = _BlockFrame("switch", branch, [], line.number)
        self.stack.append(frame)

    def _stmt_case(self, line: _Line) -> None:
        if not self.stack or self.stack[-1].kind != "switch":
            raise line.error("'case' outside of a 'switch'",
                             code="SKOP108")
        frame = self.stack[-1]
        if frame.saw_else:
            raise line.error("'case' after 'default'", code="SKOP108")
        kind, expr = self._parse_prob_or_cond(line)
        line.done()
        branch = frame.statement
        assert isinstance(branch, Branch)
        arm = BranchArm(kind, expr, line=line.number)
        branch.arms.append(arm)
        frame.body = arm.body

    def _stmt_default(self, line: _Line) -> None:
        if not self.stack or self.stack[-1].kind != "switch":
            raise line.error("'default' outside of a 'switch'",
                             code="SKOP108")
        frame = self.stack[-1]
        if frame.saw_else:
            raise line.error("duplicate 'default'", code="SKOP108")
        frame.saw_else = True
        branch = frame.statement
        assert isinstance(branch, Branch)
        arm = BranchArm("default", None, line=line.number)
        branch.arms.append(arm)
        frame.body = arm.body
        line.done()

    # -- simple statements ---------------------------------------------------
    def _stmt_var(self, line: _Line) -> None:
        name = line.expect_name()
        line.expect("op", "=")
        expr = line.expr()
        line.done()
        self._top_body(line).append(VarAssign(name, expr, line=line.number))

    def _stmt_array(self, line: _Line) -> None:
        name = line.expect_name()
        line.expect("op", ":")
        dtype = self._parse_dtype(line)
        if dtype is None:
            raise line.error("expected a dtype after ':'")
        dims: List[Expr] = []
        while line.accept("op", "["):
            dims.append(line.expr())
            line.expect("op", "]")
        if not dims:
            raise line.error("array declaration needs at least one dimension")
        line.done()
        self._top_body(line).append(
            ArrayDecl(name, dtype, dims, line=line.number))

    def _stmt_call(self, line: _Line) -> None:
        name = line.expect_name()
        line.expect("op", "(")
        args: List[Expr] = []
        if not line.accept("op", ")"):
            args.append(line.expr())
            while line.accept("op", ","):
                args.append(line.expr())
            line.expect("op", ")")
        line.done()
        self._top_body(line).append(Call(name, args, line=line.number))

    def _stmt_comp(self, line: _Line) -> None:
        amount = line.expr()
        unit = line.next()
        if unit.kind != "name" or unit.text not in ("flops", "iops"):
            raise line.error("expected 'flops' or 'iops' after the count")
        if unit.text == "iops":
            line.done()
            self._top_body(line).append(Comp(iops=amount, line=line.number))
            return
        div = None
        vectorizable = False
        while True:
            if line.accept("name", "div"):
                if div is not None:
                    raise line.error("duplicate 'div' clause")
                div = line.expr()
            elif line.accept("name", "vec"):
                vectorizable = True
            else:
                break
        line.done()
        self._top_body(line).append(
            Comp(flops=amount, div_flops=div if div is not None else 0,
                 vectorizable=vectorizable, line=line.number))

    def _parse_access_clauses(self, line: _Line) -> dict:
        """``stride`` / ``footprint`` / ``reuse`` clauses in any order,
        each at most once (contextual words: still usable as names)."""
        clauses: dict = {}
        while True:
            token = line.peek()
            if token is None or token.kind != "name" \
                    or token.text not in ("stride", "footprint", "reuse"):
                break
            line.next()
            if token.text in clauses:
                raise line.error(f"duplicate {token.text!r} clause")
            clauses[token.text] = line.expr()
        return clauses

    def _stmt_load(self, line: _Line) -> None:
        count = line.expr()
        dtype = self._parse_dtype(line) or "float64"
        array = None
        if line.accept("name", "from"):
            array = line.expect_name()
        clauses = self._parse_access_clauses(line)
        line.done()
        self._top_body(line).append(
            Load(count, dtype, array, line=line.number, **clauses))

    def _stmt_store(self, line: _Line) -> None:
        count = line.expr()
        dtype = self._parse_dtype(line) or "float64"
        array = None
        if line.accept("name", "to"):
            array = line.expect_name()
        clauses = self._parse_access_clauses(line)
        line.done()
        self._top_body(line).append(
            Store(count, dtype, array, line=line.number, **clauses))

    def _stmt_lib(self, line: _Line) -> None:
        name = line.expect_name()
        size = line.expr()
        line.done()
        self._top_body(line).append(LibCall(name, size, line=line.number))

    def _stmt_break(self, line: _Line) -> None:
        prob = line.expr() if line.accept("name", "prob") else 1
        line.done()
        self._top_body(line).append(Break(prob, line=line.number))

    def _stmt_continue(self, line: _Line) -> None:
        prob = line.expr() if line.accept("name", "prob") else 1
        line.done()
        self._top_body(line).append(Continue(prob, line=line.number))

    def _stmt_return(self, line: _Line) -> None:
        prob = line.expr() if line.accept("name", "prob") else 1
        line.done()
        self._top_body(line).append(Return(prob, line=line.number))


def parse_skeleton(source: str, source_name: str = "<string>") -> Program:
    """Parse ``.skop`` text into a validated :class:`Program` (BST)."""
    return _SkeletonParser(source, source_name).parse()



def parse_skeleton_recover(source: str, source_name: str = "<string>",
                           sink=None):
    """Parse ``.skop`` text, reporting *all* problems instead of the
    first.

    Unlike :func:`parse_skeleton` (the strict API default, which raises
    :class:`~repro.errors.SkeletonSyntaxError` at the first bad line),
    this synchronizes at line and ``end`` boundaries, collects one
    diagnostic per problem, and returns whatever partial
    :class:`Program` survives — the foundation of ``repro check`` and
    of degraded-mode builds.
    """
    if sink is None:
        sink = DiagnosticSink()
    parser = _SkeletonParser(source, source_name)
    try:
        program = parser.parse_recover(sink)
    except Exception as exc:   # defensive: recovery must never raise
        sink.emit("SKOP205",
                  f"could not assemble a partial program: {exc}",
                  source_name=source_name, phase="semantic")
        program = None
    return program, sink


