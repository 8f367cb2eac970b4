"""Parser for the ``.skop`` code-skeleton text format.

Grammar (line oriented; ``#`` starts a comment; blocks close with ``end``)::

    program    := { "param" NAME "=" expr | funcdef }
    funcdef    := "def" NAME "(" [NAME {"," NAME}] ")" [label] body "end"
    body       := { statement }
    statement  := "var" NAME "=" expr
                | "array" NAME ":" DTYPE {"[" expr "]"}
                | ("for" | "forall") NAME "=" expr ":" expr
                      ["step" expr] [label] body "end"
                | "while" "expect" (expr | "?") [label] body "end"
                | "if" ("prob" expr | expr) [label] body ["else" body] "end"
                | "switch" [label] {"case" ("prob" expr | expr) body}
                      ["default" body] "end"
                | "call" NAME "(" [expr {"," expr}] ")"
                | "comp" expr ("flops" ["div" expr] ["vec"] | "iops")
                | "load" expr [DTYPE] ["from" NAME] {access_clause}
                | "store" expr [DTYPE] ["to" NAME] {access_clause}
                | "lib" NAME expr
                | "break" ["prob" expr]
                | "continue" ["prob" expr]
                | "return" ["prob" expr]
    access_clause := "stride" expr | "footprint" expr | "reuse" expr
    label      := "as" STRING

Access clauses (any order, each at most once) describe the access pattern
for the analytic cache model: ``stride`` is the element distance between
consecutive accesses, ``footprint`` the distinct bytes the statement spans
per invocation, and ``reuse`` the bytes touched between two uses of the
same data (the layer-condition reuse window).  All default to the unit-
stride streaming interpretation when omitted.

``for`` bounds are half-open (``lo`` inclusive, ``hi`` exclusive).  A
``while expect ?`` records an unprofiled loop whose expected trip count must
be supplied by the branch profiler before BET construction.  Numbers accept
``k``/``M``/``G`` suffixes (powers of 1000).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import ExpressionError, SkeletonSyntaxError
from ..expressions import Expr
from ..expressions.parser import (
    NAME, NAME_START, NUMBER, ExprParser, first_unmatched, token_starts,
)
from .ast_nodes import (
    ArrayDecl, Branch, BranchArm, Break, Call, Comp, Continue, DTYPE_BYTES,
    ForLoop, FuncDef, LibCall, Load, Return, Statement, Store, VarAssign,
    WhileLoop,
)
from .bst import Program

#: the expression tokens plus label strings and the ``: ? = [ ]`` that
#: only statements use; one token and the whitespace around it, so
#: ``split`` leaves the tokens at odd indices and whatever no token
#: matched at even ones
_LINE_TOKEN_RE = re.compile(
    rf'\s*({NUMBER}|{NAME}|"[^"]*"|//|<=|>=|==|!=|[-+*/%^<>(),:?=\[\]])\s*')

#: structural words that can never be used as identifiers (everything else —
#: ``step``, ``as``, ``prob``, ``flops`` … — is contextual and usable as a name)
_KEYWORDS = frozenset({"def", "end", "else", "case", "default"})


class _Line(ExprParser):
    """One source line's tokens with a cursor and error helpers."""

    __slots__ = ("number", "source_name")

    def __init__(self, tokens: List[str], number: int, text: str,
                 source_name: str):
        self.tokens = tokens
        self.index = 0
        self.source = text
        self.number = number
        self.source_name = source_name

    def error(self, message: str,
              code: str = "SKOP102") -> SkeletonSyntaxError:
        starts = token_starts(_LINE_TOKEN_RE, self.source)
        if self.index < len(self.tokens):
            column = starts[self.index] + 1
        elif self.tokens:
            # cursor past the last token: point one past it (where the
            # missing input belongs), not column 0
            column = starts[-1] + len(self.tokens[-1]) + 1
        else:
            column = 1
        return SkeletonSyntaxError(message, self.number, column,
                                   self.source_name, code=code)

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of line")
        self.index += 1
        return token

    def _expected(self, what: str) -> SkeletonSyntaxError:
        found = self.peek()
        return self.error(f"expected {what}, found "
                          f"{'end of line' if found is None else repr(found)}")

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self._expected(repr(token))

    def expect_name(self) -> str:
        token = self.peek()
        if token is None or token[0] not in NAME_START:
            raise self._expected("name")
        if token in _KEYWORDS:
            raise self.error(f"keyword {token!r} used as a name")
        self.index += 1
        return token

    def expr(self) -> Expr:
        """Greedily parse an expression from the cursor position."""
        start = self.index
        try:
            return self.parse()
        except ExpressionError as exc:  # carries no location
            # Point the span at the token the expression parser choked
            # on, not at the first token of the expression.  Its raise
            # sites consume the offending token first, so it sits at
            # ``index - 1``; a cursor at end-of-tokens means the line
            # ended too early (error() then points one past the last
            # token).
            if self.index > start and self.index < len(self.tokens):
                self.index -= 1
            raise self.error(str(exc), code="SKOP107") from exc

    def label(self) -> Optional[str]:
        if not self.accept("as"):
            return None
        token = self.peek()
        if token is None or token[0] != '"':
            raise self._expected("str")
        self.index += 1
        return token[1:-1]

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"trailing input {token!r}")


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


def _tokenize_line(raw: str, number: int,
                   source_name: str) -> Optional[_Line]:
    """The line's tokens, or ``None`` for a blank or comment-only line."""
    text = _strip_comment(raw)
    parts = _LINE_TOKEN_RE.split(text)
    if any(parts[::2]) and text.strip():
        _, offset = first_unmatched(_LINE_TOKEN_RE, text)
        raise SkeletonSyntaxError(
            f"unexpected character {text[offset]!r}", number, offset + 1,
            source_name, code="SKOP101")
    if len(parts) == 1:
        return None
    return _Line(parts[1::2], number, text, source_name)


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

_FIRST_WORD_RE = re.compile(rf"\s*({NAME})")


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
        if line.accept("prob"):
            return "prob", line.expr()
        return "cond", line.expr()

    def _parse_dtype(self, line: _Line) -> Optional[str]:
        token = line.peek()
        if token in DTYPE_BYTES:
            line.index += 1
            return token
        return None

    # -- statement dispatch ----------------------------------------------
    def parse(self) -> Program:
        for number, raw in enumerate(self.source.splitlines(), start=1):
            line = _tokenize_line(raw, number, self.source_name)
            if line is not None:
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
                if line is not None:
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
        word = line.tokens[0]
        handler = self._STATEMENTS.get(word)
        if handler is None:
            if word[0] in NAME_START:
                raise line.error(f"unknown statement {word!r}",
                                 code="SKOP106")
            raise line.error(f"expected a statement, found {word!r}")
        line.index = 1
        handler(self, line)

    # -- top level --------------------------------------------------------
    def _stmt_param(self, line: _Line) -> None:
        if self.stack:
            raise line.error("'param' is only allowed at top level",
                             code="SKOP105")
        name = line.expect_name()
        line.expect("=")
        value = line.expr()
        line.done()
        self.params.append((name, value))

    def _stmt_def(self, line: _Line) -> None:
        if self.stack:
            raise line.error("nested function definitions are not allowed",
                             code="SKOP105")
        name = line.expect_name()
        line.expect("(")
        params: List[str] = []
        if not line.accept(")"):
            params.append(line.expect_name())
            while line.accept(","):
                params.append(line.expect_name())
            line.expect(")")
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
        line.expect("=")
        lo = line.expr()
        line.expect(":")
        hi = line.expr()
        step = None
        if line.accept("step"):
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
        line.expect("expect")
        expect: Optional[Expr]
        if line.accept("?"):
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
        line.expect("=")
        expr = line.expr()
        line.done()
        self._top_body(line).append(VarAssign(name, expr, line=line.number))

    def _stmt_array(self, line: _Line) -> None:
        name = line.expect_name()
        line.expect(":")
        dtype = self._parse_dtype(line)
        if dtype is None:
            raise line.error("expected a dtype after ':'")
        dims: List[Expr] = []
        while line.accept("["):
            dims.append(line.expr())
            line.expect("]")
        if not dims:
            raise line.error("array declaration needs at least one dimension")
        line.done()
        self._top_body(line).append(
            ArrayDecl(name, dtype, dims, line=line.number))

    def _stmt_call(self, line: _Line) -> None:
        name = line.expect_name()
        line.expect("(")
        args: List[Expr] = []
        if not line.accept(")"):
            args.append(line.expr())
            while line.accept(","):
                args.append(line.expr())
            line.expect(")")
        line.done()
        self._top_body(line).append(Call(name, args, line=line.number))

    def _stmt_comp(self, line: _Line) -> None:
        amount = line.expr()
        unit = line.next()
        if unit not in ("flops", "iops"):
            raise line.error("expected 'flops' or 'iops' after the count")
        if unit == "iops":
            line.done()
            self._top_body(line).append(Comp(iops=amount, line=line.number))
            return
        div = None
        vectorizable = False
        while True:
            if line.accept("div"):
                if div is not None:
                    raise line.error("duplicate 'div' clause")
                div = line.expr()
            elif line.accept("vec"):
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
            if token not in ("stride", "footprint", "reuse"):
                break
            line.index += 1
            if token in clauses:
                raise line.error(f"duplicate {token!r} clause")
            clauses[token] = line.expr()
        return clauses

    def _stmt_load(self, line: _Line) -> None:
        count = line.expr()
        dtype = self._parse_dtype(line) or "float64"
        array = None
        if line.accept("from"):
            array = line.expect_name()
        clauses = self._parse_access_clauses(line)
        line.done()
        self._top_body(line).append(
            Load(count, dtype, array, line=line.number, **clauses))

    def _stmt_store(self, line: _Line) -> None:
        count = line.expr()
        dtype = self._parse_dtype(line) or "float64"
        array = None
        if line.accept("to"):
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
        prob = line.expr() if line.accept("prob") else 1
        line.done()
        self._top_body(line).append(Break(prob, line=line.number))

    def _stmt_continue(self, line: _Line) -> None:
        prob = line.expr() if line.accept("prob") else 1
        line.done()
        self._top_body(line).append(Continue(prob, line=line.number))

    def _stmt_return(self, line: _Line) -> None:
        prob = line.expr() if line.accept("prob") else 1
        line.done()
        self._top_body(line).append(Return(prob, line=line.number))

    #: the word that starts a statement line -> its handler
    _STATEMENTS = {
        "param": _stmt_param, "def": _stmt_def, "end": _stmt_end,
        "for": _stmt_for, "forall": _stmt_forall, "while": _stmt_while,
        "if": _stmt_if, "else": _stmt_else, "switch": _stmt_switch,
        "case": _stmt_case, "default": _stmt_default, "var": _stmt_var,
        "array": _stmt_array, "call": _stmt_call, "comp": _stmt_comp,
        "load": _stmt_load, "store": _stmt_store, "lib": _stmt_lib,
        "break": _stmt_break, "continue": _stmt_continue,
        "return": _stmt_return,
    }


def parse_skeleton(source: str, source_name: str = "<string>") -> Program:
    """Parse ``.skop`` text into a validated :class:`Program` (BST)."""
    return _SkeletonParser(source, source_name).parse()


def parse_skeleton_file(path) -> Program:
    """Parse a ``.skop`` file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_skeleton(text, source_name=str(path))


class ParseResult:
    """Outcome of a recovery-mode parse.

    Attributes
    ----------
    program:
        The partial (possibly empty) :class:`Program` built from every
        line that parsed; ``None`` only if program construction itself
        failed catastrophically.
    diagnostics:
        Every problem found, parse and semantic, as a
        :class:`~repro.diagnostics.DiagnosticSink`.
    """

    def __init__(self, program, diagnostics):
        self.program = program
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        """True when a program exists and no *error* was recorded
        (warnings are fine)."""
        return self.program is not None \
            and not self.diagnostics.has_errors()

    def __repr__(self):
        n_func = len(self.program.functions) if self.program else 0
        return (f"<ParseResult functions={n_func} "
                f"diagnostics={len(self.diagnostics)}>")


def parse_skeleton_recover(source: str, source_name: str = "<string>",
                           sink=None) -> ParseResult:
    """Parse ``.skop`` text, reporting *all* problems instead of the
    first.

    Unlike :func:`parse_skeleton` (the strict API default, which raises
    :class:`~repro.errors.SkeletonSyntaxError` at the first bad line),
    this synchronizes at line and ``end`` boundaries, collects one
    diagnostic per problem, and returns whatever partial
    :class:`Program` survives — the foundation of ``repro check`` and
    of degraded-mode builds.
    """
    from ..diagnostics import DiagnosticSink
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
    return ParseResult(program, sink)


def parse_skeleton_file_recover(path, sink=None) -> ParseResult:
    """Recovery-parse a ``.skop`` file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_skeleton_recover(text, source_name=str(path), sink=sink)
