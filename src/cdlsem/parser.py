"""Parser for the supported CDL concrete-syntax subset.

Three layers:

* a Tcl-style command splitter (words, braces, quotes, comments),
* an expression tokenizer plus precedence-climbing parser for goal
  expressions,
* a node builder that walks ``cdl_*`` commands and their bodies.

The splitter, the brace scan and the tokenizer are regex-driven: compiled
patterns consume the text, and Python code runs once per word or token,
not once per character.  Line and column numbers are worked out only when
a diagnostic needs a position.

``parse_model`` never raises on malformed input; it reports problems as
diagnostics.  The standalone expression entry points raise ``ParseError``.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass

from .exprs import (
    BUILTINS,
    Call,
    Cond,
    Const,
    GoalExpr,
    Ident,
    ListExpr,
    Not,
    BitNot,
    PRECEDENCE,
    Range,
    Single,
    infix,
)
from .model import Flavor, Kind, RawNode, is_valid_feature_id

MAX_NESTING = 100  # command body depth
MAX_EXPR_DEPTH = 150

_NODE_COMMANDS = {
    "cdl_package": Kind.PACKAGE,
    "cdl_component": Kind.COMPONENT,
    "cdl_option": Kind.OPTION,
    "cdl_interface": Kind.INTERFACE,
}

# goal-expression properties keep one entry per occurrence
_EXPR_PROPERTIES = ("active_if", "requires")

_WORD_OPS = {"implies", "eqv", "xor"}

_NUM = (
    r"0[xX][0-9a-fA-F]+"
    r"|[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
)
# one token after optional blanks, tried in this order; two-character
# operators come before their one-character prefixes
_EXPR_TOKEN_RX = re.compile(
    r"\s*(?:(?P<NUM>" + _NUM + r")|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r'|(?P<STR>")|(?P<OP>\|\||&&|<<|>>|<=|>=|==|!=|[|^&<>+\-*/%()?,:!~])'
    r"|(?P<EOF>\Z)|(?P<BAD>.))",
    re.S,
)

# a double-quoted string; a backslash escapes the character after it
_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_QUOTED_RX = re.compile(_QUOTED, re.S)
_ESCAPE_RX = re.compile(r"\\(.)", re.S)
_BRACE_RX = re.compile(r"\\.|[{}]", re.S)
# Blanks (whitespace but newline) and backslash-newline continuations
# separate words; then one token: a command separator, an opening brace, a
# quoted word, a lone (unterminated) quote, a stray '}' or a bare word.
_CMD_TOKEN_RX = re.compile(
    r"(?:[^\S\n]|\\\n)*(?:(?P<sep>[\n;])|(?P<braced>\{)"
    r"|(?P<quoted>" + _QUOTED + r')|(?P<open>")|(?P<close>\})'
    r"|(?P<bare>(?:[^\s;\\]+|\\(?!\n))+))",
    re.S,
)
# where a list word may end or change state
_LIST_STOP_RX = re.compile(r'[\s"()]')
_BLANKS_RX = re.compile(r"\s*")

_ESCAPE_MAP = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


@dataclass(frozen=True, slots=True)
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.file}:{self.start_line}:{self.start_col}"


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self):
        return f"{self.span}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class _LineIndex:
    """Maps absolute text offsets to 1-based line/column pairs.

    The line starts are found on the first ``locate``: most parses report
    no diagnostic and never need them.
    """

    def __init__(self, text: str):
        self.text = text
        self.starts: list[int] | None = None

    def locate(self, offset: int) -> tuple[int, int]:
        if self.starts is None:
            self.starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect.bisect_right(self.starts, offset) - 1
        return line + 1, offset - self.starts[line] + 1


class _Src:
    """A scannable text whose positions map back into the original file."""

    __slots__ = ("text", "offsets", "file", "index")

    def __init__(self, text, file, index, offsets=None):
        self.text = text
        self.file = file
        self.index = index
        self.offsets = offsets  # None means identity

    def span(self, start: int, end: int) -> SourceSpan:
        if self.offsets is not None:
            last = len(self.offsets) - 1
            a = self.offsets[min(start, last)] if last >= 0 else 0
            b = self.offsets[min(max(end - 1, start), last)] + 1 if last >= 0 else 0
        else:
            a, b = start, end
        l1, c1 = self.index.locate(a)
        l2, c2 = self.index.locate(max(a, b))
        return SourceSpan(self.file, l1, c1, l2, c2)

    def error(self, start: int, end: int, message: str) -> ParseError:
        return ParseError(
            ParseDiagnostic("error", message, self.span(start, end))
        )


def _standalone(text: str, file: str = "<expr>") -> _Src:
    return _Src(text, file, _LineIndex(text))


# ---------------------------------------------------------------------------
# expression tokenizer


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # NUM STR IDENT OP EOF
    text: str
    start: int
    end: int


def _tokenize_expr(src: _Src, warnings: list | None = None) -> list[_Tok]:
    text = src.text
    toks: list[_Tok] = []
    i = 0
    while True:
        m = _EXPR_TOKEN_RX.match(text, i)
        kind = m.lastgroup
        start, i = m.span(kind)
        if kind == "STR":
            value, i = _scan_string(src, start, warnings)
            toks.append(_Tok(kind, value, start, i))
        elif kind == "BAD":
            raise src.error(
                start, i, f"unsupported character {text[start]!r} in expression"
            )
        else:
            toks.append(_Tok(kind, m.group(kind), start, i))
            if kind == "EOF":
                return toks


def _scan_string(src: _Src, start: int, warnings: list | None) -> tuple[str, int]:
    text = src.text
    m = _QUOTED_RX.match(text, start)
    body = text[start + 1:m.end() - 1 if m else len(text)]

    def unescape(e: re.Match) -> str:
        esc = e.group(1)
        if esc in _ESCAPE_MAP:
            return _ESCAPE_MAP[esc]
        if esc == "\n":
            return " "
        if warnings is not None:
            at = start + 1 + e.start()
            warnings.append(
                ParseDiagnostic(
                    "warning",
                    f"unsupported escape \\{esc}; kept literally",
                    src.span(at, at + 2),
                )
            )
        return esc

    if "\\" in body:
        body = _ESCAPE_RX.sub(unescape, body)
    if m is None:
        raise src.error(start, len(text), "unterminated string literal")
    return body, m.end()


# ---------------------------------------------------------------------------
# goal expression parsing (precedence climbing)

_TERNARY_PREC = 1


class _ExprParser:
    def __init__(self, src: _Src, toks: list[_Tok]):
        self.src = src
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, tok: _Tok, message: str):
        raise self.src.error(tok.start, max(tok.end, tok.start + 1), message)

    def _binary_op(self, tok: _Tok) -> str | None:
        if tok.kind == "OP" and tok.text in PRECEDENCE:
            return tok.text
        if tok.kind == "IDENT" and tok.text in _WORD_OPS:
            return tok.text
        return None

    def parse(self, min_prec: int = _TERNARY_PREC) -> GoalExpr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(self.peek(), "expression nesting too deep")
        try:
            left = self.parse_unary()
            while True:
                tok = self.peek()
                op = self._binary_op(tok)
                if op is not None and PRECEDENCE[op] >= min_prec:
                    self.advance()
                    right = self.parse(PRECEDENCE[op] + 1)
                    left = infix(op, left, right)
                    continue
                if (
                    tok.kind == "OP"
                    and tok.text == "?"
                    and min_prec <= _TERNARY_PREC
                ):
                    self.advance()
                    then = self.parse(_TERNARY_PREC)
                    colon = self.peek()
                    if colon.kind != "OP" or colon.text != ":":
                        self.fail(colon, "expected ':' in conditional")
                    self.advance()
                    other = self.parse(_TERNARY_PREC)
                    left = Cond(left, then, other)
                    continue
                return left
        finally:
            self.depth -= 1

    def parse_unary(self) -> GoalExpr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(self.peek(), "expression nesting too deep")
        try:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "!":
                self.advance()
                return Not(self.parse_unary())
            if tok.kind == "OP" and tok.text == "~":
                self.advance()
                return BitNot(self.parse_unary())
            if tok.kind == "OP" and tok.text in ("+", "-"):
                # no general unary minus in the grammar; signs only attach
                # to numeric literals (negative legal_values bounds etc.)
                nxt = self.toks[self.i + 1]
                if nxt.kind == "NUM":
                    self.advance()
                    self.advance()
                    return Const(("" if tok.text == "+" else "-") + nxt.text)
                self.fail(tok, f"unexpected {tok.text!r}; not a unary operator here")
            return self.parse_atom()
        finally:
            self.depth -= 1

    def parse_atom(self) -> GoalExpr:
        tok = self.advance()
        if tok.kind == "NUM":
            return Const(tok.text)
        if tok.kind == "STR":
            return Const(tok.text)
        if tok.kind == "IDENT":
            if tok.text in _WORD_OPS:
                self.fail(tok, f"{tok.text!r} is an operator, not a value")
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                return self.parse_call(tok)
            return Ident(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            inner = self.parse(_TERNARY_PREC)
            closing = self.peek()
            if closing.kind != "OP" or closing.text != ")":
                self.fail(closing, "expected ')'")
            self.advance()
            return inner
        if tok.kind == "EOF":
            self.fail(tok, "unexpected end of expression")
        self.fail(tok, f"unexpected {tok.text!r}")

    def parse_call(self, name: _Tok) -> GoalExpr:
        if name.text not in BUILTINS:
            self.fail(name, f"unknown builtin function {name.text!r}")
        self.advance()  # '('
        args: list[GoalExpr] = []
        if not (self.peek().kind == "OP" and self.peek().text == ")"):
            while True:
                args.append(self.parse(_TERNARY_PREC))
                tok = self.peek()
                if tok.kind == "OP" and tok.text == ",":
                    self.advance()
                    continue
                break
        closing = self.peek()
        if closing.kind != "OP" or closing.text != ")":
            self.fail(closing, "expected ')' in call")
        self.advance()
        if len(args) != BUILTINS[name.text]:
            self.fail(
                name,
                f"{name.text} takes {BUILTINS[name.text]} argument(s), "
                f"got {len(args)}",
            )
        return Call(name.text, tuple(args))


def _parse_expr_seq(src: _Src, warnings: list | None = None) -> list[GoalExpr]:
    toks = _tokenize_expr(src, warnings)
    parser = _ExprParser(src, toks)
    out: list[GoalExpr] = []
    while parser.peek().kind != "EOF":
        out.append(parser.parse())
    if not out:
        raise src.error(0, len(src.text) or 1, "empty expression")
    return out


def parse_goal_expr(text: str, file: str = "<expr>") -> GoalExpr:
    """Parse a single goal expression; raises ParseError on bad input."""
    src = _standalone(text, file)
    toks = _tokenize_expr(src)
    parser = _ExprParser(src, toks)
    expr = parser.parse()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        parser.fail(trailing, f"unexpected trailing input {trailing.text!r}")
    return expr


def parse_goal_exprs(text: str, file: str = "<expr>") -> list[GoalExpr]:
    """Parse a whitespace enumeration of goal expressions (greedy)."""
    return _parse_expr_seq(_standalone(text, file))


# ---------------------------------------------------------------------------
# list expressions


def parse_list_expr(text: str, file: str = "<list>") -> ListExpr:
    """Parse a legal_values enumeration; raises ParseError on bad input."""
    return _parse_list(_standalone(text, file))


def _parse_list(src: _Src, warnings: list | None = None) -> ListExpr:
    words = _split_list_words(src)
    if not words:
        raise src.error(0, len(src.text) or 1, "empty list expression")
    items: list = []
    i = 0
    while i < len(words):
        kind, start, end = words[i]
        if kind == "bare" and src.text[start:end] == "to":
            raise src.error(start, end, "'to' needs a value on both sides")
        low = _list_item_expr(src, words[i], warnings)
        i += 1
        if (
            i < len(words)
            and words[i][0] == "bare"
            and src.text[words[i][1]:words[i][2]] == "to"
        ):
            to_start, to_end = words[i][1], words[i][2]
            i += 1
            if i >= len(words):
                raise src.error(to_start, to_end, "'to' needs an upper bound")
            kind, start, end = words[i]
            if kind == "bare" and src.text[start:end] == "to":
                raise src.error(start, end, "'to' needs a value on both sides")
            high = _list_item_expr(src, words[i], warnings)
            i += 1
            items.append(Range(low, high))
        else:
            items.append(Single(low))
    return ListExpr(tuple(items))


def _list_item_expr(src: _Src, word, warnings) -> GoalExpr:
    kind, start, end = word
    if kind == "braced":
        # braces quote literally, like Tcl
        return Const(src.text[start + 1:end - 1])
    sub = _slice_src(src, start, end)
    toks = _tokenize_expr(sub, warnings)
    parser = _ExprParser(sub, toks)
    expr = parser.parse()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        parser.fail(trailing, f"unexpected trailing input {trailing.text!r}")
    return expr


def _slice_src(src: _Src, start: int, end: int) -> _Src:
    if src.offsets is not None:
        offsets = src.offsets[start:end]
    else:
        offsets = list(range(start, end))
    return _Src(src.text[start:end], src.file, src.index, offsets)


def _split_list_words(src: _Src) -> list[tuple[str, int, int]]:
    """Whitespace-split honoring parens, quotes and braces.

    Returns (kind, start, end) triples; braced words keep their braces in
    the span.
    """
    text = src.text
    words: list[tuple[str, int, int]] = []
    i, n = 0, len(text)
    while (i := _BLANKS_RX.match(text, i).end()) < n:
        start = i
        if text[i] == "{":
            i = _scan_braces(src, i, n)
            words.append(("braced", start, i))
            continue
        depth = 0
        while (m := _LIST_STOP_RX.search(text, i)) is not None:
            i = m.start()
            ch = text[i]
            if ch == '"':
                q = _QUOTED_RX.match(text, i)
                if q is None:
                    raise src.error(start, n, "unterminated string literal")
                i = q.end()
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise src.error(i, i + 1, "unbalanced ')'")
            elif depth == 0:
                break
            i += 1
        else:
            i = n
        if depth > 0:
            raise src.error(start, n, "unbalanced '('")
        words.append(("quoted" if text[start] == '"' else "bare", start, i))
    return words


def _scan_braces(src: _Src, start: int, end: int) -> int:
    """Scan the brace group opening at ``start`` and closing before ``end``;
    returns its end (past '}')."""
    depth = 0
    for m in _BRACE_RX.finditer(src.text, start, end):
        brace = m.group()
        if brace == "{":
            depth += 1
        elif brace == "}":
            depth -= 1
            if depth == 0:
                return m.end()
    raise src.error(start, end, "unbalanced '{'")


# ---------------------------------------------------------------------------
# command splitting


@dataclass(frozen=True, slots=True)
class _Word:
    kind: str  # "bare" | "quoted" | "braced"
    start: int  # lexeme bounds in the file text
    end: int

    def content_bounds(self) -> tuple[int, int]:
        if self.kind == "bare":
            return self.start, self.end
        return self.start + 1, self.end - 1


@dataclass(frozen=True, slots=True)
class _Command:
    words: tuple[_Word, ...]


def _split_commands(
    src: _Src, start: int, end: int, sink: list[ParseDiagnostic]
) -> list[_Command]:
    text = src.text
    commands: list[_Command] = []
    words: list[_Word] = []
    i = start
    while (m := _CMD_TOKEN_RX.match(text, i, end)) is not None:
        kind = m.lastgroup
        s, i = m.span(kind)
        if kind == "sep":
            if words:
                commands.append(_Command(tuple(words)))
                words = []
        elif kind == "bare":
            if text[s] != "#" or words:
                words.append(_Word(kind, s, i))
            else:  # a comment runs to the end of the line
                i = text.find("\n", s, end)
                if i < 0:
                    i = end
        elif kind == "quoted":
            words.append(_Word(kind, s, i))
        elif kind == "braced":
            try:
                i = _scan_braces(src, s, end)
            except ParseError as err:
                sink.append(err.diagnostic)
                return commands
            words.append(_Word(kind, s, i))
        elif kind == "open":
            sink.append(
                ParseDiagnostic(
                    "error", "unterminated string literal", src.span(s, end)
                )
            )
            return commands
        else:
            sink.append(
                ParseDiagnostic("error", "unexpected '}'", src.span(s, i))
            )
    if words:
        commands.append(_Command(tuple(words)))
    return commands


# ---------------------------------------------------------------------------
# node building


def _join_args(src: _Src, args: tuple[_Word, ...]) -> _Src:
    """Joined value text for a property; positions map back to the file."""
    pieces: list[str] = []
    offsets: list[int] = []
    for k, w in enumerate(args):
        if k:
            pieces.append(" ")
            offsets.append(w.start)
        if w.kind == "braced":
            a, b = w.content_bounds()
        else:
            a, b = w.start, w.end  # quoted words keep their quotes
        pieces.append(src.text[a:b])
        offsets.extend(range(a, b))
    return _Src("".join(pieces), src.file, src.index, offsets)


def _word_text(src: _Src, w: _Word) -> str:
    return src.text[w.start:w.end]


class _ModelBuilder:
    def __init__(self, src: _Src):
        self.src = src
        self.nodes: list[RawNode] = []
        self.diagnostics: list[ParseDiagnostic] = []

    def error(self, w: _Word, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("error", message, self.src.span(w.start, w.end))
        )

    def warn(self, w: _Word, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("warning", message, self.src.span(w.start, w.end))
        )

    def build(self) -> None:
        commands = _split_commands(
            self.src, 0, len(self.src.text), self.diagnostics
        )
        for cmd in commands:
            head = cmd.words[0]
            name = _word_text(self.src, head)
            if head.kind == "bare" and name in _NODE_COMMANDS:
                self.node_command(cmd, parent=None, depth=1)
            else:
                self.error(head, f"unknown top-level command {name!r}")

    def node_command(self, cmd: _Command, parent: str | None, depth: int) -> None:
        head = cmd.words[0]
        kind = _NODE_COMMANDS[_word_text(self.src, head)]
        if len(cmd.words) < 2:
            self.error(head, f"{_word_text(self.src, head)} needs a name")
            return
        name_word = cmd.words[1]
        name = _word_text(self.src, name_word)
        if name_word.kind != "bare" or not is_valid_feature_id(name):
            self.error(name_word, f"invalid node name {name!r}")
            return
        if len(cmd.words) > 3:
            self.error(cmd.words[3], "unexpected extra arguments after node body")
            return
        node = RawNode(name=name, kind=kind, parent=parent)
        self.nodes.append(node)
        if len(cmd.words) == 3:
            body = cmd.words[2]
            if body.kind != "braced":
                self.error(body, "node body must be a braced block")
                return
            if depth > MAX_NESTING:
                self.error(body, "node nesting too deep")
                return
            a, b = body.content_bounds()
            for sub in _split_commands(self.src, a, b, self.diagnostics):
                self.body_command(sub, node, depth)

    def body_command(self, cmd: _Command, node: RawNode, depth: int) -> None:
        head = cmd.words[0]
        prop = _word_text(self.src, head)
        if head.kind == "bare" and prop in _NODE_COMMANDS:
            self.node_command(cmd, parent=node.name, depth=depth + 1)
            return
        args = cmd.words[1:]
        if prop == "flavor":
            self.set_flavor(node, head, args)
        elif prop in _EXPR_PROPERTIES:
            entry = self.parse_entry(head, args)
            if entry is not None:
                getattr(node, prop).append(entry)
        elif prop == "calculated":
            if node.calculated is not None:
                self.error(head, "duplicate calculated property")
                return
            node.calculated = self.parse_entry(head, args)
        elif prop == "legal_values":
            if node.legal_values is not None:
                self.error(head, "duplicate legal_values property")
                return
            if not args:
                self.error(head, "legal_values needs a value")
                return
            joined = _join_args(self.src, args)
            try:
                node.legal_values = _parse_list(joined, self.diagnostics)
            except ParseError as err:
                self.diagnostics.append(err.diagnostic)
        elif prop == "implements":
            if not args:
                self.error(head, "implements needs an interface name")
                return
            for w in args:
                iface = _word_text(self.src, w)
                if w.kind != "bare" or not is_valid_feature_id(iface):
                    self.error(w, f"invalid interface name {iface!r}")
                    continue
                node.implements.append(iface)
        else:
            # unsupported properties are kept as opaque annotations
            raw = " ".join(_word_text(self.src, w) for w in args)
            node.annotations.setdefault(prop, []).append(raw)
            self.warn(head, f"ignoring unsupported property {prop!r}")

    def set_flavor(self, node: RawNode, head: _Word, args) -> None:
        if node.flavor is not None:
            self.error(head, "duplicate flavor property")
            return
        if len(args) != 1:
            self.error(head, "flavor needs exactly one value")
            return
        value = _word_text(self.src, args[0])
        try:
            node.flavor = Flavor(value)
        except ValueError:
            self.error(args[0], f"unknown flavor {value!r}")

    def parse_entry(self, head: _Word, args) -> tuple[GoalExpr, ...] | None:
        if not args:
            self.error(head, f"{_word_text(self.src, head)} needs a value")
            return None
        joined = _join_args(self.src, args)
        try:
            return tuple(_parse_expr_seq(joined, self.diagnostics))
        except ParseError as err:
            self.diagnostics.append(err.diagnostic)
            return None


def parse_model(
    text: str, file: str = "<model>"
) -> tuple[list[RawNode], list[ParseDiagnostic]]:
    """Parse CDL source into raw nodes plus diagnostics.

    Never raises on malformed input: all problems become diagnostics, and
    callers must treat any error-severity diagnostic as fatal.
    """
    builder = _ModelBuilder(_Src(text, file, _LineIndex(text)))
    builder.build()
    return builder.nodes, builder.diagnostics


def has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)
