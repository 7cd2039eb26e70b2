"""Parser for the supported CDL concrete-syntax subset.

Three layers:

* a Tcl-style command splitter (words, braces, quotes, comments),
* an expression tokenizer plus precedence-climbing parser for goal
  expressions,
* a node builder that walks ``cdl_*`` commands and their bodies.

The splitter and the tokenizer are regex-driven: compiled patterns
consume the text, and Python code runs once per word or token, not once
per character.  Every brace of the file is paired up front in one pass
with a stack, and the splitter reads the end of each body from that one
table, so nested bodies are not rescanned per enclosing level.  Words are
``(kind, start, end)`` tuples, a command is the tuple of its words, and
expression tokens are ``(kind, text, start, end)`` tuples.  Line and
column numbers are worked out only when a diagnostic needs a position.

Values are parsed as windows of the file text where they can be.  A word
that is one identifier or one decimal integer becomes its ``Ident`` or
``Const`` directly; any other one-word value is tokenized in place,
braces stripped; bare ``legal_values`` words without quotes, parentheses
or braces are the list's words as they stand.  Only other values of
several words are first joined into a text of their own.  Each list item
is tokenized in place, so a long bare enumeration parses in linear time.

``parse_model`` never raises on malformed input; it reports problems as
diagnostics.  The standalone expression entry points raise ``ParseError``.
"""

from __future__ import annotations

import bisect
import math
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
# quoted word, a lone (unterminated) quote, a stray '}' or a bare word.  A
# separator takes the blanks, continuations and separators after it along:
# with no word pending they change nothing.  A run of blanks is a character
# class repeated between continuations, not a loop over two alternatives:
# on an indented line the regex engine takes about half the time.
_BLANK_RUN = r"[^\S\n]*(?:\\\n[^\S\n]*)*"
_SEP_RUN = r"[\n;][\s;]*(?:\\\n[\s;]*)*"
_CMD_TOKEN_RX = re.compile(
    _BLANK_RUN + r"(?:(?P<sep>" + _SEP_RUN + r")|(?P<braced>\{)"
    r"|(?P<quoted>" + _QUOTED + r')|(?P<open>")|(?P<close>\})'
    r"|(?P<bare>(?:[^\s;\\]+|\\(?!\n))+))",
    re.S,
)
# a bare word that is one identifier or one decimal integer: such a value
# becomes an Ident or a Const without the expression tokenizer
_ONE_TOKEN_RX = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|[0-9]+")
# a character that keeps a run of bare legal_values words from being its
# own list split: a quote, a parenthesis or a brace
_LIST_MARK_RX = re.compile(r'["(){}]')
# where a list word may end or change state
_LIST_STOP_RX = re.compile(r'[\s"()]')
_BLANKS_RX = re.compile(r"\s*")

_ESCAPE_MAP = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
_FLAVORS = {f.value: f for f in Flavor}


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
    """A scannable text whose positions map back into the original file.

    ``pieces`` is None for the file text itself.  Otherwise it holds
    ``(start, origin)`` pairs by rising ``start``: from ``start`` up to the
    next piece, position ``p`` comes from file offset ``origin + p - start``.
    """

    __slots__ = ("text", "pieces", "file", "index")

    def __init__(self, text, file, index, pieces=None):
        self.text = text
        self.file = file
        self.index = index
        self.pieces = pieces

    def origin(self, p: int) -> int:
        if self.pieces is None:
            return p
        k = max(bisect.bisect_right(self.pieces, (p, math.inf)) - 1, 0)
        start, origin = self.pieces[k]
        return origin + p - start

    def span(self, start: int, end: int, stop: int | None = None) -> SourceSpan:
        """File span of ``start:end``.

        With ``stop`` set, or for a joined text, the span is clamped to
        end before ``stop`` (by default the end of the text), so that it
        stays inside the item or value being parsed.  An empty value, such
        as ``{}``, has nothing before ``stop``: its span is the character
        just before it, the value's '{'.
        """
        if stop is None and self.pieces is not None:
            stop = len(self.text)
        if stop is None:
            a, b = start, end
        else:
            a = self.origin(min(start, stop - 1))
            b = self.origin(min(max(end - 1, start), stop - 1)) + 1
        l1, c1 = self.index.locate(a)
        l2, c2 = self.index.locate(max(a, b))
        return SourceSpan(self.file, l1, c1, l2, c2)

    def error(
        self, start: int, end: int, message: str, stop: int | None = None
    ) -> ParseError:
        return ParseError(
            ParseDiagnostic("error", message, self.span(start, end, stop))
        )


def _standalone(text: str, file: str = "<expr>") -> _Src:
    return _Src(text, file, _LineIndex(text))


# ---------------------------------------------------------------------------
# expression tokenizer
#
# A token is a (kind, text, start, end) tuple: kind is NUM, STR, IDENT, OP
# or EOF, and text is the lexeme, or the unescaped value of a string.
#
# The tokenizer reads ``src.text[pos:stop]`` in place (``stop`` None: to
# the end), and every error of that window, from the parser too, has its
# span clamped to the window.


def _tokenize_expr(
    src: _Src, warnings: list | None = None, pos: int = 0, stop: int | None = None
) -> list[tuple]:
    text = src.text
    end = len(text) if stop is None else stop
    toks: list[tuple] = []
    i = pos
    while True:
        m = _EXPR_TOKEN_RX.match(text, i, end)
        kind = m.lastgroup
        start, i = m.span(kind)
        if kind == "STR":
            value, i = _scan_string(src, start, stop, warnings)
            toks.append((kind, value, start, i))
        elif kind == "BAD":
            raise src.error(
                start,
                i,
                f"unsupported character {text[start]!r} in expression",
                stop,
            )
        else:
            toks.append((kind, m.group(kind), start, i))
            if kind == "EOF":
                return toks


def _scan_string(
    src: _Src, start: int, stop: int | None, warnings: list | None
) -> tuple[str, int]:
    text = src.text
    end = len(text) if stop is None else stop
    m = _QUOTED_RX.match(text, start, end)
    body = text[start + 1:m.end() - 1 if m else end]

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
                    src.span(at, at + 2, stop),
                )
            )
        return esc

    if "\\" in body:
        body = _ESCAPE_RX.sub(unescape, body)
    if m is None:
        raise src.error(start, end, "unterminated string literal", stop)
    return body, m.end()


# ---------------------------------------------------------------------------
# goal expression parsing (precedence climbing)

_TERNARY_PREC = 1


class _ExprParser:
    def __init__(self, src: _Src, toks: list[tuple], stop: int | None = None):
        self.src = src
        self.toks = toks
        self.stop = stop  # error spans end before it; see _tokenize_expr
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple:
        return self.toks[self.i]

    def fail(self, tok: tuple, message: str):
        _, _, start, end = tok
        raise self.src.error(start, max(end, start + 1), message, self.stop)

    def expect(self, text: str, message: str) -> None:
        """Consume the operator ``text`` or fail with ``message``."""
        tok = self.toks[self.i]
        if tok[0] != "OP" or tok[1] != text:
            self.fail(tok, message)
        self.i += 1

    def parse(self, min_prec: int = _TERNARY_PREC) -> GoalExpr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(self.peek(), "expression nesting too deep")
        try:
            left = self.parse_unary()
            while True:
                kind, op = self.toks[self.i][:2]
                # an identifier in PRECEDENCE is a word operator
                if kind in ("OP", "IDENT") and PRECEDENCE.get(op, 0) >= min_prec:
                    self.i += 1
                    right = self.parse(PRECEDENCE[op] + 1)
                    left = infix(op, left, right)
                elif kind == "OP" and op == "?" and min_prec <= _TERNARY_PREC:
                    self.i += 1
                    then = self.parse(_TERNARY_PREC)
                    self.expect(":", "expected ':' in conditional")
                    other = self.parse(_TERNARY_PREC)
                    left = Cond(left, then, other)
                else:
                    return left
        finally:
            self.depth -= 1

    def parse_unary(self) -> GoalExpr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(self.peek(), "expression nesting too deep")
        try:
            tok = self.peek()
            kind, text = tok[0], tok[1]
            if kind == "OP" and text == "!":
                self.i += 1
                return Not(self.parse_unary())
            if kind == "OP" and text == "~":
                self.i += 1
                return BitNot(self.parse_unary())
            if kind == "OP" and text in ("+", "-"):
                # no general unary minus in the grammar; signs only attach
                # to numeric literals (negative legal_values bounds etc.)
                nxt = self.toks[self.i + 1]
                if nxt[0] == "NUM":
                    self.i += 2
                    return Const(("" if text == "+" else "-") + nxt[1])
                self.fail(tok, f"unexpected {text!r}; not a unary operator here")
            return self.parse_atom()
        finally:
            self.depth -= 1

    def parse_atom(self) -> GoalExpr:
        tok = self.peek()
        self.i += 1
        kind, text = tok[0], tok[1]
        if kind == "NUM" or kind == "STR":
            return Const(text)
        if kind == "IDENT":
            if text in _WORD_OPS:
                self.fail(tok, f"{text!r} is an operator, not a value")
            nxt = self.peek()
            if nxt[0] == "OP" and nxt[1] == "(":
                return self.parse_call(tok)
            return Ident(text)
        if kind == "OP" and text == "(":
            inner = self.parse(_TERNARY_PREC)
            self.expect(")", "expected ')'")
            return inner
        if kind == "EOF":
            self.fail(tok, "unexpected end of expression")
        self.fail(tok, f"unexpected {text!r}")

    def parse_call(self, name_tok: tuple) -> GoalExpr:
        name = name_tok[1]
        if name not in BUILTINS:
            self.fail(name_tok, f"unknown builtin function {name!r}")
        self.i += 1  # '('
        args: list[GoalExpr] = []
        if self.peek()[:2] != ("OP", ")"):
            args.append(self.parse(_TERNARY_PREC))
            while self.peek()[:2] == ("OP", ","):
                self.i += 1
                args.append(self.parse(_TERNARY_PREC))
        self.expect(")", "expected ')' in call")
        if len(args) != BUILTINS[name]:
            self.fail(
                name_tok,
                f"{name} takes {BUILTINS[name]} argument(s), got {len(args)}",
            )
        return Call(name, tuple(args))


def _parse_expr_seq(
    src: _Src, warnings: list | None = None, start: int = 0, stop: int | None = None
) -> list[GoalExpr]:
    parser = _ExprParser(src, _tokenize_expr(src, warnings, start, stop), stop)
    out: list[GoalExpr] = []
    while parser.peek()[0] != "EOF":
        out.append(parser.parse())
    if not out:
        end = len(src.text) if stop is None else stop
        raise src.error(start, max(end, start + 1), "empty expression", stop)
    return out


def _parse_one_expr(
    src: _Src, warnings: list | None = None, start: int = 0, stop: int | None = None
) -> GoalExpr:
    parser = _ExprParser(src, _tokenize_expr(src, warnings, start, stop), stop)
    expr = parser.parse()
    trailing = parser.peek()
    if trailing[0] != "EOF":
        parser.fail(trailing, f"unexpected trailing input {trailing[1]!r}")
    return expr


def parse_goal_expr(text: str, file: str = "<expr>") -> GoalExpr:
    """Parse a single goal expression; raises ParseError on bad input."""
    return _parse_one_expr(_standalone(text, file))


def parse_goal_exprs(text: str, file: str = "<expr>") -> list[GoalExpr]:
    """Parse a whitespace enumeration of goal expressions (greedy)."""
    return _parse_expr_seq(_standalone(text, file))


# ---------------------------------------------------------------------------
# list expressions


def parse_list_expr(text: str, file: str = "<list>") -> ListExpr:
    """Parse a legal_values enumeration; raises ParseError on bad input."""
    src = _standalone(text, file)
    return _parse_list(src, _split_list_words(src))


def _parse_list(src: _Src, words, warnings: list | None = None) -> ListExpr:
    """The list of ``words``, (kind, start, end) words of ``src``."""
    text = src.text
    if not words:
        raise src.error(0, len(text) or 1, "empty list expression")

    def is_to(k: int) -> bool:
        return k < len(words) and words[k][0] == "bare" and (
            text[words[k][1]:words[k][2]] == "to"
        )

    def value(k: int) -> GoalExpr:
        if is_to(k):
            raise src.error(*words[k][1:], "'to' needs a value on both sides")
        return _list_item_expr(src, words[k], warnings)

    items: list = []
    i = 0
    while i < len(words):
        low = value(i)
        if not is_to(i + 1):
            items.append(Single(low))
            i += 1
        elif i + 2 == len(words):
            raise src.error(*words[i + 1][1:], "'to' needs an upper bound")
        else:
            items.append(Range(low, value(i + 2)))
            i += 3
    return ListExpr(tuple(items))


def _list_item_expr(src: _Src, word: tuple, warnings) -> GoalExpr:
    kind, start, end = word
    if kind == "braced":
        # braces quote literally, like Tcl
        return Const(src.text[start + 1:end - 1])
    return _one_token(src.text, word) or _parse_one_expr(
        src, warnings, start, end
    )


def _one_token(text: str, word: tuple) -> GoalExpr | None:
    """The Ident or Const of a bare word that is one identifier (not a word
    operator) or one decimal integer; None for any other word.

    The general parser gives the same node for such a word; this lane skips
    its tokenizer for the commonest values.
    """
    kind, start, end = word
    if kind == "bare" and (m := _ONE_TOKEN_RX.fullmatch(text, start, end)):
        if m.lastindex is None:
            return Const(m.group())
        if m.group() not in _WORD_OPS:
            return Ident(m.group())
    return None


def _split_list_words(src: _Src) -> list[tuple[str, int, int]]:
    """Whitespace-split honoring parens, quotes and braces.

    Returns (kind, start, end) triples; braced words keep their braces in
    the span.
    """
    text = src.text
    words: list[tuple[str, int, int]] = []
    partners = None
    i, n = 0, len(text)
    while (i := _BLANKS_RX.match(text, i).end()) < n:
        start = i
        if text[i] == "{":
            if partners is None:
                partners = _pair_braces(text)
            if start not in partners:
                raise src.error(start, n, "unbalanced '{'")
            i = partners[start]
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


def _pair_braces(text: str) -> dict[int, int]:
    """Map the offset of each paired '{' of ``text`` to the end of its '}'.

    One pass with a stack; a backslash escapes the character after it, as
    in the splitter.  The pairing of a '{' depends only on the braces after
    it, and wherever a group can open, the backslash pairs of this pass
    line up with those of a scan from there, so one table serves every
    nested body.
    """
    partners: dict[int, int] = {}
    opens: list[int] = []
    for m in _BRACE_RX.finditer(text):
        brace = m.group()
        if brace == "{":
            opens.append(m.start())
        elif brace == "}" and opens:
            partners[opens.pop()] = m.end()
    return partners


def _join_args(src: _Src, args: tuple) -> _Src:
    """Joined value text for a property; positions map back to the file.

    Braced words lose their braces; quoted words keep their quotes.  A
    joining blank maps to the start of the word after it.
    """
    parts: list[str] = []
    pieces: list[tuple[int, int]] = []
    n = 0
    for kind, a, b in args:
        if parts:
            parts.append(" ")
            pieces.append((n, a))
            n += 1
        if kind == "braced":
            a, b = a + 1, b - 1
        parts.append(src.text[a:b])
        pieces.append((n, a))
        n += b - a
    return _Src("".join(parts), src.file, src.index, pieces)


# ---------------------------------------------------------------------------
# command splitting and node building
#
# A word is a (kind, start, end) tuple: kind is "bare", "quoted" or
# "braced", and start and end bound the lexeme in the file text, quotes and
# braces included.  A command is the tuple of its words.


class _ModelBuilder:
    def __init__(self, src: _Src):
        self.src = src
        self.partners = _pair_braces(src.text)
        self.nodes: list[RawNode] = []
        self.diagnostics: list[ParseDiagnostic] = []

    def text(self, w: tuple) -> str:
        return self.src.text[w[1]:w[2]]

    def error(self, w: tuple, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("error", message, self.src.span(w[1], w[2]))
        )

    def warn(self, w: tuple, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("warning", message, self.src.span(w[1], w[2]))
        )

    def split(self, start: int, end: int) -> list[tuple]:
        """The commands of the file text from ``start`` to ``end``."""
        src, partners, sink = self.src, self.partners, self.diagnostics
        text = src.text
        commands: list[tuple] = []
        words: list[tuple[str, int, int]] = []
        i = start
        while (m := _CMD_TOKEN_RX.match(text, i, end)) is not None:
            kind = m.lastgroup
            s, i = m.span(kind)
            if kind == "sep":
                if words:
                    commands.append(tuple(words))
                    words = []
            elif kind == "bare":
                if text[s] != "#" or words:
                    words.append((kind, s, i))
                else:  # a comment runs to the end of the line
                    i = text.find("\n", s, end)
                    if i < 0:
                        i = end
            elif kind == "quoted":
                words.append((kind, s, i))
            elif kind == "braced":
                i = partners.get(s, end + 1)
                if i > end:
                    sink.append(
                        ParseDiagnostic("error", "unbalanced '{'", src.span(s, end))
                    )
                    return commands
                words.append((kind, s, i))
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
            commands.append(tuple(words))
        return commands

    def build(self) -> None:
        for cmd in self.split(0, len(self.src.text)):
            head = cmd[0]
            name = self.text(head)
            if head[0] == "bare" and name in _NODE_COMMANDS:
                self.node_command(cmd, parent=None, depth=1)
            else:
                self.error(head, f"unknown top-level command {name!r}")

    def node_command(self, cmd: tuple, parent: str | None, depth: int) -> None:
        head = cmd[0]
        kind = _NODE_COMMANDS[self.text(head)]
        if len(cmd) < 2:
            self.error(head, f"{self.text(head)} needs a name")
            return
        name_word = cmd[1]
        name = self.text(name_word)
        if name_word[0] != "bare" or not is_valid_feature_id(name):
            self.error(name_word, f"invalid node name {name!r}")
            return
        if len(cmd) > 3:
            self.error(cmd[3], "unexpected extra arguments after node body")
            return
        node = RawNode(name=name, kind=kind, parent=parent)
        self.nodes.append(node)
        if len(cmd) == 3:
            body_kind, a, b = body = cmd[2]
            if body_kind != "braced":
                self.error(body, "node body must be a braced block")
                return
            if depth > MAX_NESTING:
                self.error(body, "node nesting too deep")
                return
            for sub in self.split(a + 1, b - 1):
                self.body_command(sub, node, depth)

    def body_command(self, cmd: tuple, node: RawNode, depth: int) -> None:
        head = cmd[0]
        prop = self.text(head)
        if head[0] == "bare" and prop in _NODE_COMMANDS:
            self.node_command(cmd, parent=node.name, depth=depth + 1)
            return
        args = cmd[1:]
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
            # bare words without quotes, parentheses or braces are their
            # own list split: joined and split again, they come back as is
            src, words = self.src, args
            try:
                if any(w[0] != "bare" for w in args) or _LIST_MARK_RX.search(
                    src.text, args[0][1], args[-1][2]
                ):
                    src = _join_args(src, args)
                    words = _split_list_words(src)
                node.legal_values = _parse_list(src, words, self.diagnostics)
            except ParseError as err:
                self.diagnostics.append(err.diagnostic)
        elif prop == "implements":
            if not args:
                self.error(head, "implements needs an interface name")
                return
            for w in args:
                iface = self.text(w)
                if w[0] != "bare" or not is_valid_feature_id(iface):
                    self.error(w, f"invalid interface name {iface!r}")
                    continue
                node.implements.append(iface)
        else:
            # unsupported properties are kept as opaque annotations
            raw = " ".join(self.text(w) for w in args)
            node.annotations.setdefault(prop, []).append(raw)
            self.warn(head, f"ignoring unsupported property {prop!r}")

    def set_flavor(self, node: RawNode, head: tuple, args: tuple) -> None:
        if node.flavor is not None:
            self.error(head, "duplicate flavor property")
            return
        if len(args) != 1:
            self.error(head, "flavor needs exactly one value")
            return
        value = self.text(args[0])
        node.flavor = _FLAVORS.get(value)
        if node.flavor is None:
            self.error(args[0], f"unknown flavor {value!r}")

    def parse_entry(self, head: tuple, args: tuple) -> tuple[GoalExpr, ...] | None:
        if not args:
            self.error(head, f"{self.text(head)} needs a value")
            return None
        # an enumeration of one-token words is the tuple of their nodes
        values = [_one_token(self.src.text, w) for w in args]
        if all(values):
            return tuple(values)
        try:
            if len(args) > 1:
                joined = _join_args(self.src, args)
                return tuple(_parse_expr_seq(joined, self.diagnostics))
            # one word is parsed in place, braces stripped
            kind, a, b = args[0]
            if kind == "braced":
                a, b = a + 1, b - 1
            return tuple(_parse_expr_seq(self.src, self.diagnostics, a, b))
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
