"""Parser for the supported CDL concrete-syntax subset.

Three layers:

* a Tcl-style command scanner (words, braces, quotes, comments),
* an expression tokenizer plus precedence-climbing parser for goal
  expressions,
* a node builder that runs each ``cdl_*`` command and property as soon as
  the scanner reaches its end.

The scanner and the tokenizer are regex-driven: compiled patterns
consume the text, and Python code runs once per word or token, not once
per character.  The scanner reads the file once, front to back, with an
explicit stack of open node bodies, so nothing recurses per level of
nesting and no body is first split into a list of commands.  As in Tcl,
every unescaped brace counts, also inside words, quoted words and
comments: a braced value finds its '}' by a brace scan from its '{', and
so does a body once such a brace or a lone quote makes its end matter.
Words are ``(kind, start, end)`` tuples, a command is the list of its
words, and expression tokens are ``(kind, text, start, end)`` tuples.
Line and column numbers are worked out only when a diagnostic needs a
position.

Values are parsed as windows of the file text where they can be.  A word
that is one identifier or one decimal integer becomes its ``Ident`` or
``Const`` directly.  A plain property line, the commonest command, is
one scanner token, tried only where the scanner stands on a command's
first character: a property name and identifiers and decimal integers,
or a property name and one expression word, braced or bare.  One
applier, ``_ModelBuilder.property``, takes value words as texts and
serves such lines and all other property commands: a line's words go
straight into the node unless the applier would parse or report on one,
and a goal property's one word is parsed in place.  A line the applier
refuses, or one at the top level or after a word, is read again from the
end of its property name.  Any other one-word value is tokenized in
place too, braces stripped; bare ``legal_values`` words without quotes,
parentheses or braces are the list's words as they stand.  Only other
values of several words are first joined into a text of their own.  Each
list item is tokenized in place, so a long bare enumeration parses in
linear time.

``parse_model`` never raises on malformed input; it reports problems as
diagnostics.  The standalone expression entry points raise ``ParseError``.
"""

from __future__ import annotations

import bisect
import math
import re

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
    _ESCAPES,
    _NUMBER,
    _TERNARY_PREC,
    frozen,
    infix,
)
from .model import FLAVORS, RawNode, is_valid_feature_id

MAX_NESTING = 100  # command body depth
MAX_EXPR_DEPTH = 150

_NODE_COMMANDS = {
    "cdl_package": "package",
    "cdl_component": "component",
    "cdl_option": "option",
    "cdl_interface": "interface",
}

# these properties may occur once per node; a goal property other than
# calculated keeps one entry per occurrence
_SINGLE_PROPERTIES = ("flavor", "calculated", "legal_values")

_WORD_OPS = {"implies", "eqv", "xor"}

# one token after optional blanks, tried in this order; two-character
# operators come before their one-character prefixes
_EXPR_TOKEN_RX = re.compile(
    r"\s*(?:(?P<NUM>" + _NUMBER + r")|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r'|(?P<STR>")|(?P<OP>\|\||&&|<<|>>|<=|>=|==|!=|[|^&<>+\-*/%()?,:!~])'
    r"|(?P<EOF>\Z)|(?P<BAD>.))",
    re.S,
)

# a double-quoted string; a backslash escapes the character after it
_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_QUOTED_RX = re.compile(_QUOTED, re.S)
_ESCAPE_RX = re.compile(r"\\(.)", re.S)
# the next unescaped brace; a backslash escapes the character after it
_NEXT_BRACE_RX = re.compile(r"[^{}\\]*(?:\\.[^{}\\]*)*([{}])", re.S)
# a comment line; the group is its first brace, if any
_COMMENT_RX = re.compile(r"[^\n{}]*([{}])?[^\n]*")
# A plain property line, tried only where the scanner stands on a command's
# first character, so that a long line of words is not tried at each of
# them; else blanks (whitespace but newline) and backslash-newline
# continuations separate words, then one token: a '}', a node command's head
# and name up to its '{' (the commonest tokens but property lines, tried
# first), a command separator, an opening brace, a quoted word, a lone
# (unterminated) quote or a bare word.  A separator takes the blanks,
# continuations and separators after it along: with no word pending they
# change nothing.  A head's '{' and a '}' take the separator run after them
# along too: a body starts with no word pending, and a body's '}' followed
# by a separator ends its node command in the same token.  A plain property
# line is a property name, blanks without a continuation, its value and the
# separator run after it, the tokens of the commonest commands in one:
# identifiers and decimal integers split by blanks ("words"), or one word
# ("expr"), braced with no brace, backslash, quote or newline inside or bare
# with no brace, backslash or quote.  A line of words goes through the
# property applier that serves every command; a goal property's one word is
# parsed in place.  A run of blanks is a character class repeated between
# continuations, not a loop over two alternatives: on an indented line the
# regex engine takes about half the time.  A quoted or bare word with a
# brace in it is a token of its own kind, "wquoted" or "wild": every
# unescaped brace counts, so such a word may end the body it is in.
_BLANK_RUN = r"[^\S\n]*(?:\\\n[^\S\n]*)*"
_SEP_RUN = r"[\n;][\s;]*(?:\\\n[\s;]*)*"
_SEP = _BLANK_RUN + _SEP_RUN
_PLAIN = r"[^\s;\\{}]"  # a bare word's character other than a backslash
_WORD = r"(?:[A-Za-z_][A-Za-z0-9_]*|[0-9]+)"  # an identifier or an integer
_CMD_TOKEN_RX = re.compile(
    r"(?P<prop>flavor|requires|active_if|calculated|implements|legal_values)"
    r"[^\S\n]+(?:(?P<words>" + _WORD + r"(?:[^\S\n]+" + _WORD + r")*)"
    r'|(?P<expr>\{[^{}\\"\n]*\}|[^\s;{}\\"]+))' + _SEP +
    r"|" + _BLANK_RUN + r"(?:(?P<close>\}(?:" + _SEP + r")?)"
    r"|(?P<head>" + "|".join(_NODE_COMMANDS) + r")(?:[^\S\n]|\\\n)+"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:[^\S\n]|\\\n)+\{(?:" + _SEP + r")?"
    r"|(?P<sep>" + _SEP_RUN + r")|(?P<braced>\{)"
    r'|(?P<quoted>"[^"\\{}]*(?:\\[^{}][^"\\{}]*)*")'
    r"|(?P<wquoted>" + _QUOTED + r')|(?P<open>")'
    r"|(?P<bare>(?:" + _PLAIN + r"|\\(?!\n))" + _PLAIN + r"*(?:\\(?!\n)"
    + _PLAIN + r"*)*(?=[\s;]|\\\n|\Z))"
    r"|(?P<wild>(?:[^\s;\\]+|\\(?!\n))+))",
    re.S,
)
# a character that keeps a run of bare legal_values words from being its
# own list split: a quote, a parenthesis or a brace
_LIST_MARK_RX = re.compile(r'["(){}]')
# where a list word may end or change state
_LIST_STOP_RX = re.compile(r'[\s"()]')
_BLANKS_RX = re.compile(r"\s*")

# escape character -> the character it stands for, the printer's escapes reversed
_ESCAPE_MAP = {esc[1]: ch for ch, esc in _ESCAPES.items()}


@frozen
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.file}:{self.start_line}:{self.start_col}"


@frozen
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
            toks.append((kind, text[start:i], start, i))
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
        # each parse and parse_unary call is one level of depth; an error
        # abandons the parser, so only a return gives the level back
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(self.toks[self.i], "expression nesting too deep")
        left = self.parse_unary()
        toks = self.toks
        while True:
            kind, op = toks[self.i][:2]
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
                self.depth -= 1
                return left

    def parse_unary(self) -> GoalExpr:
        """A prefix operator with its operand, a signed number or an atom."""
        self.depth += 1
        tok = self.toks[self.i]
        if self.depth > MAX_EXPR_DEPTH:
            self.fail(tok, "expression nesting too deep")
        self.i += 1
        kind, text = tok[0], tok[1]
        if kind == "IDENT":
            if text in _WORD_OPS:
                self.fail(tok, f"{text!r} is an operator, not a value")
            nxt = self.toks[self.i]
            if nxt[0] == "OP" and nxt[1] == "(":
                expr = self.parse_call(tok)
            else:
                expr = Ident(text)
        elif kind == "NUM" or kind == "STR":
            expr = Const(text)
        elif kind == "EOF":
            self.fail(tok, "unexpected end of expression")
        elif text == "!":
            expr = Not(self.parse_unary())
        elif text == "~":
            expr = BitNot(self.parse_unary())
        elif text == "(":
            expr = self.parse(_TERNARY_PREC)
            self.expect(")", "expected ')'")
        elif text == "+" or text == "-":
            # no general unary minus in the grammar; signs only attach to
            # numeric literals (negative legal_values bounds etc.)
            nxt = self.toks[self.i]
            if nxt[0] != "NUM":
                self.fail(tok, f"unexpected {text!r}; not a unary operator here")
            self.i += 1
            expr = Const(("" if text == "+" else "-") + nxt[1])
        else:
            self.fail(tok, f"unexpected {text!r}")
        self.depth -= 1
        return expr

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
        # as written: a string token's text is its unescaped value
        _, _, at, end = trailing
        parser.fail(trailing, f"unexpected trailing input {src.text[at:end]!r}")
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
    words = _split_list_words(src)
    return _parse_list(src, [text[a:b] for _, a, b in words], words)


def _parse_list(src: _Src, values: list, words=None, warnings=None) -> ListExpr | None:
    """The list of the word texts ``values``; ``words`` are their (kind,
    start, end) words of ``src``.

    A bare ``to`` between two values makes the item before it a range.
    Without ``words``, the list is None wherever a word would be parsed or
    reported on.
    """
    if not values:
        raise src.error(0, len(src.text) or 1, "empty list expression")
    items: list = []
    to = None  # the index of a 'to' waiting for its upper bound
    for k, value in enumerate(values):
        if value == "to":
            if to is not None or not items or isinstance(items[-1], Range):
                if words is None:
                    return None
                raise src.error(*words[k][1:], "'to' needs a value on both sides")
            to = k
            continue
        if (expr := _one_token(value)) is None:
            if words is None:
                return None
            if value[0] == "{":  # braces quote literally, like Tcl
                expr = Const(value[1:-1])
            else:
                expr = _parse_one_expr(src, warnings, *words[k][1:])
        if to is None:
            items.append(Single(expr))
        else:
            items[-1] = Range(items[-1].expr, expr)
            to = None
    if to is not None:
        if words is None:
            return None
        raise src.error(*words[to][1:], "'to' needs an upper bound")
    return ListExpr(tuple(items))


def _one_token(value: str) -> GoalExpr | None:
    """The Ident or Const of a word that is one identifier (not a word
    operator) or one decimal integer; None for any other word, a braced or
    quoted one among them.

    The general parser gives the same node for such a word; this lane skips
    its tokenizer for the commonest values.
    """
    if value.isdigit() and value.isascii():
        return Const(value)
    if value.isidentifier() and value.isascii() and value not in _WORD_OPS:
        return Ident(value)
    return None


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
            i = _brace_end(text, start)
            if i is None:
                raise src.error(start, n, "unbalanced '{'")
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


def _brace_end(text: str, start: int) -> int | None:
    """The end of the '}' that pairs the '{' at ``start``, or None.

    A backslash escapes the character after it, as in the scanner.
    Wherever a group can open, the backslash pairs of this scan line up
    with those of a scan from the start of the file, so every brace pairs
    as it would with a stack over the whole text.
    """
    depth = 0
    i = start
    while (m := _NEXT_BRACE_RX.match(text, i)) is not None:
        i = m.end()
        if m.group(1) == "{":
            depth += 1
        else:
            depth -= 1
            if not depth:
                return i
    return None


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
# command scanning and node building
#
# A word is a (kind, start, end) tuple: kind is "bare", "quoted" or
# "braced", and start and end bound the lexeme in the file text, quotes and
# braces included.  A command is the list of its words.


class _Frame:
    """A body being read: the top level, or the body of ``node`` whose '{'
    is at ``open``.  ``nodes`` and ``diagnostics`` are the lengths of the
    builder's lists when it opened: a body whose node is rejected after it
    was read is cut off there.  The scanner's own diagnostics of a body come
    before those of its commands, so they wait in ``diags``."""

    __slots__ = ("node", "depth", "open", "end", "nodes", "diagnostics",
                 "words", "child", "diags")

    def __init__(self, node, depth, open_, end, builder):
        self.node, self.depth, self.open = node, depth, open_
        self.end = end  # offset of the closing '}'; None until it is needed
        self.nodes = len(builder.nodes)
        self.diagnostics = len(builder.diagnostics)
        self.words: list[tuple] = []  # of the command being read
        self.child: _Frame | None = None  # the read body among ``words``
        self.diags: list[ParseDiagnostic] = []


class _ModelBuilder:
    def __init__(self, src: _Src):
        self.src = src
        self.nodes: list[RawNode] = []
        self.diagnostics: list[ParseDiagnostic] = []

    def text(self, w: tuple) -> str:
        return self.src.text[w[1]:w[2]]

    def error(self, w: tuple, message: str, severity: str = "error") -> None:
        self.diagnostics.append(
            ParseDiagnostic(severity, message, self.src.span(w[1], w[2]))
        )

    def build(self) -> None:
        """Read the file front to back; a command runs when its separator
        or its body's '}' is reached.  A body is read without knowing its
        end until a brace in a word or a comment, or a lone quote, needs it:
        a brace scan then finds the end, and it bounds the rest of the body.
        """
        src, text = self.src, self.src.text
        n = len(text)
        match = _CMD_TOKEN_RX.match
        top = frame = _Frame(None, 0, -1, n, self)
        stack, words, bound, i = [top], top.words, n, 0
        while True:
            m = match(text, i, bound)
            if m is not None:
                kind = m.lastgroup
                s, i = m.span(kind)
            elif frame is top or frame.end is None:
                break
            else:  # the '}' of a body whose end was found
                kind, s, i = "close", bound, bound + 1
            if kind == "words" or kind == "expr":  # a plain property line
                node, prop = frame.node, m["prop"]
                if words or node is None:
                    done = False  # words before it or the top level
                elif kind == "words":
                    done = self.property(node, prop, m["words"].split(), None)
                elif done := prop in ("requires", "active_if") or (
                    prop == "calculated" and node.calculated is None
                ):  # a goal property and one expression word
                    self.store(node, prop, self.parse_words([(kind, s, i)]))
                i = m.end() if done else m.start() + len(prop)
                if not done:  # read on from the end of the property name
                    words.append(("bare", m.start(), i))
            elif kind == "name":  # a node command up to its '{'
                a, b = m.span("head")
                words += (("bare", a, b), ("bare", s, i))
                at = text.index("{", i)
                if len(words) > 2 or frame.depth >= MAX_NESTING:
                    i = at  # the '{' is read as a value
                    continue
                frame = self.open_body(stack, text[a:b], text[s:i], at)
                words, bound, i = frame.words, n, m.end()
            elif kind == "close" and frame.end is not None and s < frame.end:
                i = s + 1  # the separator after it is read again
                frame.diags.append(
                    ParseDiagnostic("error", "unexpected '}'", src.span(s, i))
                )
            elif kind == "close":  # this body's '}'
                frame.end = s
                if words:
                    self.command(frame, words)
                self.close(frame)
                stack.pop()
                body, frame = frame, stack[-1]
                words, bound = frame.words, frame.end or n
                if i > s + 1:
                    # a separator follows, and the words pending are the
                    # node's head and name: the node command is done
                    words = frame.words = []
                else:
                    words.append(("braced", body.open, i))
                    frame.child = body
            elif kind == "sep":
                if words:
                    self.command(frame, words)
                    words = frame.words = []
            elif kind == "bare" and (words or text[s] != "#") or kind == "quoted":
                words.append((kind, s, i))
            elif kind == "braced":
                if len(words) == 2 and frame.depth < MAX_NESTING and (
                    name := self.body_owner(words)
                ):  # a node command with a stray '}' in it, say
                    frame = self.open_body(stack, self.text(words[0]), name, s)
                    words, bound = frame.words, n
                    continue
                i = _brace_end(text, s)  # a value
                if i is None:
                    self.unpaired(stack, s)
                    break
                words.append((kind, s, i))
            else:  # a comment, a word or quote with a brace, a lone quote
                if kind == "bare" or kind == "wild" and not words and text[s] == "#":
                    line = _COMMENT_RX.match(text, s, bound)  # to the line's end
                    i = line.end()
                    if frame.end is not None or line.group(1) is None:
                        continue
                if frame.end is None:  # find the body's end, then read again
                    end = _brace_end(text, frame.open)
                    if end is None:
                        self.unpaired(stack, 0)
                        break
                    frame.end = bound = end - 1
                    i = s
                elif kind != "open":
                    words.append(("bare" if kind == "wild" else "quoted", s, i))
                else:
                    frame.diags.append(ParseDiagnostic(
                        "error", "unterminated string literal", src.span(s, bound)
                    ))
                    self.forget(frame)
                    if frame is top:
                        break
                    words, i = frame.words, bound
        if m is None and frame is top and words:
            self.command(frame, words)
        elif m is None and frame is not top:  # the file ends inside a body
            self.unpaired(stack, 0)
        self.close(top)

    def open_body(self, stack: list[_Frame], head: str, name: str, at: int) -> _Frame:
        """Make the node ``name`` and read its body from the '{' at ``at``."""
        frame = stack[-1]
        node = RawNode(name, _NODE_COMMANDS[head], frame.node and frame.node.name)
        stack.append(_Frame(node, frame.depth + 1, at, None, self))
        self.nodes.append(node)
        return stack[-1]

    def body_owner(self, words: list) -> str | None:
        """The node name of a command whose next word is its body."""
        head, name = words
        if head[0] == "bare" and self.text(head) in _NODE_COMMANDS and (
            name[0] == "bare" and is_valid_feature_id(self.text(name))
        ):
            return self.text(name)
        return None

    def close(self, frame: _Frame) -> None:
        """Put the scanner's diagnostics of a body before its commands'."""
        if frame.diags:
            self.diagnostics[frame.diagnostics:frame.diagnostics] = frame.diags

    def forget(self, frame: _Frame) -> None:
        """Drop the command being read in ``frame``, with its read body."""
        if frame.child is not None:
            del self.nodes[frame.child.nodes:]
            del self.diagnostics[frame.child.diagnostics:]
            frame.child = None
        frame.words = []

    def unpaired(self, stack: list[_Frame], at: int) -> None:
        """A '{' has no '}': the outermost open body's, or else the one at
        ``at``.  Nothing after it is read."""
        top = stack[0]
        if len(stack) > 1:  # that body is the command being read at the top
            top.child, at = stack[1], stack[1].open
        self.forget(top)
        top.diags.append(ParseDiagnostic(
            "error", "unbalanced '{'", self.src.span(at, len(self.src.text))
        ))

    def command(self, frame: _Frame, cmd: list) -> None:
        head = cmd[0]
        prop = self.text(head)
        if head[0] != "bare" or prop not in _NODE_COMMANDS:
            if frame.node is None:
                self.error(head, f"unknown top-level command {prop!r}")
            else:
                self.property(frame.node, prop, [self.text(w) for w in cmd[1:]], cmd)
        elif frame.child is not None:  # the node and its body are read
            if len(cmd) > 3:
                self.forget(frame)
                self.error(cmd[3], "unexpected extra arguments after node body")
            frame.child = None
        elif len(cmd) < 2:
            self.error(head, f"{prop} needs a name")
        elif cmd[1][0] != "bare" or not is_valid_feature_id(self.text(cmd[1])):
            self.error(cmd[1], f"invalid node name {self.text(cmd[1])!r}")
        elif len(cmd) > 3:
            self.error(cmd[3], "unexpected extra arguments after node body")
        else:
            parent = frame.node and frame.node.name
            self.nodes.append(RawNode(self.text(cmd[1]), _NODE_COMMANDS[prop], parent))
            if len(cmd) == 3:  # a braced body within the nesting limit is read
                self.error(cmd[2], "node body must be a braced block"
                           if cmd[2][0] != "braced" else "node nesting too deep")

    def property(self, node: RawNode, prop: str, values: list, cmd) -> bool:
        """Apply the property ``prop`` with the value texts ``values``.

        ``cmd`` is the command's words: diagnostics are put on them, and a
        value that is not all identifiers and decimal integers is parsed
        from them.  The plain-line lane passes None; then nothing is done,
        and False is returned, wherever a word would be parsed or reported
        on or a word operator read.
        """
        if prop in _SINGLE_PROPERTIES and getattr(node, prop) is not None:
            return self.report(cmd, 0, f"duplicate {prop} property")
        if prop == "flavor":
            if len(values) != 1:
                return self.report(cmd, 0, "flavor needs exactly one value")
            if values[0] not in FLAVORS:
                return self.report(cmd, 1, f"unknown flavor {values[0]!r}")
            node.flavor = FLAVORS[values[0]]
        elif prop in ("requires", "active_if", "calculated"):
            if not values:
                return self.report(cmd, 0, f"{prop} needs a value")
            # an enumeration of one-token words is the tuple of their nodes
            entry = tuple(map(_one_token, values))
            if not all(entry):
                if cmd is None:
                    return False
                entry = self.parse_words(cmd[1:])
            self.store(node, prop, entry)
        elif prop == "legal_values":
            if not values:
                return self.report(cmd, 0, "legal_values needs a value")
            # bare words without quotes, parentheses or braces are their
            # own list split: joined and split again, they come back as is;
            # a quoted or braced word has a quote or a brace
            src, words = self.src, cmd and cmd[1:]
            try:
                if words and _LIST_MARK_RX.search(src.text, words[0][1], words[-1][2]):
                    src = _join_args(src, words)
                    words = _split_list_words(src)
                    values = [src.text[a:b] for _, a, b in words]
                node.legal_values = _parse_list(src, values, words, self.diagnostics)
            except ParseError as err:
                self.diagnostics.append(err.diagnostic)
            return cmd is not None or node.legal_values is not None
        elif prop == "implements":
            if not values:
                return self.report(cmd, 0, "implements needs an interface name")
            names = [v for v in values if is_valid_feature_id(v)]
            if len(names) < len(values):
                if cmd is None:
                    return False
                for w, iface in zip(cmd[1:], values):
                    if not is_valid_feature_id(iface):
                        self.error(w, f"invalid interface name {iface!r}")
            node.implements += names
        else:
            # unsupported properties are kept as opaque annotations
            node.annotations.setdefault(prop, []).append(" ".join(values))
            self.error(cmd[0], f"ignoring unsupported property {prop!r}", "warning")
        return True

    def report(self, cmd, k: int, message: str) -> bool:
        """Report ``message`` on word ``k`` of ``cmd``; False, with nothing
        reported, for the lane's None."""
        if cmd is None:
            return False
        self.error(cmd[k], message)
        return True

    def parse_words(self, words: list) -> tuple[GoalExpr, ...] | None:
        """The goal expressions of the value ``words``, one word parsed in
        place with its braces stripped, several joined; None if reported."""
        src, (_, a, b) = self.src, words[0]
        if len(words) > 1:
            src, a, b = _join_args(src, words), 0, None
        elif src.text[a] == "{":
            a, b = a + 1, b - 1
        try:
            return tuple(_parse_expr_seq(src, self.diagnostics, a, b))
        except ParseError as err:
            self.diagnostics.append(err.diagnostic)
            return None

    @staticmethod
    def store(node: RawNode, prop: str, entry) -> None:
        """Set ``calculated`` to ``entry``, or add it to a goal property."""
        if prop == "calculated":
            node.calculated = entry
        elif entry is not None:
            getattr(node, prop).append(entry)


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
