"""Problem-file and expression parsing.

File grammar (whitespace-insensitive inside lines, '#' comments):

    file      := header stmt*
    header    := 'm' '=' INT 'n' '=' INT 'coeffs' '=' ('Q' | 'Q(t1..tS)')
    stmt      := action | poly | set | dspec | ode
    action    := 'action' d<k> t<i> '=' expr          # derivation on t_i
    poly      := 'poly' NAME '=' expr                 # differential polynomial
    set       := 'set' NAME '=' NAME (',' NAME)*      # autoreduced set
    dspec     := 'dspec' NAME '{' clause* '}'         # polynomial vector fields
    clause    := 'n' '=' INT | 'm' '=' INT | 'nocommute'
               | d<k> x<j> '=' expr | 'ideal' '=' expr (',' expr)*
    ode       := 'ode' NAME '=' expr                  # in t, x, y (or y1..ym)

    expr      := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := '-' factor | power
    power     := atom ('^' INT)?
    atom      := NUMBER | var | derivative | '(' expr ')'
    derivative:= d<k>('^'INT)? '*' derivative | u<j>

'*' is mandatory between factors.  Division is general in rational-function
contexts and restricted to constant divisors elsewhere.  `t` abbreviates
`t1`.  Errors carry line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .diffring import AutoreducedSet, DiffContext, DiffPoly
from .dvariety import DSpec
from .heights import OdePoly
from .multipoly import MultiPoly
from .ratfunc import RatFunc


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<number>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<dots>\.\.)"
    r"|(?P<sym>[-+*/^(){}=,;])"
)


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "newline":
            tokens.append(Token("newline", chunk, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, chunk, line, col))
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, offset=0):
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col)
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def at_statement_end(self):
        return self.peek().kind in ("newline", "eof")


_D_RE = re.compile(r"^d(\d+)$")
_U_RE = re.compile(r"^u(\d+)$")
_T_RE = re.compile(r"^t(\d+)?$")
_X_RE = re.compile(r"^x(\d+)?$")
_Y_RE = re.compile(r"^y(\d+)?$")


class ExprParser:
    """Recursive-descent expression parser over one token stream.

    The environment decides what NAME atoms mean and whether division by a
    nonconstant value is allowed (rational-function contexts only).
    """

    def __init__(self, stream, env):
        self.s = stream
        self.env = env

    def parse(self):
        return self._expr()

    def _expr(self):
        value = self._term()
        while True:
            tok = self.s.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.s.next()
                rhs = self._term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            tok = self.s.peek()
            if tok.kind == "sym" and tok.text in "*/":
                self.s.next()
                rhs = self._factor()
                if tok.text == "*":
                    value = value * rhs
                else:
                    value = self.env.divide(value, rhs, tok)
            else:
                return value

    def _factor(self):
        tok = self.s.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.s.next()
            return -self._factor()
        return self._power()

    def _power(self):
        value = self._atom()
        tok = self.s.peek()
        if tok.kind == "sym" and tok.text == "^":
            self.s.next()
            ntok = self.s.expect("number")
            value = value ** int(ntok.text)
        return value

    def _atom(self):
        tok = self.s.peek()
        if tok.kind == "number":
            self.s.next()
            return self.env.constant(Fraction(int(tok.text)))
        if tok.kind == "sym" and tok.text == "(":
            self.s.next()
            value = self._expr()
            self.s.expect("sym", ")")
            return value
        if tok.kind == "name":
            if _D_RE.match(tok.text):
                return self._derivative_chain()
            self.s.next()
            return self.env.atom(tok)
        raise ParseError(f"expected an expression, found {tok.text or tok.kind!r}", tok.line, tok.col)

    def _derivative_chain(self):
        exponents = {}
        start = self.s.peek()
        while True:
            tok = self.s.peek()
            dm = _D_RE.match(tok.text) if tok.kind == "name" else None
            if dm:
                self.s.next()
                k = int(dm.group(1))
                e = 1
                if self.s.peek().kind == "sym" and self.s.peek().text == "^":
                    self.s.next()
                    e = int(self.s.expect("number").text)
                exponents[k] = exponents.get(k, 0) + e
                self.s.expect("sym", "*")
                continue
            um = _U_RE.match(tok.text) if tok.kind == "name" else None
            if um:
                self.s.next()
                return self.env.derivative(exponents, int(um.group(1)), start)
            raise ParseError(
                f"a derivative chain must end in u<j>, found {tok.text or tok.kind!r}",
                tok.line,
                tok.col,
            )


class DiffEnv:
    """Differential polynomials over the header's ring."""

    def __init__(self, ctx):
        self.ctx = ctx

    def constant(self, c):
        return self.ctx.const(c)

    def atom(self, tok):
        um = _U_RE.match(tok.text)
        if um:
            j = int(um.group(1))
            if not (1 <= j <= self.ctx.n):
                raise ParseError(f"variable index {j} exceeds n={self.ctx.n}", tok.line, tok.col)
            return self.ctx.u(j)
        tm = _T_RE.match(tok.text)
        if tm:
            i = int(tm.group(1)) if tm.group(1) else 1
            if i > len(self.ctx.coeff_gens):
                raise ParseError(
                    f"coefficient generator t{i} not declared (coeffs=Q"
                    + (f"(t1..t{len(self.ctx.coeff_gens)})" if self.ctx.coeff_gens else "")
                    + ")",
                    tok.line,
                    tok.col,
                )
            return self.ctx.t(i)
        raise ParseError(f"unknown symbol {tok.text!r} in a differential expression", tok.line, tok.col)

    def derivative(self, exponents, j, tok):
        for k in exponents:
            if not (1 <= k <= self.ctx.m):
                raise ParseError(f"derivation index {k} exceeds m={self.ctx.m}", tok.line, tok.col)
        if not (1 <= j <= self.ctx.n):
            raise ParseError(f"variable index {j} exceeds n={self.ctx.n}", tok.line, tok.col)
        theta = tuple(exponents.get(k, 0) for k in range(1, self.ctx.m + 1))
        return self.ctx.indet(theta, j)

    def divide(self, a, b, tok):
        if isinstance(b, DiffPoly) and b.is_in_coeff_field() and b.body.is_constant():
            c = b.body.constant_value()
            if not c:
                raise ParseError("division by zero", tok.line, tok.col)
            return a * self.ctx.const(1 / c)
        raise ParseError(
            "division by a nonconstant expression is not allowed here", tok.line, tok.col
        )


class AmbientEnv:
    """Polynomials in x1..xn for vector-field specifications."""

    def __init__(self, nvars):
        self.sig = tuple(f"x{j}" for j in range(1, nvars + 1))
        self.nvars = nvars

    def constant(self, c):
        return MultiPoly.const(self.sig, c)

    def atom(self, tok):
        xm = _X_RE.match(tok.text)
        if xm:
            j = int(xm.group(1)) if xm.group(1) else 1
            if not (1 <= j <= self.nvars):
                raise ParseError(f"ambient variable x{j} exceeds n={self.nvars}", tok.line, tok.col)
            return MultiPoly.var(self.sig, f"x{j}")
        raise ParseError(f"unknown symbol {tok.text!r} in an ambient polynomial", tok.line, tok.col)

    def derivative(self, exponents, j, tok):
        raise ParseError("derivative terms make no sense in an ambient polynomial", tok.line, tok.col)

    def divide(self, a, b, tok):
        if b.is_constant():
            c = b.constant_value()
            if not c:
                raise ParseError("division by zero", tok.line, tok.col)
            return a.scale(1 / c)
        raise ParseError(
            "division by a nonconstant expression is not allowed here", tok.line, tok.col
        )


class RatEnv:
    """Rational functions of the t-variables (height expressions)."""

    def __init__(self, tvars=("t",)):
        self.sig = tuple(tvars)

    def constant(self, c):
        return RatFunc.from_const(self.sig, c)

    def atom(self, tok):
        tm = _T_RE.match(tok.text)
        if tm:
            i = int(tm.group(1)) if tm.group(1) else 1
            if not (1 <= i <= len(self.sig)):
                raise ParseError(f"variable t{i} exceeds the declared t-variables", tok.line, tok.col)
            return RatFunc.var(self.sig, self.sig[i - 1])
        raise ParseError(f"unknown symbol {tok.text!r} in a rational function", tok.line, tok.col)

    def derivative(self, exponents, j, tok):
        raise ParseError("derivative terms make no sense in a rational function", tok.line, tok.col)

    def divide(self, a, b, tok):
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        return a / b


class OdeEnv:
    """Polynomials in t-variables, x, and y (or y1..ym)."""

    def __init__(self, tvars=("t",)):
        self.tvars = tuple(tvars)
        s = len(self.tvars)
        self.yvars = ("y",) if s == 1 else tuple(f"y{k}" for k in range(1, s + 1))
        self.sig = self.tvars + ("x",) + self.yvars

    def constant(self, c):
        return MultiPoly.const(self.sig, c)

    def atom(self, tok):
        if tok.text == "x":
            return MultiPoly.var(self.sig, "x")
        ym = _Y_RE.match(tok.text)
        if ym and (tok.text in self.yvars):
            return MultiPoly.var(self.sig, tok.text)
        tm = _T_RE.match(tok.text)
        if tm:
            i = int(tm.group(1)) if tm.group(1) else 1
            if not (1 <= i <= len(self.tvars)):
                raise ParseError(f"variable t{i} exceeds the declared t-variables", tok.line, tok.col)
            return MultiPoly.var(self.sig, self.tvars[i - 1])
        raise ParseError(
            f"unknown symbol {tok.text!r} in a differential-equation polynomial",
            tok.line,
            tok.col,
        )

    def derivative(self, exponents, j, tok):
        raise ParseError("use y (or y1..ym) for the derivative indeterminates", tok.line, tok.col)

    def divide(self, a, b, tok):
        if b.is_constant():
            c = b.constant_value()
            if not c:
                raise ParseError("division by zero", tok.line, tok.col)
            return a.scale(1 / c)
        raise ParseError(
            "clear denominators: division by a nonconstant expression is not allowed here",
            tok.line,
            tok.col,
        )


@dataclass
class ProblemFile:
    ctx: DiffContext
    polys: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)  # name -> list of DiffPoly
    dspecs: dict = field(default_factory=dict)
    odes: dict = field(default_factory=dict)
    order: list = field(default_factory=list)  # (kind, name) in file order

    def names(self):
        return [name for _, name in self.order]

    def autoreduced(self, name):
        """The named set as a validated autoreduced set (raises ValueError)."""
        return AutoreducedSet(self.sets[name])


_COEFFS_RE = re.compile(r"^Q(\(t1(\.\.t(\d+))?\))?$")


def parse_system(text):
    """Parse a problem file into differential polynomials, named sets,
    vector-field specifications, and differential-equation polynomials."""
    tokens = tokenize(text)
    s = _Stream(tokens)
    s.skip_newlines()
    header = {}
    for key in ("m", "n"):
        tok = s.expect("name")
        if tok.text != key:
            raise ParseError(f"header must declare {key}=<int>", tok.line, tok.col)
        s.expect("sym", "=")
        header[key] = int(s.expect("number").text)
    tok = s.expect("name")
    if tok.text != "coeffs":
        raise ParseError("header must declare coeffs=Q or coeffs=Q(t1..ts)", tok.line, tok.col)
    s.expect("sym", "=")
    coeff_tokens = []
    while not s.at_statement_end():
        coeff_tokens.append(s.next().text)
    coeff_str = "".join(coeff_tokens)
    m_coeffs = _COEFFS_RE.match(coeff_str)
    if not m_coeffs:
        raise ParseError(f"bad coefficient field {coeff_str!r}", tok.line, tok.col)
    if m_coeffs.group(1) is None:
        ngens = 0
    elif m_coeffs.group(3) is None:
        ngens = 1
    else:
        ngens = int(m_coeffs.group(3))

    actions = {}
    stmts = []
    s.skip_newlines()
    # first pass: collect action lines (they shape the ring), defer the rest
    while s.peek().kind != "eof":
        tok = s.peek()
        if tok.kind == "name" and tok.text == "action":
            s.next()
            dtok = s.expect("name")
            dm = _D_RE.match(dtok.text)
            if not dm:
                raise ParseError("action needs d<k>", dtok.line, dtok.col)
            k = int(dm.group(1))
            ttok = s.expect("name")
            tm = _T_RE.match(ttok.text)
            if not tm:
                raise ParseError("action needs t<i>", ttok.line, ttok.col)
            i = int(tm.group(1)) if tm.group(1) else 1
            if not (1 <= k <= header["m"]):
                raise ParseError(f"derivation index {k} exceeds m={header['m']}", dtok.line, dtok.col)
            if not (1 <= i <= ngens):
                raise ParseError(f"coefficient generator t{i} not declared", ttok.line, ttok.col)
            s.expect("sym", "=")
            actions[(k, i)] = (dtok.line, _take_line(s))
            s.skip_newlines()
            continue
        stmts.append(_take_statement(s))
        s.skip_newlines()

    tgens = tuple(f"t{i}" for i in range(1, ngens + 1))
    action_polys = {}
    for key, (line, toks) in actions.items():
        env = RatEnv(tgens) if tgens else RatEnv(("t1",))
        value = _parse_tokens(toks, env, line)
        if not value.is_polynomial():
            raise ParseError("derivation actions must be polynomial in the t-generators", toks[0].line, toks[0].col)
        body = value.num.scale(1 / value.den.constant_value())
        from .diffring import CoeffGen

        gens_sig = tuple(CoeffGen(i) for i in range(1, ngens + 1))
        renamed = MultiPoly(
            gens_sig,
            {e: c for e, c in body.terms.items()},
        )
        action_polys[key] = renamed

    ctx = DiffContext(header["m"], header["n"], coeff_gens=ngens, actions=action_polys)
    problem = ProblemFile(ctx=ctx)

    for kind, name_tok, payload in stmts:
        name = name_tok.text
        if name in set(problem.names()):
            raise ParseError(f"duplicate name {name!r}", name_tok.line, name_tok.col)
        if kind == "poly":
            problem.polys[name] = _parse_tokens(payload, DiffEnv(ctx), name_tok.line)
        elif kind == "set":
            members = []
            for tok in payload:
                if tok.kind == "sym" and tok.text == ",":
                    continue
                if tok.kind != "name":
                    raise ParseError("set members are names of polynomials", tok.line, tok.col)
                if tok.text not in problem.polys:
                    raise ParseError(f"unknown polynomial {tok.text!r}", tok.line, tok.col)
                members.append(problem.polys[tok.text])
            if not members:
                raise ParseError("empty set", name_tok.line, name_tok.col)
            # stored raw: autoreducedness is a per-command verdict, not a
            # parse-time requirement (analyze reports it)
            problem.sets[name] = members
        elif kind == "dspec":
            problem.dspecs[name] = _build_dspec(name_tok, payload)
        elif kind == "ode":
            env = OdeEnv(tgens if tgens else ("t",))
            value = _parse_tokens(payload, env, name_tok.line)
            if value.is_zero():
                raise ParseError("the differential-equation polynomial must be nonzero", name_tok.line, name_tok.col)
            problem.odes[name] = OdePoly(value, tvars=env.tvars)
        else:
            raise ParseError(f"unknown statement {kind!r}", name_tok.line, name_tok.col)
        problem.order.append((kind, name))
    return problem


def _take_line(s):
    toks = []
    while not s.at_statement_end():
        toks.append(s.next())
    return toks


def _take_statement(s):
    tok = s.expect("name")
    kind = tok.text
    if kind not in ("poly", "set", "dspec", "ode"):
        raise ParseError(
            f"unknown statement {kind!r} (expected poly, set, dspec, ode, or action)",
            tok.line,
            tok.col,
        )
    name_tok = s.expect("name")
    if kind == "dspec":
        s.expect("sym", "{")
        payload = []
        depth = 1
        while True:
            t = s.next()
            if t.kind == "eof":
                raise ParseError("unterminated dspec block", tok.line, tok.col)
            if t.kind == "sym" and t.text == "{":
                depth += 1
            if t.kind == "sym" and t.text == "}":
                depth -= 1
                if depth == 0:
                    break
            payload.append(t)
        return (kind, name_tok, payload)
    s.expect("sym", "=")
    return (kind, name_tok, _take_line(s))


def _parse_tokens(tokens, env, line=None):
    """One expression spanning all of tokens, parsed in env; an expression
    cut short is reported at line, where its statement starts."""
    sub = _Stream(list(tokens) + [Token("eof", "", line, None)])
    value = ExprParser(sub, env).parse()
    tok = sub.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return value


def _build_dspec(name_tok, payload):
    # split clauses on newlines/semicolons
    clauses = [[]]
    for tok in payload:
        if tok.kind == "newline" or (tok.kind == "sym" and tok.text == ";"):
            if clauses[-1]:
                clauses.append([])
            continue
        clauses[-1].append(tok)
    if clauses and not clauses[-1]:
        clauses.pop()
    nvars = nder = None
    entries = {}
    ideal_clause = None
    check = True
    seen = set()
    for clause in clauses:
        head = clause[0]
        if head.kind != "name":
            raise ParseError("bad clause in dspec block", head.line, head.col)
        if head.text in ("n", "m", "ideal"):
            if head.text in seen:
                raise ParseError(f"repeated clause {head.text}", head.line, head.col)
            seen.add(head.text)
        if head.text == "n" or head.text == "m":
            if len(clause) != 3 or clause[1].text != "=" or clause[2].kind != "number":
                raise ParseError(f"expected {head.text}=<int>", head.line, head.col)
            if head.text == "n":
                nvars = int(clause[2].text)
            else:
                nder = int(clause[2].text)
        elif head.text == "nocommute":
            check = False
        elif head.text == "ideal":
            if len(clause) < 2 or clause[1].text != "=":
                raise ParseError("expected ideal = <poly>, <poly>, ...", head.line, head.col)
            ideal_clause = clause
        elif _D_RE.match(head.text):
            k = int(_D_RE.match(head.text).group(1))
            xm = _X_RE.match(clause[1].text) if len(clause) > 1 and clause[1].kind == "name" else None
            if not xm or len(clause) < 3 or clause[2].text != "=":
                raise ParseError("expected d<k> x<j> = <poly>", head.line, head.col)
            j = int(xm.group(1)) if xm.group(1) else 1
            if (k, j) in entries:
                raise ParseError(f"repeated clause d{k} x{j}", head.line, head.col)
            entries[(k, j)] = clause
        else:
            raise ParseError(f"unknown dspec clause {head.text!r}", head.line, head.col)
    if nvars is None or nder is None:
        raise ParseError("dspec block must declare n=<int> and m=<int>", name_tok.line, name_tok.col)
    for (k, j), clause in entries.items():
        if not (1 <= k <= nder and 1 <= j <= nvars):
            raise ParseError(f"clause d{k} x{j} lies outside m={nder}, n={nvars}", clause[0].line, clause[0].col)
    env = AmbientEnv(nvars)

    fields = []
    for k in range(1, nder + 1):
        row = []
        for j in range(1, nvars + 1):
            clause = entries.get((k, j))
            if clause is None:
                raise ParseError(
                    f"dspec is missing d{k} x{j}", name_tok.line, name_tok.col
                )
            row.append(_parse_tokens(clause[3:], env, clause[0].line))
        fields.append(row)
    ideal = []
    if ideal_clause and ideal_clause[2:]:
        head = ideal_clause[0]
        current = []
        for tok in ideal_clause[2:] + [Token("sym", ",", 0, 0)]:
            if tok.kind == "sym" and tok.text == ",":
                if not current:
                    raise ParseError("empty member in ideal", head.line, head.col)
                ideal.append(_parse_tokens(current, env, head.line))
                current = []
            else:
                current.append(tok)
    try:
        return DSpec(nvars, nder, fields, ideal_gens=ideal, check_commuting=check)
    except ValueError as exc:
        raise ParseError(str(exc), name_tok.line, name_tok.col)


def parse_diff_expression(text, ctx):
    """One differential-polynomial expression over an existing ring."""
    tokens = [t for t in tokenize(text) if t.kind != "newline"]
    return _parse_tokens(tokens, DiffEnv(ctx))


def parse_ratfunc_expression(text, tvars=("t",)):
    tokens = [t for t in tokenize(text) if t.kind != "newline"]
    return _parse_tokens(tokens, RatEnv(tvars))
