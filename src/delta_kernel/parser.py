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
    ode       := 'ode' NAME '=' expr                  # in t, x, y (or y1..ys)

    expr      := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := '-' factor | power
    power     := atom ('^' INT)?
    atom      := NUMBER | NAME | derivative | '(' expr ')'
    derivative:= d<k>('^'INT)? '*' derivative | u<j>  # poly and reduce only

Every expression is read in one environment, which differs between contexts
only in its name table, its constants and its divisors.  A NAME atom is a
letter plus an optional index, read as an integer, looked up in the table:

    poly, reduce  u<j> (1 <= j <= n), t and t<i> (1 <= i <= s)
    action        t and t<i>
    dspec         x and x<j> (1 <= j <= the block's n)
    ode           t and t<i>, x, and y (s <= 1) or y1..ys (s > 1)
    height        t and t1

where s counts the header's generators; a bare `t` or `x` stands for `t1` or
`x1`.  The signatures come from the objects the values belong to: the ring's
DiffContext, DSpec's ambient space, OdePoly's ring.  '*' is mandatory between
factors.  Division is general for rational functions (height) and by nonzero
constants elsewhere.  Errors carry line and column positions.
"""

import re
from fractions import Fraction
from functools import partial

from .diffring import DiffContext
from .dvariety import DSpec, _ambient_sig
from .heights import OdePoly, _ode_sig
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


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


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
_X_RE = re.compile(r"^x(\d+)?$")
_INDEXED_RE = re.compile(r"^(\D+)(\d+)$")


def _lookup(names, text):
    """The entry of names for text, an index read as an integer (t01 is t1)."""
    entry = names.get(text)
    m = None if entry is not None else _INDEXED_RE.match(text)
    return names.get(f"{m.group(1)}{int(m.group(2))}") if m else entry


class ExprParser:
    """Recursive-descent expression parser over one token stream.

    The environment decides what NAME atoms mean, whether derivative chains
    are read, and whether division by a nonconstant value is allowed.
    """

    def __init__(self, stream, env):
        self.s = stream
        self.env = env

    def expr(self):
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
            return self.env.const(Fraction(int(tok.text)))
        if tok.kind == "sym" and tok.text == "(":
            self.s.next()
            value = self.expr()
            self.s.expect("sym", ")")
            return value
        if tok.kind == "name":
            if self.env.ctx is not None and _D_RE.match(tok.text):
                return self._derivative_chain()
            self.s.next()
            return self.env.atom(tok)
        raise ParseError(f"expected an expression, found {tok.text or tok.kind!r}", tok.line, tok.col)

    def _derivative_chain(self):
        ctx = self.env.ctx
        exponents = {}
        start = self.s.peek()
        while True:
            tok = self.s.peek()
            dm = _D_RE.match(tok.text) if tok.kind == "name" else None
            if dm:
                self.s.next()
                k = int(dm.group(1))
                if not (1 <= k <= ctx.m):
                    raise ParseError(f"derivation index {k} exceeds m={ctx.m}", start.line, start.col)
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
                j = int(um.group(1))
                if not (1 <= j <= ctx.n):
                    raise ParseError(f"variable index {j} exceeds n={ctx.n}", start.line, start.col)
                return ctx.indet([exponents.get(k, 0) for k in range(1, ctx.m + 1)], j)
            raise ParseError(
                f"a derivative chain must end in u<j>, found {tok.text or tok.kind!r}",
                tok.line,
                tok.col,
            )


class _Env:
    """One expression context.

    names maps every name the context accepts, a letter plus an optional
    index, to a function that makes its value, and const makes the
    constants.  Rational functions divide by any nonzero value, the other
    contexts by nonzero constants only.  The differential context alone,
    the one with a ring ctx, reads derivative chains d<k>*...*u<j>.
    """

    def __init__(self, names, const, what, ctx=None):
        self.names = names
        self.const = const
        self.what = what
        self.ctx = ctx

    def atom(self, tok):
        make = _lookup(self.names, tok.text)
        if make is None:
            known = ", ".join(self.names) or "none"
            raise ParseError(f"unknown symbol {tok.text!r} in {self.what} (names: {known})", tok.line, tok.col)
        return make()

    def divide(self, a, b, tok):
        if isinstance(b, RatFunc):
            if b.is_zero():
                raise ParseError("division by zero", tok.line, tok.col)
            return a / b
        body = b if self.ctx is None else b.body
        if not body.is_constant():
            raise ParseError("division by a nonconstant expression is not allowed here", tok.line, tok.col)
        if body.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        c = 1 / body.constant_value()
        return a.scale(c) if self.ctx is None else a * c


def _indexed(letter, items):
    """letter<i> for the i-th item, and the bare letter for the first."""
    names = {f"{letter}{i}": v for i, v in enumerate(items, 1)}
    if items:
        names[letter] = items[0]
    return names


def _poly_env(sig, names, what):
    """Polynomials over sig; names maps each accepted name to a variable."""
    makers = {a: partial(MultiPoly.var, sig, v) for a, v in names.items()}
    return _Env(makers, partial(MultiPoly.const, sig), what)


def _ode_env(tvars):
    sig = _ode_sig(tvars)
    names = _indexed("t", tvars)
    names.update((v, v) for v in sig[len(tvars) :])
    return _poly_env(sig, names, "a differential equation")


def _diff_env(ctx):
    names = {f"u{j}": partial(ctx.u, j) for j in range(1, ctx.n + 1)}
    names.update((a, partial(ctx.t, g.index)) for a, g in _indexed("t", ctx.coeff_gens).items())
    return _Env(names, ctx.const, "a differential polynomial", ctx)


class ProblemFile:
    __slots__ = ("ctx", "polys", "sets", "dspecs", "odes", "order")

    def __init__(self, ctx, polys=None, sets=None, dspecs=None, odes=None, order=None):
        self.ctx = ctx
        self.polys = {} if polys is None else polys
        self.sets = {} if sets is None else sets  # name -> list of DiffPoly
        self.dspecs = {} if dspecs is None else dspecs
        self.odes = {} if odes is None else odes
        self.order = [] if order is None else order  # (kind, name) in file order

    def names(self):
        return [name for _, name in self.order]


_COEFFS_RE = re.compile(r"^Q(\(t1(\.\.t(0*[1-9]\d*))?\))?$")


def parse_system(text):
    """Parse a problem file into differential polynomials, named sets,
    vector-field specifications, and differential-equation polynomials."""
    tokens = tokenize(text)
    s = _Stream(tokens)
    s.skip_newlines()
    header = {}
    head = s.peek()
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
    # the actions are polynomials in the generators of a ring without them
    try:
        gens = DiffContext(header["m"], header["n"], coeff_gens=ngens).coeff_gens
    except ValueError as exc:
        raise ParseError(str(exc), head.line, head.col)

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
            if not dm or not (1 <= int(dm.group(1)) <= header["m"]):
                raise ParseError(f"action needs d<k> with 1 <= k <= m={header['m']}", dtok.line, dtok.col)
            ttok = s.expect("name")
            i = _lookup(_indexed("t", range(1, ngens + 1)), ttok.text)
            if i is None:
                raise ParseError(f"action needs a declared t<i>, found {ttok.text!r}", ttok.line, ttok.col)
            s.expect("sym", "=")
            actions[(int(dm.group(1)), i)] = (dtok.line, _take_line(s))
            s.skip_newlines()
            continue
        stmts.append(_take_statement(s))
        s.skip_newlines()

    env = _poly_env(gens, _indexed("t", gens), "a derivation action")
    actions = {key: _parse_tokens(toks, env, line) for key, (line, toks) in actions.items()}
    ctx = DiffContext(header["m"], header["n"], coeff_gens=ngens, actions=actions)
    problem = ProblemFile(ctx=ctx)
    tvars = tuple(map(str, gens)) or ("t",)  # an equation over Q is in t

    for kind, name_tok, payload in stmts:
        name = name_tok.text
        if name in set(problem.names()):
            raise ParseError(f"duplicate name {name!r}", name_tok.line, name_tok.col)
        if kind == "poly":
            problem.polys[name] = _parse_tokens(payload, _diff_env(ctx), name_tok.line)
        elif kind == "set":
            # NAME (',' NAME)*: a comma at each odd position, none last
            members = []
            for k, tok in enumerate(payload):
                comma = tok.kind == "sym" and tok.text == ","
                if k % 2 and not comma:
                    raise ParseError("expected ',' between set members", tok.line, tok.col)
                if comma and (k % 2 == 0 or k == len(payload) - 1):
                    raise ParseError("empty member in set", tok.line, tok.col)
                if comma:
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
            value = _parse_tokens(payload, _ode_env(tvars), name_tok.line)
            try:
                problem.odes[name] = OdePoly(value, tvars=tvars)
            except ValueError as exc:
                raise ParseError(str(exc), name_tok.line, name_tok.col)
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
    value = ExprParser(sub, env).expr()
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
    sig = _ambient_sig(nvars)
    env = _poly_env(sig, _indexed("x", sig), "a vector field")

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
        spec = DSpec(nvars, nder, fields, ideal_gens=ideal, check_commuting=False)
    except ValueError as exc:
        raise ParseError(str(exc), name_tok.line, name_tok.col)
    # checked here, not by DSpec, so that the message names the file's waiver
    witness = spec.commuting_witness() if check else None
    if witness is not None:
        k, l, j = witness
        raise ParseError(
            f"derivations {k + 1} and {l + 1} do not commute on x{j + 1} "
            "(add a nocommute clause to waive)",
            name_tok.line,
            name_tok.col,
        )
    return spec


def parse_diff_expression(text, ctx):
    """One differential-polynomial expression over an existing ring."""
    tokens = [t for t in tokenize(text) if t.kind != "newline"]
    return _parse_tokens(tokens, _diff_env(ctx))


def parse_ratfunc_expression(text, tvars=("t",)):
    tokens = [t for t in tokenize(text) if t.kind != "newline"]
    names = {a: partial(RatFunc.var, tvars, v) for a, v in _indexed("t", tvars).items()}
    return _parse_tokens(tokens, _Env(names, partial(RatFunc.from_const, tvars), "a rational function"))
