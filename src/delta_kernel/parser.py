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

A file is read in one pass over one token list.  A token is a string ('\\n'
ends a line, '' the text), and the tokenizer's one regular expression takes
the blanks and comment after each token into the token's match, so the list
holds tokens only, next to their offsets in the text; line and column are
counted from the text when an error reads them.  A statement, a dspec clause
and an expression are index ranges of that list, which nothing copies.
Numbers, and subexpressions made of numbers only, stay int or Fraction until
they meet a name: an expression that is constant throughout makes its value
once, and division by a constant is a scalar multiply.
"""

import re
from fractions import Fraction
from functools import partial
from itertools import accumulate

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


# a token with the blanks and comment after it, or a character that starts
# no token; the blanks and comment before the first token are skipped apart
_TOKEN_RE = re.compile(r"((\d+|[A-Za-z_][A-Za-z0-9_]*|\.\.|[-+*/^(){}=,;\n])[ \t]*(?:#[^\n]*)?|.)")
_LEAD_RE = re.compile(r"[ \t]*(?:#[^\n]*)?")
_NAME_RE = re.compile(r"[A-Za-z_]")  # matches the names among tokens

# the types of the values of expressions made of numbers only, tested with
# type(): isinstance(x, Fraction) is an abstract-class check, slow on a
# polynomial
_NUMBER = frozenset((int, Fraction))


def _line_col(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text):
    """The tokens of text, ending in '', and the offset in text of each."""
    start = _LEAD_RE.match(text).end()
    matches = _TOKEN_RE.findall(text, start)
    tokens = [tok for _, tok in matches]
    tokens.append("")
    offsets = list(accumulate([len(chunk) for chunk, _ in matches], initial=start))
    bad = tokens.index("")
    if bad < len(matches):
        raise ParseError(f"unexpected character {matches[bad][0]!r}", *_line_col(text, offsets[bad]))
    return tokens, offsets


_D_RE = re.compile(r"^d(\d+)$")
_U_RE = re.compile(r"^u(\d+)$")
_X_RE = re.compile(r"^x(\d+)?$")
_INDEXED_RE = re.compile(r"^(\D+)(\d+)$")


def _lookup(names, text):
    """The entry of names for text, an index read as an integer (t01 is t1)."""
    entry = names.get(text)
    m = None if entry is not None else _INDEXED_RE.match(text)
    return names.get(f"{m.group(1)}{int(m.group(2))}") if m else entry


class _Parser:
    """Recursive descent over one token list, with i the next token.

    An expression is read from an index range whose end token, a newline,
    ';', ',', '}' or the end of the text, no expression consumes.  Reaching
    it is reported as 'eof' at the line of the anchor token, the statement or
    clause head, with no column; without an anchor, at the end token itself.
    The environment decides what NAME atoms mean, whether derivative chains
    are read, and whether division by a nonconstant value is allowed.
    """

    def __init__(self, text, tokens, offsets):
        self.text = text
        self.tokens = tokens
        self.offsets = offsets
        self.i = 0
        self.end = None
        self.anchor = None
        self.env = None

    # ---------- positions and errors ----------

    def fail(self, message, i):
        """Raise a ParseError at token i, or at the anchor's line for the
        end of the expression being read."""
        if i == self.end and self.anchor is not None:
            raise ParseError(message, _line_col(self.text, self.offsets[self.anchor])[0])
        raise ParseError(message, *_line_col(self.text, self.offsets[i]))

    def fail_found(self, message, i):
        tok = "eof" if i == self.end else self.tokens[i] or "eof"
        self.fail(f"{message}, found {tok!r}", i)

    def expect(self, want):
        """Step over the next token, which must be want: 'name', 'number' or
        the token itself.  Returns its index."""
        i = self.i
        tok = self.tokens[i]
        if want == "name":
            ok = _NAME_RE.match(tok)
        elif want == "number":
            ok = tok.isdigit()
        else:
            ok = tok == want
        if not ok:
            self.fail_found(f"expected {want!r}", i)
        self.i = i + 1
        return i

    def skip_newlines(self):
        while self.tokens[self.i] == "\n":
            self.i += 1

    def line_end(self):
        """The index of the newline, or of the end of the text, that ends
        the line of the next token."""
        try:
            return self.tokens.index("\n", self.i)
        except ValueError:
            return len(self.tokens) - 1

    # ---------- expressions ----------

    def expression(self, start, end, env, anchor=None):
        """The value in env of the one expression spanning tokens
        start..end-1; cut short, it is reported at the line of anchor."""
        self.i, self.end, self.anchor, self.env = start, end, anchor, env
        value = self._sum()
        if self.i != end:
            self.fail(f"unexpected trailing input {self.tokens[self.i]!r}", self.i)
        self.end = None
        return env.const(value) if type(value) in _NUMBER else value

    def _sum(self):
        value = self._term()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
            if op == "+":
                self.i += 1
                value = value + self._term()
            elif op == "-":
                self.i += 1
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        tokens = self.tokens
        while True:
            i = self.i
            op = tokens[i]
            if op == "*":
                self.i = i + 1
                value = value * self._factor()
            elif op == "/":
                self.i = i + 1
                value = self._divide(value, self._factor(), i)
            else:
                return value

    def _factor(self):
        tokens = self.tokens
        if tokens[self.i] == "-":
            self.i += 1
            return -self._factor()
        value = self._atom()
        if tokens[self.i] == "^":
            self.i += 1
            value = value ** int(tokens[self.expect("number")])
        return value

    def _atom(self):
        i = self.i
        tok = self.tokens[i]
        if tok.isdigit():
            self.i = i + 1
            return int(tok)
        if tok == "(":
            self.i = i + 1
            value = self._sum()
            self.expect(")")
            return value
        env = self.env
        make = env.names.get(tok)
        if make is None:
            if not _NAME_RE.match(tok):
                self.fail_found("expected an expression", i)
            if env.ctx is not None and _D_RE.match(tok):
                return self._derivative_chain()
            make = _lookup(env.names, tok)
            if make is None:
                known = ", ".join(env.names) or "none"
                self.fail(f"unknown symbol {tok!r} in {env.what} (names: {known})", i)
        self.i = i + 1
        return make()

    def _derivative_chain(self):
        ctx = self.env.ctx
        tokens = self.tokens
        start = self.i
        theta = [0] * ctx.m
        while True:
            i = self.i
            dm = _D_RE.match(tokens[i])
            if dm:
                self.i = i + 1
                k = int(dm.group(1))
                if not (1 <= k <= ctx.m):
                    self.fail(f"derivation index {k} exceeds m={ctx.m}", start)
                e = 1
                if tokens[self.i] == "^":
                    self.i += 1
                    e = int(tokens[self.expect("number")])
                theta[k - 1] += e
                self.expect("*")
                continue
            um = _U_RE.match(tokens[i])
            if um:
                self.i = i + 1
                j = int(um.group(1))
                if not (1 <= j <= ctx.n):
                    self.fail(f"variable index {j} exceeds n={ctx.n}", start)
                return ctx.indet(theta, j)
            self.fail_found("a derivative chain must end in u<j>", i)

    def _divide(self, a, b, i):
        """a/b for the '/' at token i.  Rational functions divide by any
        nonzero value, the other contexts by nonzero constants only, which
        is multiplying by the inverse."""
        if isinstance(b, RatFunc):
            if b.is_zero():
                self.fail("division by zero", i)
            return a / b
        if type(b) not in _NUMBER:
            body = b if self.env.ctx is None else b.body
            if not body.is_constant():
                self.fail("division by a nonconstant expression is not allowed here", i)
            b = body.constant_value()
        if not b:
            self.fail("division by zero", i)
        if type(a) in _NUMBER:
            return Fraction(a, b)
        return a / b if isinstance(a, RatFunc) else a * Fraction(1, b)


class _Env:
    """One expression context.

    names maps every name the context accepts, a letter plus an optional
    index, to a function that makes its value, and const makes a constant
    value.  The differential context alone, the one with a ring ctx, reads
    derivative chains d<k>*...*u<j>.
    """

    __slots__ = ("names", "const", "what", "ctx")

    def __init__(self, names, const, what, ctx=None):
        self.names = names
        self.const = const
        self.what = what
        self.ctx = ctx


def _indexed(letter, items):
    """letter<i> for the i-th item, and the bare letter for the first."""
    names = {f"{letter}{i}": v for i, v in enumerate(items, 1)}
    if items:
        names[letter] = items[0]
    return names


def _poly_env(sig, names, what):
    """Polynomials over sig; names maps each accepted name to a variable."""
    makers = {a: partial(MultiPoly.gen, sig, sig.index(v)) for a, v in names.items()}
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
    p = _Parser(text, *tokenize(text))
    tokens = p.tokens
    p.skip_newlines()
    head = p.i
    header = {}
    for key in ("m", "n"):
        k = p.expect("name")
        if tokens[k] != key:
            p.fail(f"header must declare {key}=<int>", k)
        p.expect("=")
        header[key] = int(tokens[p.expect("number")])
    k = p.expect("name")
    if tokens[k] != "coeffs":
        p.fail("header must declare coeffs=Q or coeffs=Q(t1..ts)", k)
    p.expect("=")
    end = p.line_end()
    coeff_str = "".join(tokens[p.i : end])
    p.i = end
    m_coeffs = _COEFFS_RE.match(coeff_str)
    if not m_coeffs:
        p.fail(f"bad coefficient field {coeff_str!r}", k)
    if m_coeffs.group(1) is None:
        ngens = 0
    elif m_coeffs.group(3) is None:
        ngens = 1
    else:
        ngens = int(m_coeffs.group(3))
    # the actions are polynomials in the generators of a ring without them
    try:
        ctx = DiffContext(header["m"], header["n"], coeff_gens=ngens)
    except ValueError as exc:
        p.fail(str(exc), head)
    gens = ctx.coeff_gens

    # first pass: the action lines (they shape the ring), and the ranges of
    # every other statement, read once the ring is known
    actions = {}
    stmts = []
    p.skip_newlines()
    while tokens[p.i]:
        if tokens[p.i] == "action":
            p.i += 1
            d = p.expect("name")
            dm = _D_RE.match(tokens[d])
            if not dm or not (1 <= int(dm.group(1)) <= header["m"]):
                p.fail(f"action needs d<k> with 1 <= k <= m={header['m']}", d)
            t = p.expect("name")
            i = _lookup(_indexed("t", range(1, ngens + 1)), tokens[t])
            if i is None:
                p.fail(f"action needs a declared t<i>, found {tokens[t]!r}", t)
            key = (int(dm.group(1)), i)
            if key in actions:
                p.fail(f"repeated action d{key[0]} t{i}", d)
            p.expect("=")
            end = p.line_end()
            actions[key] = (p.i, end, d)
            p.i = end
        else:
            stmts.append(_statement(p))
        p.skip_newlines()

    if actions:
        env = _poly_env(gens, _indexed("t", gens), "a derivation action")
        actions = {key: p.expression(start, end, env, d) for key, (start, end, d) in actions.items()}
        ctx = DiffContext(header["m"], header["n"], coeff_gens=ngens, actions=actions)
    problem = ProblemFile(ctx=ctx)
    tvars = tuple(map(str, gens)) or ("t",)  # an equation over Q is in t
    diff_env = ode_env = None
    field_envs = {}
    names = set()

    for kind, k, span in stmts:
        name = tokens[k]
        if name in names:
            p.fail(f"duplicate name {name!r}", k)
        if kind == "poly":
            diff_env = diff_env or _diff_env(ctx)
            problem.polys[name] = p.expression(*span, diff_env, k)
        elif kind == "set":
            # NAME (',' NAME)*: a comma at each odd position, none last
            members = []
            start, end = span
            for j in range(start, end):
                tok = tokens[j]
                comma = tok == ","
                if (j - start) % 2 and not comma:
                    p.fail("expected ',' between set members", j)
                if comma and ((j - start) % 2 == 0 or j == end - 1):
                    p.fail("empty member in set", j)
                if comma:
                    continue
                if not _NAME_RE.match(tok):
                    p.fail("set members are names of polynomials", j)
                if tok not in problem.polys:
                    p.fail(f"unknown polynomial {tok!r}", j)
                members.append(problem.polys[tok])
            if not members:
                p.fail("empty set", k)
            # stored raw: autoreducedness is a per-command verdict, not a
            # parse-time requirement (analyze reports it)
            problem.sets[name] = members
        elif kind == "dspec":
            problem.dspecs[name] = _dspec(p, k, span, field_envs)
        else:
            ode_env = ode_env or _ode_env(tvars)
            value = p.expression(*span, ode_env, k)
            try:
                problem.odes[name] = OdePoly(value, tvars=tvars)
            except ValueError as exc:
                p.fail(str(exc), k)
        problem.order.append((kind, name))
        names.add(name)
    return problem


def _statement(p):
    """(kind, index of the name, span) of the statement at p.i, where span
    is the range (start, end) after '=' or, for a dspec block, the list of
    its clauses' ranges; p moves past the statement."""
    tokens = p.tokens
    k = p.expect("name")
    kind = tokens[k]
    if kind not in ("poly", "set", "dspec", "ode"):
        p.fail(f"unknown statement {kind!r} (expected poly, set, dspec, ode, or action)", k)
    at = p.expect("name")
    if kind == "dspec":
        p.expect("{")
        # clauses end at newlines and semicolons, the last at the '}'
        # that closes the block
        clauses = []
        start = j = p.i
        depth = 1
        while True:
            tok = tokens[j]
            if tok == "\n" or tok == ";" or tok == "}" and depth == 1:
                if j > start:
                    clauses.append((start, j))
                start = j + 1
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
                if depth == 0:
                    break
            elif not tok:
                p.fail("unterminated dspec block", k)
            j += 1
        p.i = j + 1
        return kind, at, clauses
    p.expect("=")
    span = p.i, p.line_end()
    p.i = span[1]
    return kind, at, span


def _dspec(p, at, clauses, field_envs):
    """The DSpec of the block with the given clause ranges, its name the
    token at; field_envs keeps the environment of each ambient dimension."""
    tokens = p.tokens
    nvars = nder = None
    entries = {}
    ideal_clause = None
    check = True
    seen = set()
    for a, b in clauses:
        head = tokens[a]
        size = b - a
        if not _NAME_RE.match(head):
            p.fail("bad clause in dspec block", a)
        if head in ("n", "m", "ideal"):
            if head in seen:
                p.fail(f"repeated clause {head}", a)
            seen.add(head)
        if head == "n" or head == "m":
            if size != 3 or tokens[a + 1] != "=" or not tokens[a + 2].isdigit():
                p.fail(f"expected {head}=<int>", a)
            if head == "n":
                nvars = int(tokens[a + 2])
            else:
                nder = int(tokens[a + 2])
        elif head == "nocommute":
            if size != 1:
                p.fail("expected nocommute alone", a)
            check = False
        elif head == "ideal":
            if size < 2 or tokens[a + 1] != "=":
                p.fail("expected ideal = <poly>, <poly>, ...", a)
            ideal_clause = (a, b)
        elif _D_RE.match(head):
            k = int(_D_RE.match(head).group(1))
            xm = _X_RE.match(tokens[a + 1]) if size > 1 else None
            if not xm or size < 3 or tokens[a + 2] != "=":
                p.fail("expected d<k> x<j> = <poly>", a)
            j = int(xm.group(1)) if xm.group(1) else 1
            if (k, j) in entries:
                p.fail(f"repeated clause d{k} x{j}", a)
            entries[(k, j)] = (a, b)
        else:
            p.fail(f"unknown dspec clause {head!r}", a)
    if nvars is None or nder is None:
        p.fail("dspec block must declare n=<int> and m=<int>", at)
    for (k, j), (a, _) in entries.items():
        if not (1 <= k <= nder and 1 <= j <= nvars):
            p.fail(f"clause d{k} x{j} lies outside m={nder}, n={nvars}", a)
    env = field_envs.get(nvars)
    if env is None:
        sig = _ambient_sig(nvars)
        env = field_envs[nvars] = _poly_env(sig, _indexed("x", sig), "a vector field")

    fields = []
    for k in range(1, nder + 1):
        row = []
        for j in range(1, nvars + 1):
            clause = entries.get((k, j))
            if clause is None:
                p.fail(f"dspec is missing d{k} x{j}", at)
            a, b = clause
            row.append(p.expression(a + 3, b, env, a))
        fields.append(row)
    ideal = []
    if ideal_clause and ideal_clause[1] - ideal_clause[0] > 2:
        a, b = ideal_clause
        member = a + 2
        for j in range(a + 2, b + 1):
            if j == b or tokens[j] == ",":
                if j == member:
                    p.fail("empty member in ideal", a)
                ideal.append(p.expression(member, j, env, a))
                member = j + 1
    try:
        spec = DSpec(nvars, nder, fields, ideal_gens=ideal, check_commuting=False)
    except ValueError as exc:
        p.fail(str(exc), at)
    # checked here, not by DSpec, so that the message names the file's waiver
    witness = spec.commuting_witness() if check else None
    if witness is not None:
        k, l, j = witness
        p.fail(
            f"derivations {k + 1} and {l + 1} do not commute on x{j + 1} "
            "(add a nocommute clause to waive)",
            at,
        )
    return spec


def _expression(text, env):
    """text as one expression in env, its newlines read as blanks."""
    tokens, offsets = tokenize(text)
    keep = [k for k, tok in enumerate(tokens) if tok != "\n"]
    p = _Parser(text, [tokens[k] for k in keep], [offsets[k] for k in keep])
    return p.expression(0, len(keep) - 1, env)


def parse_diff_expression(text, ctx):
    """One differential-polynomial expression over an existing ring."""
    return _expression(text, _diff_env(ctx))


def parse_ratfunc_expression(text, tvars=("t",)):
    names = {a: partial(RatFunc.var, tvars, v) for a, v in _indexed("t", tvars).items()}
    return _expression(text, _Env(names, partial(RatFunc.from_const, tvars), "a rational function"))
