"""Recursive-descent parser and evaluator for symbol expressions.

Grammar (precedence low to high: +,- then *,/ then unary - then ^):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)*
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

'-' and '/' associate to the left; '^' takes integer exponents only and
chains left, (x^2)^3.  Variables: x, xi, eta in 1D; x1, x2, xi1, xi2,
eta1, eta2 in 2D.  Functions: sin, cos, exp, sqrt, abs, log, sign
(sign(0) = 0).  Parse errors carry a 1-based byte offset.  The parser
builds with the folding constructors below, so a literal 0 factor or term
is gone before anything evaluates the expression: 0*log(x) is 0 for every
strategy, not a NaN at x = 0 that only some of them see.

Node.diff(var) returns the exact partial derivative as a new AST:
Num -> 0; Var -> 1 or 0; Neg, +, -, * by the sum and product rules;
u/v -> (u' - (u/v)*v')/v, the quotient rule without the v^2 that would
square the denominator again at every further order; u^n ->
n*u^(n-1)*u'; sin, cos, exp as usual; sqrt(u) -> (0.5/sqrt(u))*u';
log(u) -> u'/u; abs(u) -> sign(u)*u' and sign -> 0, both exact away from
the kink.  Sums and products with a literal 0 or 1 fold, so an
x-derivative of an x-independent expression is Num(0).  Derivatives share
subtrees; Node.eval computes each shared subtree once.  pretty() of any
derivative parses back to an equal evaluator.

Node.parity(var) is +1 where the expression is even in var, -1 where it
is odd and None where no rule decides; the rules are sound, not complete.
Numbers and other variables are even and var is odd; a sum or difference
of equal parities keeps it; products and quotients multiply parities; u^n
raises u's parity to n; a function of an even argument is even, sin and
sign of an odd one are odd, cos and abs of an odd one even.  Negation
commutes with IEEE rounding, and u^n is evaluated as |u|^n, with u's sign
for odd n (numpy's ** keeps parity exactly only for n = 2 and -1, which
it evaluates), so the arithmetic rules hold bit for bit.  frequency_parity
reads it in every frequency variable of a dim, for the kernel quadrants and
the factorization's fold alike.
"""
from __future__ import annotations

import operator

import numpy as np

from ..errors import SymbolParseError

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs", "log", "sign")
VARIABLES = {1: ("x", "xi", "eta"), 2: ("x1", "x2", "xi1", "xi2", "eta1", "eta2")}  # by dim
ALL_VARIABLES = VARIABLES[1] + VARIABLES[2]

_FN_TABLE = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "log": np.log,
    "sign": np.sign,
}


class Node:
    """An expression node over its operand nodes, the children."""

    children: tuple = ()

    def free_vars(self) -> set:
        return set().union(*(c.free_vars() for c in self.children))

    def eval(self, env: dict):
        """Value at env, with numpy broadcasting; a shared subtree is evaluated once."""
        values = []
        with np.errstate(all="ignore"):
            for node, slots, spent in self.__dict__.get("_program") or self._compile():
                values.append(node.apply(env, *[values[i] for i in slots]))
                for i in spent:  # free each intermediate after its last use
                    values[i] = None
        return values[-1]

    def _compile(self) -> list:
        """The DAG below self in evaluation order: (node, child slots, spent slots)."""
        program, slot = [], {}

        def visit(node):
            if id(node) not in slot:
                slots = [visit(c) for c in node.children]
                slot[id(node)] = len(program)
                program.append((node, slots, []))
            return slot[id(node)]

        visit(self)
        last_use = {i: j for j, (_, slots, _) in enumerate(program) for i in slots}
        for i, j in last_use.items():
            program[j][2].append(i)
        self._program = program
        return program

    def diff(self, var: str) -> "Node":
        """d/dvar, built once per node and variable, so shared subtrees stay shared."""
        done = self.__dict__.setdefault("_diff", {})
        if var not in done:
            done[var] = self.derivative(var)
        return done[var]

    def parity(self, var: str):
        """+1 (even in var), -1 (odd) or None, once per node and variable."""
        done = self.__dict__.setdefault("_parity", {})
        if var not in done:
            done[var] = self.symmetry(var)
        return done[var]


class Num(Node):
    def __init__(self, value: float):
        self.value = float(value)

    def apply(self, env):  # numpy arithmetic: a zero divisor gives inf, not an exception
        return np.float64(self.value)

    def derivative(self, var):
        return Num(0.0)

    def symmetry(self, var):
        return 1

    def __repr__(self):
        return f"Num({self.value})"


class Var(Node):
    def __init__(self, name: str):
        self.name = name

    def free_vars(self):
        return {self.name}

    def apply(self, env):
        return env[self.name]

    def derivative(self, var):
        return Num(1.0 if var == self.name else 0.0)

    def symmetry(self, var):
        return -1 if var == self.name else 1

    def __repr__(self):
        return f"Var({self.name})"


class Neg(Node):
    def __init__(self, child: Node):
        self.child = child
        self.children = (child,)

    def apply(self, env, a):
        return -a

    def derivative(self, var):
        return _neg(self.child.diff(var))

    def symmetry(self, var):
        return self.child.parity(var)

    def __repr__(self):
        return f"Neg({self.child!r})"


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class BinOp(Node):
    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right
        self.children = (left, right)

    def apply(self, env, a, b):
        return _BINARY[self.op](a, b)

    def derivative(self, var):
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        if self.op == "+":
            return _add(du, dv)
        if self.op == "-":
            return _sub(du, dv)
        if self.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        return _div(_sub(du, _mul(self, dv)), v)  # (u' - (u/v) v') / v: no v^2

    def symmetry(self, var):
        p, q = self.left.parity(var), self.right.parity(var)
        if p is None or q is None:
            return None
        return p * q if self.op in "*/" else p if p == q else None

    def __repr__(self):
        return f"BinOp({self.op!r},{self.left!r},{self.right!r})"


class Pow(Node):
    def __init__(self, base: Node, exponent: int):
        self.base = base
        self.exponent = int(exponent)
        self.children = (base,)

    def apply(self, env, a):
        n = self.exponent
        if n in (2, -1):
            return a ** n
        return np.copysign(np.abs(a) ** n, a) if n % 2 else np.abs(a) ** n

    def derivative(self, var):
        n = self.exponent
        return _mul(_mul(Num(n), _pow(self.base, n - 1)), self.base.diff(var))

    def symmetry(self, var):
        p = self.base.parity(var)
        return None if p is None else p ** abs(self.exponent)

    def __repr__(self):
        return f"Pow({self.base!r},{self.exponent})"


class Call(Node):
    def __init__(self, fn: str, arg: Node):
        self.fn = fn
        self.arg = arg
        self.children = (arg,)

    def apply(self, env, a):
        return _FN_TABLE[self.fn](a)

    def derivative(self, var):
        return _CHAIN[self.fn](self.arg, self.arg.diff(var))

    def symmetry(self, var):
        p = self.arg.parity(var)
        return 1 if p == 1 else _ODD_ARGUMENT.get(self.fn) if p == -1 else None

    def __repr__(self):
        return f"Call({self.fn},{self.arg!r})"


def _is(node: Node, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(u: Node) -> Node:
    return Num(-u.value) if isinstance(u, Num) else Neg(u)


def _add(u: Node, v: Node) -> Node:
    return v if _is(u, 0) else u if _is(v, 0) else BinOp("+", u, v)


def _sub(u: Node, v: Node) -> Node:
    return u if _is(v, 0) else _neg(v) if _is(u, 0) else BinOp("-", u, v)


def _mul(u: Node, v: Node) -> Node:
    if _is(u, 0) or _is(v, 0):
        return Num(0.0)
    if isinstance(u, Num) and isinstance(v, Num):
        return Num(u.value * v.value)
    return v if _is(u, 1) else u if _is(v, 1) else BinOp("*", u, v)


def _div(u: Node, v: Node) -> Node:
    return Num(0.0) if _is(u, 0) else u if _is(v, 1) else BinOp("/", u, v)


def _pow(u: Node, n: int) -> Node:
    return Num(1.0) if n == 0 else u if n == 1 else Pow(u, n)


def frequency_parity(node: Node, dim: int) -> dict:
    """{var: parity} over dim's frequency variables, the xi's then the eta's."""
    return {var: node.parity(var) for var in VARIABLES[dim][dim:]}


# parity of f(u) for an odd u; the other functions have none
_ODD_ARGUMENT = {"sin": -1, "sign": -1, "cos": 1, "abs": 1}

# f(u)' = _CHAIN[f](u, u')
_CHAIN = {
    "sin": lambda u, du: _mul(Call("cos", u), du),
    "cos": lambda u, du: _mul(Neg(Call("sin", u)), du),
    "exp": lambda u, du: _mul(Call("exp", u), du),
    "sqrt": lambda u, du: _mul(BinOp("/", Num(0.5), Call("sqrt", u)), du),
    "log": lambda u, du: _div(du, u),
    "abs": lambda u, du: _mul(Call("sign", u), du),
    "sign": lambda u, du: Num(0.0),
}


class _Token:
    __slots__ = ("kind", "text", "pos")  # pos is 0-based source index

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE" and (
                    j + 1 < n and (src[j + 1].isdigit()
                                   or (src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit()))):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise SymbolParseError(f"bad number literal '{text}'", i + 1)
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise SymbolParseError(f"unexpected character '{c}'", i + 1)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise SymbolParseError(message, tok.pos + 1)

    def parse(self) -> Node:
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            if t.kind == ")":
                self.fail("unbalanced parenthesis", t)
            self.fail(f"unexpected '{t.text}'", t)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            fold = _add if self.take().kind == "+" else _sub
            node = fold(node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            fold = _mul if self.take().kind == "*" else _div
            node = fold(node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return _neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "^":
            self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            t = self.peek()
            if t.kind != "num" or any(ch in t.text for ch in ".eE"):
                self.fail("exponent must be an integer", t)
            self.take()
            node = Pow(node, sign * int(t.text))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return Num(float(t.text))
        if t.kind == "(":
            self.take()
            node = self.expr()
            if self.peek().kind != ")":
                self.fail("unbalanced parenthesis")
            self.take()
            return node
        if t.kind == "ident":
            self.take()
            name = t.text
            if name in FUNCTIONS:
                if self.peek().kind != "(":
                    self.fail(f"function '{name}' needs parenthesized argument")
                self.take()
                arg = self.expr()
                nxt = self.peek()
                if nxt.kind == ",":
                    self.fail(f"function '{name}' takes one argument", nxt)
                if nxt.kind != ")":
                    self.fail("unbalanced parenthesis", nxt)
                self.take()
                return Call(name, arg)
            if name in ALL_VARIABLES:
                return Var(name)
            self.fail(f"unknown identifier '{name}'", t)
        if t.kind == ")":
            self.fail("unbalanced parenthesis", t)
        self.fail(f"expected a value, got '{t.text or 'end of input'}'", t)


def parse_symbol_expr(src: str) -> Node:
    """Parse an expression over {x, xi, eta} (or 2D names) into an AST."""
    if not src or not src.strip():
        raise SymbolParseError("empty expression", 1)
    return _Parser(src).parse()


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg) or (isinstance(node, Num) and node.value < 0):
        return _PREC_NEG  # a folded negative literal prints like unary minus
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def pretty(node: Node) -> str:
    """Minimal-parens rendering; pretty(parse(s)) == s for canonical s."""
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Neg):
        inner = pretty(node.child)
        if _prec(node.child) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = pretty(node.base)
        if _prec(node.base) < _PREC_POW:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        p = _prec(node)
        left = pretty(node.left)
        if _prec(node.left) < p:
            left = f"({left})"
        right = pretty(node.right)
        if _prec(node.right) <= p:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")
