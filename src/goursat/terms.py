"""Equational language: signatures, terms, identities, and their evaluation.

Concrete syntax is prefix-only: ``f(t1,...,tk)`` with nullary symbols
written bare.  Any identifier not declared in the signature is a variable.

Identities are evaluated as arrays: eval_identity evaluates both sides
under every assignment of the identity's variables at once, with one
array axis per variable in ``Identity.vars`` order, by indexing each
operation's table with the broadcast arrays of its arguments.  The
assignments are cut into blocks of at most _BLOCK_CELLS cells by fixing
as few leading variables as needed, so memory stays bounded however many
variables an identity has; a block is one row along the last variable at
least.  Blocks come in ``itertools.product`` order and cells within a
block in C order, so the first falsifying cell found is the
lexicographically least falsifying assignment.  eval_term evaluates one
assignment by recursion and is kept as the reference.
"""

import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import EvalError, ParseError, SignatureMismatchError
from .verdict import Verdict

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Signature:
    """Operation symbols with arities.  Iteration follows declaration order."""

    def __init__(self, ops):
        cleaned = {}
        for name, arity in ops.items():
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad operation symbol {name!r}")
            if not isinstance(arity, int) or arity < 0:
                raise ValueError(f"bad arity for {name!r}: {arity!r}")
            cleaned[name] = arity
        self.ops = cleaned

    def arity(self, name):
        return self.ops[name]

    def __contains__(self, name):
        return name in self.ops

    def __iter__(self):
        return iter(self.ops.items())

    def __len__(self):
        return len(self.ops)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.ops == other.ops

    def __hash__(self):
        return hash(frozenset(self.ops.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}:{v}" for k, v in self.ops.items())
        return f"Signature({{{inner}}})"

    def key(self):
        return tuple(sorted(self.ops.items()))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    sym: str
    args: tuple


Term = (Var, App)


def term_variables(t):
    """Variable names of a term in first-occurrence order."""
    seen = []

    def walk(node):
        if isinstance(node, Var):
            if node.name not in seen:
                seen.append(node.name)
        else:
            for a in node.args:
                walk(a)

    walk(t)
    return seen


def render(t):
    """Canonical concrete syntax; inverse of parse_term over the same signature."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.sym
    return f"{t.sym}({','.join(render(a) for a in t.args)})"


def validate_term(t, sig):
    """Check every applied symbol exists in sig with matching arity."""
    if isinstance(t, Var):
        if t.name in sig:
            raise SignatureMismatchError(
                f"variable {t.name!r} clashes with an operation symbol"
            )
        return
    if t.sym not in sig:
        raise SignatureMismatchError(f"unknown operation {t.sym!r}")
    if sig.arity(t.sym) != len(t.args):
        raise SignatureMismatchError(
            f"{t.sym!r} expects {sig.arity(t.sym)} arguments, got {len(t.args)}"
        )
    for a in t.args:
        validate_term(a, sig)


class _Parser:
    def __init__(self, text, sig):
        self.text = text
        self.sig = sig
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def _found(self):
        """The character at the cursor, quoted, or 'end of input' unquoted."""
        return repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"

    def take_ident(self):
        self._skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(f"expected identifier, found {self._found()}", pos=self.pos)
        self.pos = m.end()
        return m.group(0)

    def expect(self, ch):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}, found {self._found()}", pos=self.pos)
        self.pos += 1

    def term(self):
        self._skip_ws()
        start = self.pos
        name = self.take_ident()
        if self.peek() == "(":
            if name not in self.sig:
                raise ParseError(f"unknown operation {name!r}", pos=start)
            arity = self.sig.arity(name)
            if arity == 0:
                raise ParseError(
                    f"nullary symbol {name!r} written with arguments", pos=start
                )
            self.expect("(")
            args = [self.term()]
            while self.peek() == ",":
                self.expect(",")
                args.append(self.term())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"{name!r} expects {arity} arguments, got {len(args)}", pos=start
                )
            return App(name, tuple(args))
        if name in self.sig:
            if self.sig.arity(name) != 0:
                raise ParseError(
                    f"{name!r} expects {self.sig.arity(name)} arguments, got 0",
                    pos=start,
                )
            return App(name, ())
        return Var(name)

    def end(self):
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"unexpected trailing input {self.text[self.pos]!r}", pos=self.pos
            )


def parse_term(text, sig):
    p = _Parser(text, sig)
    t = p.term()
    p.end()
    return t


@dataclass(frozen=True)
class Identity:
    """An equation lhs = rhs; vars lists both sides' variables in first-occurrence order."""

    lhs: object
    rhs: object
    vars: tuple

    @classmethod
    def of(cls, lhs, rhs):
        names = term_variables(lhs)
        for v in term_variables(rhs):
            if v not in names:
                names.append(v)
        return cls(lhs, rhs, tuple(names))

    def render(self):
        return f"{render(self.lhs)} = {render(self.rhs)}"

    def key(self):
        return (render(self.lhs), render(self.rhs))


def parse_identity(text, sig):
    """Parse ``TERM = TERM``; error positions are offsets into the whole text."""
    p = _Parser(text, sig)
    lhs = p.term()
    p.expect("=")
    rhs = p.term()
    p.end()
    return Identity.of(lhs, rhs)


def parse_identities(text, sig):
    """Parse identity-file content: one ``TERM = TERM`` per line, ``#`` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_identity(line, sig))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return out


def _read_text(path):
    """The UTF-8 text of an input file; a file that is not UTF-8 is a ParseError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_identities(path, sig):
    return parse_identities(_read_text(path), sig)


def eval_term(alg, t, env):
    """Evaluate a term on a finite algebra under a variable assignment."""
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    if t.sym not in alg.sig:
        raise EvalError(f"operation {t.sym!r} not in the algebra's signature")
    if alg.sig.arity(t.sym) != len(t.args):
        raise EvalError(f"arity mismatch applying {t.sym!r}")
    args = tuple(eval_term(alg, a, env) for a in t.args)
    return alg.apply(t.sym, args)


# Cells in one evaluation block, here and in every blocked loop of the
# clone search (subpower, symmetry, permutability), which read it as
# terms._BLOCK_CELLS, so that one binding bounds them all.  A block's intp
# arrays then take at most 2 MB each; a block is one row at least, so a
# row longer than this is a block alone.
_BLOCK_CELLS = 1 << 18


def _eval_array(alg, t, env):
    """Value of t with each variable bound to an array in env; shapes broadcast."""
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    return alg.table_array(t.sym)[tuple(_eval_array(alg, a, env) for a in t.args)]


def eval_identity(alg, ident):
    """Both sides of ident under every assignment of ident.vars, block by block.

    Yields (start, lhs, rhs): lhs and rhs are arrays of one shape with one
    axis per variable of ident.vars, in that order.  The leading variables
    fixed for the block have axes of length 1 and their values in start,
    whose other entries are 0, so cell idx of the block is the assignment
    start + idx.  Blocks come in ``itertools.product`` order over the fixed
    variables and hold at most _BLOCK_CELLS cells, or one row along the
    last variable when that row alone is longer.  A ground identity gives
    one block of shape ().  The terms are trusted to fit alg's signature.
    """
    n, k = alg.n, len(ident.vars)
    free = min(k, 1)
    while free < k and n ** (free + 1) <= _BLOCK_CELLS:
        free += 1
    fixed = k - free
    shape = (1,) * fixed + (n,) * free
    axes = [np.arange(n).reshape((n,) + (1,) * (k - 1 - j)) for j in range(fixed, k)]
    for prefix in product(range(n), repeat=fixed):
        env = dict(zip(ident.vars, list(prefix) + axes))
        lhs = np.broadcast_to(_eval_array(alg, ident.lhs, env), shape)
        rhs = np.broadcast_to(_eval_array(alg, ident.rhs, env), shape)
        yield prefix + (0,) * free, lhs, rhs


def satisfies_identity(alg, ident):
    """True iff the identity holds under every assignment.

    Both sides are evaluated by eval_identity, in blocks of at most
    _BLOCK_CELLS cells.  On failure the witness is the lexicographically
    least falsifying assignment under the identity's variable ordering:
    the first row of ``np.argwhere(lhs != rhs)`` in C order in the first
    block that has one, as a {name: value} dict.
    """
    validate_term(ident.lhs, alg.sig)
    validate_term(ident.rhs, alg.sig)
    for start, lhs, rhs in eval_identity(alg, ident):
        mask = lhs != rhs
        if mask.any():
            first = np.unravel_index(mask.argmax(), mask.shape)
            values = [s + int(i) for s, i in zip(start, first)]
            return Verdict(False, witness=dict(zip(ident.vars, values)))
    return Verdict(True)
