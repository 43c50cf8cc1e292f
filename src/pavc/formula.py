"""Linear-integer-arithmetic formulas: terms, atoms, Boolean/quantifier trees.

The surface syntax is s-expressions over integer linear terms:

    formula := atom | (not f) | (and f+) | (or f+)
             | (exists v f) | (forall v f) | T | F
    atom    := (<= term term) | (< term term) | (= term term)
             | (div posint term)            -- gated by allow_div
    term    := int | var | (+ term+) | (* int var)

All values are immutable after construction and safe to share across
threads.  Equality is structural.  `(div c t)` atoms state that c divides
the value of t; they normally appear only in quantifier-elimination output
and the parser rejects them unless asked not to.

Variable scoping: every occurrence is either bound by exactly one
enclosing quantifier or free.  Rebinding a name that an enclosing
quantifier already binds is an error, as is using the same name both free
and bound; sibling quantifier scopes may reuse a name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping, Union

LE = "<="
LT = "<"
EQ = "="
DIV = "div"

_INEQ_COUNT = {LE: 1, LT: 1, EQ: 2, DIV: 2}

RESERVED_WORDS = frozenset({"T", "F"})

# parse refuses deeper nesting, so recursive passes stay within 1000 frames
MAX_NESTING = 200


class FormulaError(ValueError):
    """Base class for formula construction and parsing failures."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ShadowingError(FormulaError):
    """A quantifier rebinds a name that is already in use."""


class UnboundVariableError(FormulaError):
    """A variable falls outside the declared free-variable list."""


class BindingError(FormulaError):
    """substitute() was given a key that is not a free variable."""


def bitlen(n: int) -> int:
    """Description length of an integer: ceil(log2(|n|+1)) + 1 bits."""
    return abs(n).bit_length() + 1


def _node(cls):
    """A frozen dataclass that keeps its structural hash once computed: QE
    hashes the same subtrees many times over."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            fields_hash = hash(tuple(getattr(self, n) for n in names))
            object.__setattr__(self, "_hash", fields_hash)
        return self._hash
    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Terms


@_node
class LinearTerm:
    """Integer linear combination: sum of coeff*var entries plus a constant.

    `coeffs` is sorted by variable name and never stores a zero
    coefficient, so structural equality coincides with semantic equality
    of term expressions.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(coeffs: Union[Mapping[str, int], Iterable[tuple[str, int]]] = (),
           const: int = 0) -> "LinearTerm":
        acc: dict[str, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for v, c in items:
            acc[v] = acc.get(v, 0) + c
        return LinearTerm(tuple(sorted((v, c) for v, c in acc.items() if c)), const)

    @staticmethod
    def var(name: str, coeff: int = 1) -> "LinearTerm":
        return LinearTerm.of({name: coeff})

    @staticmethod
    def num(n: int) -> "LinearTerm":
        return LinearTerm((), n)

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    @property
    def is_ground(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearTerm") -> "LinearTerm":
        # merge the two name-sorted tuples, dropping coefficients that cancel
        a, b = self.coeffs, other.coeffs
        i = j = 0
        out = []
        while i < len(a) and j < len(b):
            (u, c), (v, e) = a[i], b[j]
            if u != v:
                out.append(a[i] if u < v else b[j])
            elif c + e:
                out.append((u, c + e))
            i += u <= v
            j += v <= u
        return LinearTerm((*out, *a[i:], *b[j:]), self.const + other.const)

    def __sub__(self, other: "LinearTerm") -> "LinearTerm":
        return self + other.scaled(-1)

    def __neg__(self) -> "LinearTerm":
        return self.scaled(-1)

    def scaled(self, k: int) -> "LinearTerm":
        if k == 0:
            return LinearTerm.num(0)
        return LinearTerm(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def shifted(self, k: int) -> "LinearTerm":
        return LinearTerm(self.coeffs, self.const + k)

    def drop(self, var: str) -> "LinearTerm":
        """The term with `var`'s entry removed."""
        return LinearTerm(tuple((v, c) for v, c in self.coeffs if v != var),
                          self.const)

    def substitute(self, var: str, replacement: "LinearTerm") -> "LinearTerm":
        c = self.coeff(var)
        if c == 0:
            return self
        return self.drop(var) + replacement.scaled(c)

    def value(self, env: Mapping[str, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def phi_bits(self) -> int:
        total = sum(bitlen(c) + 1 for _, c in self.coeffs)
        if self.const != 0 or not self.coeffs:
            total += bitlen(self.const)
        return total

    def max_coeff_bits(self) -> int:
        worst = bitlen(self.const)
        for _, c in self.coeffs:
            worst = max(worst, bitlen(c))
        return worst


ZERO = LinearTerm.num(0)


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()


@_node
class Bool(Formula):
    value: bool

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = Bool(True)
FALSE = Bool(False)


@_node
class Atom(Formula):
    """kind in {<=, <, =}: left REL right.  kind div: modulus | left."""

    kind: str
    left: LinearTerm
    right: LinearTerm = ZERO
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in _INEQ_COUNT:
            raise FormulaError(f"unknown atom kind {self.kind!r}")
        if self.kind == DIV:
            if self.modulus is None or self.modulus < 1:
                raise FormulaError("div atom needs a positive modulus")
            if self.right != ZERO:
                raise FormulaError("div atom stores its term on the left")
        elif self.modulus is not None:
            raise FormulaError("modulus is only meaningful for div atoms")

    def max_coeff_bits(self) -> int:
        """The largest bitlen of a coefficient, constant or modulus."""
        return max(self.left.max_coeff_bits(), self.right.max_coeff_bits(),
                   bitlen(self.modulus or 0))


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise FormulaError("conjunction needs at least two parts")


@_node
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise FormulaError("disjunction needs at least two parts")


@_node
class Exists(Formula):
    var: str
    body: Formula


@_node
class Forall(Formula):
    var: str
    body: Formula


def mk_and(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def mk_or(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def atoms_of(f: Formula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from atoms_of(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from atoms_of(p)
    elif isinstance(f, (Exists, Forall)):
        yield from atoms_of(f.body)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Bool):
        return frozenset()
    if isinstance(f, Atom):
        return f.left.vars() | f.right.vars()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise FormulaError(f"not a formula: {f!r}")


def bound_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Bool, Atom)):
        return frozenset()
    if isinstance(f, Not):
        return bound_vars(f.body)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in f.parts:
            out |= bound_vars(p)
        return out
    if isinstance(f, (Exists, Forall)):
        return bound_vars(f.body) | {f.var}
    raise FormulaError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    return not bound_vars(f)  # every quantifier binds a variable


def map_atoms(f: Formula, var: str, fn: Callable[[Atom], Formula]) -> Formula:
    """`f` with each atom a replaced by fn(a), except under a quantifier
    that binds `var`, which is left as it is."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        return fn(f)
    if isinstance(f, Not):
        return Not(map_atoms(f.body, var, fn))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map_atoms(p, var, fn) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        return f if f.var == var else type(f)(f.var, map_atoms(f.body, var, fn))
    raise FormulaError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution


def substitute(f: Formula, bindings: Mapping[str, int]) -> Formula:
    """Replace free variables by integer constants, folding them into atoms."""
    free = free_vars(f)
    bound = bound_vars(f)
    for k in bindings:
        if k in bound and k not in free:
            raise BindingError(f"{k!r} is a quantified variable, not free")
        if k not in free:
            raise BindingError(f"{k!r} is not a free variable of the formula")
    out = f
    for k, v in bindings.items():
        out = subst_term(out, k, LinearTerm.num(v))
    return out


def subst_term(f: Formula, var: str, replacement: LinearTerm) -> Formula:
    """Replace the free variable `var` by a linear term, atom by atom; a
    quantifier that binds `var` is left as it is."""
    def rewrite(a: Atom) -> Atom:
        left = a.left.substitute(var, replacement)
        right = a.right.substitute(var, replacement)
        if left == a.left and right == a.right:
            return a
        return Atom(a.kind, left, right, a.modulus)
    return map_atoms(f, var, rewrite)


# ---------------------------------------------------------------------------
# Printing


def term_to_text(t: LinearTerm) -> str:
    if not t.coeffs:
        return str(t.const)
    if len(t.coeffs) == 1 and t.const == 0:
        v, c = t.coeffs[0]
        return v if c == 1 else f"(* {c} {v})"
    parts = [f"(* {c} {v})" for v, c in t.coeffs]
    if t.const != 0:
        parts.append(str(t.const))
    return "(+ " + " ".join(parts) + ")"


def to_text(f: Formula) -> str:
    """Canonical deterministic rendering; parse(to_text(f)) == f."""
    if isinstance(f, Bool):
        return "T" if f.value else "F"
    if isinstance(f, Atom):
        if f.kind == DIV:
            return f"(div {f.modulus} {term_to_text(f.left)})"
        return f"({f.kind} {term_to_text(f.left)} {term_to_text(f.right)})"
    if isinstance(f, Not):
        return f"(not {to_text(f.body)})"
    if isinstance(f, And):
        return "(and " + " ".join(to_text(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(to_text(p) for p in f.parts) + ")"
    if isinstance(f, Exists):
        return f"(exists {f.var} {to_text(f.body)})"
    if isinstance(f, Forall):
        return f"(forall {f.var} {to_text(f.body)})"
    raise FormulaError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = depth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch in "()":
            depth += 1 if ch == "(" else -1
            if depth > MAX_NESTING:
                raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING}", line, col)
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n()":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


def _is_int(s: str) -> bool:
    if s in ("-", ""):
        return False
    if s[0] == "-":
        s = s[1:]
    return s.isdigit()


def _is_var(s: str) -> bool:
    if not s or s in RESERVED_WORDS:
        return False
    if not (s[0].isascii() and s[0].isalpha()):
        return False
    return all(c.isascii() and (c.isalnum() or c == "_") for c in s[1:])


class _Parser:
    def __init__(self, tokens: list[_Token], allow_div: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_div = allow_div

    def _fail(self, msg: str, tok: _Token | None = None) -> FormulaSyntaxError:
        if tok is None:
            tok = self.tokens[self.pos - 1] if self.tokens else _Token("", 1, 1)
        return FormulaSyntaxError(msg, tok.line, tok.column)

    def peek(self) -> _Token:
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise FormulaSyntaxError("unexpected end of input", last.line,
                                     last.column + len(last.text))
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past the int/str conversion limit, 4,300 digits
            raise self._fail(f"integer literal too long: "
                             f"{len(tok.text.lstrip('-'))} digits", tok) from None

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise self._fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def parse_term(self) -> LinearTerm:
        tok = self.take()
        if tok.text == "(":
            op = self.take()
            if op.text == "+":
                total = LinearTerm.num(0)
                count = 0
                while self.peek().text != ")":
                    total = total + self.parse_term()
                    count += 1
                self.take()
                if count == 0:
                    raise self._fail("(+ ...) needs at least one term", op)
                return total
            if op.text == "*":
                coef_tok = self.take()
                if not _is_int(coef_tok.text):
                    raise self._fail("(* ...) needs an integer coefficient", coef_tok)
                var_tok = self.take()
                if not _is_var(var_tok.text):
                    raise self._fail(f"invalid variable {var_tok.text!r}", var_tok)
                self.expect(")")
                return LinearTerm.of({var_tok.text: self.integer(coef_tok)})
            raise self._fail(f"unknown term operator {op.text!r}", op)
        if _is_int(tok.text):
            return LinearTerm.num(self.integer(tok))
        if _is_var(tok.text):
            return LinearTerm.var(tok.text)
        raise self._fail(f"expected a term, found {tok.text!r}", tok)

    def parse_formula(self, scope: frozenset[str]) -> Formula:
        tok = self.take()
        if tok.text == "T":
            return TRUE
        if tok.text == "F":
            return FALSE
        if tok.text != "(":
            raise self._fail(f"expected a formula, found {tok.text!r}", tok)
        head = self.take()
        h = head.text
        if h in (LE, LT, EQ):
            left = self.parse_term()
            right = self.parse_term()
            self.expect(")")
            return Atom(h, left, right)
        if h == DIV:
            if not self.allow_div:
                raise self._fail("div atoms are disabled here (pass allow_div=True)",
                                 head)
            mod_tok = self.take()
            modulus = self.integer(mod_tok) if _is_int(mod_tok.text) else 0
            if modulus < 1:
                raise self._fail("div needs a positive integer modulus", mod_tok)
            term = self.parse_term()
            self.expect(")")
            return Atom(DIV, term, ZERO, modulus)
        if h == "not":
            body = self.parse_formula(scope)
            self.expect(")")
            return Not(body)
        if h in ("and", "or"):
            parts = []
            while self.peek().text != ")":
                parts.append(self.parse_formula(scope))
            self.take()
            if not parts:
                raise self._fail(f"({h} ...) needs at least one formula", head)
            return mk_and(parts) if h == "and" else mk_or(parts)
        if h in ("exists", "forall"):
            var_tok = self.take()
            if not _is_var(var_tok.text):
                raise self._fail(f"invalid variable {var_tok.text!r}", var_tok)
            if var_tok.text in scope:
                raise ShadowingError(
                    f"{var_tok.line}:{var_tok.column}: variable "
                    f"{var_tok.text!r} shadows an enclosing binding")
            body = self.parse_formula(scope | {var_tok.text})
            self.expect(")")
            node = Exists if h == "exists" else Forall
            return node(var_tok.text, body)
        raise self._fail(f"unknown formula head {h!r}", head)


def parse(text: str, *, allow_div: bool = False,
          declared_free: Iterable[str] | None = None) -> Formula:
    """Parse one formula.

    Raises FormulaSyntaxError with line:column on malformed input,
    nesting deeper than MAX_NESTING or an integer literal past the int/str
    conversion limit (4,300 digits), ShadowingError on variable shadowing,
    and UnboundVariableError when `declared_free` is given and the
    formula's free variables are not a subset of it.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty input", 1, 1)
    parser = _Parser(tokens, allow_div)
    f = parser.parse_formula(frozenset())
    if parser.pos != len(tokens):
        extra = tokens[parser.pos]
        raise FormulaSyntaxError(f"trailing input {extra.text!r}",
                                 extra.line, extra.column)
    clash = free_vars(f) & bound_vars(f)
    if clash:
        raise ShadowingError(f"names used both free and bound: {sorted(clash)}")
    if declared_free is not None:
        extra_vars = free_vars(f) - set(declared_free)
        if extra_vars:
            raise UnboundVariableError(
                f"undeclared free variables: {sorted(extra_vars)}")
    return f


# ---------------------------------------------------------------------------
# Object/parameter partition


@dataclass(frozen=True)
class PartitionedFormula:
    """A formula whose free variables are split into objects and parameters."""

    formula: Formula
    object_vars: tuple[str, ...]
    param_vars: tuple[str, ...]

    def __post_init__(self):
        objs, params = set(self.object_vars), set(self.param_vars)
        if objs & params:
            raise FormulaError(
                f"object/parameter overlap: {sorted(objs & params)}")
        free = free_vars(self.formula)
        declared = objs | params
        if free != declared:
            missing = sorted(free - declared)
            unused = sorted(declared - free)
            raise FormulaError(
                f"partition mismatch: undeclared free vars {missing}, "
                f"declared but absent {unused}")


OBJECTS_HEADER = "#objects:"
PARAMS_HEADER = "#params:"


def parse_partitioned(text: str, *, allow_div: bool = False) -> PartitionedFormula:
    """Parse a formula file with `#objects:` / `#params:` header lines.

    Lines starting with `#` other than the two headers are comments.
    """
    objects: tuple[str, ...] | None = None
    params: tuple[str, ...] | None = None
    body_lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith(OBJECTS_HEADER):
            objects = tuple(stripped[len(OBJECTS_HEADER):].split())
        elif stripped.startswith(PARAMS_HEADER):
            params = tuple(stripped[len(PARAMS_HEADER):].split())
        # blank out headers and comments, so positions are the file's
        body_lines.append("" if stripped.startswith("#") else raw)
    if objects is None or params is None:
        raise FormulaSyntaxError(
            "missing '#objects:' or '#params:' header", 1, 1)
    for v in objects + params:
        if not _is_var(v):
            raise FormulaSyntaxError(f"invalid header variable {v!r}", 1, 1)
    f = parse("\n".join(body_lines), allow_div=allow_div,
              declared_free=objects + params)
    return PartitionedFormula(f, objects, params)


def print_partitioned(pf: PartitionedFormula) -> str:
    return (f"{OBJECTS_HEADER} {' '.join(pf.object_vars)}\n"
            f"{PARAMS_HEADER} {' '.join(pf.param_vars)}\n"
            f"{to_text(pf.formula)}\n")


# ---------------------------------------------------------------------------
# Shape metrics


@dataclass(frozen=True)
class ShapeReport:
    """Syntactic size measures of a formula.

    total_vars counts distinct variable names, free and bound together.
    num_inequalities counts <=/< as 1 and =/div as 2 apiece.  phi_bits is
    the declared description-length convention: every operator,
    quantifier, and variable occurrence costs 1 symbol; an integer n
    costs bitlen(n) = ceil(log2(|n|+1)) + 1.
    """

    total_vars: int
    num_inequalities: int
    num_quantifier_alternations: int
    phi_bits: int

    def is_short(self, max_vars: int, max_inequalities: int) -> bool:
        return (self.total_vars <= max_vars
                and self.num_inequalities <= max_inequalities)


def _phi(f: Formula) -> int:
    if isinstance(f, Bool):
        return 1
    if isinstance(f, Atom):
        if f.kind == DIV:
            return 1 + bitlen(f.modulus) + f.left.phi_bits()
        return 1 + f.left.phi_bits() + f.right.phi_bits()
    if isinstance(f, Not):
        return 1 + _phi(f.body)
    if isinstance(f, (And, Or)):
        return 1 + sum(_phi(p) for p in f.parts)
    if isinstance(f, (Exists, Forall)):
        return 2 + _phi(f.body)
    raise FormulaError(f"not a formula: {f!r}")


def _alternations(f: Formula, positive: bool, last: str | None) -> int:
    if isinstance(f, (Bool, Atom)):
        return 0
    if isinstance(f, Not):
        return _alternations(f.body, not positive, last)
    if isinstance(f, (And, Or)):
        return max(_alternations(p, positive, last) for p in f.parts)
    if isinstance(f, (Exists, Forall)):
        is_exists = isinstance(f, Exists)
        eff = "E" if is_exists == positive else "A"
        step = 1 if (last is not None and last != eff) else 0
        return step + _alternations(f.body, positive, eff)
    raise FormulaError(f"not a formula: {f!r}")


def shape(f: Formula) -> ShapeReport:
    ineqs = sum(_INEQ_COUNT[a.kind] for a in atoms_of(f))
    return ShapeReport(
        total_vars=len(free_vars(f) | bound_vars(f)),
        num_inequalities=ineqs,
        num_quantifier_alternations=_alternations(f, True, None),
        phi_bits=_phi(f),
    )
