"""Linear-integer-arithmetic formulas: terms, atoms, Boolean/quantifier trees.

The surface syntax is s-expressions over integer linear terms:

    formula := atom | (not f) | (and f+) | (or f+)
             | (exists v f) | (forall v f) | T | F
    atom    := (<= term term) | (< term term) | (= term term)
             | (div posint term)            -- gated by allow_div
    term    := int | var | (+ term+) | (* int var)

All values are immutable after construction and safe to share across
threads.  Equality is structural.  A node keeps its hash, and a compound
node its free and bound variables, once computed.  The parser splits the
text with one regular expression and works out a token's line and column
only when an error names it.  `(div c t)` atoms state that c divides
the value of t; they normally appear only in quantifier-elimination output
and the parser rejects them unless asked not to.

Variable scoping: every occurrence is either bound by exactly one
enclosing quantifier or free.  Rebinding a name that an enclosing
quantifier already binds is an error, as is using the same name both free
and bound; sibling quantifier scopes may reuse a name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import accumulate, islice, repeat
from operator import attrgetter
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


def _largest_abs(coeffs: Iterable[tuple[str, int]], worst: int) -> int:
    """The largest of `worst` and the |c| of the (name, c) pairs.  bitlen
    grows with |n|, so its bitlen is the largest bitlen of them all, found
    at one bitlen, not one per value: QE checks every atom it builds."""
    for _, c in coeffs:
        c = abs(c)
        if c > worst:
            worst = c
    return worst


def _node(cls):
    """A frozen dataclass that keeps its structural hash, the hash of its
    field tuple, once computed: QE hashes the same subtrees many times over.
    Kept facts are set as attributes, never through `__dict__`, which
    would build a dict per node."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(key(self))
            object.__setattr__(self, "_hash", cached)
        return cached
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
        return frozenset(dict(self.coeffs))

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
        # __add__'s merge negating other's terms: self + other.scaled(-1) took 1.5x as long
        a, b = self.coeffs, other.coeffs
        i = j = 0
        out = []
        while i < len(a) and j < len(b):
            (u, c), (v, e) = a[i], b[j]
            if u < v:
                out.append(a[i])
            elif v < u:
                out.append((v, -e))
            elif c != e:
                out.append((u, c - e))
            i += u <= v
            j += v <= u
        return LinearTerm((*out, *a[i:], *((v, -e) for v, e in b[j:])),
                          self.const - other.const)

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
        """The largest bitlen of a coefficient or the constant."""
        return bitlen(_largest_abs(self.coeffs, abs(self.const)))


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
        left, right = self.left, self.right
        return bitlen(_largest_abs(left.coeffs + right.coeffs, max(
            abs(left.const), abs(right.const), self.modulus or 0)))


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
    return _variables(f, False)


def bound_vars(f: Formula) -> frozenset[str]:
    return _variables(f, True)


def _variables(f: Formula, bound: bool) -> frozenset[str]:
    """bound_vars(f) if bound, else free_vars(f).  A compound node keeps
    its set once computed; an atom does not, as a set per atom costs more
    memory than recomputing it saves."""
    if isinstance(f, Atom):
        return frozenset() if bound else frozenset(dict(f.left.coeffs + f.right.coeffs))
    if isinstance(f, Bool):
        return frozenset()
    if not isinstance(f, (Not, And, Or, Exists, Forall)):
        raise FormulaError(f"not a formula: {f!r}")
    key = "_bound" if bound else "_free"
    out = getattr(f, key, None)
    if out is None:
        if isinstance(f, (And, Or)):
            sets = list(map(_variables, f.parts, repeat(bound)))
            out = frozenset().union(*sets)  # kept as a part's own set if equal
            out = next((s for s in sets if len(s) == len(out)), out)
        else:
            out = _variables(f.body, bound)
            if not isinstance(f, Not):
                out = out | {f.var} if bound else out - {f.var}
        object.__setattr__(f, key, out)
    return out


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


_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")
_PAREN = re.compile(r"[()]")
_VAR = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DEPTH_STEP = {"(": 1, ")": -1}


def _place(pattern: re.Pattern, text: str, index: int, end: bool = False
           ) -> tuple[int, int]:
    """(line, column) of the start, or the end, of match `index` of
    `pattern` in `text`: tokens keep no positions, so an error works its
    own out.  Every character but a newline is one column."""
    match = next(islice(pattern.finditer(text), index, None))
    offset = match.end() if end else match.start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_int(s: str) -> bool:
    if s in ("-", ""):
        return False
    if s[0] == "-":
        s = s[1:]
    return s.isdigit()


def _is_var(s: str) -> bool:
    return s not in RESERVED_WORDS and _VAR.fullmatch(s) is not None


class _Parser:
    """Recursive descent over the tokens of `text`; a token's line and
    column are worked out from the text only when an error names it."""

    def __init__(self, text: str, allow_div: bool):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.allow_div = allow_div

    def _fail(self, msg: str, index: int) -> FormulaSyntaxError:
        return FormulaSyntaxError(msg, *_place(_TOKEN, self.text, index))

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", *_place(
                _TOKEN, self.text, len(self.tokens) - 1, end=True))
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def integer(self, tok: str, index: int) -> int:
        try:
            return int(tok)
        except ValueError:  # past the int/str conversion limit, 4,300 digits
            raise self._fail(f"integer literal too long: "
                             f"{len(tok.lstrip('-'))} digits", index) from None

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok != text:
            raise self._fail(f"expected {text!r}, found {tok!r}", self.pos - 1)

    def parse_term(self) -> LinearTerm:
        tok = self.take()
        if tok == "(":
            op = self.take()
            at = self.pos - 1
            if op == "+":
                if self.peek() == ")":
                    raise self._fail("(+ ...) needs at least one term", at)
                total = ZERO
                while self.peek() != ")":
                    total = total + self.parse_term()
                self.pos += 1
                return total
            if op == "*":
                coef = self.take()
                if not _is_int(coef):
                    raise self._fail("(* ...) needs an integer coefficient", at + 1)
                var = self.take()
                if not _is_var(var):
                    raise self._fail(f"invalid variable {var!r}", at + 2)
                self.expect(")")
                n = self.integer(coef, at + 1)
                return LinearTerm(((var, n),)) if n else ZERO
            raise self._fail(f"unknown term operator {op!r}", at)
        if _is_int(tok):
            return LinearTerm.num(self.integer(tok, self.pos - 1))
        if _is_var(tok):
            return LinearTerm(((tok, 1),))
        raise self._fail(f"expected a term, found {tok!r}", self.pos - 1)

    def parse_formula(self, scope: frozenset[str]) -> Formula:
        tok = self.take()
        if tok == "T":
            return TRUE
        if tok == "F":
            return FALSE
        if tok != "(":
            raise self._fail(f"expected a formula, found {tok!r}", self.pos - 1)
        h = self.take()
        head = self.pos - 1
        if h in (LE, LT, EQ):
            left = self.parse_term()
            right = self.parse_term()
            self.expect(")")
            return Atom(h, left, right)
        if h == DIV:
            if not self.allow_div:
                raise self._fail("div atoms are disabled here (pass allow_div=True)",
                                 head)
            mod = self.take()
            modulus = self.integer(mod, head + 1) if _is_int(mod) else 0
            if modulus < 1:
                raise self._fail("div needs a positive integer modulus", head + 1)
            term = self.parse_term()
            self.expect(")")
            return Atom(DIV, term, ZERO, modulus)
        if h == "not":
            body = self.parse_formula(scope)
            self.expect(")")
            return Not(body)
        if h in ("and", "or"):
            if self.peek() == ")":
                raise self._fail(f"({h} ...) needs at least one formula", head)
            parts = []
            while self.peek() != ")":
                parts.append(self.parse_formula(scope))
            self.pos += 1
            return mk_and(parts) if h == "and" else mk_or(parts)
        if h in ("exists", "forall"):
            var = self.take()
            if not _is_var(var):
                raise self._fail(f"invalid variable {var!r}", head + 1)
            if var in scope:
                line, column = _place(_TOKEN, self.text, head + 1)
                raise ShadowingError(f"{line}:{column}: variable "
                                     f"{var!r} shadows an enclosing binding")
            body = self.parse_formula(scope | {var})
            self.expect(")")
            node = Exists if h == "exists" else Forall
            return node(var, body)
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
    if text.count("(") > MAX_NESTING:  # this error comes before any other
        depths = list(accumulate(map(_DEPTH_STEP.__getitem__, _PAREN.findall(text))))
        if max(depths) > MAX_NESTING:  # in steps of one, so through MAX + 1
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING}", *_place(
                _PAREN, text, depths.index(MAX_NESTING + 1)))
    parser = _Parser(text, allow_div)
    if not parser.tokens:
        raise FormulaSyntaxError("empty input", 1, 1)
    f = parser.parse_formula(frozenset())
    if parser.pos != len(parser.tokens):
        raise parser._fail(f"trailing input {parser.tokens[parser.pos]!r}",
                           parser.pos)
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
