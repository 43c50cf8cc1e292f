"""Reference answers that do not use the code under test.

Everything here is written from the definitions in the README and the
module docstrings, not from pavc's implementation:

* the code set and the descending lexicographic subsets;
* a small s-expression reader for formula files and a compiler that
  turns a formula (file text or pavc AST) into a Python function, with
  quantifiers ranging over a finite box;
* brute-force trace counting for the shatter function and VC-dimension;
* closed forms for threshold and interval families;
* the counting bound 2^n <= (n+1)^ell.

pavc objects are only read through their data fields (the AST), never
evaluated through pavc functions.
"""

from __future__ import annotations

from itertools import combinations

# ---------------------------------------------------------------------------
# The code set of the high-VC construction


def lex_subset(d: int, j: int) -> frozenset[int]:
    """The j-th subset of {1..d} in descending lexicographic order:
    j = 0 is {1..d}, j = 2^d - 1 is the empty set."""
    code = (1 << d) - 1 - j
    return frozenset(i for i in range(1, d + 1) if code >> (i - 1) & 1)


def code_set(d: int) -> frozenset[int]:
    """{i + d*j : 0 <= j < 2^d, i in lex_subset(d, j)}."""
    return frozenset(i + d * j for j in range(1 << d) for i in lex_subset(d, j))


def power_set_pi(d: int) -> list[list[int]]:
    """pi(k) = 2^k for the family of all subsets of a d-point ground."""
    return [[k, 1 << k] for k in range(d + 1)]


def spread_contains(d: int, tp: int, r: int) -> bool:
    """tp lies in spread progression r: start r, step d*2^r, 2^(d-1) terms."""
    step = d << r
    return tp >= r and (tp - r) % step == 0 and (tp - r) // step < 1 << (d - 1)


def witness_solves(d: int, t: int, w: list[int]) -> bool:
    """The collapse system: tp in the spread set, 1 <= r <= d,
    0 <= rp < 2^d, tp = r + d*(2^d*s + rp) and t = r + d*(s + rp)."""
    tp, r, rp, s = w
    return (1 <= r <= d and 0 <= rp < 1 << d
            and tp == r + d * ((1 << d) * s + rp)
            and t == r + d * (s + rp)
            and spread_contains(d, tp, r))


# ---------------------------------------------------------------------------
# Formulas: reader and compiler


def read_sexpr(text: str):
    """Parse one formula file: returns (objects, params, body) where the
    body is a nested list of string tokens."""
    objects = params = None
    body = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("#objects:"):
            objects = s[len("#objects:"):].split()
        elif s.startswith("#params:"):
            params = s[len("#params:"):].split()
        elif not s.startswith("#"):
            body.append(line)
    tokens = " ".join(body).replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def item():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(item())
        pos += 1
        return out

    tree = item()
    if pos != len(tokens):
        raise ValueError("trailing tokens after the formula")
    return objects, params, tree


def _py_name(var: str) -> str:
    return "v_" + var


def _term_code(t) -> str:
    if isinstance(t, str):
        return t if t.lstrip("-").isdigit() else _py_name(t)
    op = t[0]
    if op == "*":
        return f"({int(t[1])}*{_py_name(t[2])})"
    if op == "+":
        return "(" + "+".join(_term_code(u) for u in t[1:]) + ")"
    raise ValueError(f"unknown term operator {op!r}")


_REL = {"<=": "<=", "<": "<", "=": "=="}


def _formula_code(f) -> str:
    if f == "T":
        return "True"
    if f == "F":
        return "False"
    head = f[0]
    if head in _REL:
        return f"({_term_code(f[1])}{_REL[head]}{_term_code(f[2])})"
    if head == "div":
        return f"({_term_code(f[2])}%{int(f[1])}==0)"
    if head == "not":
        return f"(not {_formula_code(f[1])})"
    if head in ("and", "or"):
        return "(" + f" {head} ".join(_formula_code(p) for p in f[1:]) + ")"
    if head in ("exists", "forall"):
        q = "any" if head == "exists" else "all"
        return (f"{q}({_formula_code(f[2])} "
                f"for {_py_name(f[1])} in BOX)")
    raise ValueError(f"unknown formula head {head!r}")


def compile_sexpr(tree, free: list[str], box: tuple[int, int] | None = None):
    """A Python function of the free variables (in the given order).
    Quantifiers range over the inclusive box."""
    args = ", ".join(_py_name(v) for v in free)
    scope = {"BOX": range(box[0], box[1] + 1) if box else None}
    return eval(f"lambda {args}: {_formula_code(tree)}", scope)


def ast_to_sexpr(f):
    """Nested-list form of a pavc formula, read from its data fields."""
    name = type(f).__name__
    if name == "Bool":
        return "T" if f.value else "F"
    if name == "Atom":
        if f.kind == "div":
            return ["div", str(f.modulus), _term_sexpr(f.left)]
        return [f.kind, _term_sexpr(f.left), _term_sexpr(f.right)]
    if name == "Not":
        return ["not", ast_to_sexpr(f.body)]
    if name in ("And", "Or"):
        return [name.lower()] + [ast_to_sexpr(p) for p in f.parts]
    if name in ("Exists", "Forall"):
        return [name.lower(), f.var, ast_to_sexpr(f.body)]
    raise ValueError(f"unknown node {name}")


def _term_sexpr(t):
    parts = [["*", str(c), v] for v, c in t.coeffs]
    return ["+"] + parts + [str(t.const)]


def count_atoms(tree) -> int:
    if isinstance(tree, str):
        return 0
    if tree[0] in _REL or tree[0] == "div":
        return 1
    return sum(count_atoms(p) for p in tree[1:] if isinstance(p, list))


def has_quantifier(tree) -> bool:
    if isinstance(tree, str):
        return False
    if tree[0] in ("exists", "forall"):
        return True
    return any(has_quantifier(p) for p in tree[1:])


# ---------------------------------------------------------------------------
# Families and their traces


def family_masks(fn, ground: range, param_points) -> list[int]:
    """Member bitmasks (bit i = ground[i]) for each parameter point."""
    out = []
    for ps in param_points:
        mask = 0
        for i, x in enumerate(ground):
            if fn(x, *ps):
                mask |= 1 << i
        out.append(mask)
    return out


def pi_table(masks: list[int], n: int) -> list[list[int]]:
    """[[k, pi(k)] for k = 0..n]: the most distinct traces any k of the n
    ground points carry.  Once some k-set carries every distinct member,
    every larger set does too, so the scan stops there."""
    distinct = set(masks)
    table = []
    saturated = False
    for k in range(n + 1):
        if saturated or not distinct:
            table.append([k, len(distinct)])
            continue
        limit = min(1 << k, len(distinct))
        best = 0
        for combo in combinations(range(n), k):
            sub = 0
            for i in combo:
                sub |= 1 << i
            best = max(best, len({m & sub for m in distinct}))
            if best == limit:
                break
        saturated = best == len(distinct)
        table.append([k, best])
    return table


def vc_from_pi(table: list[list[int]]) -> int:
    return max(k for k, p in table if p == 1 << k)


def threshold_pi(n: int) -> list[list[int]]:
    """{x <= y} on ground 0..n-1 with y in 0..n-1: every member holds 0,
    so a k-set avoiding 0 carries its k+1 prefixes; the whole ground
    carries n."""
    return [[k, k + 1 if k < n else n] for k in range(n + 1)]


def interval_pi(n: int) -> list[list[int]]:
    """{a <= x <= b} with a, b over the ground 0..n-1: on k points the
    traces are the k(k+1)/2 contiguous runs plus the empty set."""
    return [[k, k * (k + 1) // 2 + 1] for k in range(n + 1)]


# ---------------------------------------------------------------------------
# The counting bound


def capacity_bound(ell: int) -> int:
    """Largest n with 2^n <= (n+1)^ell.  The inequality holds for every
    n up to the answer and fails beyond it, so an exact bisection over
    [ell, ell^2 + 2] finds it (2^ell <= (ell+1)^ell always holds)."""
    if ell == 0:
        return 0
    lo, hi = ell, ell * ell + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 2 ** mid <= (mid + 1) ** ell:
            lo = mid
        else:
            hi = mid
    return lo
