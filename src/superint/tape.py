"""H's partials derived from h by a recording forward-mode dual.

Every Hamiltonian is h(J-, J+, J3), and its phase-space gradient needs the
three partials of h at one point.  `derive` runs h once on three duals that
stand for J-, J+ and J3 (forward mode; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3).  Each operation on a dual, + - * / and ** by
a constant, records one line of straight-line Python for its value and one
for each of its partials that is not a structural zero (J3 does not depend
on J-, so no line multiplies by dJ3/dJ-).  A partial that is 1 names its
factor instead of multiplying by it.  Constants are recorded as bound names
c0, c1, ... in order of appearance, never as literals, so every spec of one
family, space and profile shape records the same text and shares the code
compiled from it.  Only the lines that the three partials and the domain
tests need are kept, and they end by naming the partials hm, hp and h3.

h must be pure arithmetic on its arguments.  A dual refuses float(), bool(),
comparisons and numpy functions with a TypeError, so an h that calls
math.exp or branches on its argument is rejected when it is taped rather
than differentiated wrongly.  Where h has a domain, it passes the quantity
that bounds it through a `Domain`, which checks numbers and arrays at once
and, on a dual, records the same test as a line, in h's own order: the
partials then raise the same DomainError as the value, before any division
that the test guards.  A power by a non-integer constant records such a test
on its base itself (the base must be positive), unless a domain test already
keeps that base above a floor of at least 0: Python's ** would otherwise turn
a negative base complex.

A partial that comes out infinite or NaN from J's that are not NaN has
overflowed (finite numbers give a NaN only through an infinity), in the
sums that made the J's or on the way from them, and the recorded lines
raise OverflowError for it, as Python's own ** does; a NaN J passes
through.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .errors import DomainError

# The partial of a quantity by itself: multiplying by it names the factor.
_ONE = object()
_ZERO = (None, None, None)  # the partials of a constant


class Domain:
    """Where h is defined: a quantity x of its evaluation must stay above
    `floor` (x > floor), or, if `absolute`, away from zero (|x| >= floor).

    Calling the domain on x returns x after checking it.  A number or an
    array is checked at once, every entry by its real part (a complex-step
    probe is checked at its real point); DomainError carries `message`,
    formatted with the lowest offending value as {low}.  On a dual the test
    is recorded for the partials, which raise the same error.  (A plain
    class, as `Derivative` and every `records.Record` are: making a
    dataclass costs about 1 ms of every import, which each cold CLI run
    pays.)
    """

    __slots__ = ("message", "floor", "absolute")

    def __init__(self, message: str, floor: float = 0.0, absolute: bool = False):
        self.message, self.floor, self.absolute = message, floor, absolute

    def __call__(self, x):
        if isinstance(x, Dual):
            x.tape.check(self, x)
            return x
        real = np.real(x)
        bad = np.abs(real) < self.floor if self.absolute else real <= self.floor
        if np.any(bad):
            self.fail(np.min(real, where=bad, initial=np.inf))
        return x

    def fail(self, low):
        raise DomainError(self.message.format(low=low))


class Derivative:
    """The recorded partials of h: `lines` compute hm, hp, h3 from jm, jp,
    j3 and the constants `names`, bound to `values`.  The lines are the key
    of the compiled code; the names follow from them."""

    __slots__ = ("lines", "names", "values")

    def __init__(self, lines: tuple[str, ...], names: tuple[str, ...], values: tuple):
        self.lines, self.names, self.values = lines, names, values


class Dual:
    """A number that h runs on while it is taped: a named value on the tape
    and its three partials by (J-, J+, J3), each a name, 1 or a structural
    zero (None)."""

    __slots__ = ("tape", "name", "d")
    # numpy defers its binary operators to the dual and refuses its functions
    __array_ufunc__ = None

    def __init__(self, tape: "_Tape", name: str, d: tuple):
        self.tape, self.name, self.d = tape, name, d

    def __add__(self, other):
        return self.tape.binary(self, "+", other)

    def __radd__(self, other):
        return self.tape.binary(other, "+", self)

    def __sub__(self, other):
        return self.tape.binary(self, "-", other)

    def __rsub__(self, other):
        return self.tape.binary(other, "-", self)

    def __mul__(self, other):
        return self.tape.binary(self, "*", other)

    def __rmul__(self, other):
        return self.tape.binary(other, "*", self)

    def __truediv__(self, other):
        return self.tape.binary(self, "/", other)

    def __rtruediv__(self, other):
        return self.tape.binary(other, "/", self)

    def __pow__(self, other):
        return self.tape.power(self, other)

    def __neg__(self):
        return self.tape.negative(self)

    def __pos__(self):
        return self

    def _refuse(self, *args):
        raise TypeError("only + - * / and ** by a constant can be taped, with no "
                        "branch on the argument and no math or numpy function of it")

    __float__ = __int__ = __index__ = __complex__ = __bool__ = __abs__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __rpow__ = _refuse


class _Tape:
    """The lines and constants recorded while h runs on duals."""

    def __init__(self):
        # (target, expression, the names it reads); a domain test has no target
        self.lines: list[tuple] = []
        self.constants: list = []
        self.positive: set[str] = set()  # names a domain test keeps above a floor >= 0

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def emit(self, expr: str, *reads) -> str:
        """The target of a new line computing expr from the names reads."""
        name = f"t{len(self.lines)}"
        self.lines.append((name, expr, reads))
        return name

    def operand(self, x):
        """(name, partials) of a dual or a real constant; None otherwise."""
        if isinstance(x, Dual):
            return x.name, x.d
        if isinstance(x, (float, int)) or isinstance(x, Real):
            return self.constant(float(x)), _ZERO
        return None

    def term(self, d) -> str:
        """A nonzero partial as an operand: 1 becomes a constant."""
        return self.constant(1.0) if d is _ONE else d

    def negate(self, d) -> str:
        """-d for a nonzero partial d: a constant is negated here."""
        d = self.term(d)
        if d[0] == "c":
            return self.constant(-self.constants[int(d[1:])])
        return self.emit(f"-{d}", d)

    def check(self, domain: Domain, x: Dual) -> None:
        if not domain.absolute and domain.floor >= 0.0:
            self.positive.add(x.name)
        floor, dom = self.constant(float(domain.floor)), self.constant(domain)
        test = f"abs({x.name}) < {floor}" if domain.absolute else f"{x.name} <= {floor}"
        self.lines.append((None, f"if {test}: {dom}.fail({x.name})", (x.name, floor, dom)))

    def binary(self, x, op: str, y):
        """x op y for op in + - * /, x or y a dual: the value's line, then
        each partial's by `_RULES`, none where both operands' are zero."""
        a, b = self.operand(x), self.operand(y)
        if a is None or b is None:
            return NotImplemented
        (a, da), (b, db) = a, b
        value, rule = self.emit(f"{a} {op} {b}", a, b), _RULES[op]
        return Dual(self, value, tuple(None if p is None and q is None
                                       else rule(self, a, b, value, p, q)
                                       for p, q in zip(da, db)))

    def plus(self, a, b, v, p, q) -> str:
        # d(a + b) = da + db
        if p is None or q is None:
            return q if p is None else p
        p, q = self.term(p), self.term(q)
        return self.emit(f"{p} + {q}", p, q)

    def minus(self, a, b, v, p, q) -> str:
        # d(a - b) = da - db
        if q is None:
            return p
        if p is None:
            return self.negate(q)
        p, q = self.term(p), self.term(q)
        return self.emit(f"{p} - {q}", p, q)

    def times(self, a, b, v, p, q) -> str:
        # d(a b) = da b + a db; a factor 1 names the other factor
        left = None if p is None else b if p is _ONE else f"{p} * {b}"
        right = None if q is None else a if q is _ONE else f"{a} * {q}"
        if right is None:
            return left if left.isidentifier() else self.emit(left, p, b)
        if left is None:
            return right if right.isidentifier() else self.emit(right, a, q)
        return self.emit(f"{left} + {right}", p, b, a, q)

    def over(self, a, b, v, p, q) -> str:
        # d(a / b) = (da - (a / b) db) / b
        if q is None:
            p = self.term(p)
            return self.emit(f"{p} / {b}", p, b)
        right = v if q is _ONE else f"{v} * {q}"
        if p is None:
            return self.emit(f"-({right}) / {b}", v, q, b)
        p = self.term(p)
        return self.emit(f"({p} - {right}) / {b}", p, v, q, b)

    def power(self, x: Dual, c):
        # d(a ** c) = (c a ** (c - 1)) da; a non-integer power of a base that
        # is not positive would be complex (or a ZeroDivisionError) in Python
        if not isinstance(c, Real):
            return x._refuse()
        if not float(c).is_integer() and x.name not in self.positive:
            self.check(Domain(f"the base of ** {float(c)!r} must be positive, got {{low}}"), x)
        a, exponent, less = x.name, self.constant(float(c)), self.constant(float(c) - 1.0)
        value = self.emit(f"{a} ** {exponent}", a, exponent)
        slope = self.emit(f"{exponent} * {a} ** {less}", exponent, a, less)
        return Dual(self, value, tuple(None if p is None else slope if p is _ONE
                                       else self.emit(f"{slope} * {p}", slope, p)
                                       for p in x.d))

    def negative(self, x: Dual):
        return Dual(self, self.emit(f"-{x.name}", x.name),
                    tuple(None if p is None else self.negate(p) for p in x.d))


_RULES = {"+": _Tape.plus, "-": _Tape.minus, "*": _Tape.times, "/": _Tape.over}


def derive(h) -> Derivative:
    """Tape h(J-, J+, J3) once and keep the lines its partials need.

    Raises TypeError if h is not pure arithmetic on its arguments, and
    DomainError if a domain test fails on constants alone."""
    tape = _Tape()
    out = h(Dual(tape, "jm", (_ONE, None, None)), Dual(tape, "jp", (None, _ONE, None)),
            Dual(tape, "j3", (None, None, _ONE)))
    if isinstance(out, Dual):
        partials = out.d
    elif isinstance(out, Real):
        partials = _ZERO
    else:
        raise TypeError(f"h must return a real number, got {type(out).__name__}")
    names = [tape.constant(0.0) if p is None else tape.term(p) for p in partials]
    ends = [f"{end} = {name}" for end, name in zip(("hm", "hp", "h3"), names)]
    computed = [end for end, name in zip(("hm", "hp", "h3"), names) if name.startswith("t")]
    if computed:
        ends.append(f"if {' or '.join(f'{x} - {x}' for x in computed)}: "
                    "overflowed(jm, jp, j3)")
    needed, kept = set(names), []
    for target, expr, reads in reversed(tape.lines):
        if target is None or target in needed:
            kept.append(expr if target is None else f"{target} = {expr}")
            needed.update(reads)
    constants = [f"c{i}" for i in range(len(tape.constants))]
    used = [i for i, name in enumerate(constants) if name in needed]
    return Derivative((*reversed(kept), *ends), tuple(constants[i] for i in used),
                      tuple(tape.constants[i] for i in used))


def overflowed(jm: float, jp: float, j3: float) -> None:
    """Raise OverflowError unless a J is NaN: partials that came out
    infinite or NaN from J's that are not NaN overflowed, in the sums that
    made the J's or on the way from them.  A NaN passes through."""
    if jm == jm and jp == jp and j3 == j3:
        raise OverflowError("the partials of h overflowed")
