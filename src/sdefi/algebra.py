"""Exact sparse Laurent polynomials over the complex rationals.

A polynomial in ``n`` variables is a mapping from exponent vectors to
coefficients.  An exponent vector is a tuple of ``n`` ints and may contain
negative entries (Laurent terms such as ``x1^-2``); a coefficient is a
complex number with exact rational real and imaginary parts.

Storage is content and primitive part (Knuth, TAOCP vol. 2, §4.6.1): a
:class:`LaurentPoly` holds a dict from exponent vector to a pair ``(re, im)``
of Python ints and one common denominator ``_den``, so the coefficient of
``x^e`` is ``(re + im i) / _den``.  Invariant: ``_den > 0``; no pair is
``(0, 0)``; gcd(``_den``, every ``re`` and ``im``) = 1; the zero polynomial
has no terms and ``_den == 1``.  The form is canonical, so equality is
structural.  Sums, products, scalings and derivatives are integer
arithmetic with one gcd pass per result, and so is a whole sum of products
(``dot``, ``mat_vec_apply``, the Ito operators): every product accumulates
over one denominator first.  ``terms()``, ``coeff()`` and the other
accessors return :class:`CRational` views.

A :class:`CRational` is stored the same way: integer numerators ``_re`` and
``_im`` over one denominator ``_den > 0`` with gcd(``_re``, ``_im``,
``_den``) = 1, zero being ``(0, 0, 1)``.  Its arithmetic is integer
arithmetic with one gcd pass per result; its ``re`` and ``im`` properties
return ``fractions.Fraction``.

Values are immutable after construction and safe to share.  Term order
everywhere is graded lexicographic: sort key ``(total_degree, exponents)``,
ascending for storage and bases, descending for display.

Floats are deliberately rejected as coefficients — everything in this
module is exact.  Floating point appears only in :meth:`LaurentPoly.evaluate`.
:func:`lattice_blocks` enumerates integer windows (resonance scans, monomial
bases) as int64 numpy blocks of bounded size.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm


class DimensionMismatch(ValueError):
    """Operands live in different variable spaces."""


class PoleError(ArithmeticError):
    """Evaluation hit a zero coordinate raised to a negative power."""


RationalLike = int | str | Fraction

_new = object.__new__
_set = object.__setattr__


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, float):
        raise TypeError("exact arithmetic only: pass int, str or Fraction, not float")
    return Fraction(x)


def _ints(re: int, im: int, den: int) -> "CRational":
    """Unchecked constructor for ``(re + im i) / den`` with ``den`` > 0: one gcd
    pass brings it to lowest terms (skipped when ``den`` is 1)."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re //= g
            im //= g
            den //= g
    z = _new(CRational)
    _set_re(z, re)
    _set_im(z, im)
    _set_den(z, den)
    return z


class CRational:
    """Complex number with exact rational real and imaginary parts.

    Stored as ``(_re + _im i) / _den`` with Python ints: ``_den > 0``,
    gcd(``_re``, ``_im``, ``_den``) = 1, and zero is ``(0, 0, 1)``.  The form
    is canonical, so equality compares the three ints.
    """

    __slots__ = ("_re", "_im", "_den")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            return _ints(re, im, 1)
        re, im = _as_fraction(re), _as_fraction(im)
        p, q = re.denominator, im.denominator
        return _ints(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError("CRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not through __setattr__
        return CRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- classification ------------------------------------------------
    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_real(self) -> bool:
        return not self._im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(x) -> "CRational":
        if isinstance(x, CRational):
            return x
        if isinstance(x, int):
            return _ints(int(x), 0, 1)  # int() stores a bool as 0 or 1
        if isinstance(x, Fraction):
            return _ints(x.numerator, 0, x.denominator)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _ints(self._re + o._re, self._im + o._im, d1)
        # rescale both to lcm(d1, d2) = d1 * f1 = d2 * f2
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return _ints(self._re * f1 + o._re * f2, self._im * f1 + o._im * f2, d1 * f1)

    __radd__ = __add__

    def __neg__(self):
        return _ints(-self._re, -self._im, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _ints(self._re - o._re, self._im - o._im, d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return _ints(self._re * f1 - o._re * f2, self._im * f1 - o._im * f2, d1 * f1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self._re, self._im, o._re, o._im
        return _ints(a * c - b * d, a * d + b * c, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self._re, self._im, o._re, o._im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero CRational")
        # (a + bi)/D1 / ((c + di)/D2) = (a + bi)(c - di) D2 / (D1 (c^2 + d^2))
        d2 = o._den
        return _ints((a * c + b * d) * d2, (b * c - a * d) * d2, self._den * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        base = self
        if k < 0:
            base, k = _ints(1, 0, 1) / self, -k
        out = _ints(1, 0, 1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "CRational":
        return _ints(self._re, -self._im, self._den)

    # -- conversions / comparisons --------------------------------------
    def __complex__(self) -> complex:
        # int / int rounds the exact quotient once, as float(Fraction) does
        return complex(self._re / self._den, self._im / self._den)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._re == o._re and self._im == o._im and self._den == o._den

    def __hash__(self) -> int:
        # a real value hashes as its Fraction, so it agrees with int and Fraction
        return hash(self.re) if not self._im else hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"CRational({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self) -> str:
        if not self._im:
            return str(self.re)
        if not self._re:
            return f"{self.im}i"
        sign = "+" if self._im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


# the slot setters write past CRational.__setattr__, which refuses every write
_set_re, _set_im, _set_den = (CRational.__dict__[name].__set__ for name in CRational.__slots__)

CoeffLike = int | Fraction | CRational


def _as_crational(c: CoeffLike) -> CRational:
    if isinstance(c, CRational):
        return c
    return CRational(c)


ExpVec = tuple  # tuple[int, ...]; negative entries allowed


def grlex_key(e: Sequence[int]) -> tuple:
    """Graded-lex sort key: total degree first, then the exponent tuple."""
    return (sum(e), tuple(e))


_BLOCK = 1 << 13  # lattice points per block of lattice_blocks


def lattice_blocks(n: int, pos: int, neg: int, l1: int) -> Iterator:
    """Every k in Z^n with sum max(k_i, 0) <= pos, sum max(-k_i, 0) <= neg and
    |k|_1 <= l1 (bounds nonnegative), in ascending lexicographic order, as int64
    arrays of shape (b, n) with 0 < b <= _BLOCK (n == 0: the one empty vector).

    The window is built one coordinate at a time: every prefix row expands to
    its admissible next entries in ascending order, which keeps lexicographic
    order.  A level expands a slice of rows at a time, at most _BLOCK new rows
    per slice, and each slice is finished depth first before the next, so at
    most n slices are alive: memory is O(n^2 _BLOCK) for any n and window.
    """
    import numpy as np

    yield from _expand(np.zeros((1, 0), np.int64), np.array([pos]), np.array([neg]),
                       np.array([l1]), n)


def _expand(rows, pos, neg, l1, n):
    import numpy as np

    i = rows.shape[1]
    if i == n:
        yield rows
        return
    lo = -np.minimum(neg, l1)
    count = np.minimum(pos, l1) - lo + 1
    end = np.cumsum(count)
    a = 0
    while a < len(rows):
        start = end[a] - count[a]
        b = max(a + 1, int(np.searchsorted(end, start + _BLOCK, "right")))
        c = count[a:b]
        parent = np.repeat(np.arange(a, b), c)
        t = lo[parent] + (np.arange(end[b - 1] - start) - np.repeat(end[a:b] - c - start, c))
        child = np.concatenate((rows[parent], t[:, None]), axis=1)
        if i + 1 == n:
            yield child
        else:
            yield from _expand(child, pos[parent] - np.maximum(t, 0),
                               neg[parent] - np.maximum(-t, 0), l1[parent] - np.abs(t), n)
        a = b


def _reduced(dim: int, num: dict, den: int) -> "LaurentPoly":
    """Unchecked constructor for int pairs over ``den`` > 0 that may hold
    zero pairs: drops them, then ``_lowest``."""
    return _lowest(dim, {e: v for e, v in num.items() if v != (0, 0)}, den)


def _lowest(dim: int, num: dict, den: int) -> "LaurentPoly":
    """Unchecked constructor for nonzero int pairs over ``den`` > 0: one gcd
    pass brings them to lowest terms (no terms: ``den`` 1)."""
    if den != 1:
        g = den
        for a, b in num.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            num = {e: (a // g, b // g) for e, (a, b) in num.items()}
            den //= g
    return _poly(dim, num, den)


def _poly(dim: int, num: dict, den: int) -> "LaurentPoly":
    """Unchecked constructor for nonzero int pairs over ``den`` > 0 in lowest terms."""
    p = _new(LaurentPoly)
    _set(p, "dim", dim)
    _set(p, "_num", num)
    _set(p, "_den", den)
    return p


_ADDERS: dict[int, Callable[[tuple, tuple], tuple]] = {}  # dim -> its exponent adder


def _exponent_adder(dim: int) -> Callable[[tuple, tuple], tuple]:
    """The sum of two exponent vectors of length ``dim``, as one function written
    out for ``dim``: ``(a[0] + b[0], ..., a[dim - 1] + b[dim - 1])``, one tuple
    display, which takes about a third of the time of
    ``tuple(map(operator.add, a, b))`` in dims 2 to 6 (timeit, Python 3.11).
    Each adder is compiled once and kept; its source holds only integer
    indices."""
    add = _ADDERS.get(dim)
    if add is None:
        namespace: dict = {}
        src = f"def add(a, b):\n    return ({''.join(f'a[{j}] + b[{j}], ' for j in range(dim))})\n"
        exec(compile(src, "<sdefi.algebra generated>", "exec"), namespace)
        add = _ADDERS[dim] = namespace["add"]
    return add


def _sum_of_products(dim: int, pairs: Sequence[tuple]) -> "LaurentPoly":
    """The sum of a * b over the (a, b) pairs of polynomials of dimension ``dim``:
    every product accumulates into one dict of int pairs over lcm(a._den * b._den),
    and one ``_reduced`` ends the sum (no pairs: zero)."""
    den = 1
    for p, q in pairs:
        if not p.dim == q.dim == dim:
            raise DimensionMismatch(f"dim {p.dim} vs {q.dim}" if p.dim != q.dim
                                    else f"dim {p.dim} vs {dim}")
        den = lcm(den, p._den * q._den)
    add = _exponent_adder(dim)
    out: dict[tuple, tuple[int, int]] = {}
    get = out.get
    for p, q in pairs:
        lhs = p._num.items()
        f = den // (p._den * q._den)
        if f != 1:
            lhs = [(e, (a * f, b * f)) for e, (a, b) in lhs]
        rhs = list(q._num.items())
        for e1, (a, b) in lhs:
            for e2, (c, d) in rhs:
                e = add(e1, e2)
                re, im = get(e, (0, 0))
                out[e] = (re + a * c - b * d, im + a * d + b * c)
    return _reduced(dim, out, den)


class LaurentPoly:
    """Sparse Laurent polynomial; immutable after construction."""

    __slots__ = ("dim", "_num", "_den")

    def __init__(self, dim: int,
                 terms: Mapping[ExpVec, CoeffLike] | Iterable[tuple[ExpVec, CoeffLike]] = ()):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple, CRational] = {}
        for e, c in items:
            e = tuple(e)
            if len(e) != dim or not all(isinstance(k, int) for k in e):
                raise DimensionMismatch(f"exponent vector {e} does not fit dim {dim}")
            c = _as_crational(c)
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*(c._den for c in acc.values()))
        _set(self, "dim", dim)
        _set(self, "_num", {e: (c._re * (den // c._den), c._im * (den // c._den))
                            for e, c in acc.items() if c})
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.dim, self.terms())

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "LaurentPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, c: CoeffLike) -> "LaurentPoly":
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "LaurentPoly":
        if not 0 <= axis < dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {dim}")
        e = [0] * dim
        e[axis] = 1
        return cls(dim, {tuple(e): 1})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coeff: CoeffLike = 1) -> "LaurentPoly":
        return cls(dim, {tuple(exps): coeff})

    # -- inspection -------------------------------------------------------
    def _view(self, re: int, im: int) -> CRational:
        return _ints(re, im, self._den)

    def terms(self) -> list[tuple[tuple, CRational]]:
        """Terms sorted ascending graded-lex."""
        return [(e, self._view(*self._num[e])) for e in sorted(self._num, key=grlex_key)]

    def coeff(self, exps: Sequence[int]) -> CRational:
        return self._view(*self._num.get(tuple(exps), (0, 0)))

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def constant_term(self) -> CRational:
        return self._view(*self._num.get((0,) * self.dim, (0, 0)))

    def has_negative_exponents(self) -> bool:
        return any(min(e) < 0 for e in self._num)

    def min_total_degree(self) -> int | None:
        return min((sum(e) for e in self._num), default=None)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self) -> Iterator[tuple[tuple, CRational]]:
        return iter(self.terms())

    # -- ring operations ----------------------------------------------------
    def _check_dim(self, other: "LaurentPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            other = LaurentPoly.const(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_dim(other)
        # rescale both to lcm(den_a, den_b) = den_a * fa = den_b * fb
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        out = {e: (a * fa, b * fa) for e, (a, b) in self._num.items()}
        for e, (c, d) in other._num.items():
            a, b = out.get(e, (0, 0))
            out[e] = (a + c * fb, b + d * fb)
        return _reduced(self.dim, out, self._den * fa)

    __radd__ = __add__

    def __neg__(self):  # negation keeps every pair nonzero and the content
        return _poly(self.dim, {e: (-a, -b) for e, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -_as_crational(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: CoeffLike) -> "LaurentPoly":
        c = _as_crational(c)
        if c.is_zero():
            return _poly(self.dim, {}, 1)
        u, v = c._re, c._im  # a nonzero Gaussian integer: every product is nonzero
        return _lowest(self.dim, {e: (a * u - b * v, a * v + b * u)
                                  for e, (a, b) in self._num.items()}, self._den * c._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sum_of_products(self.dim, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("nonnegative integer powers only")
        out = LaurentPoly.const(self.dim, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CRational)):
            other = LaurentPoly.const(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # a constant hashes as its value, since it compares equal to that scalar
        if self.is_constant:
            return hash(self.constant_term())
        return hash((self.dim, self._den, frozenset(self._num.items())))

    # -- calculus -------------------------------------------------------------
    def differentiate(self, axis: int) -> "LaurentPoly":
        """Exact partial derivative along 0-based ``axis`` (power rule, negative exponents included)."""
        if not 0 <= axis < self.dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {self.dim}")
        out: dict[tuple, tuple[int, int]] = {}
        for e, (a, b) in self._num.items():
            k = e[axis]
            if k:  # a nonzero pair times a nonzero k
                out[e[:axis] + (k - 1,) + e[axis + 1:]] = (a * k, b * k)
        return _lowest(self.dim, out, self._den)

    # -- evaluation -------------------------------------------------------------
    def evaluate(self, point: Sequence[complex]) -> complex:
        """Floating evaluation; raises :class:`PoleError` on 0**negative."""
        if len(point) != self.dim:
            raise DimensionMismatch(f"point has {len(point)} coords, poly dim {self.dim}")
        z = [complex(p) for p in point]
        den = self._den
        total = 0j
        for e, (a, b) in self._num.items():
            # int / int rounds the exact quotient once, as float(Fraction) does
            v = complex(a / den, b / den)
            for x, k in zip(z, e):
                if k == 0:
                    continue
                if x == 0 and k < 0:
                    raise PoleError(f"0**{k} while evaluating Laurent term {e}")
                v *= x ** k
            total += v
        return total

    def __repr__(self) -> str:
        return f"LaurentPoly({self.dim}, {{{', '.join(f'{e}: {c}' for e, c in self.terms())}}})"

    def __str__(self) -> str:
        return to_text(self)


# -- records -------------------------------------------------------------------

class Record:
    """Base of sdefi's value records: the fields are the class's own annotations,
    in order, and a class attribute of the same name is a field's default.

    ``__init__`` takes the fields positionally or by name, then runs
    ``__post_init__``; a record that normalises its fields (``VField``,
    ``SdeSystem``) writes its own ``__init__``.  ``==`` holds between records
    of one class with equal fields, ``hash`` agrees with it, and ``repr`` reads
    ``Name(field=value, ...)``.  A record is frozen, like ``CRational``:
    assigning or deleting an attribute raises ``AttributeError``, unless the
    class says ``frozen=False``, which also makes it unhashable.  These are
    plain methods over the field list, so defining a record compiles no code.
    """

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls._key = operator.attrgetter(*fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, "
                            f"got {len(args)} positional")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in defaults:
                _set(self, field, defaults[field])
            else:
                raise TypeError(f"{type(self).__name__}() missing field {field!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected or repeated fields "
                            f"{sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """{field: value} in field order; the values are not copied."""
        return {name: getattr(self, name) for name in self._fields}


# -- vector fields ------------------------------------------------------------

class VField(Record):
    """Vector field: one LaurentPoly per coordinate, all of the same dim."""

    components: tuple[LaurentPoly, ...]

    def __init__(self, components: Iterable[LaurentPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("empty vector field")
        d = components[0].dim
        if any(p.dim != d for p in components):
            raise DimensionMismatch("vector field components disagree on dim")
        _set(self, "components", components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> LaurentPoly:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __sub__(self, other: "VField") -> "VField":
        if len(other) != len(self):
            raise DimensionMismatch("vector fields of different length")
        return VField(tuple(a - b for a, b in zip(self, other)))

    def scale(self, c: CoeffLike) -> "VField":
        return VField(tuple(p.scale(c) for p in self.components))


def gradient(p: LaurentPoly) -> VField:
    """(d p/d x_1, ..., d p/d x_n)."""
    return VField(tuple(p.differentiate(i) for i in range(p.dim)))


def hessian(p: LaurentPoly) -> list[list[LaurentPoly]]:
    """Matrix of second partials; entries [i][j] and [j][i] are computed independently."""
    firsts = [p.differentiate(i) for i in range(p.dim)]
    return [[firsts[i].differentiate(j) for j in range(p.dim)] for i in range(p.dim)]


def jacobian(v: VField) -> list[list[LaurentPoly]]:
    """Row i = gradient of component i."""
    return [[v[i].differentiate(j) for j in range(v.dim)] for i in range(len(v))]


def dot(u: VField, v: VField) -> LaurentPoly:
    """Pointwise inner product sum_i u_i v_i of two vector fields (no conjugation),
    one sum of products: one gcd pass, however many components."""
    if len(u) != len(v):
        raise DimensionMismatch("vector fields of different length")
    return _sum_of_products(u.dim, list(zip(u, v)))


def mat_vec_apply(mat: Sequence[Sequence[LaurentPoly]], v: VField) -> VField:
    """Apply a polynomial matrix to a vector field: (mat . v)_i = sum_j mat[i][j] v_j,
    one sum of products (one gcd pass) per row; every row must have len(v) entries."""
    for row in mat:
        if len(row) != len(v):
            raise DimensionMismatch(f"matrix row of length {len(row)}, field of length {len(v)}")
    return VField(tuple(_sum_of_products(v.dim, list(zip(row, v))) for row in mat))


# -- canonical text form -------------------------------------------------------
#
# Polynomials print as a sum of `coeff * x1^e1 x2^e2 ...` with rational
# coefficients `p/q`, an optional imaginary unit `i`, and `^1` omitted;
# printing is canonical, so parse(to_text(p)) == p.  The reader scans ASCII
# tokens with one regex: a coefficient `N` or `N/N` with an optional trailing
# `i`; `(a ± bi)` or `(a ± i)` with optional spaces inside; `i`; a variable
# name with an optional exponent `^N` or `^-N`; and `+`, `-`, `*`.
# Whitespace and `*` between tokens are optional.  A coefficient or `i` may
# stand only first in a term.  A `+` or `-` after a factor starts the next
# term, signs before a term's first factor combine, and a sign must be
# followed by a term.  A number-like run with a `.`, an `e` exponent or a
# signed denominator (0.5, 1e3, 1/-2, (0.5+1i)) is named as an inexact
# coefficient, and an exponent with a `.` or a `/` (x1^0.5, x1^1/2) as an
# exponent that is not an integer.
#
# Both directions work on the integer pairs of LaurentPoly, with no CRational
# or Fraction.  The reader builds each coefficient as (re, im) numerators
# over the token's own denominator (`int` on either side of the `/`; a sign
# negates the pair), sums the terms over the lcm of those denominators in the
# order their exponent vectors first appear, and ends with one `_reduced`.
# The printer writes each coefficient from its pair and `_den`, one gcd per
# part.

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)
_FRAC = r"[0-9]+(?:/[0-9]+)?"
_DEC = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_INEXACT = rf"{_DEC}(?:/[+-]?{_DEC})*"
# `coeff` refuses to stop where `inexact` would read on, so 1.5 is not 1 then .5;
# likewise `exp` where `badexp` would, so x1^0.5 is not x1^0 then .5
_TOKEN_RE = re.compile(rf"""
    (?P<cplx>\(\s*(?P<re>[+-]?{_FRAC})\s*(?P<sgn>[+-])\s*(?P<im>{_FRAC})?i\s*\))
  | (?P<coeff>{_FRAC}i?|i\b)(?![0-9.]|[eE][+-]?[0-9]|/[+-]?\.?[0-9])
  | (?P<inexact>{_INEXACT}i?|\(\s*[+-]?{_INEXACT}\s*[+-]\s*(?:{_INEXACT})?i\s*\))
  | (?P<factor>(?P<name>{_NAME})
               (?:\^(?:(?P<exp>-?[0-9]+)(?![0-9./])|(?P<badexp>-?[0-9]*[./][0-9./]*)))?)
  | (?P<op>[-+*])
  | (?P<other>[^\s*+-]+)
""", re.ASCII | re.VERBOSE)


def default_var_names(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def check_var_names(names: Sequence[str]):
    """The one variable-name rule: distinct ASCII identifiers other than `i`.

    These are exactly the names the text form can read back as factors.
    """
    for n in names:
        if not (isinstance(n, str) and _NAME_RE.fullmatch(n)):
            raise ValueError(f"variable name {n!r} is not an ASCII identifier ({_NAME})")
        if n == "i":  # the text form reads i as the imaginary unit
            raise ValueError("'i' is the imaginary unit and cannot be a variable name")
    if len(set(names)) != len(names):
        raise ValueError(f"variable names must be distinct, got {list(names)}")


_VALID_NAMES: set[tuple] = set()  # name tuples `check_var_names` has passed


def _check_names_once(names: tuple) -> None:
    """`check_var_names`, run once per name tuple that passes it; a refused
    tuple is checked again each time, so it fails with the same message."""
    try:
        if names in _VALID_NAMES:
            return
    except TypeError:  # an unhashable name, which check_var_names refuses
        pass
    check_var_names(names)
    if len(_VALID_NAMES) < 1024:
        _VALID_NAMES.add(names)


def _part(n: int, den: int) -> str:
    """n / den in lowest terms, as str(Fraction(n, den)) prints it (den > 0)."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def to_text(p: LaurentPoly, var_names: Sequence[str] | None = None) -> str:
    """Canonical text form, graded-lex descending."""
    names = tuple(var_names) if var_names is not None else default_var_names(p.dim)
    if len(names) != p.dim:
        raise DimensionMismatch("var_names length != dim")
    _check_names_once(names)
    if p.is_zero:
        return "0"
    num, den = p._num, p._den
    chunks: list[str] = []
    for e in sorted(num, key=grlex_key, reverse=True):
        a, b = num[e]
        factors = " ".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k)
        # the coefficient's text without its leading minus: real p/q, imaginary
        # p/qi (the unit as i), complex (a±bi), whose minus stays inside
        if not b:
            neg, coeff = a < 0, _part(abs(a), den)
        elif not a:
            neg, coeff = b < 0, _part(abs(b), den)
            coeff = "i" if coeff == "1" else f"{coeff}i"
        else:
            neg, coeff = False, f"({_part(a, den)}{'+' if b > 0 else '-'}{_part(abs(b), den)}i)"
        if not factors:
            body = coeff
        elif coeff == "1":
            body = factors
        else:
            body = f"{coeff} * {factors}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


def _fraction(tok: str) -> tuple[int, int]:
    """(numerator, denominator) of an optionally signed `N` or `N/N`, as written;
    a zero denominator raises ZeroDivisionError."""
    num, slash, den = tok.partition("/")
    num, den = int(num), int(den) if slash else 1
    if not den:
        raise ZeroDivisionError(tok)
    return num, den


def parse_poly_text(text: str, var_names: Sequence[str]) -> LaurentPoly:
    """Parse the text form back into a polynomial.

    ``var_names`` fixes both the dimension and the admissible variable
    names (so e.g. a 4-dim system with names r, phi, v, w parses "r^2 w").
    Each coefficient becomes a Gaussian-integer pair over its own
    denominator; the terms are summed over the lcm of those denominators, in
    the order each exponent vector first appears, and one ``_reduced`` ends
    the parse.
    """
    names = tuple(var_names)
    _check_names_once(names)
    dim = len(names)
    index = {n: i for i, n in enumerate(names)}
    terms: list[tuple[list[int], int, int, int]] = []  # (exponents, re, im, den)
    sign, exps = 0, None  # the product of the signs read since the last term (0: none)
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "op":
            if tok != "*":  # a sign closes the open term
                exps, sign = None, (sign or 1) * (-1 if tok == "-" else 1)
            continue
        if kind == "inexact":
            raise ValueError(f"coefficient {tok!r} is not an exact rational "
                             f"(write 1/2, not 0.5)")
        lead = exps is None and kind in ("cplx", "coeff")
        if exps is None:  # this token opens a term
            exps, re, im, den = [0] * dim, 1, 0, 1
            try:
                if kind == "cplx":
                    a, p = _fraction(m["re"])
                    b, q = _fraction(m["sgn"] + (m["im"] or "1"))
                    re, im, den = a * q, b * p, p * q
                elif lead and tok[-1] == "i":
                    re, (im, den) = 0, _fraction(tok[:-1] or "1")
                elif lead:
                    re, den = _fraction(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {tok!r}") from None
            terms.append((exps, -re, -im, den) if sign < 0 else (exps, re, im, den))
            sign = 0
        if lead:
            continue
        name, exp, badexp = m.group("name", "exp", "badexp")
        j = index.get(name)
        if j is None:
            raise ValueError(f"unknown factor {tok!r} (variables: {', '.join(names)})")
        if badexp:
            raise ValueError(f"exponent {badexp!r} in {tok!r} is not an integer")
        exps[j] += int(exp) if exp else 1
    if sign:
        raise ValueError(f"sign with no term after it in {text!r}")
    if not terms:
        raise ValueError("empty polynomial text")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lcd = lcm(*[den for _, _, _, den in terms])
    num: dict[tuple, tuple[int, int]] = {}
    for e, re, im, den in terms:
        e = tuple(e)
        f = lcd // den
        a, b = num.get(e, (0, 0))
        num[e] = (a + re * f, b + im * f)
    return _reduced(dim, num, lcd)
