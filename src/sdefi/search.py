"""Degree-bounded search for first integrals as exact nullspaces.

The generator (or the pathwise-conservation operators) is linear in the
candidate, so restricting candidates to a finite monomial window turns
"L Phi == 0" into an exact linear system over the complex rationals: one
column per candidate monomial, one row per monomial appearing in any image.
Kernel vectors are candidate integrals; every one is re-verified through
the symbolic checks before being returned, and constants are quotiented out.

Columns are built from the operator's coefficient fields (``_symbol``), not
by applying the operator to each monomial as a polynomial: a term c x^s of a
coefficient of d_j (or d_j d_l) sends x^e to c w(e) x^(e+s-u_j(-u_l)), one
shifted monomial with an integer weight, so each column is an integer
accumulation keyed by shifted exponents.  Re-verification stays on the
generic path: ``check_weak``/``check_strong`` apply the operators to each
kernel element as a polynomial, independently of the matrix.

A window [dmin, dmax] with dmin < 0 means Laurent candidates: the positive
part of an exponent vector may total at most max(dmax, 0), the negative
part at least min(dmin, 0), and the total degree must lie in the window.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exactla
from .algebra import CRational, LaurentPoly, _ints, grlex_key, lattice_points
from .ito import IntegralVerdict, SdeSystem, check_strong, check_weak, stratonovich_drift
from .resonance import ResonanceReport


_RANK_TRIALS = 5  # seeded rational points at which independence_rank evaluates the Jacobian
_RANK_SEED = 0


class WindowOverflowError(RuntimeError):
    """Generator image left the widened output window (cap exceeded)."""


@dataclass(frozen=True)
class MonomialBasis:
    dim: int
    dmin: int
    dmax: int
    monomials: tuple[tuple, ...]  # graded-lex ascending

    def __len__(self) -> int:
        return len(self.monomials)

    def index(self, e) -> int:
        return self.monomials.index(tuple(e))


def monomial_basis(dim: int, dmin: int, dmax: int) -> MonomialBasis:
    """All exponent vectors in the window, graded-lex ascending.

    The constant monomial is included iff 0 lies in [dmin, dmax].
    """
    if dmin > dmax:
        raise ValueError(f"empty window [{dmin}, {dmax}]")
    pos, neg = max(dmax, 0), -min(dmin, 0)
    monos = [e for e, _ in lattice_points(dim, pos, neg, pos + neg) if dmin <= sum(e) <= dmax]
    monos.sort(key=grlex_key)
    return MonomialBasis(dim, dmin, dmax, tuple(monos))


@dataclass(frozen=True)
class OperatorMatrix:
    """Exact matrix of a conservation operator over monomial bases.

    Column j holds the coefficients of op(input_monomials[j]) over
    output_monomials (a graded-lex-sorted superset of everything appearing,
    including the inputs themselves, so degree-preserving operators come out
    literally diagonal).
    """

    kind: str
    input_monomials: tuple[tuple, ...]
    output_monomials: tuple[tuple, ...]
    entries: dict  # (row, col) -> CRational

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.output_monomials), len(self.input_monomials)

    def to_dense(self) -> list:
        rows, cols = self.shape
        m = exactla.zeros(rows, cols)
        for (r, c), v in self.entries.items():
            m[r][c] = v
        return m

    def sparse_rows(self) -> list[dict]:
        """One {column: coefficient} dict per output monomial (empty if no entries)."""
        rows: list[dict] = [{} for _ in self.output_monomials]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def entry(self, out_e, in_e) -> CRational:
        r = self.output_monomials.index(tuple(out_e))
        c = self.input_monomials.index(tuple(in_e))
        return self.entries.get((r, c), CRational(0))


def _symbol(sys: SdeSystem, kind: str, noise_index: int | None) -> tuple[list[tuple], int]:
    """The operator's coefficient fields as integer terms over one denominator.

    Returns ``(terms, den)``.  A term ``(j, l, shift, a, b)`` sends x^e to
    ``(a + b i) / den * w(e) * x^(e + shift)``: first order (``l`` is None) has
    ``w(e) = e_j`` and second order ``w(e) = e_j (e_l - [j == l])``, and
    ``shift`` is the coefficient term's exponent minus the unit vectors of the
    differentiated axes.  The rule holds for negative exponents too.
    """
    n = sys.dim
    # fields: (j, l, coefficient, divisor of the coefficient)
    if kind == "weak":
        # L = sum_j f_j d_j + 1/2 sum_{j,l} a_jl d_j d_l with a_jl = sum_i g_ij g_il;
        # the pairs (j, l) and (l, j) agree, so the 1/2 stays on the diagonal only
        fields = [(j, None, f, 1) for j, f in enumerate(sys.drift)]
        for j in range(n):
            for l in range(j, n):
                a_jl = sum((g[j] * g[l] for g in sys.diffusions), LaurentPoly.zero(n))
                fields.append((j, l, a_jl, 2 if j == l else 1))
    elif kind == "strong_drift":
        fields = [(j, None, f, 1) for j, f in enumerate(stratonovich_drift(sys))]
    elif kind == "strong_diff":
        if noise_index is None or not 0 <= noise_index < sys.noise_dim:
            raise ValueError("strong_diff requires a valid noise_index")
        fields = [(j, None, g, 1) for j, g in enumerate(sys.diffusions[noise_index])]
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    # a LaurentPoly is integer pairs _num over one denominator _den (see algebra)
    den = lcm(*(p._den * q for _, _, p, q in fields))
    terms = []
    for j, l, p, q in fields:
        m = den // (p._den * q)
        for s, (a, b) in p._num.items():
            shift = list(s)
            shift[j] -= 1
            if l is not None:
                shift[l] -= 1
            terms.append((j, l, tuple(shift), a * m, b * m))
    return terms, den


def operator_matrix(sys: SdeSystem, basis: MonomialBasis, kind: str,
                    noise_index: int | None = None, widen_cap: int = 10) -> OperatorMatrix:
    """Apply one conservation operator to every basis monomial, exactly.

    The output window is widened to absorb the degree growth of the
    coefficients; a single application always lands in a finite window, and
    widen_cap guards against a window more than `cap` degrees beyond the input.
    """
    if basis.dim != sys.dim:
        raise ValueError("basis dim != system dim")
    terms, den = _symbol(sys, kind, noise_index)
    add = operator.add
    columns = []
    for e in basis.monomials:
        col: dict = {}
        for j, l, shift, a, b in terms:
            w = e[j] if l is None else e[j] * (e[l] - (j == l))
            if w:
                k = tuple(map(add, e, shift))
                re, im = col.get(k, (0, 0))
                col[k] = (re + w * a, im + w * b)
        columns.append({k: v for k, v in col.items() if v != (0, 0)})
    out_set = set(basis.monomials)
    for col in columns:
        out_set.update(col)
    degs = [sum(e) for e in out_set]
    if degs and (max(degs) > basis.dmax + widen_cap or min(degs) < basis.dmin - widen_cap):
        raise WindowOverflowError(
            f"operator image spans degrees [{min(degs)}, {max(degs)}], "
            f"more than {widen_cap} beyond window [{basis.dmin}, {basis.dmax}]")
    output = tuple(sorted(out_set, key=grlex_key))
    row_of = {e: i for i, e in enumerate(output)}
    entries: dict = {}
    for c, col in enumerate(columns):
        for r, (a, b) in sorted((row_of[k], v) for k, v in col.items()):
            entries[(r, c)] = _ints(a, b, den)
    label = kind if noise_index is None else f"{kind}_{noise_index + 1}"
    return OperatorMatrix(label, basis.monomials, output, entries)


@dataclass(frozen=True)
class IntegralBasis:
    mode: str
    dmin: int
    dmax: int
    basis: tuple[LaurentPoly, ...]
    independence_rank: int
    verdicts: tuple[IntegralVerdict, ...]

    def __len__(self) -> int:
        return len(self.basis)


def find_first_integrals(sys: SdeSystem, mode: str, dmin: int, dmax: int) -> IntegralBasis:
    """All first integrals (mode "strong" or "weak") inside a monomial window.

    Returns a normalized exact kernel basis: leading graded-lex coefficient 1,
    constants quotiented out, every element re-verified symbolically.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    full = monomial_basis(sys.dim, dmin, dmax)
    zero_exp = (0,) * sys.dim
    monos = tuple(e for e in full.monomials if e != zero_exp)
    basis = MonomialBasis(sys.dim, dmin, dmax, monos)
    if not monos:
        return IntegralBasis(mode, dmin, dmax, (), 0, ())

    if mode == "weak":
        mats = [operator_matrix(sys, basis, "weak")]
    else:
        mats = [operator_matrix(sys, basis, "strong_drift")]
        for i in range(sys.noise_dim):
            mats.append(operator_matrix(sys, basis, "strong_diff", noise_index=i))
    kernel = exactla.sparse_nullspace([row for m in mats for row in m.sparse_rows()],
                                      len(monos))

    polys = []
    for vec in kernel:
        p = LaurentPoly(sys.dim, {e: c for e, c in zip(monos, vec) if not c.is_zero()})
        if p.is_zero:
            continue
        _, lead = p.leading_term()
        polys.append(p.scale(CRational(1) / lead))
    polys.sort(key=lambda p: grlex_key(p.leading_term()[0]))

    checker = check_weak if mode == "weak" else check_strong
    verdicts = []
    for p in polys:
        v = checker(sys, p)
        if not v.holds:
            raise AssertionError(
                f"internal error: kernel element failed exact re-verification: {p}")
        verdicts.append(v)

    rank = independence_rank(polys) if polys else 0
    return IntegralBasis(mode, dmin, dmax, tuple(polys), rank, tuple(verdicts))


def independence_rank(polys) -> int:
    """Functional independence: max exact Jacobian rank at seeded rational points.

    Each of the _RANK_TRIALS points has nonzero rational coordinates (hence is
    pole-free for Laurent candidates); the gradients are evaluated there
    exactly and the rank is `exactla.rank`, so no tolerance decides it.
    A rank at one point is a lower bound of the generic rank.
    """
    polys = list(polys)
    if not polys:
        return 0
    dim = polys[0].dim
    grads = [[p.differentiate(j) for j in range(dim)] for p in polys]
    rng = random.Random(_RANK_SEED)
    best = 0
    for _ in range(_RANK_TRIALS):
        point = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(dim)]
        powers: dict = {}
        jac = [[g.evaluate_exact(point, powers) for g in row] for row in grads]
        best = max(best, exactla.rank(jac))
        if best == min(len(polys), dim):
            break
    return best


@dataclass(frozen=True)
class CountBoundVerdict:
    rank: int
    s_min: int
    consistent: bool
    certified: bool
    note: str

    def to_dict(self) -> dict:
        return {"rank": self.rank, "s_min": self.s_min, "consistent": self.consistent,
                "certified": self.certified, "note": self.note}


def count_bound_check(sys: SdeSystem, basis: IntegralBasis,
                      report: ResonanceReport) -> CountBoundVerdict:
    """Cross-check: found independent strong integrals must number <= s_min."""
    if report.s_min is None:
        raise ValueError("resonance report carries no strong-side lattice ranks")
    rank = basis.independence_rank
    consistent = rank <= report.s_min
    if not consistent:
        note = ("BOUND VIOLATED: more independent integrals than the lattice rank allows"
                + ("" if report.s_min_certified else " (report is K-bounded; ranks may be understated)"))
    else:
        note = "consistent" if report.s_min_certified else \
            "consistent (K-bounded report: s_min is a lower bound of the true rank)"
    return CountBoundVerdict(rank, report.s_min, consistent, report.s_min_certified, note)
