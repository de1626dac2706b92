"""Degree-bounded search for first integrals as exact nullspaces.

The generator (or the pathwise-conservation operators) is linear in the
candidate, so restricting candidates to a finite monomial window turns
"L Phi == 0" into an exact linear system in Gaussian integers: one column
per candidate monomial, one row per monomial appearing in any image, each
over the operator's one denominator.  Kernel vectors are candidate
integrals; every one is re-verified through the symbolic checks before being
returned, and constants are quotiented out.

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
from fractions import Fraction
from math import lcm

from . import exactla
from .algebra import (DimensionMismatch, LaurentPoly, Record, VField, _ints, _sum_of_products,
                      grlex_key, lattice_blocks)
from .ito import IntegralVerdict, SdeSystem, check_strong, check_weak, stratonovich_drift


_RANK_TRIALS = 5  # seeded rational points at which independence_rank evaluates the Jacobian
_RANK_SEED = 0


class MonomialBasis(Record):
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
    monos = []
    for block in lattice_blocks(dim, pos, neg, pos + neg):
        degree = block.sum(axis=1)
        monos += map(tuple, block[(dmin <= degree) & (degree <= dmax)].tolist())
    monos.sort(key=grlex_key)
    return MonomialBasis(dim, dmin, dmax, tuple(monos))


class OperatorMatrix(Record):
    """Exact matrix of a conservation operator over monomial bases.

    Column j holds the coefficients of op(input_monomials[j]) over
    output_monomials (a graded-lex-sorted superset of everything appearing,
    including the inputs themselves, so degree-preserving operators come out
    literally diagonal).  Row r is {column: (re, im)}, Gaussian-integer
    numerators over the matrix's one denominator `den`.
    """

    kind: str
    input_monomials: tuple[tuple, ...]
    output_monomials: tuple[tuple, ...]
    rows: tuple[dict, ...]  # one per output monomial: {col: (re, im)}, nonzero
    den: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.output_monomials), len(self.input_monomials)

    @property
    def entries(self) -> dict:
        """{(row, col): CRational}, column by column, each column by row."""
        den = self.den
        return {(r, c): _ints(a, b, den) for c, r, (a, b) in
                sorted((c, r, v) for r, row in enumerate(self.rows) for c, v in row.items())}


def _symbol(sys: SdeSystem, kind: str, noise_index: int | None,
            corrected_drift: VField | None) -> tuple[list[tuple], int]:
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
                a_jl = _sum_of_products(n, [(g[j], g[l]) for g in sys.diffusions])
                fields.append((j, l, a_jl, 2 if j == l else 1))
    elif kind == "strong_drift":
        if corrected_drift is None:
            corrected_drift = stratonovich_drift(sys)
        fields = [(j, None, f, 1) for j, f in enumerate(corrected_drift)]
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
                    noise_index: int | None = None,
                    corrected_drift: VField | None = None) -> OperatorMatrix:
    """Apply one conservation operator to every basis monomial, exactly.

    The rows are the distinct monomials of the images and the inputs, so
    there are at most as many as nonzeros plus columns, whatever degrees
    the coefficients reach.  "strong_drift" uses `corrected_drift`, which is
    `stratonovich_drift(sys)` and is computed when not given.
    """
    if basis.dim != sys.dim:
        raise ValueError("basis dim != system dim")
    terms, den = _symbol(sys, kind, noise_index, corrected_drift)
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
    output = tuple(sorted(out_set, key=grlex_key))
    row_at: dict = {e: {} for e in output}
    for c, col in enumerate(columns):
        for k, v in col.items():
            row_at[k][c] = v
    label = kind if noise_index is None else f"{kind}_{noise_index + 1}"
    return OperatorMatrix(label, basis.monomials, output, tuple(row_at.values()), den)


class IntegralBasis(Record):
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

    if mode == "weak":
        mats = [operator_matrix(sys, basis, "weak")]
    else:
        # one Stratonovich drift for the operator and every re-verification
        drift = stratonovich_drift(sys)
        mats = [operator_matrix(sys, basis, "strong_drift", corrected_drift=drift)]
        for i in range(sys.noise_dim):
            mats.append(operator_matrix(sys, basis, "strong_diff", noise_index=i))
    kernel = exactla.sparse_nullspace([row for m in mats for row in m.rows], len(monos))

    # Each kernel vector has a 1 at its free column and nonzeros only at earlier
    # (pivot) columns, and the free columns ascend; with `monos` graded-lex
    # ascending, every polynomial is monic and the list is sorted by leading monomial.
    polys = [LaurentPoly(sys.dim, zip(monos, vec)) for vec in kernel]

    verdicts = []
    for p in polys:
        v = check_weak(sys, p) if mode == "weak" else check_strong(sys, p, drift)
        if not v.holds:
            raise AssertionError(
                f"internal error: kernel element failed exact re-verification: {p}")
        verdicts.append(v)

    rank = independence_rank(polys)
    return IntegralBasis(mode, dmin, dmax, tuple(polys), rank, tuple(verdicts))


def independence_rank(polys) -> int:
    """Functional independence: max exact Jacobian rank at seeded rational points.

    Each of the _RANK_TRIALS points x has nonzero rational coordinates (hence is
    pole-free for Laurent candidates).  Entry (i, j) of the matrix ranked there
    is x_j d(phi_i)/dx_j = sum of e_j c x^e over the terms c x^e of phi_i, with
    each row scaled to Gaussian integers: the Jacobian with its rows and columns
    scaled by nonzero numbers, so of the same rank.  One pass over the terms
    builds it, and the rank is `exactla.rank`, so no tolerance decides it.
    A rank at one point is a lower bound of the generic rank.
    """
    polys = list(polys)
    if not polys:
        return 0
    dim = polys[0].dim
    if any(phi.dim != dim for phi in polys):
        raise DimensionMismatch("independence_rank needs polynomials of one dimension")
    # p^(k + lo) q^(hi - k) is x_j^k = (p/q)^k times p^lo q^hi, an integer for
    # every exponent k of axis j, which lies in [-lo, hi]
    exps = [e for phi in polys for e in phi._num]
    lo = [-min([0] + [e[j] for e in exps]) for j in range(dim)]
    hi = [max([0] + [e[j] for e in exps]) for j in range(dim)]
    rng = random.Random(_RANK_SEED)
    best = 0
    for _ in range(_RANK_TRIALS):
        point = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(dim)]
        powers = [{k: x.numerator ** (k + lo[j]) * x.denominator ** (hi[j] - k)
                   for k in range(-lo[j], hi[j] + 1)} for j, x in enumerate(point)]
        jac = []
        for phi in polys:
            re, im = [0] * dim, [0] * dim
            for e, (a, b) in phi._num.items():
                xe = 1
                for pw, k in zip(powers, e):
                    xe *= pw[k]
                for j, k in enumerate(e):
                    if k:
                        w = k * xe
                        re[j] += w * a
                        im[j] += w * b
            jac.append([_ints(r, i, 1) for r, i in zip(re, im)])
        best = max(best, exactla.rank(jac))
        if best == min(len(polys), dim):
            break
    return best


class CountBoundVerdict(Record):
    rank: int
    s_min: int
    consistent: bool
    certified: bool
    note: str

    def to_dict(self) -> dict:
        return self.as_dict()


def count_bound_check(basis: IntegralBasis, report) -> CountBoundVerdict:
    """Cross-check: found independent strong polynomial integrals must number <= s_min.

    s_min, of the `resonance.ResonanceReport` `report`, comes from the
    nonnegative lattice and bounds analytic integrals only, so `rank` is the
    independence rank of the basis's polynomial elements.  Laurent elements
    are rational integrals; the note says they are not covered.
    """
    if report.s_min is None:
        raise ValueError("resonance report carries no strong-side lattice ranks")
    polys = [p for p in basis.basis if not p.has_negative_exponents()]
    laurent = len(basis) - len(polys)
    rank = independence_rank(polys) if laurent else basis.independence_rank
    consistent = rank <= report.s_min
    if not consistent:
        note = ("BOUND VIOLATED: more independent integrals than the lattice rank allows"
                + ("" if report.s_min_certified else " (report is K-bounded; ranks may be understated)"))
    else:
        note = "consistent" if report.s_min_certified else \
            "consistent (K-bounded report: s_min is a lower bound of the true rank)"
    if laurent:
        note += (f"; rank counts only the {len(polys)} polynomial of the {len(basis)} elements: "
                 "Laurent ones are rational integrals, which the analytic bound does not cover")
    return CountBoundVerdict(rank, report.s_min, consistent, report.s_min_certified, note)
