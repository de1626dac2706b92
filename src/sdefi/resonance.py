"""Resonance lattices and non-integrability verdicts.

Both results rest on one quantity.  For the diagonalized linear system with
corrected spectrum lam (of A0 = Df - (1/2) sum_i Dg_i^2) and noise spectra
mu^i, the generator acts on a monomial x^k by the eigenvalue

    q(k) = <lam, k> + (1/2) sum_i <mu^i, k>^2,

so x^k is a weak integral exactly when q(k) = 0; with no noise spectra q(k)
is the resonance form <lam, k>.  `resonance_values` is the one scan of q over
the window 0 < |k|_1 <= K of the nonnegative lattice (analytic integrals) or
the full integer lattice (rational/Laurent integrals); resonance enumeration,
the weak resonance test and `perturb`'s obstruction all read it.

The scan is vectorized: `algebra.lattice_blocks` yields the window as int64
blocks of at most `algebra._BLOCK` points in lexicographic order, and q is
accumulated column by column over a block, so memory stays bounded for any
n and K.

* Exact spectra (every eigenvalue a certified complex rational): lam and the
  mu^i are scaled to Gaussian-integer numerators over one denominator, so
  q(k) = 0 is an integer test on the real and imaginary parts.  The scan
  runs in int64 when a bound computed in Python ints shows that no partial
  sum, square or product can overflow, and in Python ints (object arrays)
  otherwise: exact either way.
* Float spectra: q is summed with the elementwise IEEE operations Python's
  complex arithmetic performs, in the same order, so each q(k) has the bits
  of the scalar sum.  The array test |q| <= tol * scale only preselects, with
  a relative margin of 1e-9; each survivor is decided by the scalar test, so
  no verdict depends on how numpy rounds |q|.

Two genuine certificates exist:

* half-plane: if the spectrum lies strictly inside an open half-plane
  through 0, no nonnegative resonance exists at any order, so an empty
  scan is complete, not just empty-up-to-K;
* positive-definiteness: if every lam_j is real and positive and every
  mu^i_j is real, then q(k) >= <lam, k> > 0 for every k != 0 in the
  nonnegative lattice.  A complex mu^i_j makes <mu^i, k>^2 negative for
  some k, so the shortcut does not apply then.  It is granted on exact
  spectra only: a float mu^i_j within tolerance of the real axis can still
  give q a zero far out in the lattice.

Everything else is honestly K-bounded, and every verdict carries an
epistemic status: `certified` or `bounded(K, tol)`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import CRational, _ints, lattice_blocks
from .ito import SdeSystem
from .spectral import Eigenvalues, H1Status, SpectralData, aligned_spectra, h1_check, linearization

NO_STRONG_ANALYTIC = "NO_STRONG_ANALYTIC"
STRONG_COUNT_AT_MOST = "STRONG_COUNT_AT_MOST"
NO_WEAK_ANALYTIC = "NO_WEAK_ANALYTIC"
NO_WEAK_RATIONAL = "NO_WEAK_RATIONAL"
INCONCLUSIVE = "INCONCLUSIVE"

THM_STRONG_EXCLUSION = "nonresonant-spectrum-excludes-strong-integrals"
THM_STRONG_COUNT = "resonance-lattice-rank-bounds-strong-integrals"
THM_WEAK_FUNCTION = "weak-resonance-function-excludes-weak-integrals"
THM_QUADRATIC_NOISE = "nonresonant-drift-with-quadratic-noise-excludes-weak-integrals"
THM_QUADRATIC_NOISE_Z = "nonresonant-drift-with-quadratic-noise-excludes-rational-integrals"


# -- value normalization ---------------------------------------------------------

def _normalize_values(values) -> tuple[tuple[complex, ...], tuple[CRational | None, ...]]:
    if isinstance(values, Eigenvalues):
        return values.values, values.exact
    floats: list[complex] = []
    exacts: list[CRational | None] = []
    for v in values:
        if isinstance(v, (int, Fraction)):
            v = CRational(v)
        if isinstance(v, CRational):
            floats.append(complex(v))
            exacts.append(v)
        else:
            floats.append(complex(v))
            exacts.append(None)
    return tuple(floats), tuple(exacts)


# -- the scan of q over the lattice window ---------------------------------------

def _l1(k) -> int:
    return sum(map(abs, k))


def _form(v, cols):
    """(re, im) of <v, k> for the lattice rows whose coordinates are `cols`.

    It is summed from 0 as Python sums v_j * k_j with complex floats, one
    elementwise IEEE operation for each scalar one, so floats give the same
    bits; on integer numerators the same expression is exact.
    """
    re = im = 0
    for (vr, vi), t in zip(v, cols):
        re = re + (vr * t - vi * 0)
        im = im + (vr * 0 + vi * t)
    return re, im


@dataclass(frozen=True)
class ResonanceScan:
    """q(k) = <lam,k> + weight * sum_i <mu^i,k>^2 over the window 0 < |k|_1 <= K,
    a block of lattice points at a time; `resonance_values` builds it.

    Each form is a tuple of (re, im) pairs: complex floats with weight 1/2, or
    Gaussian-integer numerators, whose q is den times the true value.
    """

    K: int
    lattice: str
    exact: bool
    forms: tuple          # lam, then each mu^i: one (re, im) pair per coordinate
    weight: object        # 0.5, or the integer weight of the squares
    den: int              # exact: q = (re + im i) / den
    dtype: type           # of the lattice columns: int64, or object for Python ints
    scale: np.ndarray | None  # float: tolerance scale for |k|_1 = 0..K

    def _blocks(self):
        """(k, |k|_1, re, im) per block of nonzero k, in lexicographic order."""
        n, K = len(self.forms[0]), self.K
        for k in lattice_blocks(n, K, 0 if self.lattice == "zplus" else K, K):
            l1 = np.abs(k).sum(axis=1)
            if not l1.all():  # the block holding k = 0
                k, l1 = k[l1 > 0], l1[l1 > 0]
                if not len(k):
                    continue
            cols = k.T.astype(self.dtype, copy=False)
            re, im = _form(self.forms[0], cols)
            h = self.weight
            for mu in self.forms[1:]:
                sr, si = _form(mu, cols)
                wr, wi = sr * sr - si * si, sr * si + si * sr          # s * s
                re, im = re + (h * wr - 0 * wi), im + (h * wi + 0 * wr)  # q + h * (s * s)
            yield k, l1, re, im

    def _scalar(self, re, im):
        return _ints(int(re), int(im), self.den) if self.exact else complex(re, im)

    def points(self):
        """(k, q(k)) for every k of the window, in lexicographic order; q is a
        CRational on exact spectra and a complex otherwise."""
        for k, _, re, im in self._blocks():
            for row, r, i in zip(k.tolist(), re.tolist(), im.tolist()):
                yield tuple(row), self._scalar(r, i)

    def zeros(self, tol: float) -> list[tuple]:
        """The k with q(k) = 0 exactly, or |q(k)| <= tol * scale(|k|_1) on float
        spectra, in lexicographic order.

        The float test runs on arrays with a relative margin of 1e-9 as a
        prefilter only; each survivor is decided by the scalar test, so no
        decision depends on how numpy rounds |q|.
        """
        out = []
        for k, l1, re, im in self._blocks():
            if self.exact:
                hit = (re == 0) & (im == 0)
            else:
                hit = np.hypot(re, im) <= tol * self.scale[l1] * (1 + 1e-9)
            out += [tuple(k[j].tolist()) for j in np.flatnonzero(hit)
                    if self.exact or abs(complex(re[j], im[j])) <= tol * self.scale[l1[j]]]
        return out

    def near_min(self) -> list:
        """q(k), as `points` gives it, at every k whose |q(k)| is within a relative
        2^-30 of the window's minimum (exact spectra: |den q|^2 in Python ints).
        This holds every minimizer of a scalar |q| that rounds each component once."""
        found = []
        for _, _, re, im in self._blocks():
            if self.exact:
                re, im = re.astype(object), im.astype(object)
                mag = re * re + im * im
            else:
                mag = np.hypot(re, im)
            low = mag.min()
            found += [(mag[j], self._scalar(re[j], im[j]))
                      for j in np.flatnonzero(mag * 2 ** 30 <= low * (2 ** 30 + 1))]
        best = min((m for m, _ in found), default=None)
        return [q for m, q in found if m * 2 ** 30 <= best * (2 ** 30 + 1)]


def resonance_values(lam, mus=(), K: int = 10, lattice: str = "zplus") -> ResonanceScan:
    """The scan of q(k) = <lam,k> + (1/2) sum_i <mu^i,k>^2 over every k != 0 with
    |k|_1 <= K on the lattice ("zplus" or "z"), lam and each mu^i aligned to one
    eigenvector order.

    It is exact when every value has an exact witness.  Then lam = a / D and
    mu^i = b^i / E with Gaussian integers a, b^i; with den = 2 lcm(D, E^2),
    den q(k) = <(den / D) a, k> + (den / 2E^2) sum_i <b^i, k>^2 is a Gaussian
    integer, so q(k) = 0 is an integer test.  Otherwise the tolerance scale is
    1 + |k|_1 max|lam_j| + (m/2) (|k|_1 max|mu^i_j|)^2.
    """
    check_scan_options(K)
    if lattice not in ("zplus", "z"):
        raise ValueError(f"unknown lattice {lattice!r}")
    norm = [_normalize_values(v) for v in (lam, *mus)]
    n, m = len(norm[0][0]), len(norm) - 1
    if any(len(fs) != n for fs, _ in norm):
        raise ValueError("mu tuple length differs from lam")
    exact = all(e is not None for _, es in norm for e in es)
    scale = None
    if exact:
        lam_den = math.lcm(*(e._den for e in norm[0][1]))
        mu_den = math.lcm(*(e._den for _, es in norm[1:] for e in es))
        den = 2 * math.lcm(lam_den, mu_den * mu_den)
        forms = [tuple((e._re * (den // e._den), e._im * (den // e._den)) for e in norm[0][1])]
        forms += [tuple((e._re * (mu_den // e._den), e._im * (mu_den // e._den)) for e in es)
                  for _, es in norm[1:]]
        weight = den // (2 * mu_den * mu_den)
        # no partial sum, square or product the scan forms exceeds, in absolute
        # value, w max|lam numerator| + 2 m weight (w max|mu numerator|)^2, w = max(K, 1)
        w = max(K, 1)
        top = [max((abs(x) for v in f for x in v), default=0) for f in forms]
        bound = w * top[0] + 2 * m * weight * (w * max(top[1:], default=0)) ** 2 + weight
        dtype = np.int64 if bound < 2 ** 63 else object
    else:
        forms = [tuple((v.real, v.imag) for v in fs) for fs, _ in norm]
        weight, den, dtype = 0.5, 1, np.int64  # float * int64 column: float64
        max_lam = max((abs(v) for v in norm[0][0]), default=0.0)
        max_mu = max((abs(v) for fs, _ in norm[1:] for v in fs), default=0.0)
        scale = np.array([1.0 + l1 * max_lam + 0.5 * m * (l1 * max_mu) ** 2
                          for l1 in range(K + 1)])
    return ResonanceScan(K, lattice, exact, tuple(forms), weight, den, dtype, scale)


def check_scan_options(K: int, tol: float = 0.0) -> None:
    """Raise ValueError on a window bound K < 0, or on a tolerance that is
    negative or NaN (no float q(k) would count as zero) or infinite (every one
    would).  Every scan entry point runs it first, before any other work."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol}")
    if K < 0:
        raise ValueError(f"window bound K must be nonnegative, got {K}")


def _by_order(vectors: list[tuple]) -> list[tuple]:
    return sorted(vectors, key=lambda k: (_l1(k), k))


def enumerate_resonances(values, K: int = 10, tol: float = 1e-9,
                         lattice: str = "zplus") -> list[tuple]:
    """All k with 0 < |k|_1 <= K and <values, k> = 0 (exact) or ~0 (within tol).

    lattice: "zplus" (nonnegative entries) or "z" (signed entries).
    The test is exact whenever every value carries an exact witness;
    otherwise |<lam,k>| <= tol * (1 + |k|_1 * max|lam_j|).
    """
    check_scan_options(K, tol)
    return _by_order(resonance_values(values, (), K, lattice).zeros(tol))


def lattice_rank(vectors) -> int:
    """Exact rank over Q of a set of integer vectors."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return 0
    return exactla.rank(exactla.as_matrix(vecs))


def halfplane_certificate(values) -> float | None:
    """Direction theta with Re(e^{i theta} lam_j) > eps for all j, or None.

    When it exists, 0 lies strictly outside the convex hull of the spectrum,
    so <lam, k> = 0 has no nonzero nonnegative solution at any order: an
    empty nonnegative scan is complete.  Margin eps = 1e-9 * max|lam_j|.
    """
    floats, _ = _normalize_values(values)
    if not floats:
        return None
    maxmod = max(abs(v) for v in floats)
    if maxmod == 0.0:
        return None
    eps = 1e-9 * maxmod
    if any(abs(v) <= eps for v in floats):
        return None
    angles = sorted(cmath.phase(v) for v in floats)
    n = len(angles)
    # largest circular gap between consecutive spectrum directions
    best_gap, best_idx = -1.0, 0
    for j in range(n):
        nxt = angles[(j + 1) % n] + (2 * cmath.pi if j == n - 1 else 0.0)
        gap = nxt - angles[j]
        if gap > best_gap:
            best_gap, best_idx = gap, j
    if best_gap <= cmath.pi:
        return None
    arc_start = angles[(best_idx + 1) % n] + (2 * cmath.pi if best_idx == n - 1 else 0.0)
    mid = arc_start + (2 * cmath.pi - best_gap) / 2.0
    theta = -mid
    margin = min((cmath.exp(1j * theta) * v).real for v in floats)
    return theta if margin > eps else None


# -- weak resonance function -------------------------------------------------------

@dataclass(frozen=True)
class WeakResonanceResult:
    violations: tuple[tuple, ...]
    certificate: str  # "positive-definite" | "bounded"
    exact: bool
    K: int
    tol: float


def weak_resonance_test(lam, mus, K: int = 10, tol: float = 1e-9) -> WeakResonanceResult:
    """Zeros of q(k) = <lam,k> + (1/2) sum_i <mu^i,k>^2 over 0 < |k|_1 <= K.

    lam and each mu^i must be aligned to a single shared eigenvector order.
    If every value is exact, every lam_j real and positive and every mu^i_j
    real, q > 0 everywhere and the scan is skipped (certificate
    "positive-definite").
    """
    check_scan_options(K, tol)
    mus = tuple(mus)
    scan = resonance_values(lam, mus, K)
    if scan.exact and all(e.is_real() and e.re > 0 for e in _normalize_values(lam)[1]) \
            and all(e.is_real() for mu in mus for e in _normalize_values(mu)[1]):
        return WeakResonanceResult((), "positive-definite", True, K, tol)
    return WeakResonanceResult(tuple(_by_order(scan.zeros(tol))), "bounded", scan.exact, K, tol)


# -- report -------------------------------------------------------------------------

@dataclass(frozen=True)
class EpistemicStatus:
    certified: bool
    K: int | None = None
    tol: float | None = None

    def to_dict(self) -> dict:
        if self.certified:
            return {"kind": "certified"}
        return {"kind": "bounded", "K": self.K, "tol": self.tol}


def _certified() -> EpistemicStatus:
    return EpistemicStatus(True)


def _bounded(K: int, tol: float) -> EpistemicStatus:
    return EpistemicStatus(False, K, tol)


@dataclass(frozen=True)
class ScanResult:
    """One eigenvalue tuple scanned against one lattice."""

    label: str
    lattice: str
    eigenvalues: Eigenvalues
    vectors: tuple[tuple, ...]
    rank: int
    complete: bool       # True: the vector list is the whole lattice, not a K-window
    degenerate: bool     # all-zero tuple: everything resonates
    K: int
    tol: float

    def to_dict(self) -> dict:
        eig = self.eigenvalues.to_dict()
        return {
            "label": self.label,
            "lattice": self.lattice,
            "eigenvalues": eig["values"],
            "eigenvalues_exact": eig["exact"],
            "vectors": [list(k) for k in self.vectors],
            "rank": self.rank,
            "complete": self.complete,
            "degenerate": self.degenerate,
            "K": self.K,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class Verdict:
    code: str
    theorem: str
    hypotheses_checked: tuple[str, ...]
    status: EpistemicStatus
    detail: str
    count_bound: int | None = None

    def to_dict(self) -> dict:
        d = {
            "code": self.code,
            "theorem": self.theorem,
            "hypotheses_checked": list(self.hypotheses_checked),
            "epistemic_status": self.status.to_dict(),
            "detail": self.detail,
        }
        if self.count_bound is not None:
            d["count_bound"] = self.count_bound
        return d


@dataclass
class ResonanceReport:
    dim: int
    noise_dim: int
    K: int
    tol: float
    hypotheses: dict
    scans: list[ScanResult] = field(default_factory=list)
    s_min: int | None = None
    s_min_certified: bool = False
    weak: WeakResonanceResult | None = None
    verdicts: list[Verdict] = field(default_factory=list)

    def verdict_codes(self) -> list[str]:
        return [v.code for v in self.verdicts]

    def find(self, code: str) -> Verdict | None:
        for v in self.verdicts:
            if v.code == code:
                return v
        return None

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "noise_dim": self.noise_dim,
            "K": self.K,
            "tol": self.tol,
            "hypotheses": dict(self.hypotheses),
            "scans": [s.to_dict() for s in self.scans],
            "s_min": self.s_min,
            "s_min_certified": self.s_min_certified,
            "weak_violations": [list(k) for k in self.weak.violations] if self.weak else None,
            "weak_certificate": self.weak.certificate if self.weak else None,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _scan(label: str, eig: Eigenvalues, lattice: str, K: int, tol: float) -> ScanResult:
    n = len(eig)
    all_zero = all(e is not None and e.is_zero() for e in eig.exact) or \
        all(v == 0 for v in eig.values)
    if all_zero:
        # everything resonates; sample the first shell, rank is exactly n
        if lattice == "zplus":
            sample = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        else:
            sample = tuple(tuple(s if j == i else 0 for j in range(n))
                           for i in range(n) for s in (-1, 1))
        return ScanResult(label, lattice, eig, sample, n, True, True, K, tol)
    vectors = tuple(enumerate_resonances(eig, K, tol, lattice))
    complete = False
    if n == 1:
        complete = True  # k * lam = 0 with lam != 0 forces k = 0, any lattice
    elif lattice == "zplus" and not vectors and halfplane_certificate(eig) is not None:
        complete = True
    return ScanResult(label, lattice, eig, vectors, lattice_rank(vectors), complete, False, K, tol)


def _exclusion(code: str, theorem: str, hyp: tuple[str, ...],
               scans: list[ScanResult]) -> Verdict | None:
    """The verdict that an empty scan excludes integrals, or None if every scan resonates.

    The first empty, non-degenerate scan that is complete certifies it;
    otherwise the first empty one bounds it to the scan's K-window.
    """
    empty = [s for s in scans if not s.vectors and not s.degenerate]
    if not empty:
        return None
    s = next((s for s in empty if s.complete), empty[0])
    kind = "nonnegative" if s.lattice == "zplus" else "signed integer"
    where = "at any order" if s.complete else f"with |k|_1 <= {s.K}"
    return Verdict(code, theorem, hyp, _certified() if s.complete else _bounded(s.K, s.tol),
                   f"spectrum of {s.label} has no {kind} resonance {where}")


def nonintegrability_report(sys: SdeSystem, K: int = 10, tol: float = 1e-9,
                            linearized: tuple[SpectralData, H1Status] | None = None
                            ) -> ResonanceReport:
    """Scan all linearization spectra and emit every verdict whose hypotheses verify.

    `linearized` is the pair `(linearization(sys), h1_check(...))` when the
    caller has already computed it; otherwise it is computed here.
    Raises NotApplicableError (via linearization) when the drift is not
    analytic-and-vanishing at the origin, and ValueError on the options
    `check_scan_options` refuses.
    """
    check_scan_options(K, tol)
    if linearized is None:
        data = linearization(sys)
        h1 = h1_check(data)
    else:
        data, h1 = linearized
    m = sys.noise_dim
    g_zero = all(data.g_zero_at_origin)
    g_h2 = all(data.g_higher_order)
    hypotheses = {
        "drift_vanishes_at_origin": True,
        "noise_vanishes_at_origin": g_zero,
        "noise_quadratic_order": g_h2,
        "simultaneously_diagonalizable": h1.verdict,
        "h1_witness": h1.witness,
    }
    report = ResonanceReport(dim=sys.dim, noise_dim=m, K=K, tol=tol, hypotheses=hypotheses)
    verdicts: list[Verdict] = []

    # strong side: spectra of A0 and every Dg_i over the nonnegative lattice
    if g_zero and data.lam is not None:
        tuples = [("A0", data.lam)] + [(f"Dg_{i + 1}", data.mu[i]) for i in range(m)]
        strong_hyp = ("f(0) = 0", "g_i(0) = 0 for every i")
        strong_scans = [_scan(label, eig, "zplus", K, tol) for label, eig in tuples]
        report.scans.extend(strong_scans)
        report.s_min = min(s.rank for s in strong_scans)
        report.s_min_certified = all(s.complete for s in strong_scans)
        if v := _exclusion(NO_STRONG_ANALYTIC, THM_STRONG_EXCLUSION, strong_hyp, strong_scans):
            verdicts.append(v)
        count_status = _certified() if report.s_min_certified else _bounded(K, tol)
        verdicts.append(Verdict(
            STRONG_COUNT_AT_MOST, THM_STRONG_COUNT, strong_hyp, count_status,
            f"independent strong integrals number at most s_min = {report.s_min}",
            count_bound=report.s_min))

    # weak side, quadratic-noise route: spectrum of Df over both lattices
    if g_h2:
        quad_hyp = ("f(0) = 0", "g_i = O(|x|^2) for every i")
        for lattice, code, theorem in (("zplus", NO_WEAK_ANALYTIC, THM_QUADRATIC_NOISE),
                                       ("z", NO_WEAK_RATIONAL, THM_QUADRATIC_NOISE_Z)):
            scan = _scan("Df", data.mu0, lattice, K, tol)
            report.scans.append(scan)
            if v := _exclusion(code, theorem, quad_hyp, [scan]):
                verdicts.append(v)

    # weak side, resonance-function route: needs aligned spectra under H1
    if g_zero and m > 0 and h1.verdict == "holds":
        aligned = aligned_spectra(data)
        if aligned is not None:
            lam_a, mus_a, _ = aligned
            wr = weak_resonance_test(lam_a, mus_a, K, tol)
            report.weak = wr
            if not wr.violations:
                h3 = ("f(0) = 0", "g_i(0) = 0 for every i",
                      "Df(0), Dg_i(0) simultaneously diagonalizable")
                if wr.certificate == "positive-definite":
                    status, how = _certified(), "q(k) > 0 for every k (real positive spectrum)"
                else:
                    status, how = _bounded(K, tol), f"q(k) != 0 for 0 < |k|_1 <= {K}"
                verdicts.append(Verdict(NO_WEAK_ANALYTIC, THM_WEAK_FUNCTION, h3, status, how))

    if not verdicts:
        found = sum(len(s.vectors) for s in report.scans)
        nviol = len(report.weak.violations) if report.weak else 0
        verdicts.append(Verdict(
            INCONCLUSIVE, "", (), _bounded(K, tol),
            f"no criterion fired: {found} resonance vectors found, "
            f"{nviol} weak-resonance violations"))
    report.verdicts = verdicts
    return report
