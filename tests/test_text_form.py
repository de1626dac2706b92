"""The text form on integer pairs: `parse_poly_text` and `to_text` against the
CRational reader and printer kept in `oracles`, on seeded fuzzed strings and
polynomials.  Equal means the same terms in the same order over the same
denominator (`LaurentPoly.evaluate` sums in that order), or the same
exception type and message."""

import random
from fractions import Fraction

import oracles
from sdefi import algebra
from sdefi.algebra import CRational, LaurentPoly, parse_poly_text, to_text

_NAMES = ("x1", "x2", "x3")
# the pieces a fuzzed string is made of: names, fractions, zero, i, (a ± bi), signs
# and *, and now and then one a parse refuses: an unknown name, a non-integer
# exponent, a zero denominator or a decimal
_FACTORS = ("x1", "x2", "x3", "x1^2", "x2^-3", "x3^0", "x1^-1", "x3^12")
_COEFFS = ("1", "7", "3/4", "12/8", "0", "0/4", "05", "10/15", "i", "2i", "1/2i", "0i",
           "(1+2i)", "(-1/2 - i)", "( 3/4 + 5/6i )", "(0+0i)", "(+1-1i)", "(-3/6+4/8i)")
_BAD = ("y", "x2^0.5", "3/0", "3/0i", "(1/0+i)", "(2-3/0i)", "0.5")
_SIGNS = ("+", "-", "-", "+", "--", "+-")
_GLUE = ("", " ", " ", "  ", "*", " * ")


def _outcome(parse, text, names):
    try:
        p = parse(text, names)
    except Exception as exc:  # the type and message must agree, whatever they are
        return type(exc), str(exc)
    return p.dim, list(p._num.items()), p._den


def _fuzzed(rng):
    def pick(pool):
        return rng.choice(_BAD) if rng.random() < 0.03 else rng.choice(pool)

    if rng.random() < 0.2:  # any sequence of pieces: mostly refused
        pool = _FACTORS + _COEFFS + _SIGNS + ("*",)
        pieces = [pick(pool) for _ in range(rng.randint(0, 7))]
    else:  # signed terms, the coefficient first: mostly read
        pieces = []
        for _ in range(rng.randint(1, 4)):
            if pieces or rng.random() < 0.4:
                pieces.append(rng.choice(_SIGNS))
            if rng.random() < 0.7:
                pieces.append(pick(_COEFFS))
            pieces += [pick(_FACTORS) for _ in range(rng.randint(0, 2))]
    text = "".join(p + rng.choice(_GLUE) for p in pieces)
    return text.strip() if rng.random() < 0.5 else text


def test_parse_matches_the_crational_reader_on_fuzzed_strings():
    rng = random.Random(3501)
    errors = 0
    for _ in range(20000):
        text = _fuzzed(rng)
        # now and then too few names, or none (a 0-dim parse)
        names = _NAMES if rng.random() < 0.9 else _NAMES[:rng.randint(0, 2)]
        got = _outcome(parse_poly_text, text, names)
        assert got == _outcome(oracles.parse_poly_text, text, names), (text, names)
        errors += isinstance(got[0], type)
    # both outcomes are well represented
    assert 4000 < errors < 16000


def _coeff(rng):
    den = rng.choice([1, 1, 1, 2, 3, 4, 6, 35])
    kind = rng.random()
    if kind < 0.1:
        return CRational(0, rng.choice([1, -1]))  # ±i
    re = Fraction(rng.randint(-9, 9), den)
    im = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5])) if kind < 0.5 else 0
    return CRational(re, im)


def _poly(rng, dim):
    if rng.random() < 0.1:
        return LaurentPoly.zero(dim)
    if rng.random() < 0.1:
        return LaurentPoly.const(dim, _coeff(rng))
    return LaurentPoly(dim, [(tuple(rng.randint(-3, 3) for _ in range(dim)), _coeff(rng))
                             for _ in range(rng.randint(1, 6))])


def test_text_round_trips_match_the_crational_reader():
    rng = random.Random(3502)
    for case in range(2000):
        dim = 1 + case % 4
        names = tuple(f"x{j + 1}" for j in range(dim)) if case % 3 else ("r", "phi", "v", "w")[:dim]
        p = _poly(rng, dim)
        text = to_text(p, names)
        assert text == oracles.to_text(p, names), case
        back = parse_poly_text(text, names)
        assert back == p, (case, text)
        assert _outcome(parse_poly_text, text, names) == \
            _outcome(oracles.parse_poly_text, text, names), (case, text)


def test_to_text_matches_the_crational_printer():
    rng = random.Random(3503)
    fixed = [LaurentPoly.zero(2), LaurentPoly.const(2, 1), LaurentPoly.const(2, -1),
             LaurentPoly.const(2, CRational(0, 1)), LaurentPoly.const(2, CRational(0, -1)),
             LaurentPoly.const(2, CRational(Fraction(-1, 2), Fraction(2, 3))),
             LaurentPoly(2, {(1, 0): CRational(0, -1), (0, 1): CRational(0, 1)}),
             LaurentPoly(2, {(1, 0): CRational(-3, -1), (0, 0): CRational(-1, 1),
                             (0, -1): CRational(Fraction(-5, 4), 0)})]
    polys = fixed + [_poly(rng, 1 + case % 4) for case in range(2000)]
    seen = set()
    for p in polys:
        text = to_text(p)
        assert text == oracles.to_text(p), p._num
        seen.update(t for t in (" i", "-i", "(-", "0", "+ i") if t in f" {text}")
    assert seen == {" i", "-i", "(-", "0", "+ i"}


def test_parse_and_print_make_no_crational(monkeypatch):
    made = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            made.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra, "_ints", counted("_ints", algebra._ints))
    monkeypatch.setattr(CRational, "__new__", counted("CRational", CRational.__new__))
    monkeypatch.setattr(LaurentPoly, "__init__", counted("LaurentPoly", LaurentPoly.__init__))
    names = ("x1", "x2")
    text = "3/4 x1^2 x2^-1 - (1/2-2/3i) x1 x2 + 5/6i * x2 - i + 2/4 x1^2 x2^-1 - 7"
    p = parse_poly_text(text, names)
    printed = to_text(p, names)
    assert made == []
    assert printed == "(-1/2+2/3i) * x1 x2 + 5/4 * x1^2 x2^-1 + 5/6i * x2 + (-7-1i)"
