"""The symmetric algebra on an ordered basis z1..zN, with exact coefficients.

A SymPoly is a sparse map {sorted index tuple -> exact rational}. The
empty tuple indexes the scalar part, so rationals embed as degree-0
elements. Every stored coefficient is canonical in the sense of `exact`:
an int when it is whole, a Fraction only when its denominator exceeds 1.
Monomial keys ("Z-multisets") are tuples of 0-based generator indices in
non-decreasing order; two multisets are equal exactly when the sorted
tuples are equal.

Besides ring arithmetic this module provides `derivation_extend`, the
unique derivation agreeing with a prescribed map on the generators (so
vanishing on scalars). It is fixed by its value on each monomial; a
caller that applies one base many times passes a dict of those values
(`images`), so each monomial's image is computed once. Products and
derivations are also added raw into a caller's {monomial: coefficient}
sum (`add_product`, `add_derivation`), which `settle` makes canonical once.

Text form used by the CLI and the JSON formats: terms sorted by
(degree descending, multiset lexicographic), e.g. ``3/2*z1^2*z2 + 1``.
"""

import re
import sys
from fractions import Fraction


class DimensionError(ValueError):
    """Operands live over symmetric algebras with different generator counts."""


class SymPolyParseError(ValueError):
    """Malformed polynomial text."""


class DigitBudgetError(ValueError):
    """A rational to be printed has more digits than the interpreter
    converts from int to text."""


# The largest total degree of one term that `parse_sympoly` accepts. Each
# exponent is checked against it before its term is expanded, so text
# such as "z1^99999999999" is rejected instead of exhausting memory.
MAX_TERM_DEGREE = 1000


def exact(value):
    """The canonical exact scalar equal to `value`: an int when the value is
    whole, a Fraction only when its denominator exceeds 1.

    int and Fraction compare and hash alike, so canonical values make the
    same keys and equalities as Fractions would; ints are just cheaper to
    compute with. Floats and other non-rationals raise TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def rational_text(value):
    """str(value) for an exact rational, or DigitBudgetError when its
    numerator or denominator has more digits than the interpreter's
    int-to-text limit (sys.get_int_max_str_digits(), 4,300 by default).

    Inputs are bounded (algebra.MAX_COEFF_DIGITS), but values computed
    from them, such as the minors in a left-center basis, can grow past
    that limit; every rational the CLI prints goes through here.
    """
    try:
        return str(value)
    except ValueError as exc:  # raised by int-to-text conversion only
        raise DigitBudgetError(
            f"a result has a coefficient of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for printing an integer") from exc


class SymPoly:
    """Immutable element of the symmetric algebra on `nvars` generators."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if any(not (0 <= i < nvars) for i in mono):
                raise DimensionError(f"generator index out of range in {mono} (nvars={nvars})")
            if any(mono[i] > mono[i + 1] for i in range(len(mono) - 1)):
                mono = tuple(sorted(mono))
            coeff = exact(coeff)
            if coeff != 0:
                acc = clean.get(mono)
                total = coeff if acc is None else exact(acc + coeff)
                if total == 0:
                    clean.pop(mono, None)
                else:
                    clean[mono] = total
        self._terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(): value})

    @classmethod
    def generator(cls, nvars, index):
        return cls(nvars, {(index,): 1})

    @classmethod
    def monomial(cls, nvars, multiset, coeff=1):
        return cls(nvars, {tuple(multiset): coeff})

    def items(self):
        return self._terms.items()

    def coeff(self, multiset):
        return self._terms.get(tuple(sorted(multiset)), 0)

    def is_zero(self):
        return not self._terms

    def degree(self):
        """Maximal symmetric degree among the terms; -1 for the zero element."""
        return max((len(m) for m in self._terms), default=-1)

    def _check_dim(self, other):
        if self.nvars != other.nvars:
            raise DimensionError(f"mixed generator counts: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self._terms)
        accumulate(terms, other._terms, sign)
        return _canonical(self.nvars, terms)

    def __neg__(self):
        return _canonical(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check_dim(other)
        return dot(self.nvars, ((self, other),))

    def scale(self, factor):
        factor = exact(factor)
        if factor == 0:
            return SymPoly.zero(self.nvars)
        if factor == -1:
            return -self
        return _canonical(self.nvars, {m: exact(factor * c) for m, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"SymPoly({self.nvars}, {self.render()!r})"

    def render(self):
        """Canonical text form, e.g. ``3/2*z1^2*z2 + 1`` (zero renders as ``0``)."""
        if not self._terms:
            return "0"
        pieces = []
        for mono in sorted(self._terms, key=lambda m: (-len(m), m)):
            coeff = self._terms[mono]
            body = _render_monomial(mono)
            mag = -coeff if coeff < 0 else coeff
            if body:
                text = body if mag == 1 else f"{rational_text(mag)}*{body}"
            else:
                text = rational_text(mag)
            pieces.append(("-" if coeff < 0 else "+", text))
        sign, first = pieces[0]
        out = ("-" if sign == "-" else "") + first
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out


def accumulate(acc, terms, factor=1):
    """Add factor times the {key: exact} mapping `terms` (or a SymPoly)
    into the dict acc, each sum made canonical by `exact`, zeros dropped.
    A factor of 1 or -1 adds the values, or their negatives, with no
    product; a value at a key acc does not hold is stored as it is."""
    if factor == 0:
        return
    items = (terms.items() if factor == 1 else [(key, -value) for key, value in terms.items()]
             if factor == -1 else [(key, exact(value * factor)) for key, value in terms.items()])
    if not acc:  # every value is canonical
        acc.update(items)
        return
    for key, value in items:
        total = acc.get(key)
        if total is None:
            acc[key] = value
            continue
        total += value
        if total == 0:
            del acc[key]
        else:  # a sum of two ints is canonical as it is
            acc[key] = total if type(total) is int else exact(total)


def _canonical(nvars, terms):
    """The SymPoly holding `terms` as given, unchecked: the caller
    guarantees sorted in-range keys and canonical nonzero coefficients."""
    out = SymPoly.__new__(SymPoly)
    out.nvars = nvars
    out._terms = terms
    return out


def dot(nvars, pairs):
    """sum x * y over the (x, y) pairs of SymPolys on nvars generators,
    added into one raw sum and made canonical once."""
    terms = {}
    for x, y in pairs:
        add_product(terms, x, y)
    return _canonical(nvars, settle(terms))


def add_product(acc, x, y, factor=1):
    """Add factor * x * y, for SymPolys or {monomial: exact} dicts x and y,
    into acc, a raw {monomial: coefficient} sum: nothing is made canonical."""
    for m1, c1 in x.items():
        if factor != 1:
            c1 *= factor
        for m2, c2 in y.items():
            mono = m1 if not m2 else m2 if not m1 else tuple(sorted(m1 + m2))
            old = acc.get(mono)  # a first product is stored, not added to 0
            acc[mono] = c1 * c2 if old is None else old + c1 * c2


def add_scaled(acc, x, factor):
    """Add factor * x, a SymPoly or {monomial: exact} dict, into the raw sum acc."""
    for mono, c in x.items():
        old = acc.get(mono)
        acc[mono] = c * factor if old is None else old + c * factor


def settle(acc):
    """The raw sum acc as canonical terms, each coefficient exact, no zero."""
    return {mono: exact(c) for mono, c in acc.items() if c != 0}


def _render_monomial(mono):
    factors = []
    for idx in sorted(set(mono)):
        power = mono.count(idx)
        factors.append(f"z{idx + 1}" if power == 1 else f"z{idx + 1}^{power}")
    return "*".join(factors)


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>z\d+(?:\^\d+)?)|(?P<mul>\*))")


def parse_sympoly(nvars, text):
    """Inverse of SymPoly.render (also accepts unnormalized spacing/order)."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip():
                raise SymPolyParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
        pos = match.end()
    terms = []
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            if terms or sign == -1:
                raise SymPolyParseError(f"dangling sign in {text!r}")
            break
        coeff = 1
        mono = []
        saw_factor = False
        expect_factor = True
        while i < len(tokens) and tokens[i][0] != "sign":
            kind, value = tokens[i]
            if kind == "mul":
                if expect_factor:
                    raise SymPolyParseError(f"misplaced '*' in {text!r}")
                expect_factor = True
            elif kind == "num":
                if saw_factor:
                    raise SymPolyParseError(f"coefficient after variables in {text!r}")
                coeff = _number(value)
                saw_factor = True
                expect_factor = False
            else:
                base, _, exp = value.partition("^")
                index = int(_number(base[1:])) - 1
                power = int(_number(exp)) if exp else 1
                if not (0 <= index < nvars):
                    raise SymPolyParseError(f"generator {base} out of range (nvars={nvars})")
                if len(mono) + power > MAX_TERM_DEGREE:
                    raise SymPolyParseError(
                        f"a term of {text!r} has degree above {MAX_TERM_DEGREE}")
                mono.extend([index] * power)
                saw_factor = True
                expect_factor = False
            i += 1
        if expect_factor and saw_factor:
            raise SymPolyParseError(f"trailing '*' in {text!r}")
        if not saw_factor:
            raise SymPolyParseError(f"empty term in {text!r}")
        terms.append((tuple(sorted(mono)), sign * coeff))
    return SymPoly(nvars, terms)


def _number(token):
    """The rational a numeric token spells; SymPolyParseError for a zero
    denominator or more digits than the interpreter converts to an int."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise SymPolyParseError(f"bad number {token[:20]!r}: {exc}") from exc


def derivation_extend(base, poly, images=None, acc=None, factor=1):
    """Apply the derivation sending generator r to base[r], a SymPoly for
    every generator, to `poly`; it kills the scalar part. `images`, when
    given, is a dict {monomial: image} the caller keeps for this one base:
    an image in it is read, a new one added. With `acc`, a caller's raw
    {monomial: coefficient} sum, factor times the image is added into acc
    (`add_derivation`) and no SymPoly is built. `base` is checked on every
    call either way."""
    if len(base) != poly.nvars:
        raise DimensionError(f"base has {len(base)} entries for {poly.nvars} generators")
    for b in base:
        if b.nvars != poly.nvars:
            raise DimensionError("base values live over a different generator count")
    terms = {} if acc is None else acc
    add_derivation(terms, base, poly, {} if images is None else images, factor)
    return _canonical(poly.nvars, settle(terms)) if acc is None else None


def add_derivation(acc, base, poly, images, factor=1):
    """Add factor times `derivation_extend(base, poly, images)` into the
    raw sum acc (see `add_product`), base unchecked."""
    for mono, coeff in poly.items():
        image = images.get(mono)
        if image is None:
            image = images[mono] = _monomial_image(base, mono)
        if factor != 1:
            coeff *= factor
        for m2, c2 in image:
            old = acc.get(m2)
            acc[m2] = coeff * c2 if old is None else old + coeff * c2


def _monomial_image(base, mono):
    """The derivation's value on one monomial, as (monomial, coefficient)
    pairs with nonzero exact coefficients."""
    terms = {}
    for pos, r in enumerate(mono):  # a generator of multiplicity m counts m times
        add_product(terms, {mono[:pos] + mono[pos + 1:]: 1}, base[r])
    return tuple(settle(terms).items())
