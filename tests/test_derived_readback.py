"""The derived bracket's one-solve read-back against the general section.

On a fat algebra `derived_bracket` reads the outer bracket
{{Theta, v-flat}, w-flat} as a covector from its stored entries, lifts it
by one `PhiSection.solve` and negates the scalar coordinates. The oracle
is the general path: `sharp` of the negated covector
`derived_bracket_dual`, read as a vector by `as_vector`. On the other
algebras both functions return the same covector. Unit, zero and random
integer arguments, under both pivot strategies; the two error cases
raise the same message on both paths.
"""

from random import Random

import pytest

from leibniz_complex import duality
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import derived_bracket, derived_bracket_dual
from leibniz_complex.cochains import Cochain, ComplexContext
from leibniz_complex.duality import NotRepresentableError, sharp

FIXTURES = ("A3", "O1", "O2", "AFF_O1", "omni(3)")


def arguments(dim, rng):
    """Every unit vector, zero and three random integer vectors."""
    return ([basis_vec(dim, i) for i in range(dim)] + [(0,) * dim]
            + [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)])


@pytest.mark.parametrize("strategy", ("first", "last"))
@pytest.mark.parametrize("name", FIXTURES)
def test_read_back_equals_sharp_of_the_dual(name, strategy):
    alg = build_fixture(name)
    ctx = ComplexContext(alg, pivot_strategy=strategy)
    args = arguments(alg.dim, Random(f"{name}-{strategy}"))
    for v in args:
        for w in args:
            got = derived_bracket(ctx, v, w)
            dual = derived_bracket_dual(ctx, v, w)
            if alg.is_fat():
                assert got == sharp(ctx, dual).as_vector(), (v, w)
                assert got == alg.bracket(v, w), (v, w)
            else:
                assert isinstance(got, Cochain) and got.degree == 1 and got == dual, (v, w)


@pytest.mark.parametrize("lifted, message", [
    (None, "covector is not in the image of phi"),
    ({((0,), 0): 1}, "derived bracket lift has non-scalar coefficients"),
])
def test_read_back_errors_match_the_sharp_path(monkeypatch, lifted, message):
    """With the section's read-back solve replaced, the one-solve path and
    `sharp` followed by `as_vector` fail alike."""
    ctx = ComplexContext(build_fixture("O1"))
    v, w = basis_vec(ctx.dim, 0), basis_vec(ctx.dim, 1)
    derived_bracket(ctx, v, w)  # the bracket's own lifts are solved and cached
    dual = derived_bracket_dual(ctx, v, w)
    monkeypatch.setattr(duality.PhiSection, "solve", lambda self, values: lifted)
    with pytest.raises(NotRepresentableError, match=message):
        derived_bracket(ctx, v, w)
    if lifted is None:
        with pytest.raises(NotRepresentableError, match=message):
            sharp(ctx, dual)
    else:
        assert sharp(ctx, dual).as_vector() is None
