"""The README's list of context caches names every cache a context fills.

A context is built for each default fixture and for omni(3), and every
operation that keeps something in `ctx.cache` runs on it once. Every key
the cache then holds must be named in the README's cache list, the one
place the caches are listed, so a new cache fails this test until the
list names it.
"""

import re
from pathlib import Path

import pytest

from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import basis_flat, derived_bracket, poisson, theta, zeta
from leibniz_complex.cochains import ComplexContext, coboundary, cochain_space_basis, cup
from leibniz_complex.duality import is_representable
from leibniz_complex.verify import VerifyConfig

README = Path(__file__).parent.parent / "README.md"


def listed_caches():
    """The backticked names that open the bullets of the README's cache
    list, the list after "Its caches and their bounds:"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Its caches and their bounds:", 1)[1].split("\n\n", 2)[1]
    names = set()
    for bullet in re.split(r"\n- ", "\n" + section):
        head = bullet.split(":", 1)[0]
        names.update(re.findall(r"`([a-z_]+)`", head))
    return names


@pytest.mark.parametrize("fixture", VerifyConfig().fixtures + ("omni(3)",))
def test_every_context_cache_is_in_the_readme_list(fixture):
    ctx = ComplexContext(build_fixture(fixture))
    flat = basis_flat(ctx, 0)
    coboundary(ctx, zeta(ctx))
    cup(ctx, flat, flat)
    poisson(ctx, theta(ctx), flat)
    derived_bracket(ctx, basis_vec(ctx.dim, 0), basis_vec(ctx.dim, ctx.dim - 1))
    is_representable(ctx, theta(ctx))
    cochain_space_basis(ctx, 2)
    assert ctx.cache
    assert set(ctx.cache) <= listed_caches()
