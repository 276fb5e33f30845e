"""Injectivity, strictness, verticality and the maps of groupifications
against the earlier procedures.

The library decides a group hom's and a monoid hom's injectivity by
comparing canonical forms (Hopfian groups), strictness by one canonical-form
comparison and one surjectivity test of the composite onto the sharp target,
and verticality from the unit indices of P + Z h(Q) (Farkas); the maps of
groupifications take the images of generators off the hom.  The solving
and searching procedures they replaced are in ``linear_references``; random
group and monoid homs, with torsion and units, must get the same answers."""

from math import gcd

from hypothesis import given, settings, strategies as st

import linear_references as ref
from logflat.abgrp import FgAbGroup, GroupHom
from logflat.monoid import (
    FineMonoid,
    MonoidHom,
    _is_strict,
    _is_vertical,
    classify_morphism,
    groupification_cokernel,
)
from test_integer_layer import _vectors, homs, monoids

SOURCE_TORSION = [(), (2,), (3,), (2, 4), (6,)]
TARGET_TORSION = [(), (2,), (4,), (2, 6)]


@st.composite
def group_homs(draw, source=None, max_rank=2):
    """A hom from ``source`` (random when None, torsion allowed) into a random
    group of rank at most ``max_rank``: free generators go anywhere, a
    generator of order d to an element of the target's torsion killed by d."""
    if source is None:
        source = FgAbGroup(draw(st.integers(0, 2)),
                           draw(st.sampled_from(SOURCE_TORSION)))
    target = FgAbGroup(draw(st.integers(0, max_rank)),
                       draw(st.sampled_from(TARGET_TORSION)))
    images = []
    for i in range(source.dim):
        d = source.generator_order(i)
        if not d:
            images.append(draw(_vectors(target, -2, 2)))
        else:
            images.append((0,) * target.rank + tuple(
                draw(st.integers(0, d)) * (e // gcd(d, e))
                for e in target.torsion))
    return GroupHom(source, target, tuple(images))


@st.composite
def ambient_homs(draw):
    """A monoid hom along a group hom of ambients: the target monoid holds
    the images of the source generators and a few more elements, some
    negated so that it has units.  Not injective whenever the group hom
    kills part of the source's groupification; often not vertical, as the
    target may have a larger rank than the source."""
    src = draw(monoids())
    phi = draw(group_homs(src.ambient, max_rank=3))
    amb = phi.target
    images = [phi.apply(g) for g in src.generators]
    extra = draw(st.lists(_vectors(amb, -2, 2), max_size=2))
    if extra and draw(st.booleans()):
        extra.append(amb.neg(extra[0]))
    return MonoidHom(src, FineMonoid(amb, images + extra), images)


def _agree(h):
    got = (h.is_injective(), _is_strict(h), _is_vertical(h))
    assert got == (ref.monoid_is_injective(h), ref.is_strict(h),
                   ref.is_vertical(h))
    c = classify_morphism(h)
    assert (c.injective, c.strict, c.vertical) == got
    assert h.groupification_hom() == ref.groupification_hom(h)
    cok, to_cok = groupification_cokernel(h)
    ref_cok, ref_to_cok = ref.groupification_cokernel(h)
    assert cok == ref_cok
    assert [to_cok(p) for p in h.target.generators] == \
        [ref_to_cok(p) for p in h.target.generators]


@settings(max_examples=150, deadline=None)
@given(group_homs())
def test_group_injectivity_matches_kernel(hom):
    assert hom.is_injective() == ref.group_is_injective(hom)


@settings(max_examples=80, deadline=None)
@given(homs())
def test_decisions_match_on_homs_into_a_monoid(h):
    _agree(h)


@settings(max_examples=80, deadline=None)
@given(ambient_homs())
def test_decisions_match_along_group_homs(h):
    _agree(h)


def test_decisions_on_a_torsion_source():
    # N (+) Z/2, generated by (1, 0) and (1, 1), onto N: (0, 1) goes to 0
    src = FineMonoid(FgAbGroup(1, (2,)), [(1, 0), (1, 1)])
    tgt = FineMonoid(FgAbGroup.free(1), [(1,)])
    h = MonoidHom(src, tgt, [(1,), (1,)])
    assert not h.is_injective() and not ref.monoid_is_injective(h)
    assert not _is_strict(h) and not ref.is_strict(h)
    # onto Z (+) Z/2 by the identity of the ambient: injective and strict
    same = MonoidHom(src, FineMonoid(src.ambient, src.generators),
                     src.generators)
    assert same.is_injective() and _is_strict(same) and ref.is_strict(same)
    assert _is_vertical(same) and ref.is_vertical(same)
