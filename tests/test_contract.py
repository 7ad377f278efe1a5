"""The contract of the public entry points: whatever the arguments, a call
returns, or raises GrigError, TypeError or ValueError, within a second."""

import collections
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grigorchuk
from conftest import within
from grigorchuk import (
    LAMBDA,
    CubicNumber,
    GrigError,
    Presentation,
    TorsionCertificate,
    abelian_invariants,
    certify_torsion,
    cosets,
    cubic,
    growth,
    permgrp,
    presentations,
    reidemeister_schreier,
    reports,
    snf,
    todd_coxeter,
    words,
    wreath,
)
from grigorchuk.cosets import close_normally, maps_onto, quotient_group
from grigorchuk.errors import PreconditionError

# modules without an ``__all__``: every public callable defined in them is drawn
_MODULES = (words, wreath, growth, permgrp, presentations, cosets, snf)

# Z/2 x Z/2, a finite group, so that enumerating its cosets is quick
_KLEIN = Presentation.from_strings("ab", ["aa", "bb", "abab"])


def _entry_points() -> dict:
    """Every callable of ``grigorchuk.__all__`` and of ``cubic.__all__``,
    every public callable that the ``_MODULES`` define, and the public
    methods of the classes with methods, each bound to one instance, by
    name."""
    points = {
        name: getattr(module, name)
        for module in (grigorchuk, cubic)
        for name in module.__all__
        if callable(getattr(module, name))
    }
    for module in _MODULES:
        for name, value in vars(module).items():
            public = not name.startswith("_") and callable(value) and value.__module__ == module.__name__
            if public and value not in points.values():
                points[f"{module.__name__.rpartition('.')[2]}.{name}"] = value
    instances = (
        (CubicNumber, LAMBDA),
        (Presentation, _KLEIN),
        (TorsionCertificate, certify_torsion("ab", 3)),
        (permgrp.PermGroup, permgrp.cyclic(4)),
        (cosets.CosetTable, todd_coxeter(_KLEIN)),
        (growth.GrowthTable, growth.growth_table_free(3)),
        (wreath.NBallReport, wreath.verify_nball_proposition(2)),
        (reports.CheckReport, reports.CheckReport("check", "anchor", "pass")),
        (cosets.AbelianInvariants, abelian_invariants(_KLEIN)),
    )
    for cls, instance in instances:
        for name in dir(cls):
            if not name.startswith("_") and callable(getattr(cls, name)):
                points[f"{cls.__name__}.{name}"] = getattr(instance, name)
    return points


_ENTRY_POINTS = _entry_points()


def _arity(fn) -> tuple[int, int]:
    """The least and the most positional arguments that fn takes."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception type that takes Exception's *args
        return 0, 2
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return sum(p.default is p.empty for p in positional), len(positional)


# odd values, and a few valid ones (a small size, a word, a finite
# presentation and a permutation group) so that a call gets past its first
# argument
_VALUES = [None, True, 2.5, -1, 0, b"ab", ["a", "b"], [5], {}, "é", object()]
_VALUES += [3, "ab", _KLEIN, permgrp.cyclic(2)]


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(_ENTRY_POINTS)))
    least, most = _arity(_ENTRY_POINTS[name])
    size = draw(st.integers(least, most))
    return name, draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size))


@settings(max_examples=1000, deadline=None)
@given(_calls())
def test_public_calls_return_or_reject_within_a_second(call):
    name, args = call
    with within(1.0, f"{name}{tuple(args)!r}"):
        try:
            result = _ENTRY_POINTS[name](*args)
            if inspect.isgenerator(result):
                collections.deque(result, maxlen=0)  # a generator checks on its first next
        except (GrigError, TypeError, ValueError):
            pass


@pytest.mark.parametrize(
    "fn, args",
    [
        (todd_coxeter, (None,)),
        (todd_coxeter, (_KLEIN, [5])),
        (abelian_invariants, ("ab",)),
        (reidemeister_schreier, (_KLEIN, None)),
        (close_normally, (None, ["ab"])),
        (close_normally, (_KLEIN, [5])),
        (quotient_group, (None,)),
        (maps_onto, (None, {}, None)),
        (Presentation.from_text, (None,)),
        (Presentation.from_strings, ("ab", [5])),
        (words.a_parity, (None,)),
        (wreath.certify_exponent, (None, 3)),
        (permgrp.index, (None, None)),
        (permgrp.conjugate_subgroup, (None, (1, 0))),
        (permgrp.normalizer, (None, None)),
        (permgrp.core, (None, None)),
        (permgrp.check_core_lemma, (None, None)),
        (permgrp.enumerate_subgroups, (None,)),
        (permgrp.direct_product, (None, None)),
        (presentations.closed_form_alpha, (2.5,)),
        (presentations.closed_form_beta, (2.5,)),
        (cosets.relation_matrix, (None,)),
        (snf.smith_normal_form, (b"ab",)),
        (permgrp.cyclic(2).is_subgroup_of, (None,)),
        (words.min_conjugate, (None,)),
        (words.min_conjugate, (b"ab",)),
        (words.cyclically_reduce, (None,)),
        (words.cyclically_reduce, (b"ab",)),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_an_argument_of_the_wrong_type_is_a_type_error(fn, args):
    """A presentation, coset table, group, size, row or word of the wrong
    type is named in a TypeError before it is used."""
    with pytest.raises(TypeError, match="must be a"):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, outcome",
    [
        (wreath.certify_exponent, ("aa", 3), PreconditionError),
        (wreath.certify_exponent, ("abx", 3), PreconditionError),
        (wreath.certify_exponent, ("ab" * 40, 3), wreath.RadiusViolation),
        (wreath.certify_exponent, ("ab", True), TypeError),
        (wreath.certify_exponent, ("ab", 0), wreath.RadiusViolation),
        # unreduced and outside the L^2-ball: the word is checked first
        (wreath.certify_exponent, ("aa" * 40, 3), PreconditionError),
        (wreath.certify_exponent, ("abx" * 40, 3), PreconditionError),
        (words.min_conjugate, ("dad",), "a"),
        (words.min_conjugate, ("cabac",), "b"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_the_word_entry_points_raise_and_return_as_pinned(fn, args, outcome):
    """The public checks in front of the certification and conjugation
    kernels: an argument of the wrong type is a TypeError, a word that is
    not reduced a PreconditionError, whatever its length, and only then is
    the radius tested."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            fn(*args)
    else:
        assert fn(*args) == outcome


@pytest.mark.parametrize(
    "fn, args",
    [
        (permgrp.pmul, (b"ab", b"ab")),
        (permgrp.pmul, ({}, b"ab")),
        (permgrp.pinv, (b"ab",)),
        (presentations.closed_form_alpha, (-1,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_a_value_out_of_range_is_a_value_error(fn, args):
    with pytest.raises(ValueError):
        fn(*args)
