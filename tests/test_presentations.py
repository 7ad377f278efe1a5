import pytest
from hypothesis import given

from conftest import reduced_words
from grigorchuk.cosets import todd_coxeter
from grigorchuk.presentations import (
    MAX_RELATOR_LEVEL,
    Presentation,
    closed_form_check,
    gamma0_coxeter_presentation,
    gamma_presentation,
    index_bounds,
    relator_from_string,
    relator_to_string,
    relator_u,
    relator_v,
    sigma,
    xi_generators,
)
from grigorchuk.words import multiply, reduce_word
from grigorchuk.wreath import is_trivial


def test_sigma_on_letters():
    assert sigma("a") == "aca"
    assert sigma("b") == "d"
    assert sigma("c") == "b"
    assert sigma("d") == "c"


@pytest.mark.parametrize("w", ["x", "abx", "A"])
def test_sigma_rejects_an_invalid_letter(w):
    bad = next(ch for ch in w if ch not in "abcd")
    with pytest.raises(ValueError, match=f"invalid letter '{bad}'"):
        sigma(w)


@given(reduced_words(max_size=12), reduced_words(max_size=12))
def test_sigma_is_an_endomorphism(u, v):
    assert sigma(multiply(u, v)) == multiply(sigma(u), sigma(v))


def test_sigma_kills_defining_relators():
    for rel in ["aa", "bb", "cc", "dd", "bcd"]:
        assert sigma(rel) == ""


def test_truncation_relators():
    assert relator_u(0) == "adadadad"
    assert relator_v(0) == reduce_word("adacac" * 4)
    assert relator_u(1) == sigma(relator_u(0))
    assert len(relator_u(2)) > len(relator_u(1))


def test_relator_lengths_double_up_to_the_level_bound():
    for n in range(5):
        assert (len(relator_u(n)), len(relator_v(n))) == (8 * 2**n, 24 * 2**n)
    # rejected before any sigma step, so this returns at once
    for build in (relator_u, relator_v, gamma_presentation):
        with pytest.raises(ValueError, match=f"<= {MAX_RELATOR_LEVEL}, not 40"):
            build(40)
    with pytest.raises(ValueError, match="n must be >= 0"):
        relator_u(-1)
    with pytest.raises(ValueError, match="n must be >= -1"):
        gamma_presentation(-2)


@pytest.mark.parametrize(
    "build, value, message",
    [
        (gamma_presentation, "1", "n must be an int, not str"),
        (relator_u, 2.0, "n must be an int, not float"),
        (relator_v, True, "n must be an int, not bool"),
        (
            lambda cap: todd_coxeter(gamma_presentation(0), ["a", "b", "c"], cap=cap),
            2.5,
            "cap must be an int, not float",
        ),
    ],
    ids=["gamma-str", "u-float", "v-bool", "coset-cap-float"],
)
def test_levels_and_caps_take_only_ints(build, value, message):
    """A level or coset cap that is not an int is a TypeError, checked
    before it is compared or used."""
    with pytest.raises(TypeError, match=message):
        build(value)


def test_relators_die_in_the_limit_group():
    # every truncation relator is trivial in the limit
    for n in range(3):
        assert is_trivial(relator_u(n))
        assert is_trivial(relator_v(n))


def test_gamma_presentation_shapes():
    free = gamma_presentation(-1)
    assert free.generators == ("a", "b", "c", "d")
    assert len(free.relators) == 5
    g0 = gamma_presentation(0)
    assert len(g0.relators) == 6  # base + u_0
    g2 = gamma_presentation(2)
    assert len(g2.relators) == 5 + 3 + 2  # u_0..u_2, v_0..v_1


def test_presentation_text_roundtrip():
    p = gamma_presentation(1)
    q = Presentation.from_text(p.to_text())
    assert q == p
    assert p.to_text().startswith("gens: a b c d\n")
    assert "rel: adadadad" in p.to_text()


def test_presentation_text_skips_blank_and_comment_lines():
    text = "# level 1\n\ngens: a b c d\n  \nrel: aa\n# end\n"
    assert Presentation.from_text(text) == Presentation.from_strings("abcd", ["aa"])


def test_presentation_rejects_an_empty_relator():
    with pytest.raises(ValueError, match="empty relator"):
        Presentation(("a",), ((),))


def test_presentation_text_rejects_garbage():
    with pytest.raises(ValueError):
        Presentation.from_text("rel: ab\n")  # no gens line
    with pytest.raises(ValueError):
        Presentation.from_text("gens: a b\nrelator: ab\n")


def test_signed_relator_tokens():
    rel = relator_from_string("x0 x1^-1 x0")
    assert rel == (("x0", 1), ("x1", -1), ("x0", 1))
    assert relator_to_string(rel) == "x0 x1^-1 x0"
    assert relator_to_string(relator_from_string("abab")) == "abab"
    # a lone signed generator, as a subgroup presentation may hold, round-trips
    for lone in ("x3", "x3^-1"):
        rel = relator_from_string(lone)
        assert rel == (("x3", 1 if lone == "x3" else -1),)
        assert relator_to_string(rel) == lone


def test_coxeter_form_of_level_0():
    p = gamma0_coxeter_presentation()
    assert p.generators == ("a", "b", "d")
    assert "adadadad" in p.relator_strings()


def test_xi_generators_have_even_parity():
    from grigorchuk.words import a_parity

    assert all(a_parity(w) == 0 for w in xi_generators())


def test_index_bound_recursion_and_closed_forms():
    ib0 = index_bounds(0)
    assert (ib0.alpha, ib0.beta) == (4, 0)
    ib1 = index_bounds(1)
    assert (ib1.alpha, ib1.beta) == (17, 8)
    assert all(closed_form_check(n) for n in range(21))
