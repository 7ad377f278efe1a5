from hypothesis import strategies as st

from grigorchuk.words import BCD, LETTERS

raw_words = st.text(alphabet=LETTERS, max_size=24)


@st.composite
def reduced_words(draw, max_size=24):
    n = draw(st.integers(min_value=0, max_value=max_size))
    out = []
    for _ in range(n):
        last = out[-1] if out else ""
        if last == "a":
            out.append(draw(st.sampled_from(BCD)))
        elif last:
            out.append("a")
        else:
            out.append(draw(st.sampled_from(LETTERS)))
    return "".join(out)
