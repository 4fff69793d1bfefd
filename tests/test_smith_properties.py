"""Property test of the Smith-form contract on random integer matrices."""

import pytest

from gfdescent.smith import IntMatrix

from test_smith import check_snf_contract

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entry = st.integers(-(10**6), 10**6)
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(matrices())
def test_snf_contract_holds(rows):
    check_snf_contract(IntMatrix(rows))
