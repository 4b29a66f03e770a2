"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st

from prbox import GaussianTwoModeState


@st.composite
def valid_states(draw):
    delta = draw(st.floats(min_value=0.4, max_value=1.6))
    ratio = draw(st.floats(min_value=1.15, max_value=4.0))
    return GaussianTwoModeState(delta=delta, gamma=delta * ratio)


angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
dark_widths = st.floats(min_value=0.0, max_value=2.0)
