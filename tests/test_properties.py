"""Properties that hold over whole boxes of parameters, checked with
``hypothesis`` at a fixed seed (``derandomize=True``), so every run tries
the same examples."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendcop.families import FAMILIES, make_copula, parse_copula
from blendcop.weighting import WEIGHTINGS, make_weighting, parse_weighting

#: One (low, high) box per parameter, open at both ends, inside each
#: class's ``param_domains``: correlations in (-1, 1), positive parameters
#: in (0.001, 1000), parameters above one in (1, 1000), and frank's
#: nonzero alpha in (-1000, 1000) less 0.
BOXES = {
    "gaussian": [(-1.0, 1.0)],
    "student_t": [(-1.0, 1.0), (1e-3, 1e3)],
    "frank": [(-1e3, 1e3)],
    "clayton": [(1e-3, 1e3)],
    "joe": [(1.0, 1e3)],
    "gumbel": [(1.0, 1e3)],
    "inverted_gumbel": [(1.0, 1e3)],
    "husler_reiss": [(1e-3, 1e3)],
    "galambos": [(1e-3, 1e3)],
    "coles_tawn": [(1e-3, 1e3), (1e-3, 1e3)],
    "power": [(1e-3, 1e3)],
    "exp_complement": [(1e-3, 1e3)],
}
#: (class, parse, make) of each tag.
KINDS = {
    **{tag: (cls, parse_copula, make_copula) for tag, cls in FAMILIES.items()},
    **{tag: (cls, parse_weighting, make_weighting) for tag, cls in WEIGHTINGS.items()},
}


def test_every_family_and_weighting_has_a_box_inside_its_domains():
    assert sorted(BOXES) == sorted(KINDS)
    for tag, box in BOXES.items():
        domains = [domain for _, domain in KINDS[tag][0].param_domains]
        assert len(box) == len(domains), tag
        for (low, high), domain in zip(box, domains):
            # the open box's first and last doubles
            assert math.nextafter(low, high) in domain and math.nextafter(high, low) in domain, tag


def params_in(box):
    """A tuple of doubles, one drawn from each open (low, high) of ``box``,
    less 0."""
    return st.tuples(
        *[
            st.floats(low, high, exclude_min=True, exclude_max=True).filter(lambda p: p != 0.0)
            for low, high in box
        ]
    )


@pytest.mark.parametrize("tag", sorted(BOXES))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_repr_and_factory_give_back_an_equal_object(tag, data):
    cls, parse, make = KINDS[tag]
    obj = cls(*data.draw(params_in(BOXES[tag])))
    again = parse(repr(obj))
    assert again == obj
    assert make(obj.tag, obj.params) == obj
