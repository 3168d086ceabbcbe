"""Shared fixture divisions and frozen expected data."""

from __future__ import annotations

import pytest

from conedec import RelDivision, parse_term, reachable_forward


def term(s: str, n: int = 3):
    return parse_term(s, n)


def make_division(n: int, d: int | None, rows: dict[str, str]) -> RelDivision:
    """Readable constructor: rows map term strings to comma-separated variables."""
    return RelDivision.from_json_dict({"n": n, "degree": d, "multiplicative": {
        key: vals.replace(",", " ").split() for key, vals in rows.items()}})


def forward_reach(g) -> dict:  # equal for two graphs iff same nodes, same reachability
    return {t: reachable_forward(g, [t]) for t in g.nodes}


@pytest.fixture
def pommaret32():
    from conedec import pommaret_on_slice

    return pommaret_on_slice(3, 2)


# a valid (3,2) division whose compliant/revenant closures are small
@pytest.fixture
def idealpom():
    return make_division(3, 2, {
        "x^2": "x,y,z", "x*y": "y,z", "y^2": "y",
        "x*z": "z", "y*z": "y,z", "z^2": "z",
    })


# valid (3,3) division with a compliant closure that swallows the whole slice
@pytest.fixture
def ideal33():
    return make_division(3, 3, {
        "x^3": "x,z", "x^2*y": "x", "x*y^2": "x", "y^3": "x,y",
        "x^2*z": "z", "x*y*z": "x,y,z", "y^2*z": "y",
        "x*z^2": "z", "y*z^2": "y", "z^3": "y,z",
    })


# valid (3,2) division with ideal {xz} = (xz, xy), escalier {xz} = {xz, x^2, z^2}
@pytest.fixture
def facile():
    return make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y,z",
        "x*z": "x,z", "y*z": "z", "z^2": "z",
    })


# valid (3,2) division used for the labeled-graph golden test (orbit table 8)
@pytest.fixture
def strange32():
    return make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y",
        "x*z": "x,z", "y*z": "y", "z^2": "y,z",
    })


# invalid (3,1) assignment: cones disjoint but x*y*z never covered
@pytest.fixture
def uncovering31():
    return make_division(3, 1, {"x": "x,y", "y": "y,z", "z": "x,z"})


TR_ROWS = {
    "x^3": "x", "x^2*y": "x,y,t", "x*y^2": "y,z", "y^3": "y,z",
    "x^2*z": "x,y,z", "x*z^2": "z", "z^3": "z", "x^2*t": "x,z,t",
    "x*t^2": "y,t", "t^3": "t", "x*y*t": "y", "x*z*t": "z,t",
    "x*y*z": "z", "y*z^2": "z", "y*t^2": "t", "y^2*z": "z",
    "y^2*t": "y,t", "z^2*t": "z,t", "y*z*t": "x,y,z,t", "z*t^2": "t",
}


# valid (4,3) division whose one-step propagation graph under-reaches
@pytest.fixture
def four_vars():
    return make_division(4, 3, TR_ROWS)


# the eight (3,2) classes up to variable renaming; columns follow
# x^2, x*y, y^2, x*z, y*z, z^2
ORBIT_TABLES_32 = [
    ["x,y,z", "y,z", "y,z", "z", "z", "z"],
    ["x,y,z", "y,z", "y", "z", "y", "y,z"],
    ["x,y,z", "y,z", "y", "z", "y,z", "z"],
    ["x,z", "x,y,z", "y,z", "z", "z", "z"],
    ["x", "x,y,z", "y", "x,z", "y,z", "z"],
    ["x,z", "x,y,z", "y", "z", "y,z", "z"],
    ["x,z", "x,y,z", "y", "z", "y", "y,z"],
    ["x", "x,y,z", "y", "x,z", "y", "y,z"],
]

_COLUMNS_32 = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]


def orbit_divisions_32() -> list[RelDivision]:
    return [
        make_division(3, 2, dict(zip(_COLUMNS_32, row))) for row in ORBIT_TABLES_32
    ]


def serialize(div: RelDivision) -> bytes:
    """The rows of div in support order, each its sorted multiplicative
    variables joined by ',', the rows joined by ';': the form that
    canonical_form minimizes over renamings."""
    return ";".join(
        ",".join(str(v) for v in sorted(div.mult[t])) for t in div.support
    ).encode("ascii")


def mutated(data, div: RelDivision) -> RelDivision:
    """div with the multiplicative set of one row replaced by a hypothesis draw."""
    from hypothesis import strategies as st

    rows = dict(div.mult)
    rows[data.draw(st.sampled_from(div.support))] = data.draw(
        st.frozensets(st.integers(1, div.n)))
    return RelDivision(div.n, div.degree, div.support, rows)


# reference reduced propagation graph for the four-variable division above
FOUR_VARS_GRAPH_EDGES = [
    ("x^2*t", "x^3"), ("x^2*z", "x^2*y"), ("x^2*y", "x^2*t"), ("x^2*y", "y^2*t"),
    ("x*y^2", "y^3"), ("x^2*z", "x*y^2"), ("x*y*t", "x*y^2"), ("x*y^2", "x*y*z"),
    ("y^3", "y^2*z"), ("y^2*t", "y^3"), ("x^2*t", "x^2*z"), ("x*z^2", "z^3"),
    ("x*y*z", "x*z^2"), ("y*z^2", "z^3"), ("z^2*t", "z^3"), ("x^2*t", "x*z*t"),
    ("x*t^2", "x*y*t"), ("x*z*t", "x*t^2"), ("y*t^2", "t^3"), ("z*t^2", "t^3"),
    ("x*y*t", "y^2*t"), ("x*z*t", "z^2*t"), ("x*y*z", "y*z^2"), ("y^2*z", "y*z^2"),
    ("y^2*t", "y*t^2"), ("z^2*t", "z*t^2"), ("y*z*t", "x^2*y"),
]

# labeled one-step propagation edges of the strange32 fixture
STRANGE32_EDGES = [
    ("x*y", "x^2", "y"), ("x*z", "x^2", "z"), ("x*y", "y^2", "x"),
    ("y*z", "y^2", "z"), ("x*y", "x*z", "y"), ("x*y", "y*z", "x"),
    ("z^2", "y*z", "z"), ("x*z", "z^2", "x"),
]

# labeled one-step propagation edges of Pommaret at (3,2)
POMMARET32_EDGES = [
    ("x*y", "x^2", "y"), ("x*z", "x^2", "z"), ("y^2", "x*y", "y"),
    ("y*z", "x*y", "z"), ("y*z", "x*z", "y"), ("z^2", "x*z", "z"),
    ("z^2", "y*z", "z"), ("y*z", "y^2", "z"),
]
