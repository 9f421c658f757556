import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachrona.corpus import CorpusError
from diachrona.svgplot import _PALETTE, PlotSpec, _nice_ticks, emit_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def text_nodes(root) -> list[str]:
    return [el.text for el in root.iter(f"{SVG_NS}text")]


def test_empty_series_is_minimal_axes_svg():
    svg = emit_svg(PlotSpec(kind="series", title="empty"))
    root = parse(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert not [el for el in root.iter(f"{SVG_NS}polyline")]


def test_empty_scatter_parses():
    root = parse(emit_svg(PlotSpec(kind="scatter")))
    assert root.tag == f"{SVG_NS}svg"


def test_scatter_has_one_text_node_per_point():
    spec = PlotSpec(
        kind="scatter",
        points=[(0.0, 0.0), (1.0, 1.0), (-1.0, 0.5)],
        labels=["a", "b", "c"],
    )
    root = parse(emit_svg(spec))
    matching = [t for t in text_nodes(root) if t in {"a", "b", "c"}]
    assert sorted(matching) == ["a", "b", "c"]


def test_identical_spec_is_byte_identical():
    spec = PlotSpec(
        kind="series",
        title="det",
        curves=[("x", [(700.0, 3.0), (800.0, 5.0), (900.0, 2.0)])],
    )
    assert emit_svg(spec) == emit_svg(spec)


def test_series_draws_one_polyline_per_curve():
    spec = PlotSpec(
        kind="series",
        curves=[
            ("a", [(0.0, 1.0), (1.0, 2.0)]),
            ("b", [(0.0, 3.0), (1.0, 1.0)]),
        ],
    )
    root = parse(emit_svg(spec))
    assert len([el for el in root.iter(f"{SVG_NS}polyline")]) == 2


def test_empty_curve_draws_no_polyline():
    spec = PlotSpec(kind="series", curves=[("a", []), ("b", [(0.0, 3.0), (1.0, 1.0)])])
    polylines = list(parse(emit_svg(spec)).iter(f"{SVG_NS}polyline"))
    assert len(polylines) == 1 and polylines[0].get("stroke") == _PALETTE[1]


def test_ticks_are_sums_of_steps_rounded_to_the_float_spacing():
    # at 1e9 each step of 2e-7 adds two float spacings (2.4e-7), so the third
    # tick is 1e9 + 4.8e-7, not the nearest float to 1e9 + 4e-7
    assert _nice_ticks(1e9, 1e9 + 1e-6) == [
        1e9, 1000000000.0000002, 1000000000.0000005, 1000000000.0000007, 1000000000.000001
    ]


def test_a_step_below_the_float_spacing_ends_the_ticks():
    # 2**52 + 0.5 rounds back to 2**52, so 2**52 is the last tick, listed once
    assert _nice_ticks(2.0**52 - 1, 2.0**52 + 1) == [2.0**52 - 1, 2.0**52 - 0.5, 2.0**52]


def chart(kind: str, points: list[tuple[float, float]]) -> PlotSpec:
    if kind == "series":
        return PlotSpec(kind="series", curves=[("c", points)])
    return PlotSpec(kind="scatter", points=points, labels=[f"p{i}" for i in range(len(points))])


def test_a_series_at_2_52_draws_each_x_tick_once():
    # its x axis spans 2**52 - 1 to 2**52 + 1, where a half step rounds away
    root = parse(emit_svg(chart("series", [(2.0**52, 1.0)])))
    labels = [el.get("x") for el in root.iter(f"{SVG_NS}text") if el.text == "4.504e+15"]
    assert labels == ["56", "248", "440"]
    lines = [tuple(el.attrib.items()) for el in root.iter(f"{SVG_NS}line")]
    assert len(lines) == len(set(lines)) == 10  # two axes, 3 x ticks, 5 y ticks


def svg_or_corpus_error(spec: PlotSpec) -> None:
    """``emit_svg`` gives a document that parses, or a ``CorpusError``."""
    try:
        svg = emit_svg(spec)
    except CorpusError as exc:
        assert "\n" not in str(exc)
    else:
        assert parse(svg).tag == f"{SVG_NS}svg"


# values where ticks once looped forever (2**52, 9e15), a single value once
# gave a zero-width axis (2**60), a step underflowed (5e-324) and a span
# overflowed (+-1e308)
@pytest.mark.parametrize("kind", ["series", "scatter"])
@pytest.mark.parametrize(
    "points",
    [
        [(2.0**52, 1.0)],
        [(9e15, 1.0)],
        [(2.0**60, 1.0)],
        [(0.0, 1.0), (5e-324, 2.0)],
        [(-1e308, 1.0), (1e308, 2.0)],
    ],
    ids=["2**52", "9e15", "2**60", "subnormal-span", "overflowing-span"],
)
def test_extreme_finite_values_end(kind, points):
    svg_or_corpus_error(chart(kind, points))


@pytest.mark.parametrize("kind", ["series", "scatter"])
def test_one_value_past_2_53_still_gets_an_axis(kind):
    root = parse(emit_svg(chart(kind, [(2.0**60, 1.0)])))
    assert root.find(f"{SVG_NS}circle" if kind == "scatter" else f"{SVG_NS}polyline") is not None


def test_an_overflowing_span_is_a_corpus_error():
    with pytest.raises(CorpusError, match="the span overflows"):
        emit_svg(chart("series", [(-1e308, 1.0), (1e308, 2.0)]))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["series", "scatter"]), st.lists(st.tuples(finite, finite), min_size=1, max_size=3))
def test_any_finite_chart_is_an_svg_or_a_corpus_error(kind, points):
    svg_or_corpus_error(chart(kind, points))


def test_axis_ticks_present():
    spec = PlotSpec(kind="series", curves=[("c", [(700.0, 0.0), (1300.0, 10.0)])])
    root = parse(emit_svg(spec))
    texts = text_nodes(root)
    assert "800" in texts and "1200" in texts


def test_label_count_mismatch_rejected():
    with pytest.raises(CorpusError):
        emit_svg(PlotSpec(kind="scatter", points=[(0, 0)], labels=[]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_rejected(bad):
    with pytest.raises(CorpusError, match="NaN or infinite"):
        emit_svg(PlotSpec(kind="series", curves=[("c", [(0.0, 1.0), (1.0, bad)])]))
    with pytest.raises(CorpusError, match="NaN or infinite"):
        emit_svg(PlotSpec(kind="scatter", points=[(bad, 0.0)], labels=["a"]))


def test_unknown_kind_rejected():
    with pytest.raises(CorpusError):
        emit_svg(PlotSpec(kind="pie"))


def test_labels_are_xml_escaped():
    spec = PlotSpec(kind="scatter", points=[(0, 0)], labels=["a<b&c"])
    root = parse(emit_svg(spec))  # would raise on unescaped text
    assert "a<b&c" in text_nodes(root)
