import xml.etree.ElementTree as ET

import pytest

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


def test_ticks_of_an_empty_span_are_its_one_end():
    assert _nice_ticks(3.0, 3.0) == [3.0]
    assert _nice_ticks(3.0, 2.0) == [3.0]


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
