"""Differential tests: the columnar parse → grid → stamp against a naive oracle.

:mod:`tests.helpers` holds the same contract written one line, one
element and one wire at a time.  Generated decks (valid and with one
injected defect) must give the same netlist columns, node order, pads,
loads, geometry and bitwise-identical reduced systems — or the same
exception type and message.  The grid's pickle transport and its ECO
mutations are checked against the oracle too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.geometry import infer_geometry
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.spice.parser import parse_spice
from tests.helpers import ReferenceGrid, reference_parse

GOOD_VALUES = (
    "1", "2.5", "0.4", ".5", "3.", "1e-3", "2E2", "+4", "2k", "1.5m", "3meg",
    "4u", "10n", "7p", "1f", "1g", "2K", "2MEG", "1e-1k", "0.25",
)
BAD_VALUES = (
    "1e999", "-1e999", "1e308k", "infinity", "inf", "nan", "nanp", "1_000",
    "١٢", "1K", "abc", "1.5v", "--1", "1e", ".", "e5", "0x10",
)

structured_names = st.builds(
    lambda layer, x, y: f"n1_m{layer}_{x * 1000}_{y * 1000}",
    st.integers(1, 3), st.integers(0, 6), st.integers(0, 6),
)
free_names = st.sampled_from(["a", "b", "vdd", "x_1", "n1_m1_a_b", "N1_m1_0_0"])
node_pools = st.lists(
    st.one_of(structured_names, free_names), min_size=2, max_size=10, unique=True
)
values = st.one_of(
    st.sampled_from(GOOD_VALUES),
    st.floats(1e-6, 1e6).map(repr),
)


@st.composite
def decks(draw) -> list[str]:
    """Body lines of a well-formed deck (defects are injected separately)."""
    pool = draw(node_pools)
    node = st.sampled_from(pool)
    lines = []
    letter = lambda upper: draw(st.sampled_from([upper, upper.lower()]))
    for k in range(draw(st.integers(1, 14))):
        a, b = draw(st.lists(node, min_size=2, max_size=2, unique=True))
        lines.append(f"{letter('R')}{k} {a} {b} {draw(values)}")
    for k in range(draw(st.integers(0, 5))):
        lines.append(f"{letter('I')}{k} {draw(node)} 0 {draw(values)}")
    supply = draw(st.sampled_from(["1.05", "1.05", "1050m", "0.9"]))
    for k in range(draw(st.integers(0, 3))):
        lines.append(f"{letter('V')}{k} {draw(node)} 0 {supply}")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"{letter('C')}{k} {draw(node)} 0 {draw(values)}")
    lines = draw(st.permutations(lines))
    extras = draw(st.lists(
        st.sampled_from(["", "   ", "* a comment", ".op", "  * indented note", ".ends"]),
        max_size=4,
    ))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line for line in lines]
    if draw(st.booleans()):
        lines.insert(0, "* deck title")
    if draw(st.booleans()):
        lines += [".END", "R99 junk after end"]
    return lines


#: One injected defect per malformed deck; ``{node}`` is a node of the deck.
DEFECTS = (
    "Rg {node} 0 1",  # ground resistor
    "Rs {node} zz 0",  # short
    "Rl {node} {node} 1",  # self-loop
    "Vd {node} 0 1.05\nVe {node} 0 2",  # double pin
    "Ix {node} zz 0.1",  # I not to ground
    "Ig 0 0 0.1",  # I from ground
    "Vx {node} zz 1",  # V not to ground
    "Vg 0 0 1",  # V on ground
    "R9 {node} zz",  # wrong token count
    "R9 {node} zz 1 2",
    "L1 a b 1",  # unsupported element
    ".tran 1n 10n",  # unsupported directive
    "R8 {node} zz -1",  # negative resistance
    "C8 a b -1",  # negative capacitance
    *(f"R7 {{node}} zz {token}" for token in BAD_VALUES),  # bad token
)


def outcome(build):
    try:
        return "ok", build()
    except ValueError as exc:
        return "error", (type(exc).__name__, str(exc))


def build_new(text):
    netlist = parse_spice(text)
    return netlist, PowerGrid.from_netlist(netlist)


def build_reference(text):
    title, elements = reference_parse(text)
    return (title, elements), ReferenceGrid(elements)


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_stamp(grid: PowerGrid, ref: ReferenceGrid) -> None:
    system = build_reduced_system(grid, validate=False, check_diagonal=False)
    matrix, rhs = ref.stamp()
    for attr in ("data", "indices", "indptr"):
        assert_bitwise(getattr(system.matrix, attr), getattr(matrix, attr))
    assert_bitwise(system.rhs, rhs)
    pads = {i: v for i, v in enumerate(ref.pad) if v is not None}
    assert system.pad_voltages == pads


def assert_same_grid(grid: PowerGrid, ref: ReferenceGrid) -> None:
    assert [node.name for node in grid.nodes] == ref.names
    assert all(grid.index_of(name) == i for i, name in enumerate(ref.names))
    load, pad = grid.source_arrays()
    assert_bitwise(load, np.array(ref.load, dtype=np.float64))
    assert [None if np.isnan(v) else v for v in pad.tolist()] == ref.pad
    assert [n.index for n in grid.pads()] == [i for i, v in enumerate(ref.pad) if v is not None]
    assert [n.index for n in grid.loads()] == [i for i, v in enumerate(ref.load) if v != 0.0]
    assert [(w.name, w.node_a, w.node_b, w.resistance) for w in grid.wires] == ref.wires
    x, y, layer, structured = grid.node_arrays()
    expected = ref.structured()
    assert structured.tolist() == [s is not None for s in expected]
    for i, fields in enumerate(expected):
        node = grid.node(i).structured
        assert (None if node is None else (node.net, node.layer, node.x, node.y)) == fields
        if fields is not None:
            assert (layer[i], x[i], y[i]) == fields[1:]
    for node in range(grid.num_nodes):
        expected_wires = [k for k, w in enumerate(ref.wires) if node in w[1:3]]
        assert [w.name for w in grid.wires_at(node)] == [ref.wires[k][0] for k in expected_wires]
        assert grid.neighbors(node) == [
            ref.wires[k][2] if ref.wires[k][1] == node else ref.wires[k][1]
            for k in expected_wires
        ]


@given(lines=decks(), crlf=st.booleans())
@settings(max_examples=120, deadline=None)
def test_valid_decks_match_the_reference(lines, crlf):
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    new = outcome(lambda: build_new(text))
    ref = outcome(lambda: build_reference(text))
    assert new[0] == ref[0], (new, ref)
    if new[0] == "error":  # e.g. two spellings of a supply pinned on one node
        assert new[1] == ref[1]
        return
    (netlist, grid), ((title, elements), ref_grid) = new[1], ref[1]
    assert netlist.title == title
    for kind, rows in elements.items():
        columns = netlist.columns(kind)
        assert list(zip(*columns[:3])) == [row[:3] for row in rows]
        assert_bitwise(columns.values, np.array([row[3] for row in rows], dtype=np.float64))
    assert_same_grid(grid, ref_grid)
    assert_same_stamp(grid, ref_grid)
    if any(s is not None for s in ref_grid.structured()):
        geometry = infer_geometry(grid, align_pixels=4)
        width, height, layers = ref_grid.geometry(align_pixels=4)
        assert (geometry.width_nm, geometry.height_nm) == (width, height)
        assert [(i.index, i.pitch_nm, i.direction) for i in geometry.layers] == layers


@pytest.mark.parametrize("defect", DEFECTS)
@given(lines=decks(), data=st.data())
@settings(max_examples=12, deadline=None)
def test_malformed_decks_raise_what_the_reference_raises(defect, lines, data):
    body = [line for line in lines if line.strip().startswith(("R", "r"))]
    defect = defect.format(node=body[0].split()[1])
    lines = list(lines)
    end = next((k for k, line in enumerate(lines) if line.strip().lower() == ".end"), len(lines))
    lines.insert(data.draw(st.integers(0, end)), defect)
    text = "\n".join(lines) + "\n"
    new = outcome(lambda: build_new(text))
    ref = outcome(lambda: build_reference(text))
    assert new[0] == ref[0] == "error", (new, ref)
    assert new[1] == ref[1]


@given(lines=decks())
@settings(max_examples=60, deadline=None)
def test_pickle_round_trip_keeps_columns_and_stamp(lines):
    text = "\n".join(lines) + "\n"
    try:
        netlist, grid = build_new(text)
    except ValueError:
        return
    copy = pickle.loads(pickle.dumps(grid, protocol=pickle.HIGHEST_PROTOCOL))
    for mine, theirs in (
        (grid.node_arrays(), copy.node_arrays()),
        (grid.wire_arrays(), copy.wire_arrays()),
        (grid.source_arrays(), copy.source_arrays()),
    ):
        for a, b in zip(mine, theirs):
            assert_bitwise(a, b)
    assert [n.name for n in copy.nodes] == [n.name for n in grid.nodes]
    assert list(copy.wires) == list(grid.wires)
    _, ref = build_reference(text)
    assert_same_stamp(copy, ref)
    netlist_copy = pickle.loads(pickle.dumps(netlist))
    assert netlist_copy == netlist


@given(lines=decks(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutations_show_through_views_and_restamp(lines, data):
    text = "\n".join(lines) + "\n"
    try:
        _, grid = build_new(text)
    except ValueError:
        return
    _, ref = build_reference(text)
    original_ref_pad, original_ref_load = list(ref.pad), list(ref.load)
    original_ref_wires = list(ref.wires)
    work = grid.clone()
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(["pin", "unpin", "load", "wire"]))
        node = data.draw(st.integers(0, work.num_nodes - 1))
        if op == "pin" and ref.pad[node] is None:
            work.pin_pad(node, 1.05)
            ref.pad[node] = 1.05
        elif op == "unpin" and ref.pad[node] is not None:
            work.unpin_pad(node)
            ref.pad[node] = None
        elif op == "load":
            amps = data.draw(st.floats(-1.0, 1.0))
            work.set_load(node, amps)
            ref.load[node] = amps
        elif op == "wire":
            k = data.draw(st.integers(0, work.num_wires - 1))
            ohms = data.draw(st.floats(1e-3, 1e3))
            work.set_wire_resistance(k, ohms)
            ref.wires[k] = (*ref.wires[k][:3], ohms)
        record = work.node(node)
        assert record.pad_voltage == ref.pad[node]
        assert record.is_pad == (ref.pad[node] is not None)
        assert record.load_current == ref.load[node]
    assert [w.resistance for w in work.wires] == [w[3] for w in ref.wires]
    assert_same_stamp(work, ref)
    # The clone's edits never reach the original grid.
    ref.pad, ref.load, ref.wires = original_ref_pad, original_ref_load, original_ref_wires
    assert_same_grid(grid, ref)
    assert_same_stamp(grid, ref)


def test_node_views_write_through_to_the_columns():
    grid = PowerGrid.from_netlist(
        parse_spice("R1 a b 1\nR2 b c 2\nI1 c 0 0.5\nV1 a 0 1\n")
    )
    node = grid.node("c")
    node.load_current = 0.25
    node.pad_voltage = 0.9
    load, pad = grid.source_arrays()
    assert load[grid.index_of("c")] == 0.25 and pad[grid.index_of("c")] == 0.9
    node.pad_voltage = None
    assert not grid.node("c").is_pad
    with pytest.raises(ValueError, match="finite"):
        grid.pin_pad("b", float("nan"))


# -- regression guards: the hot path stays columnar ------------------------------


@pytest.fixture(scope="module")
def tiny_pipeline():
    from repro.core.config import FusionConfig
    from repro.core.pipeline import IRFusionPipeline
    from repro.train.trainer import TrainConfig

    pipeline = IRFusionPipeline(FusionConfig(
        pixels=16, num_fake=2, num_real_train=1, num_real_test=1,
        base_channels=4, depth=2, train=TrainConfig(epochs=1, batch_size=4),
        augment=False, oversample_fake=1, oversample_real=1,
    ))
    pipeline.train()
    return pipeline


def _forbid(monkeypatch, owner, attr):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{owner.__name__}.{attr} called on the hot path")

    monkeypatch.setattr(owner, attr, refuse)


def test_analyze_text_builds_no_node_or_wire_records(tiny_pipeline, monkeypatch):
    from repro.grid.netlist import PGNode, PGWire
    from repro.spice.writer import netlist_to_string

    _, (design, *_) = tiny_pipeline.generate_designs()
    text = netlist_to_string(design.netlist)
    expected = tiny_pipeline.analyze_text(text).predicted_drop
    _forbid(monkeypatch, PGNode, "__init__")
    _forbid(monkeypatch, PGWire, "__init__")
    result = tiny_pipeline.analyze_text(text)
    assert_bitwise(result.predicted_drop, expected)


def test_unpickling_a_grid_parses_no_node_name(real_design, monkeypatch):
    import repro.grid.netlist as netlist_module
    import repro.spice.nodes as nodes_module

    blob = pickle.dumps(real_design.grid)
    _forbid(monkeypatch, nodes_module, "parse_node_name")
    _forbid(monkeypatch, nodes_module, "parse_node_names")
    _forbid(monkeypatch, netlist_module, "parse_node_names")
    copy = pickle.loads(blob)
    assert copy.layers_present() == real_design.grid.layers_present()
    assert copy.node(0).structured == real_design.grid.node(0).structured
    assert_same_systems(copy, real_design.grid)


def assert_same_systems(a: PowerGrid, b: PowerGrid) -> None:
    first, second = build_reduced_system(a), build_reduced_system(b)
    for attr in ("data", "indices", "indptr"):
        assert_bitwise(getattr(first.matrix, attr), getattr(second.matrix, attr))
    assert_bitwise(first.rhs, second.rhs)
