"""Test utilities: numerical gradient checking for nn modules and losses."""

from __future__ import annotations

import numpy as np


def numerical_input_gradient(
    module, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``sum(module(x) * grad_out)`` w.r.t. x."""
    x = x.copy()
    num = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        plus = np.array(module(x))  # snapshot: modules may return views
        x[idx] = orig - eps
        minus = np.array(module(x))
        x[idx] = orig
        num[idx] = float(((plus - minus) * grad_out).sum()) / (2 * eps)
    return num


def check_input_gradient(module, x: np.ndarray, rng, tol: float = 1e-5) -> None:
    """Assert analytic input gradient matches numeric for *module*."""
    y = module(x)
    grad_out = rng.standard_normal(y.shape)
    module(x)  # refresh caches after probing shape
    module.zero_grad()
    analytic = module.backward(grad_out)
    numeric = numerical_input_gradient(module, x, grad_out)
    err = np.abs(analytic - numeric).max()
    assert err < tol, f"input gradient error {err:.3e} exceeds {tol}"


def check_parameter_gradients(module, x: np.ndarray, rng, tol: float = 1e-4) -> None:
    """Assert analytic parameter gradients match numeric for *module*."""
    y = module(x)
    grad_out = rng.standard_normal(y.shape)
    module.zero_grad()
    module.backward(grad_out)
    for name, parameter in module.named_parameters():
        analytic = parameter.grad.copy()
        flat = parameter.data.reshape(-1)
        # probe a handful of coordinates to keep runtime bounded
        probe = np.linspace(0, flat.size - 1, min(flat.size, 6)).astype(int)
        for k in probe:
            orig = flat[k]
            flat[k] = orig + 1e-6
            plus = float((module(x) * grad_out).sum())
            flat[k] = orig - 1e-6
            minus = float((module(x) * grad_out).sum())
            flat[k] = orig
            numeric = (plus - minus) / 2e-6
            err = abs(analytic.reshape(-1)[k] - numeric)
            assert err < tol, (
                f"param {name}[{k}] gradient error {err:.3e} exceeds {tol}"
            )
    module(x)  # restore caches to a consistent state


# -- naive per-element reference for the columnar front end --------------------
#
# The oracle for the differential tests of parse → grid → stamp: the same
# contract written one line / one element / one wire at a time, with no
# shared code beyond the node-name grammar.

import math
import re

import scipy.sparse as sp

_REF_SUFFIXES = {
    "meg": 1e6, "t": 1e12, "g": 1e9, "k": 1e3, "m": 1e-3,
    "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}
_REF_NODE = re.compile(r"^n(\d+)_m(\d+)_(-?\d+)_(-?\d+)$")


def reference_value(token: str, line_no: int) -> float:
    from repro.spice.parser import SpiceParseError

    text = token.strip().lower()
    if not text:
        raise SpiceParseError("empty numeric token", line_no)
    stem, factor = text, 1.0
    for suffix, scale in _REF_SUFFIXES.items():
        if text.endswith(suffix):
            stem, factor = text[: -len(suffix)], scale
            break
    if not token.isascii() or not stem or set(stem) - set("0123456789+-.e"):
        raise SpiceParseError(f"bad numeric token {token!r}", line_no)
    try:
        value = float(stem) * factor
    except ValueError:
        raise SpiceParseError(f"bad numeric token {token!r}", line_no) from None
    if not math.isfinite(value):
        raise SpiceParseError(f"non-finite numeric token {token!r}", line_no)
    return value


def reference_parse(text: str) -> tuple[str, dict[str, list[tuple]]]:
    """``(title, {kind: [(name, node_1, node_2, value), ...]})``."""
    from repro.spice.parser import SpiceParseError

    kinds = {"R": "resistors", "I": "current_sources",
             "V": "voltage_sources", "C": "capacitors"}
    elements: dict[str, list[tuple]] = {kind: [] for kind in kinds.values()}
    title = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*"):
            if title is None:
                title = line.lstrip("*").strip()
            continue
        if line.startswith("."):
            directive = line.split()[0].lower()
            if directive == ".end":
                break
            if directive in (".ends", ".op"):
                continue
            raise SpiceParseError(f"unsupported directive {directive!r}", line_no)
        tokens = line.split()
        if len(tokens) != 4:
            raise SpiceParseError(
                f"expected 'NAME node node value', got {len(tokens)} tokens", line_no
            )
        name, node_1, node_2, value_token = tokens
        kind = name[0].upper()
        value = reference_value(value_token, line_no)
        if kind not in kinds:
            raise SpiceParseError(
                f"unsupported element {name!r} (PG decks hold only R/I/V/C)", line_no
            )
        if kind == "R" and value < 0:
            raise SpiceParseError(f"negative resistance {value}", line_no)
        if kind == "C" and value < 0:
            raise SpiceParseError(f"negative capacitance {value}", line_no)
        elements[kinds[kind]].append((name, node_1, node_2, value))
    return title or "", elements


class ReferenceGrid:
    """Node list + wire list built one element at a time."""

    def __init__(self, elements: dict[str, list[tuple]]) -> None:
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.load: list[float] = []
        self.pad: list[float | None] = []
        self.wires: list[tuple[str, int, int, float]] = []
        for name, a, b, ohms in elements["resistors"]:
            if ohms == 0.0:
                raise ValueError(
                    f"resistor {name!r} is a 0-ohm short; merge its nodes first"
                )
            if a == "0" or b == "0":
                raise ValueError(
                    f"resistor {name!r} touches ground; PG resistor networks "
                    "connect to ground only through sources"
                )
            if a == b:
                raise ValueError(f"resistor {name!r} is a self-loop on {a!r}")
            self.wires.append((name, self._intern(a), self._intern(b), ohms))
        for name, node, to, amps in elements["current_sources"]:
            if to != "0":
                raise ValueError(
                    f"current source {name!r} must sink to ground, got {to!r}"
                )
            self.load[self._intern(node)] += amps
        for name, node, neg, volts in elements["voltage_sources"]:
            if neg != "0":
                raise ValueError(
                    f"voltage source {name!r} must reference ground, got {neg!r}"
                )
            index = self._intern(node)
            old = self.pad[index]
            if old is not None and old != volts:
                raise ValueError(
                    f"node {node!r} pinned to two voltages ({old} and {volts})"
                )
            self.pad[index] = volts

    def _intern(self, name: str) -> int:
        if name == "0":
            raise ValueError("ground cannot be interned as a PG node")
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.load.append(0.0)
            self.pad.append(None)
        return self.index[name]

    def structured(self) -> list[tuple[int, int, int, int] | None]:
        """``(net, layer, x, y)`` per node, or None for free-form names."""
        out = []
        for name in self.names:
            match = _REF_NODE.match(name)
            out.append(None if match is None else tuple(int(g) for g in match.groups()))
        return out

    def stamp(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """The reduced ``(G, b)`` stamped one wire at a time."""
        unknown = [i for i, volts in enumerate(self.pad) if volts is None]
        row_of = {node: row for row, node in enumerate(unknown)}
        n = len(unknown)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros(n)
        diag = np.zeros(n)
        for _, a, b, ohms in self.wires:
            g = 1.0 / ohms
            ra, rb = row_of.get(a), row_of.get(b)
            if ra is not None:
                diag[ra] += g
            if rb is not None:
                diag[rb] += g
            if ra is not None and rb is not None:
                rows.extend((ra, rb))
                cols.extend((rb, ra))
                vals.extend((-g, -g))
            elif ra is not None:
                rhs[ra] += g * self.pad[b]
            elif rb is not None:
                rhs[rb] += g * self.pad[a]
        for node, row in row_of.items():
            if self.load[node]:
                rhs[row] -= self.load[node]
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        triplets = (
            np.asarray(vals, dtype=float),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        )
        matrix = sp.csr_matrix(triplets, shape=(n, n), dtype=float)
        matrix.sum_duplicates()
        return matrix, rhs

    def geometry(self, pixel_nm: int = 1000, align_pixels: int = 8) -> tuple:
        """``(width, height, [(layer, pitch, direction), ...])``, node by node."""
        nodes = [s for s in self.structured() if s is not None]
        step = pixel_nm * align_pixels
        width = ((max(s[2] for s in nodes) + pixel_nm) + step - 1) // step * step
        height = ((max(s[3] for s in nodes) + pixel_nm) + step - 1) // step * step
        layers = []
        for layer in sorted({s[1] for s in nodes}):
            xs = sorted({s[2] for s in nodes if s[1] == layer})
            ys = sorted({s[3] for s in nodes if s[1] == layer})
            direction = "h" if len(xs) >= len(ys) else "v"
            coords = ys if direction == "h" else xs
            pitch = int(np.median(np.diff(coords))) if len(coords) > 1 else pixel_nm
            layers.append((layer, max(pitch, 1), direction))
        return width, height, layers
