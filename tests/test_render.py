import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarelab import render, series
from poincarelab.errors import OverflowSentinel
from poincarelab.poincare import poincare_eval_many

# sha256 of the 300 x 300 domain colorings (three row blocks, the last one
# partial), as written before the rows were colored in blocks
_PINNED = {
    "golden": (200.0, "d8ccf8c063d476abf551779ac1c6ed78318c969b5fb41778f62956fdf0b4f064"),
    "cheb": (5000.0, "38ddd8ecce12f0ecd2ffb1480d0be2d3ffc34b34feaac727306fe235f95c18e6"),
}


@pytest.fixture
def maps(golden_poincare, cheb_poincare):
    return {"golden": golden_poincare, "cheb": cheb_poincare}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_domain_coloring_bytes_are_pinned(name, maps):
    r, digest = _PINNED[name]
    assert hashlib.sha256(render.domain_coloring_ppm(maps[name], r, 300)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_row_blocks_do_not_change_the_image(name, maps, monkeypatch):
    pm, r = maps[name], _PINNED[name][0]
    # in blocks of 3 rows, 97 rows end in a one-row block; 96 do not
    for size in (96, 97):
        whole = render.domain_coloring_ppm(pm, r, size)
        assert whole.startswith(f"P6\n{size} {size}\n255\n".encode())
        for rows in (1, 3):
            monkeypatch.setattr(series, "_HORNER_BLOCK", rows * size)
            assert render.domain_coloring_ppm(pm, r, size) == whole
        monkeypatch.undo()


def test_domain_coloring_memory_is_bounded(golden_poincare):
    # colored whole, the 512 x 512 image peaks near 40 MB of float arrays
    tracemalloc.start()
    try:
        data = render.domain_coloring_ppm(golden_poincare, 200.0, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == len(b"P6\n512 512\n255\n") + 3 * 512 * 512
    assert peak < 12e6


def test_ppm_bytes_quantizes_and_checks_shape():
    rgb = np.array([[[0.0, 0.5, 1.0], [-0.2, 1.3, 0.002]]])
    assert render.ppm_bytes(rgb) == b"P6\n2 1\n255\n" + bytes([0, 128, 255, 0, 255, 1])
    with pytest.raises(render.BadParams):
        render.ppm_bytes(np.zeros((2, 3)))


def test_domain_svg_colors_match_ppm(golden_poincare):
    # both round to the nearest channel level; the PPM alone paints the
    # corners outside D_r dark
    r, size = 200.0, render.SVG_CELLS
    svg = render.domain_coloring_svg(golden_poincare, r)
    fills = re.findall(r'fill="#([0-9a-f]{6})"', svg)[-size * size:]  # after the backdrop
    svg_rgb = np.array([list(bytes.fromhex(f)) for f in fills]).reshape(size, size, 3)
    ppm = render.domain_coloring_ppm(golden_poincare, r, size)
    ppm_rgb = np.frombuffer(ppm[-3 * size * size:], dtype=np.uint8).reshape(size, size, 3)
    inside = np.abs(render._grid(r, size)) <= r
    assert np.array_equal(svg_rgb[inside], ppm_rgb[inside])


def test_domain_ppm_evaluates_only_the_disk(golden_poincare, monkeypatch):
    # f overflows in the corners of the square around D_17000, outside the
    # disk; the image is still drawn, with those pixels dark
    r, size = 17000.0, 64
    z = render._grid(r, size)
    inside = np.abs(z) <= r
    with pytest.raises(OverflowSentinel):
        poincare_eval_many(golden_poincare, z[~inside])
    seen = []

    def spy(pm, pts):
        seen.append(pts.copy())
        return poincare_eval_many(pm, pts)

    monkeypatch.setattr(render, "poincare_eval_many", spy)
    data = render.domain_coloring_ppm(golden_poincare, r, size)
    rgb = np.frombuffer(data[-3 * size * size:], dtype=np.uint8).reshape(size, size, 3)
    assert np.all(rgb[~inside] == round(0.08 * 255))
    assert np.array_equal(np.concatenate(seen), z[inside])


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(-1e-20)  # % 1.0 rounds it up to 1.0
@example(1.0 - 2.0**-53)
@example(-(1.0 - 2.0**-53))
def test_frac_is_the_float_remainder(x):
    a = np.array([x, -x])
    assert render._frac(a).tobytes() == (a % 1.0).tobytes()


def _reference_hsv(h, v):
    """uint8 RGB of HSV with saturation 0.85, as the domain coloring was
    computed before its one-pass color path: float channels picked by
    np.choose, stacked, then rounded."""
    s = np.full_like(v, 0.85)
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    rgb = np.stack([np.choose(i, [v, q, p, p, t, v]), np.choose(i, [t, v, v, q, p, p]),
                    np.choose(i, [p, p, t, v, v, q])], axis=-1)
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def _reference_colors(f):
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(f))
    logm[~np.isfinite(logm)] = -30.0
    hue = (np.angle(f) / math.tau) % 1.0
    return _reference_hsv(hue, 0.35 + 0.55 * ((logm / math.log(2.0)) % 1.0))


def test_hsv_bytes_match_the_reference():
    rng = np.random.default_rng(21)
    edges = np.arange(7) / 6.0
    h = np.concatenate([rng.random(20000), edges, np.nextafter(edges, 2.0),
                        np.nextafter(edges, -1.0)[1:], [1.0 - 2.0**-53]])
    for v in (rng.uniform(0.35, 0.9, h.size), rng.random(h.size)):
        assert np.array_equal(render._hsv_bytes(h, v), _reference_hsv(h, v))
    one = (np.array([[0.3]]), np.array([[0.6]]))  # a 1-pixel image
    assert render._hsv_bytes(*one).shape == (1, 1, 3)
    assert np.array_equal(render._hsv_bytes(*one), _reference_hsv(*one))


def test_domain_colors_match_the_reference():
    rng = np.random.default_rng(22)
    n = 20000
    f = np.exp(rng.uniform(-40.0, 40.0, n)) * np.exp(1j * math.tau * rng.random(n))
    sectors = np.exp(1j * math.tau * np.arange(7) / 6.0)
    f = np.concatenate([f, sectors, 3.7 * sectors, [0.0, -2.0, 1e-300, complex(1.0, -1e-300),
                                                    complex(-1.0, -1e-300), 1j, -1j]])
    assert np.array_equal(render._domain_colors(f), _reference_colors(f))
    for one in (f[-4:-3], f[:1].reshape(1, 1)):
        assert np.array_equal(render._domain_colors(one), _reference_colors(one))
