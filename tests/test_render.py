import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from poincarelab import render, series

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
