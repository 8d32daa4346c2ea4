"""Static images: domain coloring (binary PPM) and marker plots (SVG).

Everything here is deterministic: pixel colors are pure functions of the
inputs and SVG floats are printed with fixed precision, so equal inputs give
byte-identical files.

domain_coloring_ppm fills the dark backdrop once and evaluates f only at
the pixels with |z| <= r, max(1, 2^15 // size) rows (about one lane block,
series._HORNER_BLOCK pixels) at a time, so its arrays stay in L2 and a
512 x 512 image peaks near 7 MB of traced memory.  A lane's value does not
depend on its batch (see the lane-block sweep in the poincare module), so
neither the blocks nor the mask move a bit, and f may overflow in the
corners outside D_r.  The SVG evaluates every cell it draws.

Colors take one pass: _frac(x) = x - floor(x) is x % 1.0 bit for bit for
finite x, at a fifteenth of its cost (both round the exact x - floor(x)
once: numpy's remainder adds 1 to the exact fmod(x, 1) when that is
negative); the HSV components are computed once, gathered per channel by
hue sector and quantized once.  For the golden map at r = 200 and 512 x 512
pixels (2-vCPU host) the call went from 70 to 47 ms: evaluation 31 -> 29
ms, everything else 39 -> 18 ms.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import series as _series
from .errors import BadParams
from .poincare import PoincareMap, poincare_eval_many
from .sets import SetModel, disk_pack
from .siegel import SiegelMap, h_eval, sub_siegel_sample

SVG_CELLS = 64  # cells per side of the vector domain coloring

# the (r, g, b) of each hue sector, as rows of the components (v, q, p, t);
# row 6 is row 0, for a hue that rounds up to 1.0
_SECTORS = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1], [0, 3, 2]])
_BACKDROP = 20  # round(0.08 * 255), each channel of a PPM pixel outside D_r


def _frac(x: np.ndarray) -> np.ndarray:
    """x % 1.0, with its bits for every finite x (see the module docstring)."""
    return x - np.floor(x)


def _quantize(rgb: np.ndarray) -> np.ndarray:
    """uint8 channels of a float array in [0, 1]."""
    x = rgb * 255.0
    return np.clip(np.rint(x, out=x), 0, 255, out=x).astype(np.uint8)


def _p6(data: np.ndarray) -> bytes:
    """P6 image from an (h, w, 3) uint8 array."""
    h, w, _ = data.shape
    return b"P6\n" + f"{w} {h}\n255\n".encode("ascii") + data.tobytes()


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """P6 image from an (h, w, 3) float array in [0, 1]."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise BadParams("rgb array must have shape (h, w, 3)")
    return _p6(_quantize(rgb))


def _grid(r: float, size: int, rows: slice = slice(None)) -> np.ndarray:
    """The size x size grid over [-r, r]^2, top row = +imag; only the given
    rows, each point with the bits it has in the whole grid."""
    xs = np.linspace(-r, r, size)
    ys = np.linspace(r, -r, size)[rows]
    return xs[None, :] + 1j * ys[:, None]


def _hsv_bytes(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """uint8 RGB, shape h.shape + (3,), of the HSV colors of hue h in [0, 1],
    saturation 0.85 and value v: the components (v, q, p, t) are computed
    once, and each channel is gathered from them by the hue sector."""
    h6 = h.reshape(-1) * 6.0
    sector = np.floor(h6)
    h6 -= sector
    comp = np.stack([v.reshape(-1), 1.0 - 0.85 * h6, np.full(h6.size, 1.0 - 0.85),
                     1.0 - 0.85 * (1.0 - h6)])
    comp[1:] *= comp[0]
    idx = np.take(_SECTORS * h6.size, sector.astype(np.intp), axis=0)
    idx += np.arange(h6.size)[:, None]
    return _quantize(np.take(comp, idx)).reshape(h.shape + (3,))


def _domain_colors(f: np.ndarray) -> np.ndarray:
    """uint8 RGB, shape f.shape + (3,), for the values f: hue from the
    phase, brightness banded by log2 |f|."""
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(f))
    logm[~np.isfinite(logm)] = -30.0
    return _hsv_bytes(_frac(np.angle(f) / math.tau), 0.35 + 0.55 * _frac(logm / math.log(2.0)))


def domain_coloring_ppm(pm: PoincareMap, r: float, size: int = 512) -> bytes:
    """Phase-and-modulus coloring of the Poincare function on the square
    circumscribing D_r, dark outside D_r, where f is not evaluated."""
    data = np.full((size, size, 3), _BACKDROP, dtype=np.uint8)
    pixels = data.view("V3")[..., 0]  # one 3-byte item per pixel: a fast masked store
    rows = max(1, _series._HORNER_BLOCK // size)
    for lo in range(0, size, rows):
        z = _grid(r, size, slice(lo, lo + rows))
        inside = np.abs(z) <= r
        rgb = _domain_colors(poincare_eval_many(pm, z[inside]))
        pixels[lo:lo + rows][inside] = rgb.view("V3")[:, 0]
    return _p6(data)


def _siegel_scatter(sm: SiegelMap, samples: int, seed: int, n_boundary: int):
    """(sampled points, h at n_boundary equally spaced points of the
    sub-disk's boundary circle, half-width of a view around the center that
    holds both)."""
    pts = sub_siegel_sample(sm, samples, seed)
    theta = np.arange(n_boundary) * (math.tau / n_boundary)
    boundary = h_eval(sm, sm.sub_fraction * sm.radius_hat * np.exp(1j * theta))
    span = 1.3 * float(np.max(np.abs(np.concatenate([pts, boundary]) - sm.center_value))) + 1e-12
    return pts, boundary, span


def siegel_scatter_ppm(sm: SiegelMap, size: int = 512, samples: int = 4000,
                       seed: int = 7) -> bytes:
    """Sampled sub-Siegel disk (light dots) with its boundary image (bright)
    on a dark background."""
    pts, boundary, span = _siegel_scatter(sm, samples, seed, 720)
    img = np.full((size, size, 3), 0.06)

    def paint(zs, color):
        xi = np.clip(((zs.real - sm.center_value.real) / span + 1.0) * 0.5 * (size - 1), 0, size - 1).astype(int)
        yi = np.clip((1.0 - ((zs.imag - sm.center_value.imag) / span + 1.0) * 0.5) * (size - 1), 0, size - 1).astype(int)
        img[yi, xi] = color

    paint(pts, (0.55, 0.75, 0.95))
    paint(boundary, (1.0, 0.85, 0.3))
    return ppm_bytes(img)


def _svg(r: float, body) -> str:
    """An 800 x 800 SVG document: a dark square of half-width 1.05 r, then body."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{-1.05 * r:.6e} {-1.05 * r:.6e} {2.1 * r:.6e} {2.1 * r:.6e}">\n'
        f'<rect x="{-1.05 * r:.6e}" y="{-1.05 * r:.6e}" width="{2.1 * r:.6e}" '
        f'height="{2.1 * r:.6e}" fill="#101018"/>\n' + "".join(body) + "</svg>\n"
    )


def orbit_svg(points: Iterable[complex], S: SetModel | None, r: float) -> str:
    """Orbit preimage markers inside D_r over the set's disks.

    Each orbit point becomes one element with class "marker", so the marker
    count equals the number of points passed in. The y axis is flipped so the
    picture matches mathematical orientation.
    """
    pts = [complex(p) for p in points]
    parts = [
        f'<circle cx="0" cy="0" r="{r:.6e}" fill="none" '
        f'stroke="#3050a0" stroke-width="{0.004 * r:.6e}"/>\n'
    ]
    if S is not None and S.kind == "PowerLawDisks":
        j_hi = max(0, int(math.floor(math.log2(max(2.0, r)))))
        for j in range(j_hi + 1):
            centers, radii = disk_pack(S, j)
            parts += [f'<circle cx="{c.real:.6e}" cy="{-c.imag:.6e}" r="{rad:.6e}" '
                      f'fill="#808890" fill-opacity="0.45"/>\n'
                      for c, rad in zip(centers, radii) if not abs(c) - rad > r]
    marker_r = 0.012 * r
    parts += [f'<circle class="marker" cx="{p.real:.6e}" cy="{-p.imag:.6e}" '
              f'r="{marker_r:.6e}" fill="#ffcc40" stroke="#805000" '
              f'stroke-width="{0.25 * marker_r:.6e}"/>\n' for p in pts]
    return _svg(r, parts)


def orbit_ppm(points: Iterable[complex], S: SetModel | None, r: float,
              size: int = 512) -> bytes:
    """Raster variant of the orbit view."""
    z = _grid(r, size)
    img = np.full((size, size, 3), 0.06)
    inside = np.abs(z) <= r
    img[inside] = (0.10, 0.12, 0.20)
    if S is not None:
        hits = S.contains_many(z) & inside
        img[hits] = (0.50, 0.53, 0.58)
    marker_r = max(1.5 * (2.0 * r / size), 0.008 * r)
    for p in points:
        img[np.abs(z - complex(p)) <= marker_r] = (1.0, 0.8, 0.25)
    return ppm_bytes(img)


def domain_coloring_svg(pm: PoincareMap, r: float) -> str:
    """Coarse vector version of the domain coloring (one rect per cell)."""
    rgb = _domain_colors(poincare_eval_many(pm, _grid(r, SVG_CELLS)))
    step = 2.0 * r / SVG_CELLS
    return _svg(r, [
        f'<rect x="{-r + j * step:.6e}" y="{-r + i * step:.6e}" width="{step:.6e}" '
        f'height="{step:.6e}" fill="#{rgb[i, j].tobytes().hex()}"/>\n'
        for i in range(SVG_CELLS) for j in range(SVG_CELLS)])


def siegel_scatter_svg(sm: SiegelMap, samples: int = 1500, seed: int = 7) -> str:
    """Vector scatter of the sub-Siegel disk with its boundary image."""
    pts, boundary, span = _siegel_scatter(sm, samples, seed, 360)
    dot = 0.006 * span
    return _svg(span, [
        f'<circle cx="{q.real:.6e}" cy="{-q.imag:.6e}" r="{dot:.6e}" fill="{fill}"/>\n'
        for group, fill in ((pts, "#8cc0f0"), (boundary, "#ffd84d"))
        for q in (complex(p) - sm.center_value for p in group)])
