"""Text-region detection: projection-profile box proposals (CRAFT stand-in)
reduced with the reference's exact polygon->box arithmetic.

Reference: /root/reference/libs/ocr_core/ocr_core/pipeline/detect.py:85-119
(``detect_text_boxes``): CRAFT emits float polygons (N, 4, 2); the reference
reduces them per-polygon to (x_min, y_min, x_max, y_max), filters
``(x_max > x_min) & (y_max > y_min)``, rescales by ``scale`` when the image
was shrunk by ``max_side`` (detect.py:91-96,116-118), and int-casts. The
shipped config leaves ``craft_net.max_side`` unset (max_side=0 — detect on
full resolution); we keep the same default and the same optional path.

The proposal stage itself (CRAFT network, not installable here) is replaced
by a deterministic projection-profile detector:
- binarize > 127;
- horizontal bands = contiguous runs of rows containing ink;
- a band taller than MAX_SINGLE_LINE_HEIGHT (56 px, the recognizer's
  single-line bound) is treated as a paragraph block -> one polygon;
- otherwise the band is split on blank column runs wider than the band
  height (word gaps are < band height; segment gaps are wider) -> one
  polygon per segment.

Emitted polygon corners use exclusive x2/y2 so downstream crops contain the
full ink extent (the reference crops PIL-style with exclusive bounds).
"""

from __future__ import annotations

import numpy as np

from .preprocess import resize_nearest
from .recognizek import MAX_SINGLE_LINE_HEIGHT

Box = tuple[int, int, int, int]


# bit 7 of every byte of a uint64 word: a byte has it set exactly when it
# is > 127, so OR-ing words and testing these bits is ``max(...) > 127``
_HIGH_BITS = np.uint64(0x8080808080808080)


def work_shape(h: int, w: int, max_side: int = 0) -> tuple[int, int, float]:
    """-> (h, w) of the raster detect runs on and the factor that scales
    its boxes back to input coordinates (the optional max-side shrink,
    detect.py:91-96; 1.0 when off or when the raster already fits).

    Raises ValueError for a zero-width work raster: the row reduction has
    no identity there, so such a span is a dead letter. A zero-height one
    just has no ink."""
    scale = 1.0
    if max_side > 0:
        s = max(h, w) / max_side
        if s > 1:
            scale = s
            h, w = int(h / s), int(w / s)
    if w == 0:
        raise ValueError("zero-width raster: no row to reduce")
    return h, w, scale


class Canvas:
    """``n`` rasters of one (h, w) shape stacked on one zeroed uint8
    canvas, so detect runs once per shape group, not once per image.

    Slot k is rows [k(h+1), k(h+1)+h) and columns [0, w); the blank row
    after each slot keeps ink bands from crossing images, and the width
    is padded to a multiple of 8 so every row views as uint64 words.
    Render straight into ``slot(k)`` to hold each raster once. ``pixels``,
    when given, is a zeroed ``pixel_shape(n, h, w)`` array to use (e.g. a
    region of a batch's ``recognizek.Sheet``)."""

    def __init__(self, n: int, h: int, w: int, pixels: np.ndarray | None = None):
        self.n, self.h, self.w = n, h, w
        if pixels is None:
            pixels = np.zeros(self.pixel_shape(n, h, w), dtype=np.uint8)
        self.pixels = pixels

    @staticmethod
    def pixel_shape(n: int, h: int, w: int) -> tuple[int, int]:
        return n * (h + 1), -(-w // 8) * 8

    def slot(self, k: int) -> np.ndarray:
        r = k * (self.h + 1)
        return self.pixels[r : r + self.h, : self.w]

    def boxes(self, scales: list[float]) -> list[list[Box]]:
        """Per-slot boxes in proposal order (bands top to bottom, segments
        left to right), scaled back by each slot's factor. The polygons
        of the whole group are reduced in one vectorized step."""
        c0, c1, r0, r1 = self._segments()
        owner = r0 // (self.h + 1)
        top = owner * (self.h + 1)
        polys = np.empty((len(c0), 4, 2), dtype=np.float32)
        polys[:, 0::3, 0] = c0[:, None]
        polys[:, 1:3, 0] = c1[:, None]
        polys[:, 0:2, 1] = (r0 - top)[:, None]
        polys[:, 2:4, 1] = (r1 - top)[:, None]
        scale = np.asarray(scales, dtype=np.float64)[owner]
        valid, x1, y1, x2, y2 = _reduce(polys, scale)
        bounds = np.searchsorted(owner[valid], np.arange(self.n + 1)).tolist()
        flat = list(zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist()))
        return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def _segments(self) -> tuple[np.ndarray, ...]:
        """Text segments of the whole canvas as int arrays (c0, c1, r0, r1),
        exclusive ends, canvas coordinates, in row-then-column order.

        Horizontal bands are runs of rows holding ink; a band taller than
        MAX_SINGLE_LINE_HEIGHT is one paragraph segment, a shorter one is
        split on blank column runs wider than the band. One pass, no
        per-band or per-image loop: row ink and per-band column ink are
        OR-reductions over uint64 words (one ``reduceat`` over the rows,
        gap segments discarded), the ink column-runs of every band come
        from one diff over the zero-padded profile matrix (the padding
        keeps runs inside their band), and the gap merge is one compare
        with band-change breaks. Pinned against a scalar per-band walk by
        tests/test_properties.py."""
        words = self.pixels.view(np.uint64)
        row_any = (np.bitwise_or.reduce(words, axis=1) & _HIGH_BITS) != 0
        idx = np.flatnonzero(np.diff(np.concatenate(([0], row_any.view(np.int8), [0]))))
        r0s, r1s = idx[0::2], idx[1::2]
        if r0s.size == 0:
            return r0s, r0s, r0s, r0s
        # segments [r0_i, r1_i) are bands, [r1_i, r0_i+1) gaps; the last
        # band ends at or before the final (blank) separator row, so every
        # index is a valid reduceat index
        inds = np.empty(2 * len(r0s), dtype=np.int64)
        inds[0::2] = r0s
        inds[1::2] = r1s
        band_words = np.bitwise_or.reduceat(words, inds, axis=0)[0::2]
        wp = self.pixels.shape[1] + 2
        padded = np.zeros((len(r0s), wp), dtype=np.int8)
        padded[:, 1:-1] = band_words.view(np.uint8) > 127
        run_idx = np.flatnonzero(np.diff(padded.ravel()))
        starts, ends = run_idx[0::2] + 1, run_idx[1::2] + 1
        band_of = starts // wp
        rc0 = starts % wp - 1
        rc1 = ends % wp - 1
        # segment starts: band changes always break; within a single-line
        # band a gap wider than the band height breaks; paragraph bands
        # (taller than one line) merge every run
        h_band = (r1s - r0s)[band_of]
        is_start = np.empty(len(starts), dtype=bool)
        is_start[0] = True
        same = band_of[1:] == band_of[:-1]
        gap_break = (rc0[1:] - rc1[:-1]) > h_band[1:]
        para = h_band[1:] > MAX_SINGLE_LINE_HEIGHT
        is_start[1:] = ~same | (gap_break & ~para)
        seg_i = np.flatnonzero(is_start)
        seg_j = np.append(seg_i[1:], len(starts)) - 1
        return rc0[seg_i], rc1[seg_j], r0s[band_of[seg_i]], r1s[band_of[seg_i]]


def _reduce(arr: np.ndarray, scale):
    """Reference reduction (detect.py:99-119) of float32 polygons (N, 4, 2):
    min/max per polygon, validity filter, rescale where the factor is > 1
    (float32 arithmetic, as with a scalar factor), int cast. ``scale`` is
    one factor or one per polygon. -> (valid mask, x1, y1, x2, y2)."""
    xs = arr[..., 0]
    ys = arr[..., 1]
    x_min = xs.min(axis=1)
    x_max = xs.max(axis=1)
    y_min = ys.min(axis=1)
    y_max = ys.max(axis=1)
    valid = (x_max > x_min) & (y_max > y_min)
    f = np.asarray(scale, dtype=np.float64)
    f = np.where(f > 1, f, 1.0).astype(np.float32)
    if f.ndim:
        f = f[valid]
    return (
        valid,
        (x_min[valid] * f).astype(int),
        (y_min[valid] * f).astype(int),
        (x_max[valid] * f).astype(int),
        (y_max[valid] * f).astype(int),
    )


def reduce_polygons(raw: np.ndarray | None, scale: float) -> list[Box]:
    """Exact reference reduction (detect.py:99-119) of one image's
    polygons: min/max per polygon, validity filter, rescale when shrunk,
    int cast."""
    if raw is None:
        return []
    arr = np.asarray(raw, dtype=np.float32)
    if arr.size == 0:
        return []
    _valid, x1, y1, x2, y2 = _reduce(arr, scale)
    return list(zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist()))


def detect_boxes(img: np.ndarray, max_side: int = 0) -> list[Box]:
    """Full detect path for one raster (detect.py:85-119) — a batch of one
    on the shared canvas kernel: optional max-side shrink, proposals,
    exact reduction with scale-back to input coordinates.

    ``max_side=0`` (the shipped default) disables the shrink.
    """
    h, w, scale = work_shape(*img.shape[:2], max_side)
    canvas = Canvas(1, h, w)
    canvas.slot(0)[...] = resize_nearest(img, w, h)
    return canvas.boxes([scale])[0]
