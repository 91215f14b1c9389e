"""Recognition kernels: crop clamping, tall-crop strip arithmetic, glyph decode.

Replicates, exactly, the reference's conformance-critical arithmetic:

- crop clamps (/root/reference/libs/ocr_core/ocr_core/pipeline/recognize.py:9-13):
  ``x1 = max(0, x1); y1 = max(0, y1); x2 = max(x1 + 1, x2); y2 = max(y1 + 1, y2)``
  with PIL-style zero padding when a crop extends past the image.
- strip splitting (/root/reference/libs/ocr_core/ocr_core/engines/
  vietocr_engine.py:14-16,63-100): MAX_SINGLE_LINE_HEIGHT=56,
  LINE_STRIP_HEIGHT=32, LINE_STRIP_OVERLAP=4, min strip 8 px; two modes —
  original-height mode (box height in page coords > 56: ``num_strips =
  max(1, round(oh / 32))``, step 28 in page coords, last strip extended to
  the bottom, page->crop mapping ``int(y * h / oh)``) and crop-height mode
  (walk y by 28, strip [y, min(y+32, h)]).
- multi-strip join (vietocr_engine.py:103-127): texts joined with "\\n",
  conf = min of strip probs; single-strip: predict on the FULL crop.
- postprocess (/root/reference/libs/ocr_core/ocr_core/pipeline/
  postprocess.py:4-6): whitespace strip only.

The VietOCR network itself is replaced by the deterministic glyph-template
decoder ``font.decode_bands`` over each strip's dominant ink band
(``decode_strips``).
"""

from __future__ import annotations

import numpy as np

from .. import font

MAX_SINGLE_LINE_HEIGHT = 56
LINE_STRIP_HEIGHT = 32
LINE_STRIP_OVERLAP = 4
MIN_STRIP_PX = 8

Box = tuple[int, int, int, int]


def clamp_box(box: Box) -> Box:
    """Reference ``_crop`` clamp (recognize.py:9-13)."""
    x1, y1, x2, y2 = box
    x1 = max(0, x1)
    y1 = max(0, y1)
    x2 = max(x1 + 1, x2)
    y2 = max(y1 + 1, y2)
    return x1, y1, x2, y2


def crop(img: np.ndarray, box: Box) -> np.ndarray:
    """Clamped crop with PIL-style zero padding beyond image bounds."""
    x1, y1, x2, y2 = clamp_box(box)
    out = np.zeros((y2 - y1, x2 - x1), dtype=img.dtype)
    h, w = img.shape[:2]
    sy1, sy2 = min(y1, h), min(y2, h)
    sx1, sx2 = min(x1, w), min(x2, w)
    if sy2 > sy1 and sx2 > sx1:
        out[: sy2 - sy1, : sx2 - sx1] = img[sy1:sy2, sx1:sx2]
    return out


def strip_bounds(crop_h: int, original_height_px: int | None) -> list[tuple[int, int]]:
    """Crop-coordinate strip [y1, y2) bounds per the reference's exact
    arithmetic (vietocr_engine.py:63-100). Empty result means "use the full
    crop as a single strip" (the reference's ``strips if strips else [img]``).
    """
    h = crop_h
    use_original = (
        original_height_px is not None and original_height_px > MAX_SINGLE_LINE_HEIGHT
    )
    if use_original:
        oh = original_height_px
        num_strips = max(1, round(oh / LINE_STRIP_HEIGHT))  # Python banker's round
        step_orig = max(1, LINE_STRIP_HEIGHT - LINE_STRIP_OVERLAP)
        strips: list[tuple[int, int]] = []
        for i in range(num_strips):
            y_orig = i * step_orig
            y2_orig = oh if i == num_strips - 1 else min(y_orig + LINE_STRIP_HEIGHT, oh)
            y1_crop = int(y_orig * h / oh)
            y2_crop = int(y2_orig * h / oh)
            if y2_crop > y1_crop and (y2_crop - y1_crop) >= MIN_STRIP_PX:
                strips.append((y1_crop, y2_crop))
        return strips
    if h <= MAX_SINGLE_LINE_HEIGHT:
        return [(0, h)]
    step = max(1, LINE_STRIP_HEIGHT - LINE_STRIP_OVERLAP)
    strips = []
    y = 0
    while y < h:
        y2 = min(y + LINE_STRIP_HEIGHT, h)
        if y2 - y >= MIN_STRIP_PX:
            strips.append((y, y2))
        y += step
    return strips


def _dominant_bands(strips: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Dominant ink band of every strip at once: the tallest run of rows
    holding ink (> 127), ties topmost. -> (strip index, r0, r1) for the
    strips that have ink.

    All pixels go into one flat buffer, so the row test for every row of
    every strip is one ``maximum.reduceat``; the row-ink runs of all
    strips come from one diff (a zero between strips keeps runs inside
    their strip), and one lexsort picks each strip's winner."""
    n = len(strips)
    hs = np.array([s.shape[0] for s in strips], dtype=np.int64)
    ws = np.array([s.shape[1] for s in strips], dtype=np.int64)
    hr = np.where(ws > 0, hs, 0)  # a zero-width strip has no ink rows
    sizes = hr * ws
    pix_off = np.cumsum(sizes) - sizes
    row_off = np.cumsum(hr) - hr
    n_rows = int(hr.sum())
    sid_row = np.repeat(np.arange(n), hr)
    row_start = pix_off[sid_row] + (np.arange(n_rows) - row_off[sid_row]) * ws[sid_row]
    vec = np.zeros(n_rows + n + 1, dtype=np.int8)
    if n_rows:
        flat = np.concatenate([s.ravel() for s in strips])
        vec[np.arange(n_rows) + sid_row + 1] = np.maximum.reduceat(flat, row_start) > 127
    edges = np.flatnonzero(np.diff(vec)) + 1
    starts, ends = edges[0::2], edges[1::2]
    base = row_off + np.arange(n) + 1  # position of each strip's row 0 in vec
    sid = np.searchsorted(base, starts, side="right") - 1
    r0 = starts - base[sid]
    r1 = ends - base[sid]
    order = np.lexsort((r0, r0 - r1, sid))  # by strip, tallest, topmost
    first = order[np.flatnonzero(np.diff(sid[order], prepend=-1))]
    return sid[first], r0[first], r1[first]


def decode_strips(strips: list[np.ndarray]) -> list[tuple[str, float]]:
    """Decode strips batch-wide -> (text, conf) each: a strip's dominant
    ink band (tallest run of ink rows, ties topmost) decoded by glyph
    template match; a blank strip -> ("", 1.0). The band choice is one
    vectorized pass over every strip (``_dominant_bands``), the decode
    one template-matching pass over every band (``font.decode_bands``)."""
    ids, r0s, r1s = (a.tolist() for a in _dominant_bands(strips))
    bands = [strips[i][a:b] > 127 for i, a, b in zip(ids, r0s, r1s)]
    out: list[tuple[str, float]] = [("", 1.0)] * len(strips)
    for i, res in zip(ids, font.decode_bands(bands)):
        out[i] = res
    return out


def postprocess_texts(texts: list[str]) -> list[str]:
    """Reference postprocess (postprocess.py:4-6): whitespace strip only."""
    return [t.strip() for t in texts]
