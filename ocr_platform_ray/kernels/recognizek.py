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
decoder ``font.decode_views`` over each strip's dominant ink band.

Everything here works on a whole stage batch at once: boxes are an (n, 4)
array, crops are never materialized — a strip is a rectangle over a
raster held in a ``Sheet`` (``crop_strips``), and ``decode_rects`` reads
the strips' pixels straight from the sheet. Rows and columns past the
raster's edge read as zero (the reference's PIL crop padding).
"""

from __future__ import annotations

import numpy as np

from .. import font

MAX_SINGLE_LINE_HEIGHT = 56
LINE_STRIP_HEIGHT = 32
LINE_STRIP_OVERLAP = 4
MIN_STRIP_PX = 8

Box = tuple[int, int, int, int]


def clamp_boxes(boxes: np.ndarray) -> np.ndarray:
    """Reference ``_crop`` clamp (recognize.py:9-13) of an (n, 4) int
    array: ``x1, y1 >= 0; x2 >= x1 + 1; y2 >= y1 + 1``."""
    out = np.maximum(boxes, 0)
    out[:, 2:] = np.maximum(boxes[:, 2:], out[:, :2] + 1)
    return out


def clamp_box(box: Box) -> Box:
    """``clamp_boxes`` for one box."""
    return tuple(clamp_boxes(np.asarray([box], dtype=np.int64))[0].tolist())


def _strip_candidates(crop_h: np.ndarray, orig_h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every candidate strip of every crop, reference arithmetic
    (vietocr_engine.py:63-100). -> (crop index, y1, y2, kept), crop
    coordinates, crops in order and strips top-down within a crop.

    Original-height mode (orig_h > 56): ``max(1, round(oh / 32))``
    strips at page rows 28i, the last one running to the bottom, mapped
    to the crop by ``int(y * h / oh)``. Crop-height mode: one strip
    [0, h) when h <= 56, else strips [y, min(y + 32, h)) for y = 0, 28,
    ... < h. A strip is kept when it is at least 8 rows tall (the short
    single strip always)."""
    step = LINE_STRIP_HEIGHT - LINE_STRIP_OVERLAP
    orig = orig_h > MAX_SINGLE_LINE_HEIGHT
    short = ~orig & (crop_h <= MAX_SINGLE_LINE_HEIGHT)
    # np.rint rounds half to even, as Python's round does
    n_orig = np.maximum(1, np.rint(orig_h / LINE_STRIP_HEIGHT)).astype(np.int64)
    n = np.where(orig, n_orig, np.where(short, 1, -(-crop_h // step)))
    owner = np.repeat(np.arange(len(crop_h)), n)
    i = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
    h, oh, mode = crop_h[owner], orig_h[owner], orig[owner]
    y = i * step
    y2 = np.minimum(y + LINE_STRIP_HEIGHT, np.where(mode, oh, h))
    y2 = np.where(mode & (i == n[owner] - 1), oh, y2)
    y2 = np.where(short[owner], h, y2)
    # page rows -> crop rows, as float division then truncation (exact:
    # every product is far below 2**53)
    div = np.where(mode, oh, 1)
    y1 = np.where(mode, (y * h / div).astype(np.int64), y)
    y2 = np.where(mode, (y2 * h / div).astype(np.int64), y2)
    kept = short[owner] | (y2 - y1 >= MIN_STRIP_PX)
    return owner, y1, y2, kept


def strip_bounds(crop_h: int, original_height_px: int | None) -> list[tuple[int, int]]:
    """Crop-coordinate strip [y1, y2) bounds of one crop — the kept
    candidates of ``_strip_candidates``. Empty result means "use the full
    crop as a single strip" (the reference's ``strips if strips else
    [img]``)."""
    oh = 0 if original_height_px is None else original_height_px
    _owner, y1, y2, kept = _strip_candidates(
        np.asarray([crop_h], dtype=np.int64), np.asarray([oh], dtype=np.int64)
    )
    return list(zip(y1[kept].tolist(), y2[kept].tolist()))


def crop_strips(
    boxes: np.ndarray, scale_x: np.ndarray, scale_y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Crop and strip-split every box of a batch in array passes.

    ``boxes`` is (n, 4) int64 in original page coordinates; ``scale_x`` /
    ``scale_y`` give each box's page -> preprocessed-raster factors.
    Boxes are scaled with int truncation (orchestrator.py:141-155),
    clamped, and split by the ORIGINAL box height (``_strip_candidates``);
    a box with fewer than two kept strips is one strip, its full crop
    (vietocr_engine.py:103-127). -> (box index, y0, y1, x0, x1) per strip,
    preprocessed-raster coordinates, boxes in order, strips top-down. A
    rectangle may extend past the raster's bottom or right edge; those
    pixels read as zero."""
    c = np.empty_like(boxes)
    c[:, 0::2] = (boxes[:, 0::2] * scale_x[:, None]).astype(np.int64)
    c[:, 1::2] = (boxes[:, 1::2] * scale_y[:, None]).astype(np.int64)
    c = clamp_boxes(c)
    crop_h = c[:, 3] - c[:, 1]
    owner, y1, y2, kept = _strip_candidates(crop_h, boxes[:, 3] - boxes[:, 1])
    multi = np.bincount(owner[kept], minlength=len(boxes)) > 1
    first = np.ones(len(owner), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    whole = first & ~multi[owner]  # one strip per single-strip box: the full crop
    take = np.flatnonzero((kept & multi[owner]) | whole)
    b = owner[take]
    y1 = np.where(whole[take], 0, y1[take])
    y2 = np.where(whole[take], crop_h[b], y2[take])
    return b, c[b, 1] + y1, c[b, 1] + y2, c[b, 0], c[b, 2]


class Sheet:
    """The rasters of a stage batch in ONE flat zeroed uint8 buffer.

    Region i is a C-contiguous (rows, cols) view starting at flat offset
    ``offsets[i]`` (a multiple of 8, so regions whose width is a multiple
    of 8 view as uint64 words, as detect canvases do). Because every
    region lives in one buffer, a row test over rectangles anywhere in
    the batch is one ``reduceat``."""

    def __init__(self, shapes: list[tuple[int, int]]):
        sizes = [-(-r * c // 8) * 8 for r, c in shapes]
        self.offsets = np.cumsum([0] + sizes)[:-1]
        # one spare byte: a reduceat index may sit just past the last region
        self.flat = np.zeros(sum(sizes) + 1, dtype=np.uint8)
        self.regions = [
            self.flat[o : o + r * c].reshape(r, c)
            for o, (r, c) in zip(self.offsets.tolist(), shapes)
        ]
        self.widths = np.asarray([c for _r, c in shapes], dtype=np.int64)


def decode_rects(
    sheet: Sheet,
    region: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
) -> tuple[list[str], np.ndarray]:
    """Decode strips given as rectangles over a sheet's regions -> (texts,
    confs), one per strip. Rectangles are in region coordinates and
    inside their raster (callers clip what lies past its edge, which is
    blank). A strip's dominant ink band — the tallest run of rows holding
    ink (> 127), ties topmost — decodes by glyph template match; a strip
    with no ink is ("", 1.0).

    Row ink for every row of every strip is ONE ``maximum.reduceat`` over
    the sheet's flat buffer (index pairs: row start, row end); the ink
    runs of all strips come from one diff (a zero between strips keeps
    runs inside their strip) and one lexsort picks each strip's winner.
    The winners are handed to ``font.decode_views`` as views of the
    sheet, so no strip or band is copied before its height group's one
    concatenate."""
    n = len(region)
    # walk the strips in sheet order, so the reduceat's skips between
    # rows only ever move forward: its row tests read the sheet at most
    # once, whatever order the strips come in
    at = np.argsort(sheet.offsets[region] + y0 * sheet.widths[region] + x0, kind="stable")
    region, y0, y1, x0, x1 = region[at], y0[at], y1[at], x0[at], x1[at]
    width = x1 - x0
    hr = np.where(width > 0, y1 - y0, 0)  # a zero-width strip has no ink rows
    row_off = np.cumsum(hr) - hr
    n_rows = int(hr.sum())
    sid_row = np.repeat(np.arange(n), hr)
    vec = np.zeros(n_rows + n + 1, dtype=np.int8)
    if n_rows:
        base = sheet.offsets[region] + x0
        r = np.arange(n_rows) - row_off[sid_row] + y0[sid_row]
        starts = base[sid_row] + r * sheet.widths[region][sid_row]
        pairs = np.empty(2 * n_rows, dtype=np.int64)
        pairs[0::2] = starts
        pairs[1::2] = starts + width[sid_row]
        flat = sheet.flat[: pairs.max() + 1]  # the last skip ends at the last row
        ink = np.maximum.reduceat(flat, pairs)[0::2] > 127
        vec[np.arange(n_rows) + sid_row + 1] = ink
    edges = np.flatnonzero(np.diff(vec)) + 1
    starts, ends = edges[0::2], edges[1::2]
    base = row_off + np.arange(n) + 1  # position of each strip's row 0 in vec
    sid = np.searchsorted(base, starts, side="right") - 1
    r0 = starts - base[sid]
    r1 = ends - base[sid]
    order = np.lexsort((r0, r0 - r1, sid))  # by strip, tallest, topmost
    first = order[np.flatnonzero(np.diff(sid[order], prepend=-1))]
    sid, r0, r1 = sid[first], r0[first] + y0[sid[first]], r1[first] + y0[sid[first]]
    regions = sheet.regions
    views = [
        regions[g][a:b, c:d]
        for g, a, b, c, d in zip(
            region[sid].tolist(), r0.tolist(), r1.tolist(), x0[sid].tolist(), x1[sid].tolist()
        )
    ]
    band_texts, band_confs = font.decode_views(views, ink=127)
    texts = [""] * n
    for i, t in zip(at[sid].tolist(), band_texts):
        texts[i] = t
    confs = np.ones(n)
    confs[at[sid]] = band_confs
    return texts, confs


def decode_strips(strips: list[tuple]) -> list[tuple[str, float]]:
    """Decode strips given as ``(raster, y0, y1, x0, x1)`` rectangles
    (the ``crop_strips`` form; pixels past the raster's edge read as
    zero) -> (text, conf) each. Copies each distinct raster into a
    ``Sheet`` once and runs ``decode_rects``."""
    ids: dict[int, int] = {}
    rasters: list[np.ndarray] = []
    rid = []
    for s in strips:
        k = ids.setdefault(id(s[0]), len(rasters))
        if k == len(rasters):
            rasters.append(s[0])
        rid.append(k)
    sheet = Sheet([r.shape for r in rasters])
    for reg, r in zip(sheet.regions, rasters):
        reg[...] = r
    rect = np.asarray([s[1:] for s in strips], dtype=np.int64).reshape(-1, 4)
    dims = np.asarray([r.shape for r in rasters], dtype=np.int64).reshape(-1, 2)
    region = np.asarray(rid, dtype=np.int64)
    h, w = dims[region, 0], dims[region, 1]
    y0 = np.clip(rect[:, 0], 0, h)
    x0 = np.clip(rect[:, 2], 0, w)
    y1 = np.maximum(np.minimum(rect[:, 1], h), y0)
    x1 = np.maximum(np.minimum(rect[:, 3], w), x0)
    texts, confs = decode_rects(sheet, region, y0, y1, x0, x1)
    return list(zip(texts, confs.tolist()))


def postprocess_texts(texts: list[str]) -> list[str]:
    """Reference postprocess (postprocess.py:4-6): whitespace strip only."""
    return [t.strip() for t in texts]
