"""Deterministic 5x7 bitmap glyph font: render + template decode.

Stands in for the VietOCR recognizer's pixel->text mapping
(/root/reference/libs/ocr_core/ocr_core/engines/vietocr_engine.py) with a
fully deterministic, dependency-free codec so the Ray pipeline and the
single-process oracle agree bit-for-bit. Charset: A-Z 0-9 and space.

Layout rules (shared by renderer and decoder):
- glyph cell = 5 cols x 7 rows, scaled by integer ``s`` -> (7s x 5s) px;
- 1*s blank cols between glyphs of a word;
- 4*s blank cols between words (decoder: blank run > 2*s => space).
"""

from __future__ import annotations

import numpy as np

# Classic public 5x7 dot-matrix shapes; one hex value per row, 5 bits wide.
_FONT_HEX: dict[str, tuple[int, ...]] = {
    "A": (0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "B": (0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E),
    "C": (0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E),
    "D": (0x1E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1E),
    "E": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F),
    "F": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10),
    "G": (0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F),
    "H": (0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "I": (0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "J": (0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C),
    "K": (0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11),
    "L": (0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F),
    "M": (0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11),
    "N": (0x11, 0x11, 0x19, 0x15, 0x13, 0x11, 0x11),
    "O": (0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "P": (0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10),
    "Q": (0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D),
    "R": (0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11),
    "S": (0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E),
    "T": (0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04),
    "U": (0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "V": (0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "W": (0x11, 0x11, 0x11, 0x15, 0x15, 0x15, 0x0A),
    "X": (0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11),
    "Y": (0x11, 0x11, 0x11, 0x0A, 0x04, 0x04, 0x04),
    "Z": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F),
    "0": (0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E),
    "1": (0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "2": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F),
    "3": (0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E),
    "4": (0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02),
    "5": (0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E),
    "6": (0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E),
    "7": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08),
    "8": (0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E),
    "9": (0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C),
}

GLYPH_H = 7
GLYPH_W = 5
CHAR_GAP = 1   # * s, between glyphs in a word
WORD_GAP = 4   # * s, between words
CHARSET = "".join(sorted(_FONT_HEX))


def _bitmap(ch: str) -> np.ndarray:
    rows = _FONT_HEX[ch]
    out = np.zeros((GLYPH_H, GLYPH_W), dtype=bool)
    for r, val in enumerate(rows):
        for c in range(GLYPH_W):
            out[r, c] = bool((val >> (GLYPH_W - 1 - c)) & 1)
    return out


GLYPHS: dict[str, np.ndarray] = {ch: _bitmap(ch) for ch in _FONT_HEX}
# Stacked templates for vectorized matching: (n_chars, 7, 5), row order = CHARSET.
TEMPLATES: np.ndarray = np.stack([GLYPHS[ch] for ch in CHARSET])


def _cropped_templates() -> dict[int, tuple[list[str], np.ndarray]]:
    """Templates cropped to their ink column extent, grouped by extent width
    (most glyphs span 5 columns; '1' and 'I' span 3). An ink run in a band
    only covers the extent, so matching must too."""
    by_width: dict[int, tuple[list[str], list[np.ndarray]]] = {}
    for ch in CHARSET:
        g = GLYPHS[ch]
        cols = np.flatnonzero(g.any(axis=0))
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        chars, mats = by_width.setdefault(c1 - c0, ([], []))
        chars.append(ch)
        mats.append(g[:, c0:c1])
    return {w: (chars, np.stack(mats)) for w, (chars, mats) in by_width.items()}


TPL_BY_WIDTH: dict[int, tuple[list[str], np.ndarray]] = _cropped_templates()

# Flattened float32 templates + per-template ink counts for the matmul
# match in _decode_group: hits = 7w - |cells| - |tpl| + 2*(cells @ tpl.T).
# Float32 is exact here (every term is an integer <= 35 << 2^24).
_TPL_MATMUL: dict[int, tuple[np.ndarray, np.ndarray]] = {
    w: (
        mats.reshape(len(chars), -1).astype(np.float32),
        mats.reshape(len(chars), -1).sum(axis=1).astype(np.float32),
    )
    for w, (chars, mats) in TPL_BY_WIDTH.items()
}


# Char code of every (width group, template) pair, groups in sorted width
# order as _decode_group walks them, for array-built decoded text.
_GROUP_BASE = np.cumsum([0] + [len(TPL_BY_WIDTH[w][0]) for w in sorted(TPL_BY_WIDTH)])[:-1]
_CHAR_CODES = np.asarray(
    [ord(ch) for w in sorted(TPL_BY_WIDTH) for ch in TPL_BY_WIDTH[w][0]], dtype=np.uint32
)
_BAND_SEP = "\x00"  # never a decoded char


def text_width(text: str, s: int) -> int:
    """Pixel width of ``text`` rendered at scale ``s`` (no trailing gap).

    Closed form of the per-char accumulation (5s per glyph, 4s per space,
    1s between adjacent glyphs of a word): with g glyphs, sp spaces and r
    maximal glyph runs, width = s*(5g + 4sp + (g - r)) — identical to the
    scalar walk it replaces (pinned by the render/decode roundtrip)."""
    sp = text.count(" ")
    g = len(text) - sp
    r = sum(1 for p in text.split(" ") if p)
    return s * (GLYPH_W * g + WORD_GAP * sp + CHAR_GAP * (g - r))


_SCALED_CACHE: dict[tuple[str, int], np.ndarray] = {}


def _scaled_glyph(ch: str, s: int) -> np.ndarray:
    """Scaled uint8 glyph (7s x 5s), cached — np.kron per call dominates
    render cost otherwise (36 chars x few scales, tiny cache)."""
    key = (ch, s)
    got = _SCALED_CACHE.get(key)
    if got is None:
        g = GLYPHS[ch].astype(np.uint8)
        got = np.repeat(np.repeat(g, s, axis=0), s, axis=1) * 255
        _SCALED_CACHE[key] = got
    return got


_WORD_RASTER_CACHE: dict[tuple[str, int], np.ndarray] = {}


def _word_raster(word: str, s: int) -> np.ndarray:
    """Rendered raster of one space-free word of KNOWN glyphs, cached —
    the corpus draws from a small vocab, so per-word pasting replaces
    per-char pasting on the render hot path."""
    key = (word, s)
    got = _WORD_RASTER_CACHE.get(key)
    if got is None:
        got = np.zeros((GLYPH_H * s, text_width(word, s)), dtype=np.uint8)
        x = 0
        for i, ch in enumerate(word):
            if i:
                x += CHAR_GAP * s
            got[:, x : x + GLYPH_W * s] = _scaled_glyph(ch, s)
            x += GLYPH_W * s
        _WORD_RASTER_CACHE[key] = got
    return got


def render_line(text: str, s: int) -> np.ndarray:
    """Render ``text`` -> uint8 array (7*s, width), values {0, 255}.

    Unknown characters are skipped (no advance, no inter-glyph gap — the
    word renders as if the character were removed). Empty/blank text ->
    (7*s, 0) array. Per-word rasters are cached; the pasted layout is
    exactly the per-char walk this replaces (each space advances
    WORD_GAP*s, known glyphs 5s plus s between adjacent glyphs)."""
    cols = max(0, text_width(text, s))
    out = np.zeros((GLYPH_H * s, cols), dtype=np.uint8)
    x = 0
    for i, word in enumerate(text.split(" ")):
        if i:
            x += WORD_GAP * s
        clean = "".join(ch for ch in word if ch in GLYPHS)
        if clean:
            r = _word_raster(clean, s)
            out[:, x : x + r.shape[1]] = r
            x += r.shape[1]
    return out


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous True runs of a 1-D bool array as [start, stop) pairs."""
    if mask.size == 0:
        return []
    idx = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    return [(int(idx[i]), int(idx[i + 1])) for i in range(0, len(idx), 2)]


def decode_band(band: np.ndarray) -> tuple[str, float]:
    """Decode one binarized text band (2-D bool, full glyph height) -> (text, conf).

    conf = min over glyphs of template-match similarity (fraction of the 35
    cells agreeing with the best template); 1.0 when the band has no glyphs.
    Deterministic: ties broken by CHARSET order. Thin wrapper over
    ``decode_bands`` (the batched core) so every caller — oracle and
    pipeline — shares one implementation."""
    return decode_bands([band])[0]


# Max total band columns per matching group. Bounds every temporary in the
# vectorized match to well under a MB: fresh multi-MB numpy allocations pay
# first-touch page faults that are brutally slow in sandboxed kernels, and
# short-lived actors never amortize them. Small temporaries come straight
# off the reused heap. Re-measured after the matmul rewrite of
# _decode_group (interleaved in-process A/B, median of 7): 64k and 1M-col
# groups are within noise of each other, so the cache-safe 64k stays.
_GROUP_COLS = 1 << 16


def decode_bands(bands: list[np.ndarray]) -> list[tuple[str, float]]:
    """Decode MANY binarized bands in vectorized passes.

    Per-band prep (runs, row grid) stays per band; the template matching —
    the bulk of the numpy dispatch overhead — runs over groups of bands
    totalling ~_GROUP_COLS columns (per-run math is independent, so any
    grouping is exactly equivalent to per-band decoding; the conformance
    suite and the render/decode hypothesis roundtrip hold both equal).
    Semantics per run: sample a cell grid per template width at cell
    centers, best Hamming similarity wins, CHARSET-order ties within a
    width, first width wins exact-ratio ties; spaces where the inter-run
    gap exceeds 3*s of the run's band."""
    results: list[tuple[str, float] | None] = [None] * len(bands)
    pend: list[tuple[int, np.ndarray, np.ndarray, int]] = []
    pend_cols = 0
    for bi, band in enumerate(bands):
        h = band.shape[0]
        if h < GLYPH_H or band.shape[1] == 0:
            results[bi] = ("", 1.0)
            continue
        col_on = band.any(axis=0)
        if not col_on.any():
            results[bi] = ("", 1.0)
            continue
        s = h // GLYPH_H  # integer scale estimate; exact for clean bands
        rr = np.minimum((np.arange(GLYPH_H) * h + h // 2) // GLYPH_H, h - 1)
        # inter-char ink gap can reach 3*s ('1'/'I' have blank edge cols);
        # word gap >= 4*s
        pend.append((bi, band[rr], col_on, 3 * max(1, s)))
        pend_cols += band.shape[1]
        if pend_cols >= _GROUP_COLS:
            _decode_group(pend, results)
            pend, pend_cols = [], 0
    if pend:
        _decode_group(pend, results)
    return [r if r is not None else ("", 1.0) for r in results]


def _decode_group(
    pend: list[tuple[int, np.ndarray, np.ndarray, int]],
    results: list,
) -> None:
    """Vectorized template matching over one group of prepared bands.

    ``pend`` entries are (band index, (7, w) row grid, per-column ink
    mask, space gap); decoded (text, conf) land in ``results`` per band.

    Glyph-run extraction happens here in ONE diff/flatnonzero pass over
    the whole group: the per-band ink masks are concatenated with a False
    separator column between bands, so no run can cross a band boundary —
    exactly equivalent to running ``_runs`` per band (the conformance
    suite and render/decode roundtrip pin this), without 2 numpy
    dispatches per band."""
    grids = [g for (_bi, g, _col_on, _gap) in pend]
    rows_grid = grids[0] if len(grids) == 1 else np.hstack(grids)
    widths_arr = np.asarray([g.shape[1] for g in grids], dtype=np.int64)
    # grid-column offset of each band, and its offset in the padded mask
    # (one separator col per preceding band)
    grid_off = np.concatenate(([0], np.cumsum(widths_arr)))
    pad_off = grid_off[:-1] + np.arange(len(pend))
    masks: list[np.ndarray] = []
    sep = np.zeros(1, dtype=bool)
    for (_bi, _g, col_on, _gap) in pend:
        masks.append(col_on)
        masks.append(sep)
    mask_all = np.concatenate(masks[:-1]) if len(masks) > 1 else masks[0]
    idx = np.flatnonzero(
        np.diff(np.concatenate(([0], mask_all.view(np.int8), [0])))
    )
    px0, px1 = idx[0::2], idx[1::2]  # run bounds in padded coordinates
    # assign each run to its band, then shift to grid coordinates
    band_of = np.searchsorted(pad_off, px0, side="right") - 1
    shift = pad_off[band_of] - grid_off[:-1][band_of]
    x0 = px0 - shift
    x1 = px1 - shift
    # first run of each band (runs come out sorted by position)
    run_lo = np.searchsorted(band_of, np.arange(len(pend)), side="left")
    wrun = x1 - x0
    n = len(x0)
    best_hits = np.full(n, -1, dtype=np.int64)
    best_cells = np.full(n, -1, dtype=np.int64)
    best_k = np.zeros(n, dtype=np.int64)
    best_group = np.zeros(n, dtype=np.int64)
    widths = sorted(TPL_BY_WIDTH)
    for gi, width in enumerate(widths):
        tflat, tpop = _TPL_MATMUL[width]
        j = np.arange(width)
        cc = x0[:, None] + np.minimum(
            (j[None, :] * wrun[:, None] + (wrun // 2)[:, None]) // width,
            (wrun - 1)[:, None],
        )  # (n, width) cell-center columns per run (offsets stay in-band)
        # agreement count via BLAS instead of an (n, t, 7w) broadcast
        # compare: hits = 7w - |cells| - |tpl| + 2*(cells @ tpl.T); every
        # term is an integer <= 35, exact in float32, so argmax/tie-break
        # behavior is bit-identical to the elementwise compare
        cells = (
            np.transpose(rows_grid[:, cc], (1, 0, 2))
            .reshape(n, GLYPH_H * width)
            .astype(np.float32)
        )
        cpop = cells.sum(axis=1)
        hits = (
            2.0 * (cells @ tflat.T)
            - cpop[:, None]
            + (np.float32(GLYPH_H * width) - tpop)[None, :]
        ).astype(np.int64)  # (n, n_templates), exact integers
        k = np.argmax(hits, axis=1)  # first max = CHARSET-order tie-break
        sim_num = hits[np.arange(n), k]
        sim_den = GLYPH_H * width
        better = (best_cells < 0) | (sim_num * best_cells > best_hits * sim_den)
        best_hits = np.where(better, sim_num, best_hits)
        best_cells = np.where(better, sim_den, best_cells)
        best_k = np.where(better, k, best_k)
        best_group = np.where(better, gi, best_group)
    confs = best_hits / best_cells
    # assemble every band's text at once: each run's char code, a space
    # before a run whose gap to the previous run of its band exceeds the
    # band's space gap, a separator after each band; one decode, one split
    gaps = np.asarray([gap for (_bi, _g, _col_on, gap) in pend], dtype=np.int64)
    space = np.zeros(n, dtype=bool)
    space[1:] = (band_of[1:] == band_of[:-1]) & ((x0[1:] - x1[:-1]) > gaps[band_of[1:]])
    pos = np.arange(n) + np.cumsum(space) + band_of
    text = np.full(n + int(space.sum()) + len(pend), ord(_BAND_SEP), dtype="<u4")
    text[pos] = _CHAR_CODES[_GROUP_BASE[best_group] + best_k]
    text[pos[space] - 1] = ord(" ")
    texts = text.tobytes().decode("utf-32-le").split(_BAND_SEP)
    # every pending band has at least one run, so run_lo is strictly rising
    conf_min = np.minimum.reduceat(confs, run_lo).tolist()
    for (bi, _g, _col_on, _gap), t, c in zip(pend, texts, conf_min):
        results[bi] = (t, c)
