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

# Every template width's cell columns side by side: column c of a run's
# cell grid samples cell _CELL_J[c] of _CELL_W[c] across the run, so one
# gather and one matmul match a run against every width at once.
_WIDTHS = sorted(TPL_BY_WIDTH)
_CELL_J = np.concatenate([np.arange(w) for w in _WIDTHS])
_CELL_W = np.concatenate([np.full(w, w) for w in _WIDTHS])
_N_TPL = sum(len(TPL_BY_WIDTH[w][0]) for w in _WIDTHS)


def _match_matrix() -> np.ndarray:
    """(7 * cells, templates + widths) float32 matrix for _decode_group:
    a run's flattened (7, cells) grid times it gives 2*(cells . tpl) for
    every template (widths in sorted order, CHARSET order within one),
    then |cells| of each width's own columns. With the template ink
    counts |tpl|, hits = 7w - |cells| - |tpl| + 2*(cells . tpl); every
    term is an integer <= 70, exact in float32."""
    m = np.zeros((GLYPH_H, len(_CELL_J), _N_TPL + len(_WIDTHS)), dtype=np.float32)
    col = k = 0
    for g, w in enumerate(_WIDTHS):
        mats = TPL_BY_WIDTH[w][1]  # (t, 7, w)
        m[:, col : col + w, k : k + len(mats)] = 2 * mats.transpose(1, 2, 0)
        m[:, col : col + w, _N_TPL + g] = 1
        col += w
        k += len(mats)
    return m.reshape(GLYPH_H * len(_CELL_J), -1)


_TPL_MATRIX = _match_matrix()
_TPL_POP = np.concatenate(
    [TPL_BY_WIDTH[w][1].reshape(len(TPL_BY_WIDTH[w][0]), -1).sum(axis=1) for w in _WIDTHS]
).astype(np.float32)


# First template column of each width in _TPL_MATRIX (then the total),
# and the char code of every template column, for array-built text.
_GROUP_BASE = np.cumsum([0] + [len(TPL_BY_WIDTH[w][0]) for w in _WIDTHS])
_CHAR_CODES = np.asarray(
    [ord(ch) for w in _WIDTHS for ch in TPL_BY_WIDTH[w][0]], dtype=np.uint32
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


# per scale s: {word: raster or None}
_WORD_RASTER_CACHE: dict[int, dict[str, "np.ndarray | None"]] = {}


def _word_rasters(s: int) -> dict[str, "np.ndarray | None"]:
    got = _WORD_RASTER_CACHE.get(s)
    if got is None:
        got = _WORD_RASTER_CACHE[s] = {}
    return got


def _word_raster(word: str, s: int) -> "np.ndarray | None":
    """Rendered raster of one space-free word, cached: its known glyphs
    with s blank columns between adjacent ones; unknown characters are
    skipped (no advance, no gap). None when no glyph is known. The corpus
    draws from a small vocab, so lines paste whole words, not chars."""
    cache = _word_rasters(s)
    got = cache.get(word, False)
    if got is False:
        clean = "".join(ch for ch in word if ch in GLYPHS)
        got = None
        if clean:
            got = np.zeros((GLYPH_H * s, text_width(clean, s)), dtype=np.uint8)
            x = 0
            for i, ch in enumerate(clean):
                if i:
                    x += CHAR_GAP * s
                got[:, x : x + GLYPH_W * s] = _scaled_glyph(ch, s)
                x += GLYPH_W * s
        cache[word] = got
    return got


_BLANK_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _blank(s: int, cols: int) -> np.ndarray:
    key = (s, cols)
    got = _BLANK_CACHE.get(key)
    if got is None:
        got = _BLANK_CACHE[key] = np.zeros((GLYPH_H * s, cols), dtype=np.uint8)
    return got


def line_raster(segments: list[tuple[int, str]], s: int) -> "tuple[int, np.ndarray] | None":
    """One raster for a whole rendered line: ``segments`` are (x, text)
    pairs, left to right, each starting at or after the previous one's
    ``text_width`` end. -> (x of its first column, raster), or None
    when nothing in the line renders.

    Each space advances WORD_GAP*s and each word pastes its known glyphs
    (``render_line`` is this walk over one segment). The cached word
    rasters and the blank gaps between them are joined by one
    ``np.concatenate``, so a line costs one paste, not one per word or
    segment."""
    pieces: list[np.ndarray] = []
    x0 = end = 0
    gap = WORD_GAP * s
    cache = _word_rasters(s)
    for x, text in segments:
        pos = x
        for i, word in enumerate(text.split(" ")):
            if i:
                pos += gap
            r = cache.get(word, False)
            if r is False:
                r = _word_raster(word, s)
            if r is None:
                continue
            if not pieces:
                x0 = pos
            elif pos > end:
                pieces.append(_blank(s, pos - end))
            pieces.append(r)
            pos = end = pos + r.shape[1]
    if not pieces:
        return None
    return x0, pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)


def render_line(text: str, s: int) -> np.ndarray:
    """Render ``text`` -> uint8 array (7*s, width), values {0, 255}.

    Unknown characters are skipped (no advance, no inter-glyph gap — the
    word renders as if the character were removed). Empty/blank text ->
    (7*s, 0) array. The width is ``text_width`` (which counts unknown
    characters), the pixels are ``line_raster``'s."""
    out = np.zeros((GLYPH_H * s, max(0, text_width(text, s))), dtype=np.uint8)
    got = line_raster([(0, text)], s)
    if got is not None:
        x, r = got
        out[:, x : x + r.shape[1]] = r
    return out


def decode_band(band: np.ndarray) -> tuple[str, float]:
    """Decode one binarized text band (2-D bool, full glyph height) -> (text, conf).

    conf = min over glyphs of template-match similarity (fraction of the 35
    cells agreeing with the best template); 1.0 when the band has no glyphs.
    Deterministic: ties broken by CHARSET order. A batch of one over
    ``decode_views``, so every caller — oracle and pipeline — shares one
    implementation."""
    return decode_bands([band])[0]


def decode_bands(bands: list[np.ndarray]) -> list[tuple[str, float]]:
    """``decode_band`` over many binarized bands at once."""
    texts, confs = decode_views(bands, ink=0)
    return list(zip(texts, confs.tolist()))


# Max total band columns per matching group. Bounds every temporary in the
# vectorized match to well under a MB: fresh multi-MB numpy allocations pay
# first-touch page faults that are brutally slow in sandboxed kernels, and
# short-lived actors never amortize them. Small temporaries come straight
# off the reused heap. Re-measured after the matmul rewrite of
# _decode_group (interleaved in-process A/B, median of 7): 64k and 1M-col
# groups are within noise of each other, so the cache-safe 64k stays.
_GROUP_COLS = 1 << 16


def _grid_rows(h: int) -> np.ndarray:
    """The 7 rows of an h-row band sampled as the glyph cell grid."""
    return np.minimum((np.arange(GLYPH_H) * h + h // 2) // GLYPH_H, h - 1)


def decode_views(views: list[np.ndarray], ink: int) -> tuple[list[str], np.ndarray]:
    """Decode many text bands in a few array passes -> (texts, confs).

    A band is any 2-D array whose pixels count as ink where ``> ink``
    (bool bands with ``ink=0``, raw uint8 raster views with ``ink=127``);
    one shorter than a glyph or with no columns decodes as ("", 1.0).
    Bands are grouped by height: per group ONE ``np.concatenate`` of the
    views (a blank column after each, so no glyph run crosses bands)
    gives every column-ink mask with one ``any`` and every 7-row cell
    grid with one row gather, whatever the group's size. The template
    match then runs over the concatenated grids (``_decode_group``).
    Semantics per band: glyph runs are runs of ink columns, each matched
    at its cell centers, best Hamming similarity wins, CHARSET-order ties
    within a width, first width wins exact-ratio ties; a space where the
    gap to the previous run exceeds 3*s (s = height // 7)."""
    n = len(views)
    texts = [""] * n
    confs = np.ones(n)
    if not n:
        return texts, confs
    shape = np.array([v.shape for v in views], dtype=np.int64).reshape(n, 2)
    hs = shape[:, 0]
    live = np.flatnonzero((hs >= GLYPH_H) & (shape[:, 1] > 0))
    if not live.size:
        return texts, confs
    order = live[np.argsort(hs[live], kind="stable")]
    cuts = np.flatnonzero(np.diff(hs[order])) + 1
    grids: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for members in np.split(order, cuts):
        h = int(hs[members[0]])
        sep = np.zeros((h, 1), dtype=views[members[0]].dtype)
        block = np.concatenate([p for b in members.tolist() for p in (views[b], sep)], axis=1)
        masks.append(block.max(axis=0) > ink)
        grids.append(block[_grid_rows(h)] > ink)
    grid = grids[0] if len(grids) == 1 else np.concatenate(grids, axis=1)
    mask = masks[0] if len(masks) == 1 else np.concatenate(masks)
    widths = shape[order, 1] + 1  # each band's columns plus its separator
    start = np.cumsum(widths) - widths
    gaps = 3 * np.maximum(1, hs[order] // GLYPH_H)
    # match in groups of ~_GROUP_COLS columns, cut at band boundaries
    lo = 0
    got: list[str] = []
    got_conf: list[np.ndarray] = []
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(start, start[lo] + _GROUP_COLS)))
        c0 = int(start[lo])
        c1 = int(start[hi - 1] + widths[hi - 1])
        t, c = _decode_group(grid[:, c0:c1], mask[c0:c1], start[lo:hi] - c0, gaps[lo:hi])
        got.extend(t)
        got_conf.append(c)
        lo = hi
    for b, t in zip(order.tolist(), got):
        texts[b] = t
    confs[order] = np.concatenate(got_conf)
    return texts, confs


def _decode_group(
    grid: np.ndarray, mask: np.ndarray, start: np.ndarray, gaps: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Vectorized template matching over concatenated bands.

    ``grid`` is the (7, cols) cell-row grid and ``mask`` the column-ink
    mask of bands laid side by side, band b from column ``start[b]``
    with a blank column after it; ``gaps[b]`` is its space gap.
    -> (text, conf) per band, ("", 1.0) for a band with no ink.

    Glyph runs come from ONE diff over the whole mask (the blank columns
    keep every run inside its band), are matched against every template
    of every width with one matmul, and every band's text is assembled
    from one utf-32 buffer."""
    nb = len(start)
    idx = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    x0, x1 = idx[0::2], idx[1::2]  # runs in grid coordinates
    band_of = np.searchsorted(start, x0, side="right") - 1
    wrun = x1 - x0
    n = len(x0)
    # (n, cells) cell-center columns per run, every width's side by side
    # (offsets stay in-run); one gather, one matmul for every template
    cc = x0[:, None] + np.minimum(
        (_CELL_J * wrun[:, None] + (wrun // 2)[:, None]) // _CELL_W, (wrun - 1)[:, None]
    )
    cells = (
        np.transpose(grid[:, cc], (1, 0, 2))
        .reshape(n, GLYPH_H * len(_CELL_J))
        .astype(np.float32)
    )
    dot = cells @ _TPL_MATRIX
    # 7w - |cells| is the same for every template of one width, so each
    # width's argmax needs only 2*(cells . tpl) - |tpl|; its first max is
    # the CHARSET-order tie-break. Across widths the higher ratio
    # hits / 7w wins, the first width on an exact tie.
    score = dot[:, :_N_TPL] - _TPL_POP
    rows = np.arange(n)
    best_hits = np.full(n, -1, dtype=np.int64)
    best_cells = np.full(n, -1, dtype=np.int64)
    best_k = np.zeros(n, dtype=np.int64)
    for gi, width in enumerate(_WIDTHS):
        lo, hi = _GROUP_BASE[gi], _GROUP_BASE[gi + 1]
        k = lo + np.argmax(score[:, lo:hi], axis=1)
        sim_num = (score[rows, k] + (GLYPH_H * width - dot[:, _N_TPL + gi])).astype(np.int64)
        sim_den = GLYPH_H * width
        better = (best_cells < 0) | (sim_num * best_cells > best_hits * sim_den)
        best_hits = np.where(better, sim_num, best_hits)
        best_cells = np.where(better, sim_den, best_cells)
        best_k = np.where(better, k, best_k)
    # assemble every band's text at once: each run's char code, a space
    # before a run whose gap to the previous run of its band exceeds the
    # band's space gap, a separator after each band; one decode, one split
    space = np.zeros(n, dtype=bool)
    space[1:] = (band_of[1:] == band_of[:-1]) & ((x0[1:] - x1[:-1]) > gaps[band_of[1:]])
    pos = np.arange(n) + np.cumsum(space) + band_of
    text = np.full(n + int(space.sum()) + nb, ord(_BAND_SEP), dtype="<u4")
    text[pos] = _CHAR_CODES[best_k]
    text[pos[space] - 1] = ord(" ")
    texts = text.tobytes().decode("utf-32-le").split(_BAND_SEP)[:nb]
    # conf = min over a band's runs; the bands that have runs start their
    # runs at strictly rising positions
    confs = np.ones(nb)
    has = np.bincount(band_of, minlength=nb) > 0
    if n:
        run_lo = np.searchsorted(band_of, np.flatnonzero(has), side="left")
        confs[has] = np.minimum.reduceat(best_hits / best_cells, run_lo)
    return texts, confs
