"""Deterministic media renderer: ``media_ref`` string -> grayscale raster.

The sandbox has no image libraries and no network, so media content is
synthesized: a ``media_ref`` fully determines its pixels (the ref encodes
the render seed). This stands in for the reference's MinIO byte fetch +
PDF/image rasterization (/root/reference/apps/worker/app/tasks/
ocr_tasks.py:34-55 ``_raw_to_pages``, PyMuPDF dpi=150). The renderer is
shared by the corpus generator, the Ray pipeline and the oracle; in a real
deployment this module is the single seam to replace with an actual
decode-bytes stage.

ref format:  img://{seed}/{span_idx}/{w}x{h}/{n_lines}
"""

from __future__ import annotations

import numpy as np

from . import font
from .rng import Rng, mix64

# Fixed uppercase vocabulary for rendered text (charset limited to the font).
VOCAB = (
    "RAY DATA ARROW SPARK BATCH SPAN TEXT LINE WORD PAGE SCAN MERGE SORT "
    "JOIN GROUP TABLE INDEX QUERY BLOCK SHARD ACTOR TASK QUEUE LANCE OCR "
    "CRAFT MODEL BOX STRIP GLYPH 2026 42 100"
).split()

MARGIN_X = 2
MARGIN_Y = 2
SEGMENT_GAP = 8  # * s blank cols between segments of one line (detector splits on > 7s)


def make_ref(seed: int, span_idx: int, w: int, h: int, n_lines: int) -> str:
    return f"img://{seed}/{span_idx}/{w}x{h}/{n_lines}"


def parse_ref(ref: str) -> tuple[int, int, int, int, int]:
    """-> (seed, span_idx, w, h, n_lines). Raises ValueError on malformed refs."""
    if not ref.startswith("img://"):
        raise ValueError(f"bad media_ref: {ref!r}")
    parts = ref[6:].split("/")
    if len(parts) != 4:
        raise ValueError(f"bad media_ref: {ref!r}")
    seed, span_idx, dims, n_lines = parts
    w, h = dims.split("x")
    return int(seed), int(span_idx), int(w), int(h), int(n_lines)


_WORD_WIDTH_CACHE: dict[tuple[str, int], int] = {}


def _word_width(word: str, s: int) -> int:
    """Cached font.text_width for single vocab words (small key space)."""
    key = (word, s)
    got = _WORD_WIDTH_CACHE.get(key)
    if got is None:
        got = font.text_width(word, s)
        _WORD_WIDTH_CACHE[key] = got
    return got


_VOCAB_WIDTHS: dict[int, list[int]] = {}


def _vocab_widths(s: int) -> list[int]:
    """``_word_width`` of every VOCAB word at scale s, in VOCAB order."""
    got = _VOCAB_WIDTHS.get(s)
    if got is None:
        got = _VOCAB_WIDTHS[s] = [_word_width(wd, s) for wd in VOCAB]
    return got


def _layout(ref: str):
    """Deterministic layout plan for a ref.

    Returns (w, h, s, paragraph, lines) where lines is a list of
    (y_top, segments) and segments is a list of (x_left, text).
    """
    seed, span_idx, w, h, n_lines = parse_ref(ref)
    rng = Rng(mix64(seed * 1_000_003 + span_idx))
    paragraph = rng.random() < 0.35
    # Largest integer glyph scale whose lines fit the canvas.
    s = 0
    for cand in range(6, 0, -1):
        pitch = font.GLYPH_H * cand if paragraph else font.GLYPH_H * cand + max(2, cand)
        if n_lines * pitch + 2 * MARGIN_Y <= h and font.GLYPH_W * cand + 2 * MARGIN_X <= w:
            s = cand
            break
    lines: list[tuple[int, list[tuple[int, str]]]] = []
    if s == 0 or n_lines <= 0:
        return w, h, max(1, s), paragraph, lines
    pitch = font.GLYPH_H * s if paragraph else font.GLYPH_H * s + max(2, s)
    budget = w - 2 * MARGIN_X
    widths = _vocab_widths(s)
    gap = font.WORD_GAP * s
    n_vocab = len(VOCAB)
    for i in range(n_lines):
        y = MARGIN_Y + i * pitch
        words: list[str] = []
        # incremental width: joining with " " adds exactly WORD_GAP*s plus
        # the word's own width (the space resets the inter-glyph gap), so
        # this equals font.text_width(" ".join(words), s) at every step
        width = 0
        while True:
            k = rng.next64() % n_vocab  # rng.choice(VOCAB), by index
            ww = widths[k]
            cand_w = ww if not words else width + gap + ww
            if cand_w > budget:
                break
            words.append(VOCAB[k])
            width = cand_w
            if len(words) >= 12:
                break
        if not words:
            # canvas narrower than the widest vocab word: use the narrowest fit
            for wd in sorted(VOCAB, key=len):
                if _word_width(wd, s) <= budget:
                    words = [wd]
                    break
        if not words:
            continue
        segments: list[tuple[int, str]] = []
        split = (not paragraph) and len(words) >= 4 and rng.random() < 0.25
        if split:
            k = len(words) // 2
            t1, t2 = " ".join(words[:k]), " ".join(words[k:])
            x2 = MARGIN_X + font.text_width(t1, s) + SEGMENT_GAP * s
            if x2 + font.text_width(t2, s) <= w - MARGIN_X:
                segments = [(MARGIN_X, t1), (x2, t2)]
        if not segments:
            segments = [(MARGIN_X, " ".join(words))]
        lines.append((y, segments))
    return w, h, s, paragraph, lines


def raster_shape(ref: str) -> tuple[int, int]:
    """(h, w) of ``render(ref)`` without rendering it. Raises ValueError
    where ``render`` would on the ref's dimensions (malformed or negative)."""
    _seed, _span_idx, w, h, _n_lines = parse_ref(ref)
    if w < 0 or h < 0:
        raise ValueError(f"bad media_ref dims: {ref!r}")
    return h, w


def render(ref: str, out: np.ndarray | None = None) -> np.ndarray:
    """ref -> uint8 raster (h, w), values {0, 255}. Deterministic.

    ``out``, when given, is a zeroed (h, w) uint8 array (e.g. a detect
    canvas slot) that receives the raster and is returned."""
    w, h, s, _paragraph, lines = _layout(ref)
    if out is None:
        img = np.zeros((h, w), dtype=np.uint8)
    elif out.shape != (h, w):
        raise ValueError(f"out shape {out.shape} != {(h, w)} for {ref!r}")
    else:
        img = out
    paste_lines(img, lines, s)
    return img


def paste_lines(img: np.ndarray, lines, s: int) -> None:
    """Paste laid-out lines ((y, [(x, text), ...]) each) into a zeroed
    raster: one ``font.line_raster`` per line, pasted once and clipped at
    the raster's edges. Lines do not overlap (``_layout`` steps them by a
    full glyph height or more), so a plain assignment equals an ink max."""
    h, w = img.shape
    for y, segments in lines:
        got = font.line_raster(segments, s)
        if got is None:
            continue
        x, block = got
        bh = min(block.shape[0], h - y)
        bw = min(block.shape[1], w - x)
        if bh > 0 and bw > 0:
            img[y : y + bh, x : x + bw] = block[:bh, :bw]


def ground_truth_lines(ref: str) -> list[list[str]]:
    """Per-line segment texts as rendered (sanity-test aid, never used by the pipeline)."""
    _w, _h, _s, _p, lines = _layout(ref)
    return [[text for _x, text in segments] for _y, segments in lines]
