"""Per-image-span detect+recognize composition and per-document span assembly.

Composes the kernels exactly as the reference's two-phase flow does
(/root/reference/apps/worker/app/tasks/ocr_tasks.py run_job -> detect on
the ORIGINAL page, run_ocr_job -> ``run_ocr_with_boxes``): detection runs
in original page coordinates; recognition preprocesses the page, scales
boxes only for cropping (orchestrator.py:141-155 — ``scale_x = w_prep /
w_orig``, int truncation, output boxes stay in original coordinates), and
splits tall crops by the ORIGINAL box height (vietocr_engine.py:63-100).

Block ids are deterministic ``{span_idx}-{i}`` (the reference appends a
uuid4 suffix, orchestrator.py:88 — dropped for reproducible equality, see
SURVEY §7.5.1).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .. import media
from . import detectk, order, recognizek
from .preprocess import DEFAULT_MAX_SIDE, preprocess, resize_nearest
from .textnorm import normalize_text

Box = tuple[int, int, int, int]

# what a poison span raises: a malformed media_ref, an unrenderable or
# undetectable raster, an invalid override box
DEAD_LETTER_ERRORS = (ValueError, KeyError, IndexError, OverflowError)


@dataclass(frozen=True)
class ExtractConfig:
    """Engine config (reference config_loader.py analogue, SURVEY P17)."""

    max_side: int = DEFAULT_MAX_SIDE      # preprocess bound (OCR_MAX_SIDE default 1200)
    detect_max_side: int = 0              # CRAFT max_side — shipped config leaves it off
    drop_empty_text_spans: bool = True    # normalize may empty a boilerplate-only span

    @classmethod
    def from_env(cls) -> "ExtractConfig":
        """Env overrides, mirroring the reference's fallbacks
        (OCR_MAX_SIDE — preprocess.py:7-8; CRAFT_MAX_SIDE — detect.py:49-54)."""
        import os

        def _int(name: str, default: int) -> int:
            try:
                return int(os.getenv(name, str(default)))
            except ValueError:
                return default

        return cls(
            max_side=_int("OCR_MAX_SIDE", DEFAULT_MAX_SIDE),
            detect_max_side=_int("CRAFT_MAX_SIDE", 0),
        )


@dataclass
class BlockResult:
    text: str
    conf: float
    box: Box
    block_id: str


def detect_image(
    ref: str, cfg: ExtractConfig, img: "object | None" = None
) -> tuple[list[Box], int, int]:
    """Detect stage for one image span: original-coordinate boxes in
    reading order, plus (width, height). The detect-stage checkpoint row.
    ``img`` lets the fused path reuse an already-decoded raster."""
    if img is None:
        img = media.render(ref)
    h, w = img.shape[:2]
    boxes = detectk.detect_boxes(img, max_side=cfg.detect_max_side)
    idx = order.reading_order(boxes)
    return [boxes[i] for i in idx], w, h


def detect_batch(
    refs: list[str],
    cfg: ExtractConfig,
    override_boxes: "list[list[Box] | None] | None" = None,
) -> Iterator[tuple[int, "object | None", list[Box]]]:
    """Render and detect a whole stage batch: one ``detectk.Canvas`` per
    shape group (detect's post-shrink shape), each raster rendered once,
    straight into its canvas slot when no shrink applies.

    Yields ``(k, raster, boxes)`` per ``refs[k]``: detected boxes in
    reading order, or ``override_boxes[k]`` as given (array order, no
    sort, no detect). A span whose media cannot be rendered or detected —
    exactly where ``prepare_image_span`` raises — yields ``(k, None, [])``
    (a dead letter). Override spans come first, then one shape group at a
    time, so the batch's canvases are not all alive at once."""
    groups: dict[tuple[int, int], list[tuple[int, int, int, float]]] = {}
    for k, ref in enumerate(refs):
        ov = override_boxes[k] if override_boxes is not None else None
        try:
            if ov is None:
                h, w = media.raster_shape(ref)
                gh, gw, scale = detectk.work_shape(h, w, cfg.detect_max_side)
                groups.setdefault((gh, gw), []).append((k, h, w, scale))
                continue
            item = (k, media.render(ref), _int_boxes(ov))
        except DEAD_LETTER_ERRORS:
            item = (k, None, [])
        yield item
    for (gh, gw), members in groups.items():
        try:
            canvas = detectk.Canvas(len(members), gh, gw)
        except DEAD_LETTER_ERRORS:  # dims too big for numpy, like render's
            for k, _h, _w, _scale in members:
                yield k, None, []
            continue
        rasters = []
        for slot, (k, h, w, _scale) in enumerate(members):
            try:
                if (h, w) == (gh, gw):
                    img = media.render(refs[k], out=canvas.slot(slot))
                else:
                    img = media.render(refs[k])
                    canvas.slot(slot)[...] = resize_nearest(img, gw, gh)
            except DEAD_LETTER_ERRORS:
                img = None  # any ink it left in its slot stays in its slot
            rasters.append(img)
        found = canvas.boxes([m[3] for m in members])
        for (k, _h, _w, _scale), img, boxes in zip(members, rasters, found):
            if img is None:
                yield k, None, []
            else:
                yield k, img, [boxes[i] for i in order.reading_order(boxes)]


def _int_boxes(boxes: list) -> list[Box]:
    return [(int(x1), int(y1), int(x2), int(y2)) for (x1, y1, x2, y2) in boxes]


def prepare_recognize(
    ref: str,
    boxes_orig: list[Box],
    page_w: int,
    page_h: int,
    cfg: ExtractConfig,
    img: "object | None" = None,
) -> tuple[list, list[int]]:
    """Phase 1 of recognize: decode the raster, preprocess, crop each box,
    split tall crops — everything except the glyph decode. Returns
    ``(strips, strip_counts)`` with one count per box. Exact
    ``run_ocr_with_boxes`` arithmetic; phase 2 = ``decode_strips`` +
    ``finish_recognize``. Split out so actor stages can decode the strips
    of a WHOLE Arrow batch in one vectorized pass (per-strip decoding is
    independent, so batching is semantics-preserving)."""
    if not boxes_orig:
        return [], []
    if img is None:
        # two-phase path recomputes pages from source, like the reference
        # (ocr_tasks.py:220-226); the fused path passes the raster through
        img = media.render(ref)
    img_prep = preprocess(img, cfg.max_side)
    h_prep, w_prep = img_prep.shape[:2]
    w_orig = page_w or img.shape[1]
    h_orig = page_h or img.shape[0]
    scale_x = w_prep / w_orig if w_orig else 1.0
    scale_y = h_prep / h_orig if h_orig else 1.0
    # Collect every strip of every box — semantics identical to per-crop
    # recognize_crop (single strip -> predict on the FULL crop, reference
    # vietocr_engine.py:103-127; multi-strip -> "\n" join, conf = min).
    all_strips: list = []
    strip_counts: list[int] = []
    for (x1, y1, x2, y2) in boxes_orig:
        box_crop = (int(x1 * scale_x), int(y1 * scale_y), int(x2 * scale_x), int(y2 * scale_y))
        crop_img = recognizek.crop(img_prep, box_crop)
        bounds = recognizek.strip_bounds(
            crop_img.shape[0], original_height_px=y2 - y1
        )
        if not bounds or len(bounds) == 1:
            all_strips.append(crop_img)  # single strip: the FULL crop
            strip_counts.append(1)
        else:
            for (sy1, sy2) in bounds:
                all_strips.append(crop_img[sy1:sy2])
            strip_counts.append(len(bounds))
    return all_strips, strip_counts


def finish_recognize(
    boxes_orig: list[Box],
    strip_counts: list[int],
    decoded: list[tuple[str, float]],
    span_idx: int = 0,
) -> list[BlockResult]:
    """Phase 2 of recognize: reassemble decoded strips per box (multi-strip
    "\\n" join, conf = min — vietocr_engine.py:103-127), postprocess, and
    zip-align against the boxes (orchestrator.py:75-80)."""
    raw: list[str] = []
    confs: list[float] = []
    k = 0
    for c in strip_counts:
        seg = decoded[k : k + c]
        k += c
        if c == 1:
            t, p = seg[0]
        else:
            t = "\n".join(x[0] for x in seg)
            p = min(x[1] for x in seg)
        raw.append(t)
        confs.append(p)
    texts = recognizek.postprocess_texts(raw)
    n = min(len(boxes_orig), len(texts))  # reference zip-align guard (orchestrator.py:75-80)
    return [
        BlockResult(
            text=texts[i],
            conf=confs[i],
            box=boxes_orig[i],
            block_id=f"{span_idx}-{i}",
        )
        for i in range(n)
    ]


def recognize_image(
    ref: str,
    boxes_orig: list[Box],
    page_w: int,
    page_h: int,
    cfg: ExtractConfig,
    span_idx: int = 0,
    img: "object | None" = None,
) -> list[BlockResult]:
    """Recognize stage for one image span given original-coordinate boxes
    (detected or override). Exact ``run_ocr_with_boxes`` arithmetic."""
    if not boxes_orig:
        return []
    strips, counts = prepare_recognize(ref, boxes_orig, page_w, page_h, cfg, img=img)
    decoded = recognizek.decode_strips(strips)
    return finish_recognize(boxes_orig, counts, decoded, span_idx=span_idx)


def extract_image_span(
    ref: str,
    cfg: ExtractConfig,
    span_idx: int = 0,
    override_boxes: list[Box] | None = None,
) -> list[BlockResult]:
    """Fused detect+recognize for one image span (reference ``run_ocr`` /
    two-phase composition — identical by construction, see module doc).

    ``override_boxes`` is the human-edit analogue (PATCH /jobs/{id}/detect,
    routes_jobs.py:230-249): array order preserved, no reading-order sort.
    """
    boxes, counts, strips = prepare_image_span(ref, cfg, override_boxes)
    decoded = recognizek.decode_strips(strips)
    return finish_recognize(boxes, counts, decoded, span_idx=span_idx)


def prepare_image_span(
    ref: str,
    cfg: ExtractConfig,
    override_boxes: list[Box] | None = None,
) -> tuple[list[Box], list[int], list]:
    """Phase 1 of the fused extract for one image span: render once, detect
    (or apply override boxes — array order preserved, no reading-order
    sort), prepare strips. Returns ``(boxes, strip_counts, strips)``; phase
    2 = ``decode_strips`` + ``finish_recognize``. Raises on poison refs —
    callers wrap like ``safe_extract_image_span`` does."""
    img = media.render(ref)  # decode once; both stages share the raster
    if override_boxes is not None:
        h, w = img.shape[:2]
        boxes = _int_boxes(override_boxes)
    else:
        boxes, w, h = detect_image(ref, cfg, img=img)
    strips, counts = prepare_recognize(ref, boxes, w, h, cfg, img=img)
    return boxes, counts, strips


def safe_extract_image_span(
    ref: str,
    cfg: ExtractConfig,
    span_idx: int = 0,
    override_boxes: list[Box] | None = None,
) -> tuple[list[BlockResult], bool]:
    """Dead-letter wrapper (reference P16 analogue: malformed detect_result
    -> job FAILED, ocr_tasks.py:204-212; at 10^12-doc scale a poison row
    must not kill the partition): a span whose media_ref cannot be parsed
    or rendered contributes zero blocks and is counted as an error."""
    try:
        return extract_image_span(ref, cfg, span_idx, override_boxes), False
    except DEAD_LETTER_ERRORS:
        return [], True


def extract_document(
    spans: list[dict],
    cfg: ExtractConfig,
    overrides: dict[int, list[Box]] | None = None,
) -> list[dict]:
    """One document's interleaved spans -> ordered output span sequence.

    Input spans: dicts with kind/text/media_ref/offset (input order = offset
    order; we sort by (offset, input index) to be explicit). Output spans:
    - kind='text': normalized native text (dropped if empty after
      normalization when cfg.drop_empty_text_spans);
    - kind='image': one span per recognized block in reading order, text =
      recognized text, media_ref preserved; zero-box images emit nothing
      (reference: page with no boxes -> empty block list,
      orchestrator.py:130-137).
    Output offsets are re-numbered 0..n-1 (the merge-by-offset result).
    """
    idx_sorted = sorted(range(len(spans)), key=lambda i: (spans[i]["offset"], i))
    out: list[dict] = []
    for i in idx_sorted:
        sp = spans[i]
        if sp["kind"] == "text":
            t = normalize_text(sp["text"] or "")
            if t or not cfg.drop_empty_text_spans:
                out.append({"kind": "text", "text": t, "media_ref": "", "offset": len(out)})
        elif sp["kind"] == "image":
            ov = overrides.get(i) if overrides else None
            blocks, _err = safe_extract_image_span(
                sp["media_ref"], cfg, span_idx=i, override_boxes=ov
            )
            for b in blocks:
                out.append(
                    {
                        "kind": "image",
                        "text": b.text,
                        "media_ref": sp["media_ref"],
                        "offset": len(out),
                    }
                )
        # unknown kinds are dropped (schema enforcement happens at read)
    return out
