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

from dataclasses import dataclass

import numpy as np

from .. import media
from . import detectk, order, recognizek
from .preprocess import DEFAULT_MAX_SIDE, preprocess, resize_dims, resize_nearest
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


@dataclass
class Extracted:
    """A stage batch's result as flat arrays. Span k owns boxes
    ``boxes[box_off[k]:box_off[k + 1]]`` (original page coordinates;
    reading order when detected, array order when given) and, when
    recognized, their ``texts`` and ``confs``. ``errors[k]`` is the
    exception that dead-lettered span k (then it owns no boxes), else
    None; ``dims[k]`` is its raster's (width, height)."""

    errors: list
    dims: list
    box_off: np.ndarray
    boxes: np.ndarray
    texts: list[str]
    confs: np.ndarray


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


# numpy refuses arrays of more bytes than this (ValueError), as render does
_MAX_PIXELS = np.iinfo(np.intp).max
# box coordinates are int32 in every schema that carries them
_BOX_LIMIT = 1 << 31


def extract_batch(
    refs: list[str],
    cfg: ExtractConfig,
    boxes: "list[list[Box] | None] | None" = None,
    page_dims: "list[tuple[int, int]] | None" = None,
    recognize: bool = True,
) -> Extracted:
    """Render, detect and recognize a whole stage batch.

    ``boxes[k]``, when given, are span k's boxes (override or checkpoint
    boxes: array order, no detect); otherwise span k is detected. When
    ``recognize`` is off the batch stops after detect. ``page_dims[k]``
    = (w, h) overrides the raster dims that scale boxes to the
    preprocessed raster (0 means the raster's own, as in the reference).

    Every raster lives in one ``recognizek.Sheet``: per raster shape one
    ``detectk.Canvas`` that each raster renders straight into, plus a
    canvas of detect's work shape and one of the preprocessed shape where
    a max-side shrink applies. Detect runs once per shape group; boxes
    of the whole batch are cropped and strip-split in array passes
    (``recognizek.crop_strips``) and every strip decodes from the sheet
    in one ``recognizek.decode_rects`` call — no raster, crop or strip is
    copied per box. A span whose media cannot be rendered or detected
    (given boxes or not), or whose given boxes are invalid, is a dead
    letter."""
    n = len(refs)
    given = boxes if boxes is not None else [None] * n
    errors: list = [None] * n
    dims: list = [None] * n
    span_boxes: list = [None] * n
    groups: dict[tuple[int, int], list[int]] = {}
    for k, ref in enumerate(refs):
        try:
            if given[k] is not None:
                span_boxes[k] = _int_boxes(given[k])
            h, w = media.raster_shape(ref)
            # given boxes pass the same check: a human edit comes after a
            # detect, which dead-letters a raster it cannot work on
            detectk.work_shape(h, w, cfg.detect_max_side)
        except DEAD_LETTER_ERRORS as e:
            errors[k] = e
            continue
        groups.setdefault((h, w), []).append(k)

    # plan one raster canvas per shape, plus shrink canvases
    plans = []
    shapes: list[tuple[int, int]] = []
    for (h, w), members in groups.items():
        det = [i for i, k in enumerate(members) if given[k] is None]
        gh, gw, scale = detectk.work_shape(h, w, cfg.detect_max_side) if det else (h, w, 1.0)
        pw, ph = resize_dims(w, h, cfg.max_side) if recognize else (w, h)
        need = [(len(members), h, w)]
        det_c = prep_c = 0  # index in ``need``; 0 = the raster canvas itself
        if (gh, gw) != (h, w):
            det_c = len(need)
            need.append((len(det), gh, gw))
        if (ph, pw) != (h, w):
            prep_c = len(need)
            need.append((len(members), ph, pw))
        cells = [detectk.Canvas.pixel_shape(*c) for c in need]
        if any(r * c > _MAX_PIXELS for r, c in cells):
            for k in members:
                errors[k] = ValueError(f"raster too big for numpy: {refs[k]!r}")
            continue
        plans.append((members, det, need, det_c, prep_c, len(shapes), scale))
        shapes.extend(cells)
    sheet = recognizek.Sheet(shapes)

    # render, detect; note where each span's preprocessed raster lives
    prep_at: dict[int, tuple[int, int, int, int]] = {}  # k -> region, row, h, w
    for members, det, need, det_c, prep_c, r0, scale in plans:
        canvases = [
            detectk.Canvas(*c, pixels=sheet.regions[r0 + i]) for i, c in enumerate(need)
        ]
        raster = canvases[0]
        for i, k in enumerate(members):
            try:
                media.render(refs[k], out=raster.slot(i))
                dims[k] = (raster.w, raster.h)
            except DEAD_LETTER_ERRORS as e:
                errors[k] = e  # any ink it left in its slot stays in its slot
        if det:
            canvas, slots = raster, det
            if det_c:
                canvas, slots = canvases[det_c], range(len(det))
                for j, i in enumerate(det):
                    canvas.slot(j)[...] = resize_nearest(raster.slot(i), canvas.w, canvas.h)
            found = canvas.boxes([scale] * canvas.n)
            for i, slot in zip(det, slots):
                k = members[i]
                if errors[k] is None:
                    got = found[slot]
                    span_boxes[k] = [got[j] for j in order.reading_order(got)]
        prep = canvases[prep_c]
        for i, k in enumerate(members):
            if recognize and errors[k] is None and span_boxes[k]:
                if prep_c:
                    prep.slot(i)[...] = resize_nearest(raster.slot(i), prep.w, prep.h)
                prep_at[k] = (r0 + prep_c, i * (prep.h + 1), prep.h, prep.w)

    counts = np.asarray(
        [len(b) if e is None else 0 for b, e in zip(span_boxes, errors)], dtype=np.int64
    )
    box_off = np.concatenate(([0], np.cumsum(counts)))
    flat = [b for bs, e in zip(span_boxes, errors) if e is None for b in bs]
    all_boxes = np.asarray(flat, dtype=np.int64).reshape(-1, 4)
    texts: list[str] = []
    confs = np.ones(0)
    if recognize and len(flat):
        # per box: preprocessed raster (region, first row, h, w) and the
        # page -> preprocessed factors, exactly the reference's floats
        spans = [k for k in range(n) if counts[k]]
        at = np.asarray([prep_at[k] for k in spans], dtype=np.int64)
        sx, sy = [], []
        for k in spans:
            w, h = dims[k]
            pw0, ph0 = page_dims[k] if page_dims is not None else (0, 0)
            w_orig, h_orig = pw0 or w, ph0 or h
            sx.append(prep_at[k][3] / w_orig if w_orig else 1.0)
            sy.append(prep_at[k][2] / h_orig if h_orig else 1.0)
        rep = counts[spans]
        at = np.repeat(at, rep, axis=0)
        b, y0, y1, x0, x1 = recognizek.crop_strips(
            all_boxes, np.repeat(sx, rep), np.repeat(sy, rep)
        )
        reg, row, ph, pw = at[b].T
        strip_texts, strip_confs = recognizek.decode_rects(
            sheet,
            reg,
            row + np.minimum(y0, ph),
            row + np.minimum(y1, ph),
            np.minimum(x0, pw),
            np.minimum(x1, pw),
        )
        # per box: one strip is its text; several join with "\n", conf =
        # min (vietocr_engine.py:103-127); then whitespace strip
        first = np.searchsorted(b, np.arange(len(flat)))
        texts = [strip_texts[i] for i in first.tolist()]
        n_strips = np.diff(np.append(first, len(b)))
        for j in np.flatnonzero(n_strips > 1).tolist():
            texts[j] = "\n".join(strip_texts[first[j] : first[j] + n_strips[j]])
        texts = recognizek.postprocess_texts(texts)
        confs = np.minimum.reduceat(strip_confs, first)
    return Extracted(errors, dims, box_off, all_boxes, texts, confs)


def _int_boxes(boxes: list) -> list[Box]:
    out = [(int(x1), int(y1), int(x2), int(y2)) for (x1, y1, x2, y2) in boxes]
    if any(not -_BOX_LIMIT <= v < _BOX_LIMIT for b in out for v in b):
        raise OverflowError("box coordinate outside int32")
    return out


def prepare_recognize(
    ref: str,
    boxes_orig: list[Box],
    page_w: int,
    page_h: int,
    cfg: ExtractConfig,
    img: "object | None" = None,
) -> tuple[list, list[int]]:
    """Crop and strip-split one image's boxes: ``(strips, strip_counts)``,
    strips as ``(preprocessed raster, y0, y1, x0, x1)`` rectangles for
    ``recognizek.decode_strips``, one count per box. The per-image form
    of ``extract_batch``'s prepare step (the same ``crop_strips``), kept
    for callers that time the kernels one image at a time."""
    if not boxes_orig:
        return [], []
    if img is None:
        img = media.render(ref)
    img_prep = preprocess(img, cfg.max_side)
    h_prep, w_prep = img_prep.shape[:2]
    w_orig = page_w or img.shape[1]
    h_orig = page_h or img.shape[0]
    boxes = np.asarray(_int_boxes(boxes_orig), dtype=np.int64)
    ones = np.ones(len(boxes))
    b, y0, y1, x0, x1 = recognizek.crop_strips(
        boxes,
        ones * (w_prep / w_orig if w_orig else 1.0),
        ones * (h_prep / h_orig if h_orig else 1.0),
    )
    strips = [(img_prep, *r) for r in zip(y0.tolist(), y1.tolist(), x0.tolist(), x1.tolist())]
    return strips, np.bincount(b, minlength=len(boxes)).tolist()


def extract_image_span(
    ref: str,
    cfg: ExtractConfig,
    span_idx: int = 0,
    override_boxes: list[Box] | None = None,
) -> list[BlockResult]:
    """Fused detect+recognize for one image span (reference ``run_ocr`` /
    two-phase composition — identical by construction, see module doc):
    a batch of one through ``extract_batch``. Raises the dead letter's
    exception on a poison span.

    ``override_boxes`` is the human-edit analogue (PATCH /jobs/{id}/detect,
    routes_jobs.py:230-249): array order preserved, no reading-order sort.
    """
    res = extract_batch([ref], cfg, None if override_boxes is None else [override_boxes])
    if res.errors[0] is not None:
        raise res.errors[0]
    return [
        BlockResult(text=t, conf=c, box=tuple(box), block_id=f"{span_idx}-{i}")
        for i, (t, c, box) in enumerate(zip(res.texts, res.confs.tolist(), res.boxes.tolist()))
    ]


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
      normalization: normalize may empty a boilerplate-only span);
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
            if t:
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
