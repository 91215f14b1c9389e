"""Preprocess: resize-by-max-side with the reference's exact scale math.

Reference: /root/reference/libs/ocr_core/ocr_core/pipeline/preprocess.py:11-20
(``scale = max(w, h) / max_side; if scale > 1: new_w = int(w / scale),
new_h = int(h / scale)`` — int truncation, not rounding) and
detect.py:16-23 (``_resize_by_max_side``, same rule). The reference uses
LANCZOS/INTER_AREA resampling; with no PIL/cv2 in this environment we use
deterministic nearest-neighbour index mapping — the *geometry* (output
dims, coordinate scale factors) is what the span contract observes.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_SIDE = 1200


def resize_dims(w: int, h: int, max_side: int) -> tuple[int, int]:
    """(w, h) after the max-side rule; unchanged when it already fits."""
    scale = max(w, h) / max_side
    if scale > 1:
        return int(w / scale), int(h / scale)
    return w, h


def resize_nearest(img: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    """Deterministic nearest-neighbour resize (floor index mapping)."""
    h, w = img.shape[:2]
    if (new_w, new_h) == (w, h):
        return img
    rows = (np.arange(new_h) * h) // new_h
    cols = (np.arange(new_w) * w) // new_w
    # two 1-D takes gather the same pixels as img[np.ix_(rows, cols)],
    # several times faster
    return img.take(rows, axis=0).take(cols, axis=1)


def preprocess(img: np.ndarray, max_side: int = DEFAULT_MAX_SIDE) -> np.ndarray:
    """Reference ``preprocess_image`` analogue for a 2-D grayscale array."""
    h, w = img.shape[:2]
    new_w, new_h = resize_dims(w, h, max_side)
    return resize_nearest(img, new_w, new_h)
