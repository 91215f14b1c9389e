"""Unit tests for the deterministic kernels (reference-arithmetic fidelity).

The strip/clamp/preprocess tests pin the exact constants and rounding of
/root/reference/libs/ocr_core/ocr_core (SURVEY §2.2 P1-P10, §7.5.2 edge
heights).
"""

import numpy as np
import pytest

from ocr_platform_ray import font, media
from ocr_platform_ray.kernels import detectk, order, recognizek
from ocr_platform_ray.kernels.preprocess import preprocess, resize_dims
from ocr_platform_ray.kernels.textnorm import normalize_text


class TestFont:
    def test_roundtrip_all_chars(self):
        for s in (1, 2, 3, 5):
            text = font.CHARSET
            img = font.render_line(text, s)
            got, conf = font.decode_band(img > 127)
            assert got == text
            assert conf == 1.0

    def test_roundtrip_words(self):
        img = font.render_line("HELLO WORLD 42", 4)
        got, conf = font.decode_band(img > 127)
        assert got == "HELLO WORLD 42"
        assert conf == 1.0

    def test_blank(self):
        assert font.decode_band(np.zeros((7, 10), dtype=bool)) == ("", 1.0)

    def test_conf_is_min_over_glyphs_per_band(self):
        clean = font.render_line("AB", 1) > 127
        noisy = clean.copy()
        noisy[1, 8] = True  # one stray cell inside B: 34 of 35 agree
        assert font.decode_bands([clean, noisy, clean]) == [
            ("AB", 1.0), ("AB", 34 / 35), ("AB", 1.0),
        ]

    def test_templates_unique(self):
        flat = font.TEMPLATES.reshape(len(font.CHARSET), -1)
        assert len({tuple(r) for r in flat.tolist()}) == len(font.CHARSET)


class TestStripArithmetic:
    """vietocr_engine.py:63-100 exact semantics at the edge heights."""

    @pytest.mark.parametrize("h", [8, 31, 32, 55, 56])
    def test_short_crop_single(self, h):
        assert recognizek.strip_bounds(h, None) == [(0, h)]

    def test_crop_height_mode_57(self):
        # h=57 > 56: strips [0,32), [28,57) (29px), [56,57) dropped (<8)
        assert recognizek.strip_bounds(57, None) == [(0, 32), (28, 57)]

    def test_crop_height_mode_88(self):
        assert recognizek.strip_bounds(88, None) == [(0, 32), (28, 60), (56, 88)]

    def test_original_height_gate_at_56(self):
        # oh=56 is NOT > 56 -> falls through to crop-height mode
        assert recognizek.strip_bounds(30, 56) == [(0, 30)]
        # oh=57 > 56 -> original-height mode: round(57/32)=2 strips,
        # strip 0 = [0, min(0+32, 57)) = (0, 32); last strip = (28, 57)
        got = recognizek.strip_bounds(57, 57)
        assert got == [(0, 32), (28, 57)]

    def test_bankers_rounding_num_strips(self):
        # oh=80: round(80/32)=round(2.5)=2 (banker's), strips at 0,28->80
        got = recognizek.strip_bounds(80, 80)
        assert got == [(0, 32), (28, 80)]
        # oh=112: round(3.5)=4
        got = recognizek.strip_bounds(112, 112)
        assert len(got) == 4

    def test_original_mode_scaled_crop(self):
        # crop scaled to half: mapping int(y * h / oh)
        got = recognizek.strip_bounds(50, 100)
        # num_strips = round(100/32)=3; y_orig 0,28,56; y2 32,60,100
        # crop: int(0*50/100)=0,int(32*50/100)=16; int(28*.5)=14,int(60*.5)=30; 28,50
        assert got == [(0, 16), (14, 30), (28, 50)]

    def test_min_strip_floor(self):
        # tiny mapped strips (<8 px) dropped
        got = recognizek.strip_bounds(10, 100)
        assert all((y2 - y1) >= 8 for y1, y2 in got)

    def test_last_strip_extends(self):
        got = recognizek.strip_bounds(140, 140)
        assert got[-1][1] == 140


class TestClamp:
    def test_clamp_rules(self):
        # recognize.py:9-13: x1,y1 >= 0; x2 >= x1+1; y2 >= y1+1
        assert recognizek.clamp_box((-5, -3, -2, -1)) == (0, 0, 1, 1)
        assert recognizek.clamp_box((10, 10, 10, 10)) == (10, 10, 11, 11)
        assert recognizek.clamp_box((3, 4, 9, 8)) == (3, 4, 9, 8)

    def test_crop_pads_beyond_image(self):
        # a box past the raster's edge keeps its clamped size; the pixels
        # past the edge read as zero (PIL crop padding)
        got = recognizek.crop_strips(np.array([[5, 5, 15, 12]]), np.ones(1), np.ones(1))
        assert [a.tolist() for a in got] == [[0], [5], [12], [5], [15]]
        img = np.full((10, 10), 255, dtype=np.uint8)
        # 5 ink rows + 2 padded rows: a band shorter than a glyph
        assert recognizek.decode_strips([(img, 5, 12, 5, 15)]) == [("", 1.0)]
        glyphs = font.render_line("AB", 1)  # (7, 11)
        assert recognizek.decode_strips([(glyphs, 0, 12, 0, 20)]) == [("AB", 1.0)]


class TestPreprocess:
    def test_no_resize_at_or_below_max(self):
        assert resize_dims(1200, 800, 1200) == (1200, 800)

    def test_resize_truncation(self):
        # scale = 1500/1200 = 1.25; int(1500/1.25)=1200, int(900/1.25)=720
        assert resize_dims(1500, 900, 1200) == (1200, 720)
        # truncation not rounding: w=1250 -> scale=1.0416..; int(1250/s)=1200, int(999/s)=959
        w, h = resize_dims(1250, 999, 1200)
        assert (w, h) == (1200, 959)

    def test_preprocess_shape(self):
        img = np.zeros((900, 1500), dtype=np.uint8)
        out = preprocess(img, 1200)
        assert out.shape == (720, 1200)


class TestDetect:
    def test_reduce_validity_filter(self):
        polys = np.array(
            [
                [[0, 0], [10, 0], [10, 5], [0, 5]],     # valid
                [[3, 3], [3, 3], [3, 3], [3, 3]],       # degenerate -> dropped
            ],
            dtype=np.float32,
        )
        assert detectk.reduce_polygons(polys, 1.0) == [(0, 0, 10, 5)]

    def test_reduce_scale_back(self):
        polys = np.array([[[0, 0], [10, 0], [10, 5], [0, 5]]], dtype=np.float32)
        assert detectk.reduce_polygons(polys, 2.0) == [(0, 0, 20, 10)]

    def test_empty(self):
        assert detectk.reduce_polygons(None, 1.0) == []
        assert detectk.reduce_polygons(np.zeros((0, 4, 2), np.float32), 1.0) == []
        assert detectk.detect_boxes(np.zeros((40, 40), np.uint8)) == []

    def test_detect_single_line(self):
        line = font.render_line("RAY DATA", 3)
        img = np.zeros((60, 300), dtype=np.uint8)
        img[10 : 10 + line.shape[0], 5 : 5 + line.shape[1]] = line
        boxes = detectk.detect_boxes(img)
        assert len(boxes) == 1
        x1, y1, x2, y2 = boxes[0]
        assert (y1, y2) == (10, 10 + line.shape[0])
        assert x1 == 5 and x2 == 5 + line.shape[1]

    def test_detect_splits_segments(self):
        s = 3
        a = font.render_line("AB", s)
        b = font.render_line("CD", s)
        img = np.zeros((40, 400), dtype=np.uint8)
        img[5 : 5 + a.shape[0], 10 : 10 + a.shape[1]] = a
        # gap of 8*s=24 > band height 21 -> split
        x2 = 10 + a.shape[1] + 8 * s
        img[5 : 5 + b.shape[0], x2 : x2 + b.shape[1]] = b
        assert len(detectk.detect_boxes(img)) == 2

    def test_tall_band_one_box(self):
        img = np.zeros((200, 100), dtype=np.uint8)
        img[10:80, 20:60] = 255  # 70px tall > 56 -> single paragraph box
        assert detectk.detect_boxes(img) == [(20, 10, 60, 80)]


class TestReadingOrder:
    def test_rows_then_columns(self):
        boxes = [(100, 0, 150, 10), (0, 0, 50, 10), (0, 20, 50, 30)]
        assert order.reading_order(boxes) == [1, 0, 2]

    def test_stable_ties(self):
        boxes = [(0, 0, 10, 10), (0, 0, 10, 10)]
        assert order.reading_order(boxes) == [0, 1]

    def test_empty(self):
        assert order.reading_order([]) == []


class TestNormalize:
    def test_strip_and_collapse(self):
        assert normalize_text("  a \t b\n\nc  ") == "a b c"

    def test_boilerplate(self):
        assert normalize_text("x [[AD]] buy stuff [[/AD]] y") == "x y"
        assert normalize_text("[[AD]]only ad[[/AD]]") == ""

    def test_multiline_boilerplate(self):
        assert normalize_text("a [[AD]] l1\nl2 [[/AD]] b") == "a b"


class TestMedia:
    def test_deterministic(self):
        ref = media.make_ref(9, 2, 300, 60, 2)
        a, b = media.render(ref), media.render(ref)
        assert np.array_equal(a, b)

    def test_parse_roundtrip(self):
        ref = media.make_ref(1, 2, 30, 40, 5)
        assert media.parse_ref(ref) == (1, 2, 30, 40, 5)

    def test_blank_when_zero_lines(self):
        assert media.render(media.make_ref(3, 0, 100, 30, 0)).max() == 0

    def test_single_line_exact_ocr(self):
        # a clean single-line image must decode to its ground truth exactly
        ref = media.make_ref(123, 0, 320, 40, 1)
        from ocr_platform_ray.kernels.extract import ExtractConfig, extract_image_span

        truth = media.ground_truth_lines(ref)
        blocks = extract_image_span(ref, ExtractConfig())
        assert [b.text for b in blocks] == [t for segs in truth for t in segs]
        assert all(b.conf == 1.0 for b in blocks)
