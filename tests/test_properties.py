"""Property-based tests (hypothesis) for the conformance-critical kernels:
strip arithmetic invariants, normalize idempotence, reading-order totality,
clamp/crop safety — over much wider input ranges than the example tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_platform_ray import font
from ocr_platform_ray.kernels import order, recognizek
from ocr_platform_ray.kernels.preprocess import resize_dims
from ocr_platform_ray.kernels.textnorm import normalize_text

boxes_st = st.lists(
    st.tuples(
        st.integers(-50, 500), st.integers(-50, 500),
        st.integers(-50, 500), st.integers(-50, 500),
    ),
    max_size=20,
)


def _scalar_strip_bounds(crop_h, original_height_px):
    """Reference per-crop strip walk (vietocr_engine.py:63-100), kept
    here to pin ``recognizek``'s array arithmetic."""
    h = crop_h
    if original_height_px is not None and original_height_px > recognizek.MAX_SINGLE_LINE_HEIGHT:
        oh = original_height_px
        num_strips = max(1, round(oh / recognizek.LINE_STRIP_HEIGHT))
        step_orig = max(1, recognizek.LINE_STRIP_HEIGHT - recognizek.LINE_STRIP_OVERLAP)
        strips = []
        for i in range(num_strips):
            y_orig = i * step_orig
            y2_orig = oh if i == num_strips - 1 else min(y_orig + recognizek.LINE_STRIP_HEIGHT, oh)
            y1_crop = int(y_orig * h / oh)
            y2_crop = int(y2_orig * h / oh)
            if y2_crop > y1_crop and (y2_crop - y1_crop) >= recognizek.MIN_STRIP_PX:
                strips.append((y1_crop, y2_crop))
        return strips
    if h <= recognizek.MAX_SINGLE_LINE_HEIGHT:
        return [(0, h)]
    step = max(1, recognizek.LINE_STRIP_HEIGHT - recognizek.LINE_STRIP_OVERLAP)
    strips = []
    y = 0
    while y < h:
        y2 = min(y + recognizek.LINE_STRIP_HEIGHT, h)
        if y2 - y >= recognizek.MIN_STRIP_PX:
            strips.append((y, y2))
        y += step
    return strips


def _scalar_crop(img, box):
    """Reference clamp (recognize.py:9-13) + PIL-style zero-padded crop."""
    x1, y1, x2, y2 = box
    x1, y1 = max(0, x1), max(0, y1)
    x2, y2 = max(x1 + 1, x2), max(y1 + 1, y2)
    out = np.zeros((y2 - y1, x2 - x1), dtype=img.dtype)
    h, w = img.shape[:2]
    sy1, sy2 = min(y1, h), min(y2, h)
    sx1, sx2 = min(x1, w), min(x2, w)
    if sy2 > sy1 and sx2 > sx1:
        out[: sy2 - sy1, : sx2 - sx1] = img[sy1:sy2, sx1:sx2]
    return out


class TestStripProperties:
    @given(
        # the mode and size thresholds (56, 8) sit at small heights
        h=st.one_of(st.integers(0, 2000), st.integers(0, 130)),
        oh=st.one_of(st.none(), st.integers(-100, 4000), st.integers(0, 130)),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_scalar_walk(self, h, oh):
        assert recognizek.strip_bounds(h, oh) == _scalar_strip_bounds(h, oh)

    @given(h=st.integers(1, 2000), oh=st.one_of(st.none(), st.integers(1, 4000)))
    @settings(max_examples=300, deadline=None)
    def test_bounds_within_crop_and_min_height(self, h, oh):
        strips = recognizek.strip_bounds(h, oh)
        for (y1, y2) in strips:
            assert 0 <= y1 < y2 <= max(h, 1)
        # multi-strip mode enforces the 8px floor; single full-crop strip
        # (short crop) may be shorter
        if len(strips) > 1:
            assert all(y2 - y1 >= recognizek.MIN_STRIP_PX for y1, y2 in strips)

    @given(h=st.integers(recognizek.MIN_STRIP_PX, 2000))
    @settings(max_examples=200, deadline=None)
    def test_crop_mode_covers_crop(self, h):
        strips = recognizek.strip_bounds(h, None)
        assert strips[0][0] == 0
        # reference semantics: a trailing strip shorter than 8 px is DROPPED
        # (vietocr_engine.py:96-99), so up to 7 px of tail may be uncovered
        assert strips[-1][1] >= h - 7
        # consecutive strips overlap or touch (no gap): next y1 <= prev y2
        for (a, b) in zip(strips, strips[1:]):
            assert b[0] <= a[1]

    @given(oh=st.integers(57, 4000))
    @settings(max_examples=200, deadline=None)
    def test_original_mode_strip_count(self, oh):
        strips = recognizek.strip_bounds(oh, oh)  # unscaled crop
        assert len(strips) <= max(1, round(oh / 32))


class TestClampProperties:
    @given(box=st.tuples(*[st.integers(-100, 600)] * 4))
    @settings(max_examples=200, deadline=None)
    def test_clamp_invariants(self, box):
        x1, y1, x2, y2 = recognizek.clamp_box(box)
        assert x1 >= 0 and y1 >= 0 and x2 > x1 and y2 > y1

    @given(box=st.tuples(*[st.integers(-100, 600)] * 4))
    @settings(max_examples=100, deadline=None)
    def test_crop_shape_matches_clamp(self, box):
        # unscaled: every strip spans the clamped box's columns and lies
        # within its rows; a single strip is the whole clamped crop
        x1, y1, x2, y2 = recognizek.clamp_box(box)
        b, ry0, ry1, rx0, rx1 = recognizek.crop_strips(
            np.asarray([box], dtype=np.int64), np.ones(1), np.ones(1)
        )
        assert set(b.tolist()) == {0}
        assert set(rx0.tolist()) == {x1} and set(rx1.tolist()) == {x2}
        assert all(y1 <= a < c <= y2 for a, c in zip(ry0.tolist(), ry1.tolist()))
        if len(b) == 1:
            assert (ry0[0], ry1[0]) == (y1, y2)


class TestOrderProperties:
    @given(boxes=boxes_st)
    @settings(max_examples=200, deadline=None)
    def test_permutation(self, boxes):
        idx = order.reading_order(boxes)
        assert sorted(idx) == list(range(len(boxes)))

    @given(boxes=boxes_st)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, boxes):
        assert order.reading_order(boxes) == order.reading_order(boxes)


class TestNormalizeProperties:
    @given(s=st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(s=st.text(alphabet=" \t\n\rab", max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_no_edge_or_double_spaces(self, s):
        out = normalize_text(s)
        assert out == out.strip()
        assert "  " not in out


class TestPreprocessProperties:
    @given(w=st.integers(1, 5000), h=st.integers(1, 5000),
           m=st.integers(10, 2400))
    @settings(max_examples=300, deadline=None)
    def test_resize_bound_and_monotone(self, w, h, m):
        nw, nh = resize_dims(w, h, m)
        assert max(nw, nh) <= max(max(w, h), m)
        if max(w, h) > m:
            assert max(nw, nh) <= m
        else:
            assert (nw, nh) == (w, h)


class TestFontProperties:
    @given(
        words=st.lists(
            st.text(alphabet=font.CHARSET.replace(" ", ""), min_size=1, max_size=6),
            min_size=1, max_size=4,
        ),
        s=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_render_decode_roundtrip(self, words, s):
        text = " ".join(words)
        img = font.render_line(text, s)
        got, conf = font.decode_band(img > 127)
        assert got == text
        assert conf == 1.0


class TestJoinProperties:
    """Randomized ground-truth checks: Ray join operators vs brute-force
    pandas/python references on small random inputs (fixed seeds — each
    Ray pipeline run costs ~1 s, so a few seeds, not hypothesis sweeps)."""

    def _rand_tables(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        left = [
            {"event_id": int(i), "user_id": int(rng.integers(0, 8)),
             "ts": int(rng.integers(0, 1000))}
            for i in range(60)
        ]
        right = [
            {"user_id": int(rng.integers(0, 8)), "ts": int(rng.integers(0, 1000))}
            for _ in range(80)
        ]
        return left, right

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_range_join_count_vs_bruteforce(self, seed):
        import ray.data as rd

        from ocr_platform_ray.functions.joins import range_join_count

        left, right = self._rand_tables(seed)
        lo, hi = -100, 50
        out = range_join_count(
            rd.from_items(left), rd.from_items(right),
            key="user_id", ts="ts", lo_offset=lo, hi_offset=hi,
        ).to_pandas()
        got = dict(zip(out["event_id"], out["n_in_range"]))
        for l in left:
            want = sum(
                1 for r in right
                if r["user_id"] == l["user_id"]
                and l["ts"] + lo <= r["ts"] < l["ts"] + hi
            )
            assert got[l["event_id"]] == want, (seed, l)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_asof_join_vs_bruteforce(self, seed):
        import pandas as pd

        import ray.data as rd

        from ocr_platform_ray.functions.joins import asof_join

        left, right = self._rand_tables(seed)
        out = asof_join(
            rd.from_items(left), rd.from_items(right),
            key="user_id", ts="ts", value_cols=[],
        ).to_pandas()
        got = dict(zip(out["event_id"], out["ts_matched"]))
        assert len(out) == len(left)
        for l in left:
            cands = [r["ts"] for r in right
                     if r["user_id"] == l["user_id"] and r["ts"] <= l["ts"]]
            want = max(cands) if cands else None
            g = got[l["event_id"]]
            if want is None:
                assert pd.isna(g), (seed, l)
            else:
                assert g == want, (seed, l, want)

    @pytest.mark.parametrize("seed", [3, 13])
    def test_join_modes_vs_pandas(self, seed):
        import numpy as np
        import pandas as pd

        import ray.data as rd

        from ocr_platform_ray.functions.joins import bucketed_merge_join

        rng = np.random.default_rng(seed)
        left = [{"k": int(rng.integers(0, 10)), "lv": int(i)} for i in range(40)]
        right = [{"rk": int(rng.integers(0, 10)), "rv": int(i * 10)}
                 for i in range(12)]
        ldf = pd.DataFrame(left)
        rdf = pd.DataFrame(right)
        rkeys = set(rdf["rk"])
        for how in ("semi", "anti"):
            out = bucketed_merge_join(
                rd.from_items(left), rd.from_items(right),
                on="k", right_on="rk", how=how,
            ).to_pandas()
            mask = ldf["k"].isin(rkeys)
            want = ldf[mask if how == "semi" else ~mask]
            assert sorted(out["lv"]) == sorted(want["lv"]), (seed, how)
        out = bucketed_merge_join(
            rd.from_items(left), rd.from_items(right),
            on="k", right_on="rk", how="left",
        ).to_pandas()
        want = ldf.merge(rdf, left_on="k", right_on="rk", how="left")
        assert len(out) == len(want)
        got_rv = sorted(out["rv"].fillna(-1))
        assert got_rv == sorted(want["rv"].fillna(-1))


class TestCcProperties:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_cc_labels_vs_union_find(self, seed):
        import numpy as np

        import ray.data as rd

        from ocr_platform_ray.functions.dedup import connected_components_labels

        rng = np.random.default_rng(seed)
        n = 40
        edges = [
            {"doc_a": int(rng.integers(0, n)), "doc_b": int(rng.integers(0, n))}
            for _ in range(30)
        ]
        edges = [e for e in edges if e["doc_a"] != e["doc_b"]]
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for e in edges:
            a, b = find(e["doc_a"]), find(e["doc_b"])
            if a != b:
                lo, hi = (a, b) if a < b else (b, a)
                parent[hi] = lo
        nodes = {e["doc_a"] for e in edges} | {e["doc_b"] for e in edges}
        # canonical min-id per component
        comp_min = {}
        for v in nodes:
            root = find(v)
            comp_min[root] = min(comp_min.get(root, v), v)
        want = {v: comp_min[find(v)] for v in nodes}
        labels = connected_components_labels(rd.from_items(edges)).to_pandas()
        got = dict(zip(labels["doc_id"], labels["label"]))
        assert got == want, seed


class TestProposePolygonsProperty:
    """The canvas detector (``detectk.Canvas``, one canvas per shape group,
    shared by the stages and the oracle) must equal the per-band scalar
    walk on every image on its own: band/run/merge edge cases (ink in
    first/last row, single full-height band, paragraph bands, 1-px runs),
    repeated and mixed shapes in one batch, degenerate shapes, arbitrary
    uint8 values and the max-side shrink."""

    @staticmethod
    def _scalar_reference(img):
        import numpy as np

        from ocr_platform_ray.kernels.recognizek import MAX_SINGLE_LINE_HEIGHT

        def runs(mask):
            idx = np.flatnonzero(
                np.diff(np.concatenate(([0], mask.view(np.int8), [0])))
            )
            return [(int(idx[i]), int(idx[i + 1])) for i in range(0, len(idx), 2)]

        binar = img > 127
        segs = []
        for r0, r1 in runs(binar.any(axis=1)):
            h = r1 - r0
            col = runs(binar[r0:r1].any(axis=0))
            if not col:
                continue
            if h > MAX_SINGLE_LINE_HEIGHT:
                merged = [(col[0][0], col[-1][1])]
            else:
                merged = [list(col[0])]
                for c0, c1 in col[1:]:
                    if c0 - merged[-1][1] > h:
                        merged.append([c0, c1])
                    else:
                        merged[-1][1] = c1
                merged = [tuple(m) for m in merged]
            for c0, c1 in merged:
                segs.append((c0, c1, r0, r1))
        out = np.zeros((len(segs), 4, 2), dtype=np.float32)
        for i, (c0, c1, r0, r1) in enumerate(segs):
            out[i] = [[c0, r0], [c1, r0], [c1, r1], [c0, r1]]
        return out

    @classmethod
    def _scalar_detect(cls, img, max_side=0):
        """One image the scalar way: optional max-side shrink, the numpy
        row test (a max-reduction, which raises ValueError on a zero-width
        raster), the scalar walk, the reference reduction."""
        from ocr_platform_ray.kernels.detectk import reduce_polygons
        from ocr_platform_ray.kernels.preprocess import resize_nearest

        h, w = img.shape
        scale = max(h, w) / max_side if max_side > 0 else 1.0
        if scale > 1:
            img = resize_nearest(img, int(w / scale), int(h / scale))
        img.max(axis=1)
        return reduce_polygons(cls._scalar_reference(img), scale)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_walk(self, data):
        import numpy as np

        from ocr_platform_ray.kernels.detectk import detect_boxes

        h = data.draw(st.integers(1, 90), label="h")
        w = data.draw(st.integers(1, 90), label="w")
        density = data.draw(st.floats(0.0, 0.6), label="density")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        img = (rng.random((h, w)) < density).astype(np.uint8) * 255
        assert detect_boxes(img) == self._scalar_detect(img)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_scalar_walk(self, data):
        """A batch grouped by work shape onto canvases, as
        ``kernels.extract.extract_batch`` does, equals the scalar walk per
        image; the exception class matches wherever the scalar path raises
        (a zero-width work raster)."""
        import numpy as np

        from ocr_platform_ray.kernels.detectk import Canvas, work_shape
        from ocr_platform_ray.kernels.preprocess import resize_nearest

        dim = st.integers(0, 48)
        shapes = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(dim, dim),
                    st.sampled_from([(0, 9), (9, 0), (0, 0), (1, 1)]),
                ),
                min_size=1, max_size=4,
            ),
            label="shapes",
        )
        picks = data.draw(
            st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=12),
            label="picks",
        )
        max_side = data.draw(st.sampled_from([0, 0, 7, 16, 40]), label="max_side")
        density = data.draw(st.floats(0.0, 0.7), label="density")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        imgs = []
        for p in picks:
            # arbitrary uint8 values, most of them <= 127 (no ink): pins
            # that OR-ing uint64 words then testing bit 7 is max(...) > 127
            vals = rng.integers(0, 256, size=shapes[p], dtype=np.uint8)
            imgs.append(np.where(rng.random(shapes[p]) < density, vals, 0).astype(np.uint8))
        want, groups = {}, {}
        for i, img in enumerate(imgs):
            try:
                want[i] = self._scalar_detect(img, max_side)
            except Exception as e:  # noqa: BLE001  (the class is the contract)
                want[i] = type(e)
            try:
                gh, gw, scale = work_shape(*img.shape, max_side)
            except Exception as e:  # noqa: BLE001
                assert want[i] is type(e), (img.shape, max_side)
                continue
            groups.setdefault((gh, gw), []).append((i, scale))
        for (gh, gw), members in groups.items():
            canvas = Canvas(len(members), gh, gw)
            for k, (i, _scale) in enumerate(members):
                canvas.slot(k)[...] = resize_nearest(imgs[i], gw, gh)
            got = canvas.boxes([scale for _i, scale in members])
            for (i, _scale), boxes in zip(members, got):
                assert boxes == want[i], (imgs[i].shape, max_side)


class TestDecodeStripsProperty:
    """Batch decode (one band-choice pass over all strips, one template
    pass) equals the per-strip rule: the tallest run of ink rows, ties topmost, decoded
    on its own. Ink rows come in runs of a few shared heights, so
    equal-height bands are common."""

    @staticmethod
    def _scalar_decode(strip):
        import numpy as np

        row_any = strip.max(axis=1) > 127
        idx = np.flatnonzero(np.diff(np.concatenate(([0], row_any.view(np.int8), [0]))))
        bands = [(int(idx[i]), int(idx[i + 1])) for i in range(0, len(idx), 2)]
        if not bands:
            return "", 1.0
        r0, r1 = max(bands, key=lambda b: (b[1] - b[0], -b[0]))
        return font.decode_band(strip[r0:r1] > 127)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_strip_rule(self, data):
        import numpy as np

        shapes = data.draw(
            st.lists(st.tuples(st.integers(0, 40), st.integers(1, 60)), min_size=1, max_size=3),
            label="shapes",
        )
        picks = data.draw(
            st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=10),
            label="picks",
        )
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        strips = []
        for p in picks:
            h, w = shapes[p]
            noise = rng.integers(0, 128, size=(h, w), dtype=np.uint8)
            ink = rng.integers(128, 256, size=(h, w), dtype=np.uint8)
            # ink rows in runs of a few shared heights (>= the 7-row glyph
            # height, so bands decode) separated by short gaps
            rows = np.zeros(h, dtype=bool)
            y = int(rng.integers(0, 3))
            while y < h:
                run = int(rng.choice([3, 7, 8]))
                rows[y : y + run] = True
                y += run + int(rng.integers(1, 4))
            cells = rng.random((h, w)) < 0.4
            strips.append(np.where(rows[:, None] & cells, ink, noise).astype(np.uint8))
        rects = [(s, 0, s.shape[0], 0, s.shape[1]) for s in strips]
        assert recognizek.decode_strips(rects) == [self._scalar_decode(s) for s in strips]


def _scalar_render_line(text, s):
    """Reference line render: the per-word, per-glyph walk (each space
    advances WORD_GAP*s, known glyphs 5s plus s between adjacent ones,
    unknown characters skipped), width ``font.text_width``."""
    out = np.zeros((font.GLYPH_H * s, max(0, font.text_width(text, s))), dtype=np.uint8)
    x = 0
    for i, word in enumerate(text.split(" ")):
        if i:
            x += font.WORD_GAP * s
        for j, ch in enumerate(c for c in word if c in font.GLYPHS):
            if j:
                x += font.CHAR_GAP * s
            glyph = np.kron(font.GLYPHS[ch], np.ones((s, s), dtype=np.uint8)) * 255
            out[:, x : x + font.GLYPH_W * s] = glyph
            x += font.GLYPH_W * s
    return out


def _scalar_paste(img, lines, s):
    """Reference render paste: one ``_scalar_render_line`` block per
    segment, clipped at the raster's edges, ink-maxed into the raster."""
    h, w = img.shape
    for y, segments in lines:
        for x, text in segments:
            block = _scalar_render_line(text, s)
            bh, bw = block.shape
            bh, bw = min(bh, h - y), min(bw, w - x)
            if bh > 0 and bw > 0:
                img[y : y + bh, x : x + bw] = np.maximum(
                    img[y : y + bh, x : x + bw], block[:bh, :bw]
                )


_render_text = st.text(alphabet="AB1Z ?a", max_size=14)


class TestRenderProperty:
    """``media.render`` pastes one ``font.line_raster`` per line; it must
    equal the per-word paste of every segment, including lines clipped
    at the right and bottom edges and skipped unknown characters."""

    @given(text=_render_text, s=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_render_line_equals_word_walk(self, text, s):
        assert np.array_equal(font.render_line(text, s), _scalar_render_line(text, s))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_line_paste_equals_word_paste(self, data):
        from ocr_platform_ray import media

        s = data.draw(st.integers(1, 3), label="s")
        h = data.draw(st.integers(0, 60), label="h")
        w = data.draw(st.integers(0, 90), label="w")
        y = data.draw(st.integers(0, h + 4), label="y0")
        lines = []
        for _ in range(data.draw(st.integers(0, 4), label="n_lines")):
            x = data.draw(st.integers(0, w + 4), label="x0")
            segments = []
            for _ in range(data.draw(st.integers(1, 3), label="n_segments")):
                text = data.draw(_render_text, label="text")
                segments.append((x, text))
                # segments never overlap: the next starts at or past this
                # one's text_width end
                x += max(0, font.text_width(text, s)) + data.draw(st.integers(0, 9), label="gap")
            lines.append((y, segments))
            y += font.GLYPH_H * s + data.draw(st.integers(0, 5), label="pitch")
        got = np.zeros((h, w), dtype=np.uint8)
        media.paste_lines(got, lines, s)
        want = np.zeros((h, w), dtype=np.uint8)
        _scalar_paste(want, lines, s)
        assert np.array_equal(got, want)


class TestBatchRecognizeProperty:
    """``kernels.extract.extract_batch`` (shape-group canvases on one
    sheet, array crop/strip arithmetic, one rectangle decode per batch)
    equals the reference per-image walk on every span: render, detect or
    given boxes, preprocess, per-box scaled crop with zero padding, the
    strip walk, the per-strip band rule, "\\n" join and min conf."""

    @staticmethod
    def _scalar_span(ref, cfg, given, page):
        from ocr_platform_ray import media
        from ocr_platform_ray.kernels import detectk
        from ocr_platform_ray.kernels.extract import detect_image
        from ocr_platform_ray.kernels.preprocess import preprocess

        img = media.render(ref)
        if given is None:
            boxes, _w, _h = detect_image(ref, cfg, img=img)
        else:
            # given boxes follow a detect, so a raster detect rejects
            # (zero-width work raster) is a dead letter with them too
            detectk.work_shape(*img.shape[:2], cfg.detect_max_side)
            boxes = [tuple(int(v) for v in b) for b in given]
        img_prep = preprocess(img, cfg.max_side)
        h_prep, w_prep = img_prep.shape
        w_orig = page[0] or img.shape[1]
        h_orig = page[1] or img.shape[0]
        sx = w_prep / w_orig if w_orig else 1.0
        sy = h_prep / h_orig if h_orig else 1.0
        out = []
        for (x1, y1, x2, y2) in boxes:
            crop = _scalar_crop(img_prep, (int(x1 * sx), int(y1 * sy), int(x2 * sx), int(y2 * sy)))
            bounds = _scalar_strip_bounds(crop.shape[0], y2 - y1)
            strips = [crop] if len(bounds) <= 1 else [crop[a:b] for a, b in bounds]
            dec = [TestDecodeStripsProperty._scalar_decode(st_) for st_ in strips]
            if len(dec) == 1:
                text, conf = dec[0]
            else:
                text, conf = "\n".join(t for t, _ in dec), min(c for _, c in dec)
            out.append(((x1, y1, x2, y2), text.strip(), conf))
        return img.shape[1], img.shape[0], out

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_scalar_path(self, data):
        from ocr_platform_ray import media
        from ocr_platform_ray.kernels.extract import (
            DEAD_LETTER_ERRORS, ExtractConfig, detect_image, extract_batch,
        )

        cfg = ExtractConfig(
            max_side=data.draw(st.sampled_from([1200, 1200, 64]), label="max_side"),
            detect_max_side=data.draw(st.sampled_from([0, 0, 40]), label="detect_max_side"),
        )
        shapes = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.integers(0, 90), st.integers(0, 140)),
                    # wider or taller than 1,200 px: the preprocess shrink
                    st.sampled_from([(40, 1300), (1230, 60), (70, 1210)]),
                ),
                min_size=1, max_size=3,
            ),
            label="shapes",
        )
        refs, given, pages = [], [], []
        for i in range(data.draw(st.integers(1, 6), label="n_spans")):
            h, w = data.draw(st.sampled_from(shapes), label="shape")
            if data.draw(st.integers(0, 9), label="bad") == 0:
                refs.append("img://bad")
            else:
                refs.append(media.make_ref(
                    data.draw(st.integers(0, 999), label="seed"), i, w, h,
                    data.draw(st.integers(0, 6), label="lines"),
                ))
            # page dims smaller than the raster scale crops up: a box of
            # original height <= 56 then crops taller than 56 (crop-height
            # mode); 5x larger ones shrink 32-row page strips under 8 rows,
            # so a tall box keeps one strip and reads its full crop
            page = data.draw(st.sampled_from([
                (0, 0), (w, h), (max(1, w // 3), max(1, h // 3)), (2 * w, 2 * h), (5 * w, 5 * h),
            ]), label="page")
            pages.append(page)
            mode = data.draw(st.sampled_from(["detect", "detect", "given", "text"]), label="mode")
            boxes = None
            if mode == "given":
                xs = st.integers(-20, page[0] + 30 if page[0] else w + 30)
                ys = st.integers(-20, page[1] + 30 if page[1] else h + 30)
                box = st.one_of(
                    st.tuples(xs, ys, xs, ys),  # anything: past the edges, x2 <= x1, ...
                    # tall: original height over 56 (original-height mode)
                    st.tuples(xs, ys, xs, st.integers(57, 160)).map(
                        lambda b: (b[0], b[1], b[2], b[1] + b[3])
                    ),
                )
                boxes = data.draw(st.lists(box, max_size=4), label="boxes")
            elif mode == "text":
                # the raster's own text boxes in page coordinates, grown
                # down by up to 120 page rows: given boxes over real glyphs
                try:
                    found = detect_image(refs[-1], ExtractConfig())[0]
                except DEAD_LETTER_ERRORS:
                    found = []
                sx = page[0] / w if page[0] and w else 1
                sy = page[1] / h if page[1] and h else 1
                grow = data.draw(st.integers(0, 120), label="grow")
                boxes = [
                    (int(x1 * sx), int(y1 * sy), int(x2 * sx), int(y2 * sy) + grow)
                    for x1, y1, x2, y2 in found
                ]
            given.append(boxes)
        got = extract_batch(refs, cfg, given, page_dims=pages)
        for k, ref in enumerate(refs):
            try:
                w, h, want = self._scalar_span(ref, cfg, given[k], pages[k])
            except DEAD_LETTER_ERRORS as e:
                assert type(got.errors[k]) is type(e), (k, ref)
                continue
            assert got.errors[k] is None, (k, ref, got.errors[k])
            assert got.dims[k] == (w, h)
            a, b = got.box_off[k], got.box_off[k + 1]
            have = list(zip(
                map(tuple, got.boxes[a:b].tolist()), got.texts[a:b], got.confs[a:b].tolist()
            ))
            assert have == want, (k, ref, given[k], pages[k])


class TestExactQuantileProperty:
    """Distributed histogram-selection quantile == numpy quantile_cont on
    arbitrary data, q, and partitioning (duplicates, negatives, single
    value, tiny n)."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_numpy(self, data):
        import ray.data as rd

        from ocr_platform_ray.functions.sketches import exact_quantile

        n = data.draw(st.integers(1, 400), label="n")
        q = data.draw(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            label="q",
        )
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        n_parts = data.draw(st.integers(1, 7), label="parts")
        rng = np.random.default_rng(seed)
        kind = data.draw(st.sampled_from(["normal", "ties", "const"]), label="kind")
        if kind == "normal":
            v = rng.normal(size=n) * 50
        elif kind == "ties":
            v = rng.integers(-3, 4, size=n).astype(float)
        else:
            v = np.full(n, 7.5)
        import pyarrow as pa

        ds = rd.from_arrow(pa.table({"x": v})).repartition(n_parts)
        got = exact_quantile(ds, "x", float(q), n_bins=64)
        want = float(np.quantile(v, q))
        assert got == want, (n, q, kind, got, want)
