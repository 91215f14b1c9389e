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


class TestStripProperties:
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
        img = np.zeros((64, 64), dtype=np.uint8)
        x1, y1, x2, y2 = recognizek.clamp_box(box)
        assert recognizek.crop(img, box).shape == (y2 - y1, x2 - x1)


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
        ``kernels.extract.detect_batch`` does, equals the scalar walk per
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
        assert recognizek.decode_strips(strips) == [self._scalar_decode(s) for s in strips]


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
