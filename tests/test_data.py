import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nol.core import SparseExample
from nol.data import (
    compute_normalizer,
    parse_svmlight_line,
    parse_synth_spec,
    prenormalize,
    read_delimited,
    read_svmlight,
    serialize_svmlight,
    synth_figure1,
    synth_scaled,
)
from nol.errors import DataFormatError
from oracles import ex


class TestSvmlight:
    def test_parse_basic(self):
        e = parse_svmlight_line("1 0:2.5 3:-1")
        assert e.label == 1.0
        assert e.features == ((0, 2.5), (3, -1.0))

    def test_parse_label_only(self):
        e = parse_svmlight_line("-1")
        assert e.label == -1.0 and e.features == ()

    REJECTS = [
        ("", "empty line"),
        ("x 0:1", "bad label 'x'"),
        ("1 0:abc", "malformed token '0:abc'"),
        ("1 3:1 1:2", "indices must be strictly increasing, got 1 after 3"),
        ("1 -2:1", "negative index -2"),
        ("1 0:inf", "non-finite value in '0:inf'"),
        ("1 3:", "malformed token '3:'"),
        ("1 :3", "malformed token ':3'"),
        ("1 1:2:3", "malformed token '1:2:3'"),
        ("1 5", "malformed token '5'"),
        ("1 1.5:2", "malformed token '1.5:2'"),
        ("1 0:1 0:2", "indices must be strictly increasing, got 0 after 0"),
        ("nan 0:1", "non-finite label 'nan'"),
        # the first bad token is named, checked in the order of the loop
        ("1 -2:x", "malformed token '-2:x'"),
        ("1 5:1 3:nan", "indices must be strictly increasing, got 3 after 5"),
        ("nan 0:x", "malformed token '0:x'"),
        ("1 2:inf 1:1", "non-finite value in '2:inf'"),
    ]

    @pytest.mark.parametrize("bad,message", REJECTS, ids=[bad for bad, _ in REJECTS])
    def test_parse_rejects(self, bad, message):
        with pytest.raises(DataFormatError) as excinfo:
            parse_svmlight_line(bad, line_number=7)
        assert str(excinfo.value) == f"line 7: {message}"

    def test_finite_values_whose_sum_overflows_are_kept(self):
        # each value is finite, so the line is kept though the values' sum is not
        e = parse_svmlight_line("1 0:1e308 1:1e308")
        assert e.features == ((0, 1e308), (1, 1e308))

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            idx = sorted(rng.choice(30, size=d, replace=False).tolist())
            feats = tuple((int(i), float(rng.normal() * 10 ** rng.uniform(-6, 6)))
                          for i in idx)
            feats = tuple((i, v) for i, v in feats if v != 0.0)
            label = float(rng.normal())
            e = SparseExample(feats, label)
            back = parse_svmlight_line(serialize_svmlight(e))
            assert back == e

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parse_equals_checking_constructor(self, data):
        number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
        spellings = st.sampled_from(["{!r}", "+{!r}", "{:e}", "{:+E}", "{:.3g}"])

        def spell(x):
            text = data.draw(spellings).format(x).replace("+-", "-")
            # "{:.3g}" can round a finite value up past the largest float
            return text if math.isfinite(float(text)) else repr(x)

        label = spell(data.draw(number))
        indices = sorted(data.draw(st.sets(st.integers(0, 10 ** 6), max_size=12)))
        idx_texts = [data.draw(st.sampled_from(["{}", "+{}", "00{}"])).format(i) for i in indices]
        val_texts = [spell(data.draw(number)) for _ in indices]
        sep = data.draw(st.sampled_from([" ", "\t", "  "]))
        line = sep.join([label] + [f"{i}:{v}" for i, v in zip(idx_texts, val_texts)])

        got = parse_svmlight_line(line)
        want = SparseExample(tuple(zip(indices, map(float, val_texts))), float(label))
        assert got == want and hash(got) == hash(want)
        assert type(got.label) is float
        assert all(type(i) is int and type(v) is float for i, v in got.features)

    def test_reader_skips_blank_and_comments(self):
        lines = ["# header", "", "1 0:1", "   ", "-1 1:2"]
        got = list(read_svmlight(lines))
        assert [e.label for e in got] == [1.0, -1.0]

    def test_reader_drops_trailing_comments(self):
        lines = ["1 0:1 # c", "# header", "-1 1:2#x:1", "1 # label only", "  # indented"]
        assert list(read_svmlight(lines)) == [ex({0: 1.0}, 1.0), ex({1: 2.0}, -1.0), ex({}, 1.0)]

    def test_comments_keep_line_numbers(self):
        with pytest.raises(DataFormatError, match="^line 3: malformed token '0:x'$"):
            list(read_svmlight(["# header", "1 0:1 # ok", "1 0:x # bad"]))

    def test_reader_reports_line_number(self):
        with pytest.raises(DataFormatError, match="line 3"):
            list(read_svmlight(["1 0:1", "", "1 0:bad"]))


class TestDelimited:
    def test_csv_last_column_label(self):
        lines = ["a,b,y", "1.5,0,2", "0,3,-1"]
        got = list(read_delimited(lines))
        assert got[0] == ex({0: 1.5}, 2.0)
        assert got[1] == ex({1: 3.0}, -1.0)

    def test_tsv_sniffed(self):
        got = list(read_delimited(["a\ty", "2\t1"]))
        assert got == [ex({0: 2.0}, 1.0)]

    def test_one_hot_stable_mapping(self):
        lines = ["color,y", "red,1", "blue,1", "red,-1"]
        got = list(read_delimited(lines))
        # one numeric slot reserved? no numeric columns besides the hot ones:
        # 'color' holds slot 0 but never emits; levels get 1, 2.
        assert got[0].features == ((1, 1.0),)
        assert got[1].features == ((2, 1.0),)
        assert got[2].features == ((1, 1.0),)

    def test_label_transform(self):
        got = list(read_delimited(["a,y", "1,0", "1,1"],
                                  label_transform={0: -1, 1: 1}))
        assert [e.label for e in got] == [-1.0, 1.0]

    def test_ragged_row_rejected(self):
        with pytest.raises(DataFormatError, match="line 2"):
            list(read_delimited(["a,b,y", "1,2"]))

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_label_rejected(self, label):
        with pytest.raises(DataFormatError) as excinfo:
            list(read_delimited(["a,y", "1,1", f"2,{label}"]))
        assert str(excinfo.value) == f"line 3: non-finite label {label!r}"

    def test_empty_file_rejected(self):
        with pytest.raises(DataFormatError):
            list(read_delimited([]))

    def test_blank_header_rejected(self):
        # a line of spaces and tabs is blank
        for header in ("", "   ", " \t "):
            with pytest.raises(DataFormatError, match="^line 1: empty header$"):
                list(read_delimited([header, "1,2"]))

    def test_blank_data_line_skipped(self):
        for d, blank in ((",", ""), (",", "   "), ("\t", " \t ")):
            got = list(read_delimited([f"a{d}y", f"1{d}1", blank, f"2{d}0"]))
            assert got == [ex({0: 1.0}, 1.0), ex({0: 2.0}, 0.0)]

    def test_non_finite_value_rejected(self):
        with pytest.raises(DataFormatError, match="^line 2: non-finite value 'inf'$"):
            list(read_delimited(["a,y", "inf,1"]))

    def test_empty_cell_drops_the_feature(self):
        got = list(read_delimited(["a,b,y", ",2,1", " ,,-1"]))
        assert got == [ex({1: 2.0}, 1.0), ex({}, -1.0)]


class TestPrenormalize:
    def test_maxnorm_example(self):
        scale, out = prenormalize([ex({0: 2.0}), ex({0: -4.0})], "maxnorm")
        out = list(out)
        assert scale == {0: 4.0}
        assert out[0].features == ((0, 0.5),)
        assert out[1].features == ((0, -1.0),)

    def test_maxnorm_property(self):
        rng = np.random.default_rng(3)
        rows = [ex({i: float(rng.normal() * 10 ** rng.uniform(-4, 4))
                    for i in range(4)}) for _ in range(30)]
        _, out = prenormalize(rows, "maxnorm")
        maxes = {}
        for e in out:
            for i, v in e.features:
                maxes[i] = max(maxes.get(i, 0.0), abs(v))
        for i, m in maxes.items():
            assert m == pytest.approx(1.0, rel=1e-12)

    def test_sqnorm_counts_zero_rows(self):
        # second moments over *all* rows: 1.2^2/2 and 1.6^2/2
        rows = [ex({0: 1.2, 1: 1.6}), ex({})]
        scale, out = prenormalize(rows, "sqnorm")
        assert scale[0] == pytest.approx(0.848528137423857, rel=1e-12)
        assert scale[1] == pytest.approx(1.131370849898476, rel=1e-12)
        assert list(out)[0].features[0][1] == pytest.approx(1.2 / scale[0])

    def test_sqnorm_unit_second_moment(self):
        rng = np.random.default_rng(5)
        rows = [ex({0: float(rng.normal() * 100)}) for _ in range(40)]
        _, out = prenormalize(rows, "sqnorm")
        m2 = sum(v * v for e in out for _, v in e.features) / len(rows)
        assert m2 == pytest.approx(1.0, rel=1e-12)

    def test_sqnorm_keeps_huge_features(self):
        # squaring 1e200 overflows; scaling by the feature's max first does not
        rows = [SparseExample(((0, 1e200), (1, 2.0)), 1.0),
                SparseExample(((0, 3e199),), -1.0)]
        scale, out = prenormalize(rows, "sqnorm")
        assert scale[0] == pytest.approx(1e200 * math.sqrt((1 + 0.3 ** 2) / 2), rel=1e-14)
        assert [e.features[0][0] for e in out] == [0, 0]
        m2 = sum(e.features[0][1] ** 2 for e in out) / len(rows)
        assert m2 == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.dictionaries(
        st.integers(0, 5),
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)
        | st.sampled_from([5e-324, -1e-310, 1e300, -1.7e308])),
        min_size=1, max_size=8))
    def test_output_equals_checked_copy(self, rows):
        examples = [ex(r) for r in rows]
        for mode in ("maxnorm", "sqnorm"):
            _, out = prenormalize(examples, mode)
            for e in out:
                assert e == SparseExample(e.features, e.label)
                assert all(type(v) is float and math.isfinite(v) for _, v in e.features)

    def test_stream_that_changes_between_sqnorm_passes(self):
        class Shifting:
            passes = [[ex({0: 1.0})], [ex({0: 1.0, 3: 2.0})]]

            def __iter__(self):
                return iter(self.passes.pop(0))

        with pytest.raises(DataFormatError, match="feature 3 is new in the second pass"):
            compute_normalizer(Shifting(), "sqnorm")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compute_normalizer([], "l2")

    @pytest.mark.parametrize("mode", ["maxnorm", "sqnorm"])
    def test_one_shot_stream_rejected(self, mode):
        # the statistics pass would leave nothing for the examples
        with pytest.raises(TypeError, match="^pre-normalization reads the stream twice"):
            prenormalize(iter([ex({0: 2.0}), ex({0: -4.0})]), mode)


class TestSynthFigure1:
    def test_shape_and_labels(self):
        stream = synth_figure1(1.0, 200, seed=4)
        assert len(stream) == 200
        for e in stream:
            feats = dict(e.features)
            assert set(feats) <= {0, 1}
            raw = feats.get(0, 0.0) + feats.get(1, 0.0)
            assert e.label == (1.0 if raw > 0 else -1.0)
            assert abs(raw) >= 0.05

    def test_scale_applies_to_first_feature_only(self):
        base = synth_figure1(1.0, 100, seed=9)
        scaled = synth_figure1(1000.0, 100, seed=9)
        for a, b in zip(base, scaled):
            da, db = dict(a.features), dict(b.features)
            assert db.get(0, 0.0) == pytest.approx(1000.0 * da.get(0, 0.0), rel=1e-15)
            assert db.get(1, 0.0) == da.get(1, 0.0)
            assert a.label == b.label

    def test_reproducible(self):
        assert synth_figure1(2.0, 50, seed=1) == synth_figure1(2.0, 50, seed=1)
        assert synth_figure1(2.0, 50, seed=1) != synth_figure1(2.0, 50, seed=2)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            synth_figure1(0.0, 10)


class TestSynthScaled:
    def test_basic_properties(self):
        stream = synth_scaled(4, 300, seed=2, log10_scale_lo=-2, log10_scale_hi=2)
        assert len(stream) == 300
        labels = {e.label for e in stream}
        assert labels <= {-1.0, 1.0} and len(labels) == 2
        maxes = {}
        for e in stream:
            for i, v in e.features:
                maxes[i] = max(maxes.get(i, 0.0), abs(v))
        span = math.log10(max(maxes.values()) / min(maxes.values()))
        assert span > 1.0

    def test_reproducible(self):
        assert synth_scaled(3, 50, seed=7) == synth_scaled(3, 50, seed=7)


class TestSynthSpec:
    def test_figure1_spec(self):
        gen = parse_synth_spec("figure1:s=4,T=20")
        stream = gen(3)
        assert stream == synth_figure1(4.0, 20, seed=3)

    def test_scaled_spec_defaults(self):
        gen = parse_synth_spec("scaled:d=3,T=25")
        assert gen(1) == synth_scaled(3, 25, seed=1)

    def test_scaled_spec_range(self):
        gen = parse_synth_spec("scaled:d=2,T=10,lo=-1,hi=1")
        assert gen(5) == synth_scaled(2, 10, seed=5, log10_scale_lo=-1,
                                      log10_scale_hi=1)

    def test_scaled_spec_edges(self):
        # one scale where lo == hi, and the largest finite scales
        assert parse_synth_spec("scaled:d=2,T=3,lo=1,hi=1")(0) == synth_scaled(
            2, 3, log10_scale_lo=1, log10_scale_hi=1)
        assert parse_synth_spec("scaled:d=2,T=3,lo=308,hi=308.25")(0) == synth_scaled(
            2, 3, log10_scale_lo=308, log10_scale_hi=308.25)

    @pytest.mark.parametrize("bad", ["nope:T=5", "figure1:s", "figure1:T=x", "figure1:s=0",
                                     "figure1:s=inf", "scaled:d=-1", "scaled:lo=nan",
                                     "scaled:lo=3,hi=-3", "scaled:lo=309,hi=310"])
    def test_bad_specs(self, bad):
        with pytest.raises(DataFormatError):
            parse_synth_spec(bad)

    BAD_KEYS = [("figure1:t=10", "unknown key 't'; figure1 takes s, T"),
                ("figure1:T=10,bogus=1", "unknown key 'bogus'; figure1 takes s, T"),
                ("figure1:T=10,T=20", "repeated key 'T'; figure1 takes s, T"),
                ("scaled:d=2,s=1", "unknown key 's'; scaled takes d, T, lo, hi"),
                ("scaled: lo=1,lo =2", "repeated key 'lo'; scaled takes d, T, lo, hi")]

    @pytest.mark.parametrize("spec,words", BAD_KEYS, ids=[spec for spec, _ in BAD_KEYS])
    def test_key_the_generator_does_not_take(self, spec, words):
        with pytest.raises(DataFormatError) as excinfo:
            parse_synth_spec(spec)
        assert str(excinfo.value) == f"bad synth spec {spec!r}: {words}"
