"""Stable and lattice law contracts, checked against closed-form cases."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as hurwitz_zeta
from scipy.stats import cauchy, chisquare, kstest, norm

from rangelab.laws import (LatticeLaw, StableLaw, lattice_at_sites,
                           lattice_pmf, lattice_support, lazy_vertical,
                           pareto_tail, rademacher, sample_lattice,
                           sample_stable, simple_symmetric, stable_cf,
                           stable_index, ternary)
from rangelab import laws
from rangelab.laws import (_cut_values, _keyed_signs, _pareto_magnitudes, _pareto_tables,
                           _row_counts, _values_from_words)
from rangelab.oriented import _encode_sites, no_return_count
from rangelab.rng import RngStream, _finalize_vec, site_hash
from rangelab.rwrs import RwrsModel, no_return_z_count

# ---------------------------------------------------------------------------
# stable laws


def test_cf_formula_matches_direct_evaluation():
    law = StableLaw(1.5, 1.0, 0.5)
    for u in (-2.0, -0.3, 0.7, 3.0):
        mag = abs(u) ** 1.5
        want = complex(math.e) ** complex(-mag, -0.5 * mag * math.copysign(1, u))
        assert stable_cf(law, u) == pytest.approx(want)


def test_cf_at_zero_is_one():
    assert stable_cf(StableLaw(0.8, 2.0, 1.0), 0.0) == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        StableLaw(2.5, 1.0)
    with pytest.raises(ValueError):
        StableLaw(1.5, 0.0)
    with pytest.raises(ValueError):
        StableLaw(1.0, 1.0, 0.3)  # asymmetric index 1 unsupported
    with pytest.raises(ValueError):
        StableLaw(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        # |a2/a1| above |tan(pi*0.75)| = 1
        StableLaw(1.5, 1.0, 1.5)
    StableLaw(1.5, 1.0, 1.0)  # boundary is admissible


def test_index_one_samples_are_standard_cauchy():
    # exp(-|u|) is the standard Cauchy cf, so scipy's cdf is an
    # independent oracle for the sampler
    x = sample_stable(StableLaw(1.0, 1.0), RngStream(101, 0), size=200_000)
    assert kstest(x, cauchy.cdf).pvalue > 1e-3


def test_index_two_samples_are_gaussian_variance_two_a1():
    n = 200_000
    x = sample_stable(StableLaw(2.0, 0.5), RngStream(102, 0), size=n)
    assert kstest(x, norm(scale=1.0).cdf).pvalue > 1e-3
    # the variance of n Gaussian draws has standard error var*sqrt(2/(n-1))
    for j, a1 in enumerate((0.5, 1.0, 3.7)):
        x = sample_stable(StableLaw(2.0, a1), RngStream(102, j + 1), size=n)
        var = 2.0 * a1
        assert abs(x.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))


def test_scale_acts_as_power_of_a1():
    # X with weight a1 equals a1^(1/index) times the weight-1 variate
    law1 = StableLaw(1.3, 1.0)
    law2 = StableLaw(1.3, 3.0)
    x1 = sample_stable(law1, RngStream(103, 0), size=50_000)
    x2 = sample_stable(law2, RngStream(103, 0), size=50_000)
    assert np.allclose(x2, x1 * 3.0 ** (1.0 / 1.3))


@pytest.mark.parametrize("law", [
    StableLaw(1.5, 1.0, 0.5),
    StableLaw(0.8, 1.0, 0.3),
    StableLaw(1.9, 2.0, -0.3),  # near the shrinking skew bound at index 2
])
def test_empirical_cf_matches_exact(law):
    n = 200_000
    x = sample_stable(law, RngStream(104, 0), size=n)
    for u in (0.3, 1.0, 3.0):
        ecf = np.exp(1j * u * x).mean()
        assert abs(ecf - stable_cf(law, u)) < 4.0 / math.sqrt(n)


def test_scalar_draw_is_a_reproducible_float():
    a = sample_stable(StableLaw(1.5, 1.0), RngStream(105, 0))
    b = sample_stable(StableLaw(1.5, 1.0), RngStream(105, 0))
    assert isinstance(a, float) and a == b


def polar_sample_stable(law, gen, size=None):
    """sample_stable by the general polar formula, with the skew factors of
    a symmetric law (index 1 admits no other)."""
    n = 1 if size is None else size
    a = law.index
    v = gen.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = gen.standard_exponential(n)
    x = (np.sin(a * v) / np.cos(v) ** (1.0 / a)
         * (np.cos(v - a * v) / w) ** ((1.0 - a) / a))
    x = law.a1 ** (1.0 / a) * x
    return float(x[0]) if size is None else x


# index 2 draws a ziggurat normal instead: the test after this one
@pytest.mark.parametrize("index", [1.0])
@pytest.mark.parametrize("a1", [0.5, 1.0, 3.7])
def test_closed_forms_match_the_polar_formula(index, a1):
    law = StableLaw(index, a1)
    for size in (1 << 16, None, 0):
        gen = RngStream(106, 0).generator()
        ref = RngStream(106, 0).generator()
        got = np.asarray(sample_stable(law, gen, size=size))
        want = np.asarray(polar_sample_stable(law, ref, size=size))
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()
        assert gen.random() == ref.random()  # the stream moved equally far
    assert isinstance(sample_stable(law, RngStream(106, 0)), float)


@pytest.mark.parametrize("a1", [0.5, 1.0, 3.7])
def test_index_two_draws_are_scaled_ziggurat_normals(a1):
    law = StableLaw(2.0, a1)
    for size in (1 << 16, None, 0):
        gen = RngStream(106, 0).generator()
        ref = RngStream(106, 0).generator()
        got = np.asarray(sample_stable(law, gen, size=size))
        want = np.asarray(math.sqrt(2.0) * math.sqrt(a1)
                          * ref.standard_normal(size))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert gen.random() == ref.random()  # the stream moved equally far
    assert isinstance(sample_stable(law, RngStream(106, 0)), float)


# ---------------------------------------------------------------------------
# lattice laws


FINITE_LAWS = [rademacher(), simple_symmetric(), ternary(0.5), ternary(0.0),
               lazy_vertical(0.3)]


@pytest.mark.parametrize("law", FINITE_LAWS)
def test_finite_support_sums_to_one(law):
    support = lattice_support(law)
    assert sum(w for _, w in support) == pytest.approx(1.0)
    for k, w in support:
        assert lattice_pmf(law, k) == pytest.approx(w)


@given(st.floats(min_value=0.0, max_value=0.99))
def test_ternary_mass_splits_evenly(zero_mass):
    law = ternary(zero_mass)
    assert lattice_pmf(law, 1) == lattice_pmf(law, -1)
    total = lattice_pmf(law, -1) + lattice_pmf(law, 0) + lattice_pmf(law, 1)
    assert total == pytest.approx(1.0)


def test_zero_mass_one_is_rejected():
    with pytest.raises(ValueError):
        ternary(1.0)
    with pytest.raises(ValueError):
        lazy_vertical(1.0)


def test_pareto_pmf_and_tail_are_consistent():
    law = pareto_tail(1.5)
    # default tail constant puts exactly half the mass at 0
    assert lattice_pmf(law, 0) == pytest.approx(0.5)
    # the mass beyond |k| = 10 against an independent zeta evaluation
    c = law.tail_constant
    inside = sum(lattice_pmf(law, k) for k in range(-10, 11))
    assert 1.0 - inside == pytest.approx(2.0 * c * float(hurwitz_zeta(2.5, 11.0)))


def test_pareto_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pareto_tail(2.0)
    with pytest.raises(ValueError):
        pareto_tail(0.0)
    with pytest.raises(ValueError):
        LatticeLaw("pareto_tail", index=1.5, tail_constant=10.0)
    with pytest.raises(ValueError):
        lattice_support(pareto_tail(1.5))


def test_pareto_magnitude_inversion_deep_tail():
    # drive the inversion past the tabulated cut and verify against the
    # exact magnitude cdf F(k) = 1 - zeta(1+a, k+1)/zeta(1+a)
    law = pareto_tail(0.8)
    z = float(hurwitz_zeta(1.8, 1.0))

    def magnitude_cdf(k):
        return 1.0 - float(hurwitz_zeta(1.8, k + 1.0)) / z

    for u in (0.5, 0.99, 0.999999, 1.0 - 1e-9):
        k = int(_pareto_magnitudes(law, np.array([u]))[0])
        assert magnitude_cdf(k) >= u
        assert k == 1 or magnitude_cdf(k - 1) < u
    assert int(_pareto_magnitudes(law, np.array([1.0 - 1e-9]))[0]) > 4096


def scalar_deep_magnitude(index, z, target):
    """The one-draw-at-a-time deep-tail search the sampler ran before."""
    def cdf(k):
        return 1.0 - float(hurwitz_zeta(1.0 + index, k + 1.0)) / z

    lo, hi = 4096, 8192
    while cdf(hi) < target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("index", [0.3, 0.6, 1.2, 1.95])
def test_deep_tail_bisection_equals_the_scalar_search(index):
    law = pareto_tail(index)
    cdf, z = _pareto_tables(law.index, law.tail_constant)
    gen = np.random.default_rng(int(index * 100))
    deep = cdf[-1] + (1.0 - cdf[-1]) * gen.random(300)
    u = np.concatenate([deep, [cdf[-1], np.nextafter(cdf[-1], 1.0)], gen.random(50)])
    want = [scalar_deep_magnitude(index, z, t) if t >= cdf[-1] else None
            for t in u.tolist()]
    got = _pareto_magnitudes(law, u)
    assert got.dtype == np.int64
    assert [g if w is not None else None for g, w in zip(got.tolist(), want)] == want


def test_variance_and_indices():
    # second moments of the bounded laws, read off their supports
    for law, var in ((rademacher(), 1.0), (ternary(0.5), 0.5), (lazy_vertical(0.3), 0.7)):
        assert sum(v * v * w for v, w in lattice_support(law)) == pytest.approx(var)
    assert stable_index(pareto_tail(1.5)) == 1.5
    assert stable_index(rademacher()) == 2.0


@pytest.mark.parametrize("law", [rademacher(), ternary(0.4), lazy_vertical(0.25)])
def test_sampler_matches_pmf(law):
    n = 100_000
    x = sample_lattice(law, RngStream(106, 0), size=n)
    values, counts = np.unique(x, return_counts=True)
    expected = np.array([lattice_pmf(law, int(v)) for v in values]) * n
    assert expected.sum() == pytest.approx(n)  # support fully covered
    assert chisquare(counts, expected).pvalue > 1e-3


def uniforms(words):
    # the uniform Generator.random forms from each 64-bit word
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


def cuts_and_values(law):
    # the inverse CDF's cuts and the values between them: the ternary kinds
    # cut at zm and zm + (1 - zm)/2 (0 | +1 | -1)
    zm = law.zero_mass
    return [zm, zm + (1.0 - zm) / 2.0], [0, 1, -1]


def field_values(law, b, words):
    # the stream decoding of a law drawn b bits at a time: field j of word i,
    # lowest bits first, is value 64 / b * i + j; a two-point field is a bit,
    # +1 when set, any other the value at the uniform f / 2^b of its bits f
    out = []
    for w in words:
        for j in range(64 // b):
            f = (int(w) >> (b * j)) & ((1 << b) - 1)
            if law in TWO_POINT_LAWS:
                out.append(1 if f else -1)
            else:
                cuts, values = cuts_and_values(law)
                out.append(values[sum(f / 2**b >= c for c in cuts)])
    return out


TWO_POINT_LAWS = [rademacher(), simple_symmetric()]
# the laws _cut_values decodes one value per word: every site field but the
# two-point signs, and the stream draws of the laws without a field
CUT_LAWS = [ternary(0.3), lazy_vertical(0.6), ternary(0.0), lazy_vertical(1.0 - 2.0**-53)]
BOUNDED_LAWS = TWO_POINT_LAWS + CUT_LAWS
# laws whose stream draws read b bits, b the fewest of 1, 2, 4 and 8 at
# which both cuts are exact, against laws whose cuts no such b fits
FIELD_BITS = [(lazy_vertical(0.5), 2), (lazy_vertical(0.75), 4), (ternary(0.25), 4),
              (ternary(0.0), 1), (lazy_vertical(1.0 - 2.0**-7), 8)]
WORD_LAWS = [lazy_vertical(0.3), ternary(0.3), lazy_vertical(0.6),
             lazy_vertical(1.0 - 2.0**-53), lazy_vertical(1.0 - 2.0**-8),
             lazy_vertical(0.5 + 2.0**-9)]


def test_field_bits_are_the_fewest_that_hold_the_cuts():
    for law in TWO_POINT_LAWS:
        assert laws._field_bits(law) == 1
    for law, b in FIELD_BITS:
        assert laws._field_bits(law) == b
    for law in WORD_LAWS + [pareto_tail(1.5), pareto_tail(0.7)]:
        assert laws._field_bits(law) == 64


@pytest.mark.parametrize("law, b", FIELD_BITS[:4],
                         ids=[f"{law.kind}({law.zero_mass})" for law, _ in FIELD_BITS[:4]])
def test_byte_tables_hold_the_law_exactly(law, b):
    # row B holds byte B's 8 / b fields, lowest bits first; over the 256
    # bytes each field position runs through its 2^b patterns equally
    # often, so value v fills pmf(v) * 256 of each column, exactly
    table = laws._byte_table(law)
    assert table.shape == (256, 8 // b) and table.dtype == np.int8
    assert table.tolist() == [field_values(law, b, [byte])[:8 // b] for byte in range(256)]
    want = {v: int(lattice_pmf(law, v) * 256) for v in (-1, 0, 1) if lattice_pmf(law, v)}
    for j in range(8 // b):
        assert dict(Counter(table[:, j].tolist())) == want


@pytest.mark.parametrize("law", BOUNDED_LAWS)
def test_decoder_cuts_belong_to_the_upper_value(law):
    # T = ceil(cut * 2^53): the word T * 2^11 is the first whose uniform
    # reaches the cut and decodes to the value above it, the word before it
    # to the value below; a cut that rounds to 1.0 (T = 2^53) no word reaches.
    # A two-point law cuts each bit at 1/2: a clear bit is -1, a set one +1,
    # and a word with one bit set decodes to +1 at that bit alone
    if law in TWO_POINT_LAWS:
        words = [0, 2**64 - 1, *(1 << j for j in range(64))]
        want = [-1] * 64 + [1] * 64 + [1 if k == j else -1
                                       for j in range(64) for k in range(64)]
        got = _values_from_words(law, np.array(words, dtype=np.uint64), None)
        assert got.dtype == np.int8 and got.tolist() == want
        return
    cuts, values = cuts_and_values(law)
    ts = [math.ceil(cut * 2**53) for cut in cuts]
    words = [0, 2**64 - 1]
    want = [values[sum(t == 0 for t in ts)], values[sum(t < 2**53 for t in ts)]]
    for cut, t, below, above in zip(cuts, ts, values, values[1:]):
        assert t <= 2**53
        if 0 < t < 2**53:
            assert uniforms([t * 2**11 - 1])[0] < cut <= uniforms([t * 2**11])[0]
            words += [t * 2**11 - 1, t * 2**11]
            want += [below, above]
    got = _cut_values(law, np.array(words, dtype=np.uint64), None)
    assert got.dtype == np.int8 and got.tolist() == want


_CUT_WORDS = sorted({math.ceil(c * 2**53) << 11 for law in CUT_LAWS
                     for c in cuts_and_values(law)[0] if c < 1.0})


@given(st.lists(st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    # words within a few units of the last place of a cut's uniform
    st.tuples(st.sampled_from(_CUT_WORDS), st.integers(-3 << 11, 3 << 11)).map(
        lambda cw: min(max(cw[0] + cw[1], 0), 2**64 - 1))), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_word_decoder_reads_the_words_as_their_uniforms(words):
    # every bounded law with a cut decodes a word as the inverse CDF decodes
    # its uniform (the stream decoder too, for a law without a field), and a
    # law drawn b bits at a time reads each field of b bits; so the words
    # decode alike one at a time, as a row and as a column
    u = uniforms(words)
    w = np.array(words, dtype=np.uint64)
    for law, b in [(law, 1) for law in TWO_POINT_LAWS] + FIELD_BITS:
        assert _values_from_words(law, w, None).tolist() == field_values(law, b, words)
        assert _values_from_words(law, w[:, None], None).tolist() == \
            [field_values(law, b, [x]) for x in words]
    for law in CUT_LAWS:
        cuts, values = cuts_and_values(law)
        want = np.select([u < c for c in cuts], values[:-1], values[-1])
        assert _cut_values(law, w, None).tolist() == want.tolist()
        if laws._field_bits(law) == 64:
            assert _values_from_words(law, w, None).tolist() == want.tolist()
    # pareto_tail: the atom and signs as a ternary law with zero mass p0,
    # the magnitude by inverting the uniform of the second word
    law = pareto_tail(1.3)
    p0 = lattice_pmf(law, 0)
    w1 = w[::-1].copy()
    want = np.select([u < p0, u < p0 + (1.0 - p0) / 2.0], [0, 1], -1)
    want = want * _pareto_magnitudes(law, uniforms(w1))
    assert _values_from_words(law, w, w1).tolist() == want.tolist()


def check_field_draws(law, b, n, chunks):
    # draw k is field k % (64 / b) of raw word k * b // 64, read by a Python
    # loop over the words; n draws move the stream ceil(n * b / 64) words,
    # however the draws are split into blocks, from an RngStream or any
    # Generator
    words = -(-n * b // 64)
    for make in (lambda: RngStream(21, 0).generator(), lambda: np.random.default_rng(21)):
        raw = make().bit_generator.random_raw(words + 1)
        want = field_values(law, b, raw[:words])[:n]
        assert sample_lattice(law, make(), n).tolist() == want
        for chunk in (*chunks, max(n, 1)):
            gen = make()
            blocks = list(laws._lattice_blocks(law, gen, n, chunk))
            assert all(b.size == min(chunk, n - i * chunk) for i, b in enumerate(blocks))
            assert sum((b.tolist() for b in blocks), []) == want
            assert gen.bit_generator.random_raw() == raw[words]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4097])
def test_two_point_draws_are_the_bits_of_the_raw_words(n):
    for law in TWO_POINT_LAWS:
        check_field_draws(law, 1, n, (1, 7, 64, 65))


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 4097])
def test_field_draws_are_the_fields_of_the_raw_words(n):
    # lazy_vertical(0.5), the Campanino-Petritis walk's vertical step, reads
    # two bits a draw, 32 a word; the other field widths ride along
    for law, b in FIELD_BITS:
        check_field_draws(law, b, n, (1, 7, 31, 32, 33))


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_draws_without_a_field_take_a_word_each(n):
    # the other bounded laws keep their streams: draw k decodes raw word k
    for law in (lazy_vertical(0.3), ternary(0.3), lazy_vertical(1.0 - 2.0**-53)):
        for make in (lambda: RngStream(22, 0).generator(), lambda: np.random.default_rng(22)):
            raw = make().bit_generator.random_raw(n + 1)
            want = _values_from_words(law, raw[:n], None).tolist()
            assert want == _cut_values(law, raw[:n], None).tolist()
            assert sample_lattice(law, make(), n).tolist() == want
            for chunk in (1, 7, max(n, 1)):
                gen = make()
                blocks = list(laws._lattice_blocks(law, gen, n, chunk))
                assert sum((b.tolist() for b in blocks), []) == want
                assert gen.bit_generator.random_raw() == raw[n]


def test_lazy_half_steps_are_fair_and_uncorrelated():
    # P(0) = 1/2 and P(+1) = 1/4, and the correlations of steps one apart
    # and one word (32) apart, each within 4 standard errors
    n = 1 << 20
    x = sample_lattice(lazy_vertical(0.5), RngStream(109, 0), n).astype(float)
    assert abs((x == 0).mean() - 0.5) < 4 * 0.5 / math.sqrt(n)
    assert abs((x > 0).mean() - 0.25) < 4 * math.sqrt(3 / 16 / n)
    for lag in (1, 32):
        assert abs((x[:-lag] * x[lag:]).mean()) < 4 * 0.5 / math.sqrt(n - lag)


def test_two_point_draws_are_fair_and_uncorrelated():
    # P(+1) and the correlations of draws one apart and one word (64) apart,
    # each within 4 standard errors of its value for independent fair signs
    n = 1 << 20
    x = sample_lattice(rademacher(), RngStream(108, 0), n).astype(float)
    assert abs((x > 0).mean() - 0.5) < 4 * 0.5 / math.sqrt(n)
    for lag in (1, 64):
        assert abs((x[:-lag] * x[lag:]).mean()) < 4 / math.sqrt(n - lag)


def test_trial_rows_read_bits_from_any_step():
    # a row from step s on reads its words from s // per and skips s % per
    # fields, per = 64 / b fields a word, and the trial kernel's chunks
    # start anywhere in a word: each chunk size gives the rows' walks
    # exactly, against a brute-force walk and sum of sample_lattice's draws
    # for each row.  Simple steps are single bits, lazy steps at p = 1/2 two
    from rangelab.rng import _mix64_vec, _word_rows
    field, n = rademacher(), 300
    streams = _mix64_vec(5, np.arange(4, dtype=np.uint64))
    fields = _mix64_vec(6, np.arange(4, dtype=np.uint64))
    for walk, per in ((simple_symmetric(), 64), (lazy_vertical(0.5), 32)):
        rows = [sample_lattice(walk, RngStream(int(s), 0), n) for s in streams]
        for start, width in ((1, 1), (per - 1, 2), (per + 1, per), (100, 130)):
            skip = start % per
            got = _values_from_words(walk, _word_rows(
                streams, -(-(skip + width) // per), start // per), None)[:, skip:skip + width]
            assert got.tolist() == [r[start:start + width].tolist() for r in rows]
        want = []
        for steps, f in zip(rows, fields):
            pos = np.cumsum(steps)
            total = np.cumsum(lattice_at_sites(field, int(f), pos))
            hits = np.flatnonzero(total == 0)
            want.append([pos[-1], total[-1], min(0, total.min()), max(0, total.max()),
                         hits[0] + 1 if hits.size else 0, len(set(pos.tolist()))])
        for chunk in (1, 7, 31, 32, 33, 63, 64, 65, 100, n - 1, 1 << 20):
            *ends, (sites,) = laws._marked_trials(walk, field, streams, fields, n, chunk,
                                                  True, False, (lambda pos, total: pos,))
            assert np.column_stack([*ends, sites[2]]).tolist() == want


def test_pareto_magnitude_past_int64_is_a_resource_cap():
    # the top uniform 1 - 2^-53 at index 0.3 asks for a magnitude near
    # 2^177: the decoder raises the error the command line exits 3 on
    from rangelab import harness
    assert harness.ResourceCapError is laws.ResourceCapError
    law = pareto_tail(0.3)
    with pytest.raises(laws.ResourceCapError):
        _pareto_magnitudes(law, np.array([1.0 - 2.0**-53]))
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert uniforms(top)[0] == 1.0 - 2.0**-53
    with pytest.raises(laws.ResourceCapError):
        _values_from_words(law, top, top)


def test_a_bisected_magnitude_of_two_to_the_63_is_a_resource_cap(monkeypatch):
    # a cdf that steps from 0 to 1 at k stops the doubling at hi = 2^63 for
    # any k in (2^62, 2^63]; the bisection then finds k, which int64 holds
    # up to 2^63 - 1, and the closing check refuses 2^63
    def step_at(k):
        return lambda index, z, ks: (ks >= np.uint64(k)).astype(float)

    target = np.array([0.5])
    monkeypatch.setattr(laws, "_pareto_magnitude_cdf", step_at(2**63 - 1))
    assert laws._deep_magnitudes(0.5, 1.0, target).tolist() == [2**63 - 1]
    monkeypatch.setattr(laws, "_pareto_magnitude_cdf", step_at(2**63))
    with pytest.raises(laws.ResourceCapError):
        laws._deep_magnitudes(0.5, 1.0, target)


def test_pareto_sampler_matches_pmf_with_tail_bucket():
    law = pareto_tail(1.5)
    n = 200_000
    x = sample_lattice(law, RngStream(107, 0), size=n)
    cut = 5
    bins = list(range(-cut, cut + 1))
    counts = [(x == k).sum() for k in bins] + [(np.abs(x) > cut).sum()]
    expected = [lattice_pmf(law, k) * n for k in bins]
    expected.append(n - sum(expected))
    assert chisquare(counts, expected).pvalue > 1e-3


def test_lattice_at_sites_is_lazy_and_consistent():
    law = ternary(0.5)
    sites = np.array([5, -3, 17, 5, 0])
    vals = lattice_at_sites(law, 99, sites)
    # revisits agree no matter where in the query they sit
    assert vals[0] == vals[3]
    perm = np.array([4, 2, 0, 1, 3])
    assert (lattice_at_sites(law, 99, sites[perm]) == vals[perm]).all()
    assert (lattice_at_sites(law, 99, sites) == vals).all()


def test_lattice_at_sites_marginal_law():
    law = ternary(0.3)
    vals = lattice_at_sites(law, 5, np.arange(100_000))
    values, counts = np.unique(vals, return_counts=True)
    expected = np.array([lattice_pmf(law, int(v)) for v in values]) * vals.size
    assert chisquare(counts, expected).pvalue > 1e-3


def test_keyed_route_reproduces_the_scalar_seed_route():
    from rangelab.laws import lattice_at_keyed_sites
    from rangelab.rng import mix64
    law = pareto_tail(1.2)
    sites = np.arange(-50, 50)
    direct = lattice_at_sites(law, 31, sites)
    keyed = lattice_at_keyed_sites(law, mix64(31, 0), mix64(31, 1), sites)
    assert (direct == keyed).all()
    # batched keys give one independent field per row
    k0 = np.array([[mix64(31, 0)], [mix64(32, 0)]], dtype=np.uint64)
    k1 = np.array([[mix64(31, 1)], [mix64(32, 1)]], dtype=np.uint64)
    both = lattice_at_keyed_sites(law, k0, k1, np.broadcast_to(sites, (2, 100)))
    assert (both[0] == direct).all()
    assert (both[1] == lattice_at_sites(law, 32, sites)).all()


@pytest.mark.parametrize("law", [rademacher(), simple_symmetric(), ternary(0.3),
                                 lazy_vertical(0.6), pareto_tail(0.7)])
def test_keyed_route_and_decoder_dtypes_for_every_kind(law):
    from rangelab.laws import lattice_at_keyed_sites
    from rangelab.rng import mix64
    # the two-point kinds read the sign off the top hash bit
    sites = np.arange(-70_000, 70_000, 3)
    direct = lattice_at_sites(law, 31, sites)
    keyed = lattice_at_keyed_sites(law, mix64(31, 0), mix64(31, 1), sites)
    assert np.array_equal(direct, keyed)
    # the public samplers stay int64; the batch kernels get int8 where it fits
    assert direct.dtype == np.int64
    assert sample_lattice(law, RngStream(5, 0), size=10).dtype == np.int64
    assert keyed.dtype == (np.int64 if law.kind == "pareto_tail" else np.int8)


def keyed_uniform(keys, sites):
    # the float route of a site field: the uniform of the whole finalizer's word
    return uniforms(_finalize_vec(np.asarray(sites, dtype=np.int64).view(np.uint64)
                                  ^ np.asarray(keys, dtype=np.uint64)))


def test_sign_shortcut_reads_the_uniform_route():
    # the sign comes off the hash before its last xor-shift, which keeps
    # the top bit: it must agree with keyed_uniform >= 1/2 everywhere
    gen = np.random.default_rng(14)
    keys = gen.integers(0, 2**64, size=(6, 1), dtype=np.uint64)
    sites = gen.integers(-2**62, 2**62, size=(6, 400))
    sites[:, :50] = np.arange(-25, 25)
    for k, s in ((keys, sites), (keys, sites[:1]), (keys[:, 0], sites[:, 0]),
                 (keys[2, 0], sites[2]), (keys[3, 0], -7)):
        want = np.where(keyed_uniform(k, s) >= 0.5, 1, -1)
        got = _keyed_signs(k, s)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
    out, work = np.empty(400, dtype=np.int8), np.empty((2, 400), dtype=np.uint64)
    got = _keyed_signs(keys[4], sites[4], out, work)
    assert np.shares_memory(got, out)
    assert np.array_equal(got, np.where(keyed_uniform(keys[4], sites[4]) >= 0.5, 1, -1))


def test_dyadic_site_fields_read_one_word_per_site():
    # a stream draw of ternary(0.5) reads 2 bits and of ternary(0.0) 1, but
    # a site still reads its whole hashed word, as the inverse CDF decodes
    # the word's 53-bit uniform: one value per site, not 64 / b
    sites = np.arange(-3000, 3000).reshape(2, -1)
    for law in (ternary(0.5), ternary(0.0)):
        assert laws._field_bits(law) < 64
        cuts, values = cuts_and_values(law)
        u = uniforms(site_hash(77, sites))
        want = np.select([u < c for c in cuts], values[:-1], values[-1])
        got = lattice_at_sites(law, 77, sites)
        assert got.shape == sites.shape and np.array_equal(got, want)


def test_lattice_at_sites_differs_across_seeds():
    sites = np.arange(1000)
    a = lattice_at_sites(rademacher(), 1, sites)
    b = lattice_at_sites(rademacher(), 2, sites)
    assert (a != b).any()


# ---------------------------------------------------------------------------
# distinct values and local times: _row_counts against a Counter per row

_COORD = st.integers(min_value=-2**31 + 1, max_value=2**31 - 1)
# each kind draws one row of a chunk; narrow rows of 40 or more entries take
# the offset route, the others the sort
_ROWS = {
    "narrow": lambda k: st.lists(st.integers(min_value=-20, max_value=20),
                                 min_size=k, max_size=k),
    # encoded (x, y) sites
    "sites": lambda k: st.lists(st.tuples(_COORD, _COORD), min_size=k, max_size=k).map(
        lambda xy: _encode_sites(np.array([x for x, _ in xy], dtype=np.int64),
                                 np.array([y for _, y in xy], dtype=np.int64)).tolist()),
    # spans up to the whole int64 range, where max - min and rows * W wrap
    "wide": lambda k: st.lists(st.one_of(
        st.integers(min_value=-2**63, max_value=2**63 - 1),
        st.sampled_from([-2**63, -2**63 + 1, -1, 0, 2**63 - 2, 2**63 - 1])),
        min_size=k, max_size=k),
}

# narrow rows the more often, so that whole blocks take the offset route
_KINDS = ["narrow"] * 4 + ["sites", "wide"]


@st.composite
def _chunks(draw):
    # a few chunks of the same rows; each row picks its kind anew per
    # chunk, so that a carried span widens or switches route mid-walk
    rows = draw(st.integers(min_value=0, max_value=4))
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        k = draw(st.sampled_from([0, 1, 3, 40, 60]))
        chunks.append(np.array([draw(_ROWS[draw(st.sampled_from(_KINDS))](k))
                                for _ in range(rows)], dtype=np.int64).reshape(rows, k))
    return chunks


def _one_row(*values):
    return [np.array([values], dtype=np.int64)]


@given(_chunks())
@example(_one_row())
@example(_one_row(-7))
@example([(np.arange(-500, 500) // 3)[None]])
@example(_one_row(-2**63, 2**63 - 1, 0, -2**63))
# offsets, then a wider span still narrow, then the sort, then narrow
# values on top of the sort's wide carry
@example([np.arange(0, 50)[None] % 7, np.arange(0, 50)[None] % 11 - 30,
          np.array([[2**62, -2**62, 5]]), np.arange(0, 50)[None] % 3])
@example([np.zeros((3, 0), dtype=np.int64)])
@example([np.zeros((2, 5), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)])
@settings(max_examples=300, deadline=None)
def test_row_counts_equal_a_counter_per_row(chunks):
    rows = len(chunks[0])
    seen = [Counter() for _ in range(rows)]
    carry = None
    for a in chunks:
        before = a.copy()
        values, weights, runs, inv = _row_counts(a, carry, inverse=True)
        for row, c in zip(a.tolist(), seen):
            c.update(row)
        assert np.array_equal(a, before)
        want = [sorted(c.items()) for c in seen]
        assert values.tolist() == [v for w in want for v, _ in w]
        assert weights.tolist() == [n for w in want for _, n in w]
        assert runs.tolist() == [len(w) for w in want]
        # each entry's index points at its value, in its own row's stretch
        starts = (np.cumsum(runs) - runs)[:, None]
        assert inv.shape == a.shape and np.array_equal(values[inv], a)
        assert ((inv >= starts) & (inv < starts + runs[:, None])).all()
        if carry is None and rows == 1:
            # the one-row case is numpy's unique with counts and inverse
            u, u_inv, u_counts = np.unique(a, return_inverse=True, return_counts=True)
            assert values.dtype == np.int64 and np.array_equal(values, u)
            assert np.array_equal(weights, u_counts)
            assert np.array_equal(inv[0], u_inv.reshape(-1))
        # without counts the block is scratch, which the sort route reorders
        none, _, only_runs, _ = _row_counts(a.copy(), carry, counts=False)
        assert none is None and np.array_equal(only_runs, runs)
        carry = values, weights, runs, inv

# ---------------------------------------------------------------------------
# escape counts: the time-major and row-major routes of one kernel

_WALKS = {"lazy": lazy_vertical(0.4), "simple": simple_symmetric(),
          "pareto": pareto_tail(1.3)}
_FIELDS = {"rademacher": rademacher(), "ternary": ternary(0.3),
           "pareto": pareto_tail(0.8)}
_RULE = laws._SLAB_MIN_TRIALS


def counts_by_route(monkeypatch, count, *args):
    """count(*args) with every slab time-major, every slab row-major, and
    under the rule."""
    got = []
    for least in (1, 1 << 62, _RULE):
        monkeypatch.setattr(laws, "_SLAB_MIN_TRIALS", least)
        got.append(count(*args))
    return got


@pytest.mark.parametrize("walk", _WALKS)
@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("horizon, trials", [(1, 700), (7, 5000), (64, 1300),
                                              (256, 5000)])
def test_both_routes_count_alike_for_every_law(monkeypatch, walk, field, horizon,
                                                trials):
    # 1300 and 5000 trials end in a part block (512 and 4681 trials a block);
    # over 256 steps the time-major route drops returned trials several times
    model = RwrsModel(_WALKS[walk], _FIELDS[field])
    got = counts_by_route(monkeypatch, no_return_z_count, model, horizon, trials, 3)
    assert got[0] == got[1] == got[2]
    if walk == "lazy" and field == "rademacher":
        got = counts_by_route(monkeypatch, no_return_count, 0.4, horizon, trials, 3)
        assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("horizon, trials, walk", [
    (1024, 4100, "simple"),   # a chunk of 4096 trials walks time-major
    (1025, 4100, "simple"),   # slabs of 4092 walk row-major
    (64, 9000, "pareto"),     # int64 steps: a slab of 8192, then 808 row-major
    (101, 9001, "lazy"),      # an odd horizon: one slab ending in a part block
])
def test_both_routes_count_alike_either_side_of_the_rule(monkeypatch, horizon,
                                                         trials, walk):
    model = RwrsModel(_WALKS[walk], rademacher())
    got = counts_by_route(monkeypatch, no_return_z_count, model, horizon, trials, 5)
    assert got[0] == got[1] == got[2]
    got = counts_by_route(monkeypatch, no_return_count, 0.5, horizon, trials, 5)
    assert got[0] == got[1] == got[2]


def test_time_major_slabs_hold_at_most_slab_trials(monkeypatch):
    # at horizon 64 a chunk of 40,000 trials walks in slabs of whole blocks
    # of 512 trials, at most _SLAB_TRIALS of them, and counts as one slab of
    # all 40,000 does
    sizes = []
    walk = laws._time_major

    def spy(blocks, *args):
        blocks = list(blocks)
        sizes.append(sum(ids.size for ids, _ in blocks))
        return walk(iter(blocks), *args)

    monkeypatch.setattr(laws, "_time_major", spy)
    got = no_return_count(0.5, 64, 40_000, 9)
    assert sizes == [16_384, 16_384, 7_232]
    sizes.clear()
    monkeypatch.setattr(laws, "_SLAB_TRIALS", 1 << 20)
    assert no_return_count(0.5, 64, 40_000, 9) == got and sizes == [40_000]


@pytest.mark.parametrize("walk", _WALKS)
@pytest.mark.parametrize("field", _FIELDS)
def test_escape_counts_hold_little_memory(walk, field):
    import tracemalloc
    model = RwrsModel(_WALKS[walk], _FIELDS[field])
    calls = [(no_return_z_count, model)]
    if walk == "lazy" and field == "rademacher":
        calls.append((no_return_count, 0.5))
    for count, law in calls:
        tracemalloc.start()
        try:
            count(law, 64, 70_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
