"""Exact partial sums, proven tails, enclosures, decimal rendering."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eta_lab
from eta_lab import constants
from eta_lab.arith import sieve_primes
from eta_lab.constants import (
    REFERENCE_K,
    REFERENCE_TABLE,
    SERIES_NAMES,
    _decode,
    _encode,
    _evaluate,
    _exact_pass,
    ZETA2_HI,
    ZETA2_LO,
    RigorousValue,
    combined_constant,
    default_primes,
    least_negative_densities,
    least_negative_density,
    mu_constant,
    pair_sign_probability,
    partial_sum,
    render_decimal,
    rigorous_constant,
    series_terms,
    sign_probability,
    tail_bound,
)

PRIMES = default_primes(2300)


class TestPartialSums:
    def test_single_term_values(self):
        assert partial_sum("Theta", 1) == Fraction(2, 3)
        assert partial_sum("alpha", 1) == Fraction(2, 9)
        assert partial_sum("beta", 1) == Fraction(1, 9)
        assert partial_sum("theta", 1) == Fraction(8, 9)

    def test_erdos_three_terms(self):
        assert partial_sum("erdos", 3) == Fraction(19, 8)

    def test_strictly_increasing_in_k(self):
        for name in SERIES_NAMES:
            sums = [partial_sum(name, k) for k in range(1, 31)]
            assert all(a < b for a, b in zip(sums, sums[1:])), name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            partial_sum("gamma", 5)

    def test_evaluation_order_does_not_matter(self):
        # left fold vs balanced tree: identical exact rationals
        def tree(terms):
            while len(terms) > 1:
                nxt = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
                if len(terms) % 2:
                    nxt.append(terms[-1])
                terms = nxt
            return terms[0]

        for name in SERIES_NAMES:
            terms = series_terms(name, 120)
            fold = Fraction(0)
            for t in terms:
                fold += t
            assert fold == tree(list(terms))

    def test_heuristic_identity_for_theta_terms(self):
        # theta's kth term is p_k * P(sign=-1 at p_k) * prod_{j<k} P(sign 0 or +1)
        terms = series_terms("theta", 50)
        prod = Fraction(1)
        for k in range(1, 51):
            p = PRIMES[k - 1]
            expected = p * pair_sign_probability(p, -1) * prod
            assert terms[k - 1] == expected, k
            prod *= pair_sign_probability(p, 0) + pair_sign_probability(p, 1)


class TestOnePassExactness:
    """The one-pass integer evaluation against the per-term definition."""

    # sizes around powers of two leave the product tree unbalanced
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 37, 63, 64, 65, 200, 1001])
    def test_partial_sums_equal_summed_terms(self, k):
        for name in SERIES_NAMES:
            assert partial_sum(name, k) == sum(series_terms(name, k)), name

    @pytest.mark.parametrize("k", [10, 50, 1000])
    def test_tails_equal_head_bound_times_product(self, k):
        heads = {
            "theta": lambda p: p * p * (p + 2) / (2 * (p + 1) ** 2),
            "Theta": lambda p: p * p / (2 * (p + 1)),
            "alpha": lambda p: p * p / (2 * (p + 1) ** 2),
            "beta": lambda p: p / (2 * (p + 1) ** 2),
        }
        factors = {
            "theta": lambda p: Fraction(2 + p * (p + 2), 2 * (p + 1) ** 2),
            "Theta": lambda p: Fraction(p + 2, 2 * (p + 1)),
        }
        factors["alpha"] = factors["beta"] = factors["Theta"]
        p_k = PRIMES[k - 1]
        grow = Fraction(6 * p_k, 5)
        for name, head in heads.items():
            prod = Fraction(1)
            for j in range(1, k + 1):
                prod *= factors[name](PRIMES[j - 1])
            first = head(grow if name != "beta" else Fraction(p_k)) * prod
            ratio = Fraction(36, 25) * factors[name](p_k)
            assert tail_bound(name, k) == first / (1 - ratio), name
        erdos_first = grow / 2 ** (k + 1)
        assert tail_bound("erdos", k) == erdos_first / (1 - Fraction(3, 5))

    def test_second_call_is_read_from_the_memo(self):
        first = combined_constant(77)
        hits = _evaluate.cache_info().hits
        again = combined_constant(77)
        assert again == first and again is first
        assert _evaluate.cache_info().hits == hits + 1
        assert rigorous_constant("theta", 77) is rigorous_constant("theta", 77)

    def test_default_primes_are_exactly_the_first_k(self):
        assert default_primes(1) == (2,)
        assert default_primes(10) == sieve_primes(29)
        assert len(PRIMES) == 2300 and PRIMES == sieve_primes(PRIMES[-1])

    def test_memo_is_keyed_by_k(self):
        assert partial_sum("Theta", 40) is partial_sum("Theta", 40)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rigorous_constant("gamma", 50),
            lambda: rigorous_constant("Theta", 0),
            lambda: combined_constant(0),
            lambda: mu_constant(9),
            lambda: least_negative_density(0),
            lambda: least_negative_densities(0),
            lambda: tail_bound("erdos", 9),
            lambda: partial_sum("alpha", 0),
        ],
    )
    def test_argument_errors_survive(self, call):
        with pytest.raises(ValueError):
            call()


class TestReferenceTable:
    """The enclosures at REFERENCE_K are decoded from the packaged table,
    which must be exactly the encoding of the exact pass."""

    @pytest.fixture(scope="class")
    def table(self):
        with open(REFERENCE_TABLE, "rb") as f:
            return f.read()

    def test_served_equals_the_pass(self):
        served, ev = _evaluate(REFERENCE_K), _exact_pass(REFERENCE_K)
        names = (*SERIES_NAMES, "combined", "mu")
        assert sorted(served.values) == sorted(ev.values) == sorted(names)
        for name in names:
            got, want = served.values[name], ev.values[name]
            assert (got.name, got.k_terms, got.lo, got.hi) == (name, REFERENCE_K, want.lo, want.hi)
        assert sorted(served.sums) == sorted(SERIES_NAMES)
        for name in SERIES_NAMES:
            assert served.sums[name] == ev.sums[name] == served.values[name].lo
        assert served == ev

    def test_committed_bytes_are_the_encoding_of_a_fresh_pass(self, table):
        # the table is read beside the imported module, so this holds for an
        # installed package and for one imported from a checkout alike
        assert Path(REFERENCE_TABLE).parent == Path(constants.__file__).parent
        assert table == _encode(_exact_pass(REFERENCE_K))

    def test_import_reads_and_computes_nothing(self, tmp_path):
        src = Path(eta_lab.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import eta_lab.cli; "
            "from eta_lab.constants import _evaluate; "
            "print(_evaluate.cache_info().currsize)"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    @pytest.fixture
    def passes(self, monkeypatch):
        """The K of each exact pass run while the test runs."""
        ks = []

        def recording(k_terms):
            ks.append(k_terms)
            return _exact_pass(k_terms)

        monkeypatch.setattr(constants, "_exact_pass", recording)
        return ks

    def test_only_the_reference_k_is_served(self, passes):
        assert _evaluate.__wrapped__(REFERENCE_K) == _exact_pass(REFERENCE_K)
        assert passes == []
        for k in (REFERENCE_K - 1, REFERENCE_K + 1, 10):
            assert _evaluate.__wrapped__(k) == _exact_pass(k)
        assert passes == [REFERENCE_K - 1, REFERENCE_K + 1, 10]

    def test_missing_table_raises(self, monkeypatch, tmp_path, passes):
        monkeypatch.setattr(constants, "REFERENCE_TABLE", str(tmp_path / "missing.txt"))
        with pytest.raises(FileNotFoundError):
            _evaluate.__wrapped__(REFERENCE_K)
        assert passes == []  # no fallback to the pass

    @staticmethod
    def _corruptions(table):
        head, *rows, end = table.split(b"\n")
        assert end == b"" and len(rows) == 7
        name, *ends = rows[0].split(b" ")
        num, den = int(ends[0], 16), int(ends[1], 16)
        unreduced = b" ".join((name, b"%x" % (2 * num), b"%x" % (2 * den), *ends[2:]))
        swapped = b" ".join((name, ends[2], ends[3], ends[0], ends[1]))  # lo > hi
        return {
            "empty": b"",
            "truncated": table[: len(table) // 2],
            "no final newline": table[:-1],
            "extra line": table + b"x 1 1 1 1\n",
            "other k": table.replace(b"K 1000", b"K 999", 1),
            "rows swapped": b"\n".join((head, rows[1], rows[0], *rows[2:], b"")),
            "non-hex digit": table.replace(ends[0][:8], b"g" + ends[0][1:8], 1),
            "upper case": table.replace(ends[0], ends[0].upper(), 1),
            "unreduced": table.replace(rows[0], unreduced, 1),
            "lo above hi": table.replace(rows[0], swapped, 1),
            "zero denominator": table.replace(ends[1], b"0", 1),
            "not ascii": table.replace(b"theta", b"th\xe9ta", 1),
        }

    def test_corrupt_table_raises(self, monkeypatch, tmp_path, table, passes):
        corrupt = tmp_path / "corrupt.txt"
        monkeypatch.setattr(constants, "REFERENCE_TABLE", str(corrupt))
        for what, data in self._corruptions(table).items():
            assert data != table, what
            with pytest.raises(RuntimeError, match="not the table of the enclosures"):
                _decode(data, REFERENCE_K)
            corrupt.write_bytes(data)
            with pytest.raises(RuntimeError):
                _evaluate.__wrapped__(REFERENCE_K)
        assert passes == []  # no fallback to the pass


class TestTailBounds:
    def test_requires_p_k_at_least_25(self):
        with pytest.raises(ValueError):
            tail_bound("Theta", 9)  # p_9 = 23
        tail_bound("Theta", 10)  # p_10 = 29: fine

    def test_bounds_dominate_deeper_partial_sums(self):
        for name in SERIES_NAMES:
            for k in (10, 50, 120):
                shallow = partial_sum(name, k)
                deep = partial_sum(name, k + 1000)
                assert shallow < deep <= shallow + tail_bound(name, k), (name, k)

    def test_monotone_in_k(self):
        for name in SERIES_NAMES:
            bounds = [tail_bound(name, k) for k in range(20, 80)]
            assert all(b <= a for a, b in zip(bounds, bounds[1:])), name


class TestEnclosures:
    def test_nesting(self):
        for name in SERIES_NAMES:
            for k in (50, 100, 200):
                outer = rigorous_constant(name, k)
                inner = rigorous_constant(name, 2 * k)
                assert outer.lo <= inner.lo and inner.hi <= outer.hi, (name, k)

    def test_reference_decimals_at_k1000(self):
        th = rigorous_constant("theta", 1000)
        big = rigorous_constant("Theta", 1000)
        comb = combined_constant(1000)
        assert render_decimal(th, 10) == "3.9750223902"
        assert render_decimal(big, 10) == "4.9809473396"
        assert render_decimal(comb, 14) == "4.63255603509332"
        assert comb.width < Fraction(1, 10**14)

    def test_erdos_enclosure(self):
        enc = rigorous_constant("erdos", 120)
        deep = partial_sum("erdos", 2200)
        assert enc.lo < deep < enc.hi
        assert render_decimal(enc, 12) == "3.674643966011"
        assert render_decimal(rigorous_constant("erdos", 1000), 14) == "3.67464396601132"

    def test_mu_rendering(self):
        mu = mu_constant(1000)
        assert render_decimal(mu, 10) == "0.6575336448"

    def test_wider_interval_still_contains(self):
        comb50 = combined_constant(50)
        comb1000 = combined_constant(1000)
        assert comb50.width > comb1000.width
        assert comb50.lo <= comb1000.lo and comb1000.hi <= comb50.hi

    def test_rigorous_value_validates(self):
        with pytest.raises(ValueError):
            RigorousValue(name="x", k_terms=1, lo=Fraction(1), hi=Fraction(0))

    def test_midpoint_is_computed_once_and_leaves_the_fields_alone(self):
        v = rigorous_constant("theta", 200)
        fresh = RigorousValue(v.name, v.k_terms, v.lo, v.hi)
        before = (hash(fresh), dataclasses.asdict(fresh))
        mid = fresh.midpoint
        assert mid == (v.lo + v.hi) / 2
        assert fresh.midpoint is mid  # cached, not recomputed
        assert fresh == RigorousValue(v.name, v.k_terms, v.lo, v.hi)
        assert (hash(fresh), dataclasses.asdict(fresh)) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh.lo = Fraction(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh.midpoint = Fraction(0)


class TestRenderDecimal:
    def test_exact_terminating(self):
        v = RigorousValue("q", 1, Fraction(1, 4), Fraction(1, 4))
        assert render_decimal(v, 5) == "0.25"
        w = RigorousValue("n", 1, Fraction(-3, 8), Fraction(-3, 8))
        assert render_decimal(w, 2) == "-0.375"

    def test_exact_nonterminating_prints_fraction(self):
        v = RigorousValue("t", 1, Fraction(1, 3), Fraction(1, 3))
        assert render_decimal(v, 4) == "1/3"

    def test_shared_prefix(self):
        v = RigorousValue("a", 1, Fraction(31415, 10**4), Fraction(31419, 10**4))
        assert render_decimal(v, 3) == "3.141"

    def test_wide_interval_uses_plus_minus(self):
        v = RigorousValue("w", 1, Fraction(1, 10), Fraction(9, 10))
        out = render_decimal(v, 3)
        assert "+/-" in out

    def test_plus_minus_width_beyond_float_range_operands(self):
        # the padded half-width's numerator and denominator exceed any float
        v = rigorous_constant("theta", 200)
        assert v.width.denominator.bit_length() > 1100
        out = render_decimal(v, 80)
        mid, w = (Fraction(t) for t in out.split(" +/- "))
        assert mid - w <= v.lo and v.hi <= mid + w

    def test_plus_minus_encloses_exactly(self):
        # w is rounded up at its third significant digit, never to nearest
        checked = 0
        for k in (10, 20, 50, 100, 200):
            values = [rigorous_constant(name, k) for name in SERIES_NAMES]
            values += [combined_constant(k), mu_constant(k)]
            for v in values:
                for digits in range(6, 81):
                    out = render_decimal(v, digits)
                    if " +/- " not in out:
                        continue
                    mid, w = (Fraction(t) for t in out.split(" +/- "))
                    assert mid - w <= v.lo and v.hi <= mid + w, (v.name, k, digits, out)
                    mant, _, exp = out.split(" +/- ")[1].partition("e")
                    assert len(mant) == 4 and len(exp) >= 3, out
                    checked += 1
        assert checked > 300

    def test_rejects_nonpositive_digits(self):
        v = RigorousValue("d", 1, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            render_decimal(v, 0)


class TestPredictions:
    def test_sign_probability_rows_sum_to_one(self):
        for p in (2, 3, 5, 7, 11):
            assert sign_probability(p, 1) + sign_probability(p, -1) + sign_probability(p, 0) == 1

    def test_pair_probability_values(self):
        assert pair_sign_probability(2, 0) == Fraction(1, 9)
        assert pair_sign_probability(2, -1) == Fraction(4, 9)
        assert pair_sign_probability(3, -1) == Fraction(15, 32)

    def test_least_negative_density_k1_is_one_third(self):
        assert least_negative_density(1) == Fraction(1, 3)

    def test_running_product_matches_the_definition(self):
        primes = default_primes(60)
        for k, got in enumerate(least_negative_densities(60), 1):
            want = Fraction(primes[k - 1], 2 * (primes[k - 1] + 1))
            for q in primes[: k - 1]:
                want *= Fraction(q + 2, 2 * (q + 1))
            assert got == want, k
            assert least_negative_density(k) == want, k

    def test_least_negative_densities_subprobability(self):
        total = sum(least_negative_density(k) for k in range(1, 26))
        assert total < 1

    def test_zeta2_enclosure_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z2 = mp.pi**2 / 6
        assert ZETA2_LO < Fraction(str(z2)) < ZETA2_HI
