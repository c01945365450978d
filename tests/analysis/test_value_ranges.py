"""Good/bad fixtures for the abstract-interpretation rule family (90x).

REPRO901-903 get inline fixtures in the datapath scopes; REPRO904 is
tested against the *real* ``repro.core.avcl`` module — certifying the
committed implementation and, crucially, catching seeded wrong-mask
mutations of it (the headline acceptance criterion: the certifier must
reject an AVCL whose mask arithmetic no longer meets the declared
error bound).
"""

import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis import get_rule
from repro.analysis.engine import analyze_project, analyze_source
from repro.analysis.checks.value_ranges import (
    CERTIFIED_SCHEMES,
    MODE_FACTORS,
    _spec_shift,
)
from repro.core.avcl import shift_bits_for_threshold

REPO_ROOT = Path(__file__).resolve().parents[2]
AVCL_PATH = "src/repro/core/avcl.py"
APCL_PATH = "src/repro/core/apcl.py"
DI_VAXX_PATH = "src/repro/core/di_vaxx.py"
CORE = "src/repro/core/fixture.py"
NOC = "src/repro/noc/fixture.py"


def run_rule(rule_name, path, source):
    return analyze_source(path, textwrap.dedent(source),
                          [get_rule(rule_name)])


class TestShiftRangeProofs:
    """REPRO901: every shift amount proven within [0, 31]."""

    def test_derived_in_range_amount_passes(self):
        # k is not constant, but the abstract interpreter proves
        # k = x & 31 stays in [0, 31] — the old syntactic REPRO201
        # could never accept this.
        assert run_rule("shift-range", CORE, """\
            def scale(word, x):
                k = x & 31
                return (word << k) & 0xFFFFFFFF
            """) == []

    def test_unbounded_amount_flags_in_datapath(self):
        findings = run_rule("shift-range", CORE, """\
            def scale(word, x):
                return (word << x) & 0xFFFFFFFF
            """)
        assert len(findings) == 1
        assert "cannot prove shift amount" in findings[0].message

    def test_branch_refinement_proves_amount(self):
        assert run_rule("shift-range", CORE, """\
            def scale(word, k):
                if k < 32 and k >= 0:
                    return (word >> k) & 0xFFFFFFFF
                return word
            """) == []

    def test_augassign_shift_is_covered(self):
        findings = run_rule("shift-range", CORE, """\
            def scale(word, x):
                word <<= x
                return word & 0xFFFFFFFF
            """)
        assert len(findings) == 1

    def test_constant_base_modulus_allows_32(self):
        # 1 << 32 builds the two's-complement modulus: constant base,
        # deliberate, exempt.
        assert run_rule("shift-range", CORE,
                        "MODULUS = 1 << 32\n") == []


class TestWordRangeProofs:
    """REPRO902: unmasked word arithmetic proven in [0, 2^32)."""

    def test_abstractly_bounded_sum_passes_unmasked(self):
        # Two masked halfwords can never leave the 32-bit range, so no
        # re-mask is required — the abstract proof replaces the old
        # expression-local heuristic.
        assert run_rule("unmasked-word-arith", NOC, """\
            def merge(word_a, word_b):
                return (word_a & 0xFFFF) + (word_b & 0xFFFF)
            """) == []

    def test_possible_overflow_flags_with_derived_range(self):
        findings = run_rule("unmasked-word-arith", NOC, """\
            def bump(word):
                return word + 1
            """)
        assert len(findings) == 1
        assert "WORD_MASK" in findings[0].message

    def test_masked_at_use_passes(self):
        assert run_rule("unmasked-word-arith", NOC, """\
            WORD_MASK = 0xFFFFFFFF

            def mix(word, key):
                mixed = word + key
                return mixed & WORD_MASK
            """) == []


class TestZeroDivisionProofs:
    """REPRO903: divisors that can reach zero on some path."""

    def test_possibly_zero_divisor_flags(self):
        findings = run_rule("possible-zero-div", CORE, """\
            def share(total, n):
                n = n & 0xF
                return total // n
            """)
        assert len(findings) == 1
        assert "divisor may be zero" in findings[0].message

    def test_guarded_divisor_passes(self):
        assert run_rule("possible-zero-div", CORE, """\
            def share(total, n):
                n = n & 0xF
                if n:
                    return total // n
                return 0
            """) == []

    def test_excluded_zero_via_or_passes(self):
        assert run_rule("possible-zero-div", CORE, """\
            def share(total, n):
                return total % ((n & 0xF) | 1)
            """) == []

    def test_unknown_divisor_is_not_flagged(self):
        # Positive-knowledge rule: a top divisor (e.g. a float) carries
        # no derived evidence of a zero, so it is skipped.
        assert run_rule("possible-zero-div", CORE, """\
            def share(total, weight):
                return total / weight
            """) == []

    def test_modulo_is_covered(self):
        assert run_rule("possible-zero-div", CORE, """\
            def wrap(value, span):
                span = span & 0xFF
                return value % span
            """)


class TestAvclCertifier:
    """REPRO904: the committed AVCL meets its declared error bounds."""

    @pytest.fixture(scope="class")
    def avcl_source(self):
        return (REPO_ROOT / AVCL_PATH).read_text(encoding="utf-8")

    def certify(self, source):
        return analyze_project({AVCL_PATH: source},
                               [get_rule("avcl-error-bound")])

    def test_committed_avcl_certifies_clean(self, avcl_source):
        assert self.certify(avcl_source) == []

    def test_wrong_mask_mutation_is_caught(self, avcl_source):
        mutated = avcl_source.replace(
            "(1 << self.dont_care_bits) - 1",
            "(2 << self.dont_care_bits) - 1")
        assert mutated != avcl_source
        findings = self.certify(mutated)
        assert findings, "the doubled mask must violate the bound"
        assert any("error bound violated" in f.message for f in findings)

    def test_strict_mode_off_by_one_is_caught(self, avcl_source):
        mutated = avcl_source.replace("(rng + 1).bit_length() - 1",
                                      "(rng + 1).bit_length()")
        assert mutated != avcl_source
        findings = self.certify(mutated)
        assert any("[strict" in f.message for f in findings)

    def test_missing_entry_points_anchor_a_finding(self):
        findings = self.certify("X = 1\n")
        assert findings, "an avcl.py without ApproxInfo cannot certify"

    def test_spec_shift_matches_runtime_shift_table(self):
        # The certifier's own spec of the dont-care width must agree
        # with the runtime's shift_bits_for_threshold for every
        # registered scheme — otherwise the proof certifies the wrong
        # contract.
        for mode, e in CERTIFIED_SCHEMES:
            runtime = shift_bits_for_threshold(e, mode=mode)
            assert _spec_shift(e, mode) == runtime, (mode, e)
            # And the width actually honours the declared budget:
            # paper mode guarantees 4e%, strict mode e%, per unit of
            # the magnitude's bucket floor (see DESIGN.md section 16).
            budget = Fraction(MODE_FACTORS[mode] * e, 100)
            if mode == "strict":
                assert Fraction(1, 1 << runtime) <= budget

    def consumer_findings(self, avcl_source, modules):
        files = {AVCL_PATH: avcl_source}
        for path in (APCL_PATH, DI_VAXX_PATH):
            files[path] = modules.get(path) or (
                REPO_ROOT / path).read_text(encoding="utf-8")
        findings = analyze_project(files, [get_rule("avcl-error-bound")])
        return [f for f in findings if f.path in (APCL_PATH, DI_VAXX_PATH)]

    def test_committed_tcam_consumers_are_clean(self, avcl_source):
        assert self.consumer_findings(avcl_source, {}) == []

    def test_tcam_matching_without_the_ternary_is_caught(self, avcl_source):
        di_vaxx = textwrap.dedent("""\
            class DiVaxxNode:
                def _tcam_search(self, word, entry, info):
                    if info.bypass:
                        return None
                    return word == entry.value
            """)
        findings = self.consumer_findings(avcl_source,
                                          {DI_VAXX_PATH: di_vaxx})
        assert any(".matches or .care+.care_value" in f.message
                   for f in findings)

    def test_precomputed_care_must_invert_the_mask(self, avcl_source):
        apcl = (REPO_ROOT / APCL_PATH).read_text(encoding="utf-8")
        mutated = apcl.replace("return ~self.mask & WORD_MASK",
                               "return self.mask & WORD_MASK")
        assert mutated != apcl
        findings = self.consumer_findings(avcl_source,
                                          {APCL_PATH: mutated})
        assert any("TernaryPattern.care does not compare" in f.message
                   for f in findings)

    def test_certified_schemes_cover_paper_thresholds(self):
        es = sorted({e for _, e in CERTIFIED_SCHEMES})
        assert es == [1, 5, 10, 20, 25]
        assert sorted({m for m, _ in CERTIFIED_SCHEMES}) \
            == ["paper", "strict"]
