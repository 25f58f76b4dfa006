"""Gapped extension (step 3) tests: X-drop engine vs Smith-Waterman oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extend.gapped import (
    GappedExtension,
    GapPenalties,
    _xdrop_half,
    lockstep_halves,
    smith_waterman,
    xdrop_gapped_extend,
    xdrop_half_reference,
)
from repro.seqs.alphabet import GAP_CODE, encode_protein
from repro.seqs.generate import mutate_protein, random_protein
from repro.seqs.matrices import BLOSUM45, BLOSUM62, BLOSUM80


class TestGapPenalties:
    def test_defaults_are_blast(self):
        g = GapPenalties()
        assert (g.open, g.extend) == (11, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GapPenalties(open=-1)


class TestSmithWaterman:
    def test_self_alignment_is_diagonal_sum(self):
        a = encode_protein("MKVLAWTRQ")
        al = smith_waterman(a, a)
        assert al.aligned0 == "MKVLAWTRQ"
        assert al.aligned1 == "MKVLAWTRQ"
        assert al.score == sum(
            BLOSUM62.score(int(x), int(x)) for x in a
        )
        assert al.identity() == 1.0

    def test_local_alignment_trims_noise(self):
        a = encode_protein("PPPPWWWWCCCC")
        b = encode_protein("GGGGWWWWDDDD")
        al = smith_waterman(a, b)
        assert al.aligned0 == "WWWW"
        assert al.score == 44

    def test_gap_in_alignment(self):
        a = encode_protein("MKVLAWTRQ")
        b = encode_protein("MKVLWTRQ")  # A deleted
        al = smith_waterman(a, b)
        assert "-" in al.aligned1
        assert al.n_gaps == 1
        # score = self score of MKVLWTRQ (M5 K5 V4 L4 W11 T5 R5 Q5 = 44)
        # minus one gap open+extend (12)
        assert al.score == 44 - 12

    def test_affine_prefers_one_long_gap(self):
        # One 2-gap (cost 13) beats two 1-gaps (cost 24).
        a = encode_protein("WWWWCHWWWW")
        b = encode_protein("WWWWWWWW")
        al = smith_waterman(a, b)
        gap_cols = al.aligned1.count("-")
        assert gap_cols == 2
        assert al.score == 88 - 11 - 2 * 1

    def test_traceback_consistent_with_score(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_protein(rng, 60)
            b = mutate_protein(rng, a, identity=0.7, indel_rate=0.03)
            al = smith_waterman(a, b)
            # Re-score the traceback strings independently.
            from repro.seqs.alphabet import AMINO

            score = 0
            in_gap = False
            g = GapPenalties()
            for x, y in zip(al.aligned0, al.aligned1, strict=True):
                if x == "-" or y == "-":
                    score -= (g.open + g.extend) if not in_gap else g.extend
                    in_gap = True
                else:
                    score += BLOSUM62.score(
                        int(AMINO.encode(x)[0]), int(AMINO.encode(y)[0])
                    )
                    in_gap = False
            assert score == al.score

    def test_band_restricts_gaps(self):
        a = encode_protein("WWWWWWWW" + "CCCCCCCCCC")
        b = encode_protein("WWWWWWWW")
        full = smith_waterman(a, b)
        banded = smith_waterman(a, b, band=2)
        assert banded.score <= full.score

    def test_empty_sequences(self):
        al = smith_waterman(encode_protein(""), encode_protein("MKV"))
        assert al.score == 0
        assert al.aligned0 == ""


class TestXdropExtension:
    def test_matches_sw_on_clean_homology(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            core = random_protein(rng, 50)
            noise0 = random_protein(rng, 30)
            noise1 = random_protein(rng, 30)
            s0 = np.concatenate([noise0, core, noise0])
            s1 = np.concatenate([noise1, core, noise1])
            sw = smith_waterman(s0, s1)
            ge = xdrop_gapped_extend(s0, 30 + 25, s1, 30 + 25, x_drop=40)
            # X-drop anchored inside the homology must recover ≥ 95% of SW.
            assert ge.score >= 0.95 * sw.score

    def test_endpoints_bracket_anchor(self):
        rng = np.random.default_rng(3)
        core = random_protein(rng, 40)
        s0 = np.concatenate([random_protein(rng, 20), core, random_protein(rng, 20)])
        s1 = np.concatenate([random_protein(rng, 20), core, random_protein(rng, 20)])
        ge = xdrop_gapped_extend(s0, 40, s1, 40, x_drop=30)
        assert ge.start0 <= 40 <= ge.end0
        assert ge.start1 <= 40 <= ge.end1
        assert ge.length0 > 0 and ge.length1 > 0

    def test_cells_bounded_by_full_dp(self):
        rng = np.random.default_rng(4)
        a = random_protein(rng, 100)
        b = random_protein(rng, 100)
        ge = xdrop_gapped_extend(a, 50, b, 50, x_drop=15)
        assert 0 < ge.cells < 100 * 100

    def test_smaller_xdrop_never_scores_higher(self):
        rng = np.random.default_rng(5)
        a = random_protein(rng, 120)
        b = mutate_protein(rng, a, identity=0.6)
        lo = xdrop_gapped_extend(a, 60, b, min(60, len(b) - 1), x_drop=5)
        hi = xdrop_gapped_extend(a, 60, b, min(60, len(b) - 1), x_drop=60)
        assert hi.score >= lo.score

    def test_gap_sentinels_contain_extension(self):
        s = encode_protein("----MKVLAWTRQ----")
        ge = xdrop_gapped_extend(s, 8, s, 8, x_drop=25)
        assert ge.start0 >= 4
        assert ge.end0 <= 13

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_xdrop_never_beats_smith_waterman(self, seed):
        """SW is the exact optimum; X-drop is a heuristic lower bound."""
        rng = np.random.default_rng(seed)
        a = random_protein(rng, 40)
        b = mutate_protein(rng, a, identity=0.65, indel_rate=0.02)
        anchor = min(20, len(b) - 1)
        sw = smith_waterman(a, b)
        ge = xdrop_gapped_extend(a, 20, b, anchor, x_drop=50)
        assert ge.score <= sw.score


# Residue codes including the gap sentinel; penalties down to zero, where a
# gap is free and row 0 stays alive across the whole subject.
CODES = st.integers(0, GAP_CODE)
GAPS = st.builds(GapPenalties, open=st.integers(0, 14), extend=st.integers(0, 3))
X_DROPS = st.integers(0, 100)
MATRICES = st.sampled_from([BLOSUM62, BLOSUM80, BLOSUM45])


def _codes(values) -> np.ndarray:
    return np.array(values, dtype=np.uint8)


@st.composite
def _queries(draw, longest: int) -> list[int]:
    """Codes of a length drawn uniformly, so short sides stay rare."""
    k = draw(st.integers(0, longest))
    return draw(st.lists(CODES, min_size=k, max_size=k))


@st.composite
def _subjects(draw, head) -> np.ndarray:
    """*head* or a random prefix, then seeded noise out to ``max_extent``.

    Starting the subject with the query side keeps the DP alive for many
    rows; the noise tail makes the subject much longer than the query.
    """
    prefix = draw(st.just(head) | st.lists(CODES, max_size=40))
    tail = draw(st.integers(0, 4096 - len(prefix)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.integers(0, GAP_CODE + 1, tail, dtype=np.uint8)
    return np.concatenate([_codes(prefix), noise])


@st.composite
def _halves(draw) -> tuple[np.ndarray, np.ndarray]:
    a = draw(_queries(40))
    return _codes(a), draw(_subjects(a))


def _reference_extension(buf0, anchor0, buf1, anchor1, matrix, gaps, x_drop):
    """``xdrop_gapped_extend`` rebuilt on the step-3 oracle."""
    sub = matrix.scores.astype(np.int64)
    sr, er0, er1, cr = xdrop_half_reference(
        buf0[anchor0 : anchor0 + 4096], buf1[anchor1 : anchor1 + 4096], sub, gaps, x_drop
    )
    sl, el0, el1, cl = xdrop_half_reference(
        buf0[max(0, anchor0 - 4096) : anchor0][::-1],
        buf1[max(0, anchor1 - 4096) : anchor1][::-1],
        sub,
        gaps,
        x_drop,
    )
    return GappedExtension(
        score=sr + sl,
        start0=anchor0 - el0,
        end0=anchor0 + er0,
        start1=anchor1 - el1,
        end1=anchor1 + er1,
        cells=cr + cl,
    )


class TestXdropOracle:
    """The live-window loop against :func:`xdrop_half_reference`."""

    @staticmethod
    def _both(a, b, gaps, x_drop, matrix=BLOSUM62):
        got = _xdrop_half(a, b, matrix.scores.tolist(), gaps, x_drop)
        want = xdrop_half_reference(a, b, matrix.scores.astype(np.int64), gaps, x_drop)
        return got, want

    @given(_halves(), GAPS, X_DROPS, MATRICES)
    @example((_codes([]), _codes([1, 2])), GapPenalties(), 38, BLOSUM62)
    @example((_codes([3]), _codes([])), GapPenalties(), 38, BLOSUM62)
    @example((_codes([17]), _codes([17])), GapPenalties(0, 0), 0, BLOSUM62)
    @example((_codes([GAP_CODE] * 3), _codes([GAP_CODE] * 5)), GapPenalties(0, 0), 100, BLOSUM62)
    @settings(max_examples=150, deadline=None)
    def test_half_matches_reference(self, half, gaps, x_drop, matrix):
        a, b = half
        got, want = self._both(a, b, gaps, x_drop, matrix)
        assert got == want

    @given(st.data(), GAPS, X_DROPS, MATRICES)
    @settings(max_examples=60, deadline=None)
    def test_extension_matches_reference(self, data, gaps, x_drop, matrix):
        buf0 = _codes(data.draw(_queries(60)))
        buf1 = data.draw(_subjects(buf0.tolist()))
        anchor0 = data.draw(st.integers(0, len(buf0)))
        anchor1 = data.draw(st.integers(0, len(buf1)))
        got = xdrop_gapped_extend(
            buf0, anchor0, buf1, anchor1, matrix=matrix, gaps=gaps, x_drop=x_drop
        )
        want = _reference_extension(buf0, anchor0, buf1, anchor1, matrix, gaps, x_drop)
        assert got == want

    def test_cutoff_is_fixed_before_each_row(self):
        """Row 2 finds a new best at column 1; cutting at it mid-row would
        kill a cell to its right that the oracle keeps alive."""
        got, want = self._both(
            encode_protein("TMV"), encode_protein("MFFSC"), GapPenalties(2, 2), 7
        )
        assert got == want == (1, 2, 1, 12)

    def test_window_shrinks_left_then_grows_right(self):
        """Row 0 is alive out to column 29.  Over the P/D mismatch rows the
        right edge stalls at column 39; once the W run resumes the cutoff
        jumps, the left edge leaps from column 10 to 17 (row 21), and the
        band then grows right one column a row to column 59.  Row storage
        reused across rows would read stale cells at both edges here."""
        a = encode_protein("W" * 10 + "P" * 6 + "W" * 20)
        b = encode_protein("W" * 10 + "D" * 6 + "W" * 60)
        got, want = self._both(a, b, GapPenalties(11, 1), 40)
        assert got == want == (324, 36, 36, 1110)

    # -- the lockstep engine, lane for lane against both -------------------

    @staticmethod
    def _lanes(buf0, buf1, anchors, gaps, x_drop, matrix=BLOSUM62, max_extent=4096):
        """Lockstep result of every ``(anchor0, anchor1, leftward)`` lane,
        after checking it against the scalar loop and the oracle."""
        a0 = np.array([a[0] for a in anchors], dtype=np.int64)
        a1 = np.array([a[1] for a in anchors], dtype=np.int64)
        left = np.array([a[2] for a in anchors], dtype=np.bool_)
        sub = matrix.scores.astype(np.int64)
        got = lockstep_halves(buf0, buf1, a0, a1, left, sub, gaps, x_drop, max_extent)
        assert got.shape == (len(anchors), 4)
        for (p0, p1, leftward), row in zip(anchors, got.tolist()):
            if leftward:
                a = buf0[max(0, p0 - max_extent) : p0][::-1]
                b = buf1[max(0, p1 - max_extent) : p1][::-1]
            else:
                a, b = buf0[p0 : p0 + max_extent], buf1[p1 : p1 + max_extent]
            scalar = _xdrop_half(a, b, matrix.scores.tolist(), gaps, x_drop)
            assert tuple(row) == scalar, (p0, p1, leftward)
            assert scalar == xdrop_half_reference(a, b, sub, gaps, x_drop)
        return [tuple(row) for row in got.tolist()]

    @given(st.data(), GAPS, X_DROPS, MATRICES)
    @settings(max_examples=40, deadline=None)
    def test_lockstep_matches_scalar_and_reference(self, data, gaps, x_drop, matrix):
        buf0 = _codes(data.draw(_queries(80)))
        buf1 = data.draw(_subjects(buf0.tolist()))
        lane = st.tuples(
            st.integers(0, len(buf0)),
            st.integers(0, len(buf1)) | st.just(-1),
            st.booleans(),
        )
        # -1 puts the lane on the query's own diagonal, where the shared
        # prefix keeps it alive for many rows.
        anchors = [
            (p0, p0 if p1 < 0 else p1, left)
            for p0, p1, left in data.draw(st.lists(lane, max_size=80))
        ]
        self._lanes(buf0, buf1, anchors, gaps, x_drop, matrix)

    def test_lockstep_empty_halves(self):
        buf = encode_protein("MKVLAWTRQ")
        got = self._lanes(
            buf, buf, [(0, 4, True), (9, 4, False), (4, 0, True), (4, 9, False), (4, 4, True)],
            GapPenalties(), 38,
        )
        assert got[:4] == [(0, 0, 0, 0)] * 4
        assert got[4] != (0, 0, 0, 0)
        assert lockstep_halves(
            buf, buf, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.bool_), BLOSUM62.scores.astype(np.int64),
            GapPenalties(), 38,
        ).shape == (0, 4)

    def test_lockstep_anchor_past_bank_end(self):
        """A leftward lane anchored past a bank's end starts from its last
        residue, as the scalar slice does; an empty bank gives no lane."""
        buf = encode_protein("MKVLAWTRQ")
        self._lanes(buf, buf[:4], [(9, 9, True), (9, 9, False), (6, 30, True)], GapPenalties(), 38)
        self._lanes(buf, buf, [(20, 5, True)], GapPenalties(), 38, max_extent=16)
        got = self._lanes(buf, buf[:0], [(1, 1, True), (1, 0, False)], GapPenalties(0, 0), 0)
        assert got == [(0, 0, 0, 0)] * 2

    def test_lockstep_gap_open_above_x_drop_and_free_extension(self):
        a = encode_protein("MKVLAWTRQWWPPMKVLAW")
        b = encode_protein("MKVLWTRQWWPPGGMKVLAWCC")
        anchors = [(p, q, left) for p in (0, 5, 19) for q in (0, 4, 22) for left in (False, True)]
        self._lanes(a, b, anchors, GapPenalties(11, 1), 5)  # go = 12 > x_drop
        self._lanes(a, b, anchors, GapPenalties(5, 0), 30)  # ge = 0: row 0 spans b

    def test_lockstep_caps_each_direction(self):
        """Identical 5000-residue runs: the lanes stop at the 4096 cap."""
        run = encode_protein("W" * 5000)
        got = self._lanes(run, run, [(0, 0, False), (5000, 5000, True), (10, 4000, False)],
                          GapPenalties(), 38)
        assert got[0][1] == got[1][1] == 4096
        assert got[2][1] == 1000
        capped = self._lanes(run, run, [(0, 0, False), (100, 100, True)], GapPenalties(), 38,
                             max_extent=64)
        assert capped[0][1] == capped[1][1] == 64

    def test_lockstep_lanes_end_on_row_one(self):
        """Gap-sentinel rows die at once; the lane stops after one row."""
        a = _codes([GAP_CODE] * 4)
        b = encode_protein("MKVL")
        got = self._lanes(a, b, [(0, 0, False), (4, 4, True)], GapPenalties(), 0)
        assert [cells for *_, cells in got] == [1, 1]

    def test_lockstep_every_lane_dies_on_one_row(self):
        a = encode_protein("MKVLAWTRQ" + "P" * 20)
        b = encode_protein("MKVLAWTRQ" + "D" * 20)
        got = self._lanes(a, b, [(0, 0, False)] * 12, GapPenalties(), 20)
        assert len(set(got)) == 1

    def test_lockstep_one_lane_far_longer(self):
        rng = np.random.default_rng(8)
        core = random_protein(rng, 600)
        buf0 = np.concatenate([random_protein(rng, 200), core])
        buf1 = np.concatenate([random_protein(rng, 300), core])
        anchors = [(200, 300, False)] + [
            (int(p), int(q), bool(p % 2)) for p, q in rng.integers(0, 200, (30, 2))
        ]
        got = self._lanes(buf0, buf1, anchors, GapPenalties(), 38)
        assert got[0][1] == 600 > 10 * max(row[1] for row in got[1:])

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_lockstep_at_the_lane_floor(self, extra):
        from repro.core.pipeline import STEP3_MIN_LANES

        rng = np.random.default_rng(9)
        core = random_protein(rng, 80)
        buf0 = np.concatenate([random_protein(rng, 40), core, random_protein(rng, 40)])
        buf1 = np.concatenate([random_protein(rng, 60), core, random_protein(rng, 60)])
        anchors = [
            (40 + k, 60 + k, bool(k % 2)) for k in range(STEP3_MIN_LANES + extra)
        ]
        self._lanes(buf0, buf1, anchors, GapPenalties(), 38)
