"""The table-driven ``canonicalize`` equals the per-character oracle."""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import terms
from repro.text.terms import _HOMOGLYPHS, canonicalize, extract_terms
from tests.text.oracle_terms import oracle_canonicalize

#: Characters the canonicaliser special-cases: every homoglyph key in
#: both cases, multi-letter expansions, compatibility forms (ligatures,
#: fullwidth, roman numerals, math alphabets), combining marks.
_SPECIAL = sorted(
    set(_HOMOGLYPHS)
    | {key.upper() for key in _HOMOGLYPHS}
    | set("ßæœþÆŒÞǆǅǄﬁﬂﬀⅫⅰＡｐ𝐀𝔞İ")
    | {"́", "̈", "̧", "⃗", "︠"}
)

_CHAR = st.one_of(
    st.sampled_from(_SPECIAL),
    st.characters(codec="ascii"),
    st.integers(0x0300, 0x036F).map(chr),      # combining diacritics
    st.integers(0xD800, 0xDFFF).map(chr),      # lone surrogates
    st.integers(0x10000, 0x10FFFF).map(chr),   # astral planes
    st.integers(0, 0x10FFFF).map(chr),         # anything at all
)

_TEXT = st.lists(_CHAR, max_size=80).map("".join)


class TestCanonicalizeOracle:
    @given(_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_table_matches_oracle(self, text):
        assert canonicalize(text) == oracle_canonicalize(text)

    @given(_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_extract_terms_matches_oracle_split(self, text):
        assert extract_terms(text) == [
            term for term in oracle_canonicalize(text).split()
            if len(term) >= terms.MIN_TERM_LENGTH
        ]

    def test_every_homoglyph_key_matches(self):
        text = "".join(_SPECIAL)
        assert canonicalize(text) == oracle_canonicalize(text)
        for char in _SPECIAL:
            assert canonicalize(char) == oracle_canonicalize(char)

    def test_full_table_still_canonicalizes(self, monkeypatch):
        """Past the size bound entries are computed, not stored."""
        monkeypatch.setattr(terms, "_CANON_TABLE_LIMIT", 0)
        table = terms._CanonTable()
        monkeypatch.setattr(terms, "_CANON_TABLE", table)
        text = "Straße b́eta ΑΒΓ 123 \ud800 𝐀"
        assert canonicalize(text) == oracle_canonicalize(text)
        assert len(table) == 0

    def test_concurrent_filling_keeps_the_table_exact(self, monkeypatch):
        """Threads filling one fresh table at once (more threads than
        cores, rapid switching) all get oracle output, and every stored
        entry is the oracle's for its codepoint."""
        table = terms._CanonTable()
        monkeypatch.setattr(terms, "_CANON_TABLE", table)
        rng = random.Random(13)
        alphabet = _SPECIAL + [chr(code) for code in range(0x80, 0x3000)]
        texts = [
            "".join(rng.choice(alphabet) for _ in range(400))
            for _ in range(64)
        ]
        want = [oracle_canonicalize(text) for text in texts]
        results: dict[int, list[str]] = {}

        def work(worker):
            results[worker] = [canonicalize(text) for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(worker,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[worker] == want for worker in range(8))
        assert table
        assert all(
            value == oracle_canonicalize(chr(code))
            for code, value in table.items()
        )
