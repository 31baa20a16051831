"""Tests for the five feature groups and the 212-feature extractor.

Group-level behaviour is checked on the per-page oracle
(``oracle_features``), which the production batch extractor must
reproduce bit for bit.
"""

import numpy as np
import pytest

from repro.core.datasources import DataSources
from repro.core.features import (
    FEATURE_SET_NAMES,
    FeatureExtractor,
    feature_set_mask,
)
from repro.core.features import (
    content,
    mld_usage,
    rdn_usage,
    term_consistency,
    url_features,
)
from repro.urls.alexa import AlexaRanking
from repro.web.page import PageSnapshot
from tests.core import oracle_features as oracle


def snapshot_legit():
    """A consistent 'legitimate-looking' page."""
    return PageSnapshot(
        starting_url="https://www.acmebank.com/",
        landing_url="https://www.acmebank.com/",
        logged_links=[
            "https://www.acmebank.com/css/site.css",
            "https://www.acmebank.com/img/acmebank.png",
            "https://cdn.net/lib.js",
        ],
        html=(
            "<title>AcmeBank - secure banking</title><body>"
            "<p>acmebank online banking account services acmebank</p>"
            "<a href='https://www.acmebank.com/accounts'>accounts</a>"
            "<a href='https://www.acmebank.com/help'>help</a>"
            "<img src='https://www.acmebank.com/img/logo.png'>"
            "<input type='text'>"
            "<p>© 2015 AcmeBank</p></body>"
        ),
    )


def snapshot_phish():
    """A phish-shaped page: own domain unrelated, mimics acmebank."""
    return PageSnapshot(
        starting_url="http://acmebank.com.xkwpanel.xyz/secure/acmebank/login?id=ab12",
        landing_url="http://acmebank.com.xkwpanel.xyz/secure/acmebank/login?id=ab12",
        logged_links=[
            "https://www.acmebank.com/img/acmebank-logo.png",
        ],
        html=(
            "<title>AcmeBank - verify</title><body>"
            "<p>acmebank account suspended verify login</p>"
            "<a href='https://www.acmebank.com/help'>help</a>"
            "<form action='/post.php'>"
            "<input type='email'><input type='password'>"
            "<input type='password'></form>"
            "<p>© 2015 AcmeBank</p></body>"
        ),
    )


def snapshot_no_links():
    """A page with no logged or HREF links."""
    return PageSnapshot(
        starting_url="http://x.com/", landing_url="http://x.com/",
        html="<title>t</title><body>b</body>",
    )


def snapshot_ip_url():
    """A page served from a bare IP address (no MLD to look for)."""
    return PageSnapshot(
        starting_url="http://10.1.2.3/x", landing_url="http://10.1.2.3/x",
        html="<title>t</title><body>text here</body>",
    )


def snapshot_composite_mld():
    """A page whose MLD concatenates its title terms."""
    return PageSnapshot(
        starting_url="https://www.bankofamerica.com/",
        landing_url="https://www.bankofamerica.com/",
        html=(
            "<title>Bank of America</title><body>"
            "<a href='https://www.bankofamerica.com/bank/america'>x</a>"
            "</body>"
        ),
    )


def snapshot_cross_domain_chain():
    """A page reached through a redirection to another RDN."""
    return PageSnapshot(
        starting_url="http://short.io/x",
        landing_url="http://landing.com/y",
        redirection_chain=["http://short.io/x", "http://landing.com/y"],
        html="<body>x</body>",
    )


SNAPSHOTS = (
    snapshot_legit, snapshot_phish, snapshot_no_links, snapshot_ip_url,
    snapshot_composite_mld, snapshot_cross_domain_chain,
)


@pytest.fixture(scope="module")
def alexa():
    return AlexaRanking(["acmebank.com", "cdn.net"])


class TestF1UrlFeatures:
    def test_count(self, alexa):
        values = oracle.f1_compute(DataSources(snapshot_legit()), alexa)
        assert len(values) == 106 == url_features.N_FEATURES

    def test_names_align(self):
        assert len(url_features.feature_names()) == 106

    def test_https_flags(self, alexa):
        legit = oracle.f1_compute(DataSources(snapshot_legit()), alexa)
        phish = oracle.f1_compute(DataSources(snapshot_phish()), alexa)
        names = url_features.feature_names()
        index = names.index("f1.start.https")
        assert legit[index] == 1.0
        assert phish[index] == 0.0

    def test_alexa_rank_feature(self, alexa):
        legit = oracle.f1_compute(DataSources(snapshot_legit()), alexa)
        phish = oracle.f1_compute(DataSources(snapshot_phish()), alexa)
        names = url_features.feature_names()
        index = names.index("f1.start.alexa_rank")
        assert legit[index] == 1.0          # ranked first
        assert phish[index] == 1_000_001.0  # unranked

    def test_freeurl_dots(self, alexa):
        phish = oracle.f1_compute(DataSources(snapshot_phish()), alexa)
        names = url_features.feature_names()
        # subdomains "acmebank.com" -> 2 dots counted (1 inner + 1 trailing)
        assert phish[names.index("f1.start.freeurl_dots")] >= 2

    def test_empty_link_sets_zero(self, alexa):
        values = oracle.f1_compute(DataSources(snapshot_no_links()), alexa)
        names = url_features.feature_names()
        start = names.index("f1.extlog.https_ratio")
        assert all(v == 0.0 for v in values[start:start + 22])
        f1 = FeatureExtractor(alexa=alexa).extract(snapshot_no_links())[:106]
        assert not f1[start:start + 22].any()

    def test_mld_length(self, alexa):
        legit = oracle.f1_compute(DataSources(snapshot_legit()), alexa)
        names = url_features.feature_names()
        assert legit[names.index("f1.start.mld_length")] == len("acmebank")


class TestF2TermConsistency:
    def test_count_and_bounds(self):
        values = oracle.f2_compute(DataSources(snapshot_legit()))
        assert len(values) == 66 == term_consistency.N_FEATURES
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_names_align(self):
        assert len(term_consistency.feature_names()) == 66

    def test_consistent_page_lower_rdn_text_distance(self):
        names = term_consistency.feature_names()
        index = names.index("f2.hellinger.text-landrdn")
        legit = oracle.f2_compute(DataSources(snapshot_legit()))
        phish = oracle.f2_compute(DataSources(snapshot_phish()))
        # Legit page's text shares terms with its RDN; phish text does not
        # match the phisher's own gibberish RDN.
        assert legit[index] < phish[index]

    def test_pairs_unique(self):
        assert len(set(term_consistency.PAIRS)) == 66


class TestF3MldUsage:
    def test_count(self):
        values = oracle.f3_compute(DataSources(snapshot_legit()))
        assert len(values) == 22 == mld_usage.N_FEATURES

    def test_legit_mld_in_text(self):
        values = oracle.f3_compute(DataSources(snapshot_legit()))
        names = mld_usage.feature_names()
        assert values[names.index("f3.start_mld.in.text")] == 1.0
        assert values[names.index("f3.start_mld.in.title")] == 1.0

    def test_phish_mld_not_in_text(self):
        values = oracle.f3_compute(DataSources(snapshot_phish()))
        names = mld_usage.feature_names()
        assert values[names.index("f3.start_mld.in.text")] == 0.0

    def test_ip_url_all_zero(self):
        snapshot = snapshot_ip_url()
        assert oracle.f3_compute(DataSources(snapshot)) == [0.0] * 22
        vector = FeatureExtractor().extract(snapshot)
        assert not vector[feature_set_mask("f3")].any()

    def test_substring_mass_positive_for_composite_mld(self):
        snapshot = snapshot_composite_mld()
        values = oracle.f3_compute(DataSources(snapshot))
        names = mld_usage.feature_names()
        index = names.index("f3.start_mld.mass.title")
        # Title terms "bank", "america" are substrings of "bankofamerica".
        assert values[index] > 0.5
        f3 = FeatureExtractor().extract(snapshot)[feature_set_mask("f3")]
        assert f3[index] == values[index]


class TestF4RdnUsage:
    def test_count(self):
        values = rdn_usage.compute(DataSources(snapshot_legit()))
        assert len(values) == 13 == rdn_usage.N_FEATURES

    def test_internal_ratios(self):
        legit = rdn_usage.compute(DataSources(snapshot_legit()))
        phish = rdn_usage.compute(DataSources(snapshot_phish()))
        names = rdn_usage.feature_names()
        index = names.index("f4.logged_internal_ratio")
        assert legit[index] > phish[index]

    def test_chain_features(self):
        snapshot = snapshot_legit()
        values = rdn_usage.compute(DataSources(snapshot))
        names = rdn_usage.feature_names()
        assert values[names.index("f4.chain_length")] == 1.0
        assert values[names.index("f4.chain_rdn_switches")] == 0.0

    def test_cross_domain_chain_switches(self):
        values = rdn_usage.compute(DataSources(snapshot_cross_domain_chain()))
        names = rdn_usage.feature_names()
        assert values[names.index("f4.chain_rdn_switches")] == 1.0
        assert values[names.index("f4.start_land_same_rdn")] == 0.0


class TestF5Content:
    def test_count_and_values(self):
        values = oracle.f5_compute(DataSources(snapshot_phish()))
        assert len(values) == 5 == content.N_FEATURES
        names = content.feature_names()
        assert values[names.index("f5.input_count")] == 3.0
        assert values[names.index("f5.text_terms")] > 0


class TestExtractor:
    def test_212_features(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        vector = extractor.extract(snapshot_legit())
        assert vector.shape == (212,)
        assert extractor.n_features == 212

    def test_names_unique_and_aligned(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        names = extractor.feature_names
        assert len(names) == 212
        assert len(set(names)) == 212

    def test_extract_many(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        matrix = extractor.extract_many([snapshot_legit(), snapshot_phish()])
        assert matrix.shape == (2, 212)

    def test_extract_many_empty(self, alexa):
        assert FeatureExtractor(alexa=alexa).extract_many([]).shape == (0, 212)

    def test_deterministic(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        first = extractor.extract(snapshot_legit())
        second = extractor.extract(snapshot_legit())
        assert np.array_equal(first, second)

    def test_default_extractor_needs_no_world(self):
        vector = FeatureExtractor().extract(snapshot_legit())
        assert vector.shape == (212,)

    @pytest.mark.parametrize("metric", ["hellinger", "jaccard"])
    def test_extract_matches_oracle(self, alexa, metric):
        extractor = FeatureExtractor(alexa=alexa, term_metric=metric)
        for make in SNAPSHOTS:
            snapshot = make()
            assert np.array_equal(
                extractor.extract(snapshot),
                oracle.extract(snapshot, alexa, metric=metric),
            ), make.__name__


class TestFeatureSetMasks:
    @pytest.mark.parametrize("name,expected", [
        ("f1", 106), ("f2", 66), ("f3", 22), ("f4", 13), ("f5", 5),
        ("f1,5", 111), ("f2,3,4", 101), ("fall", 212),
    ])
    def test_mask_sizes(self, name, expected):
        assert int(feature_set_mask(name).sum()) == expected

    def test_masks_disjoint_groups(self):
        total = (
            feature_set_mask("f1").astype(int)
            + feature_set_mask("f2").astype(int)
            + feature_set_mask("f3").astype(int)
            + feature_set_mask("f4").astype(int)
            + feature_set_mask("f5").astype(int)
        )
        assert (total == 1).all()

    def test_unknown_mask_rejected(self):
        with pytest.raises(ValueError):
            feature_set_mask("f9")

    def test_all_names_listed(self):
        assert set(FEATURE_SET_NAMES) == {
            "f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall"
        }
