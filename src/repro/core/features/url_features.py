"""Feature set f1: 106 URL statistical features (Table IV).

Nine lexical features per URL:

1. protocol used (https = 1)
2. count of dots in the FreeURL
3. count of level domains
4. length of the URL
5. length of the FQDN
6. length of the mld
7. count of terms in the URL
8. count of terms in the mld
9. Alexa ranking of the RDN (default 1,000,001 when unranked)

Layout (9 + 9 + 4 * (7*3 + 1) = 106):

* the full nine for the starting URL and the landing URL;
* for each of the four link sets (internal/external x logged/HREF):
  the https ratio (feature 1 as a ratio) plus mean, median and standard
  deviation of features 3-9.  Feature 2 is computed only on the starting
  and landing URLs since obfuscation matters only where the user sees
  the URL.

Empty link sets yield all-zero statistics.

The 106 columns themselves are computed by the columnar batch extractor
(:mod:`repro.core.features.batch`); the per-URL helpers here serve the
flat-f1 ablation variant (:func:`compute_flat`).
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import DataSources
from repro.text.terms import extract_terms
from repro.urls.alexa import AlexaRanking
from repro.urls.parsing import ParsedUrl

#: Names of the per-URL statistical features 3-9 of Table IV.
STAT_FEATURES = (
    "level_domains", "url_length", "fqdn_length", "mld_length",
    "url_terms", "mld_terms", "alexa_rank",
)
LINK_SETS = ("intlog", "extlog", "intlink", "extlink")

N_FEATURES = 9 + 9 + len(LINK_SETS) * (len(STAT_FEATURES) * 3 + 1)


def _stat_vector(url: ParsedUrl, alexa: AlexaRanking) -> list[float]:
    """Features 3-9 of Table IV for one URL."""
    mld = url.mld or ""
    return [
        float(url.level_domain_count),
        float(len(url.raw)),
        float(len(url.fqdn)),
        float(len(mld)),
        float(len(extract_terms(url.raw))),
        float(len(extract_terms(mld))),
        float(alexa.rank(url.rdn)),
    ]


def _full_vector(url: ParsedUrl, alexa: AlexaRanking) -> list[float]:
    """All nine Table IV features for a user-visible URL."""
    free_url_dots = url.subdomains.count(".") + (1 if url.subdomains else 0)
    free_url_dots += url.path.count(".") + url.query.count(".")
    return [
        1.0 if url.uses_https else 0.0,
        float(free_url_dots),
        *_stat_vector(url, alexa),
    ]


def _set_statistics(urls: list[ParsedUrl], alexa: AlexaRanking) -> list[float]:
    """https ratio + mean/median/std of features 3-9 over a link set."""
    if not urls:
        return [0.0] * (1 + len(STAT_FEATURES) * 3)
    matrix = np.asarray([_stat_vector(url, alexa) for url in urls])
    https_ratio = float(np.mean([url.uses_https for url in urls]))
    out = [https_ratio]
    for column in range(matrix.shape[1]):
        values = matrix[:, column]
        out.extend([
            float(values.mean()),
            float(np.median(values)),
            float(values.std()),
        ])
    return out


def compute_flat(sources: DataSources, alexa: AlexaRanking) -> list[float]:
    """Ablation variant of f1 *without* the control partition.

    The paper's Section III-A conjecture is that grouping link features
    by internal/external (control) improves classification.  This
    variant pools all logged and HREF links into one set (9 + 9 + 22 =
    40 features), so the ablation benchmark can quantify what the
    partition buys.
    """
    features: list[float] = []
    features.extend(_full_vector(sources.starting, alexa))
    features.extend(_full_vector(sources.landing, alexa))
    all_links = sources.logged_links + sources.href_links
    features.extend(_set_statistics(all_links, alexa))
    return features


def flat_feature_names() -> list[str]:
    """Stable names for the 40 flat-f1 ablation features."""
    single = ("https", "freeurl_dots") + STAT_FEATURES
    names = [f"f1flat.start.{name}" for name in single]
    names += [f"f1flat.land.{name}" for name in single]
    names.append("f1flat.links.https_ratio")
    for stat_name in STAT_FEATURES:
        for agg in ("mean", "median", "std"):
            names.append(f"f1flat.links.{stat_name}.{agg}")
    return names


def feature_names() -> list[str]:
    """Stable names for the 106 f1 features."""
    single = ("https", "freeurl_dots") + STAT_FEATURES
    names = [f"f1.start.{name}" for name in single]
    names += [f"f1.land.{name}" for name in single]
    for set_name in LINK_SETS:
        names.append(f"f1.{set_name}.https_ratio")
        for stat_name in STAT_FEATURES:
            for agg in ("mean", "median", "std"):
                names.append(f"f1.{set_name}.{stat_name}.{agg}")
    return names
